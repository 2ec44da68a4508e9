//! Quickstart: the paper's Figure 3 flow, end to end.
//!
//! Build a machine with a programmable NIC, register a Checksum Offcode
//! with its ODF, deploy it (`CreateOffcode`), set up a reliable zero-copy
//! unicast channel, install a handler, and invoke the Offcode through a
//! typed proxy — both synchronously and over the channel.
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use hydra::core::call::{Call, Value};
use hydra::core::channel::ChannelConfig;
use hydra::core::device::{DeviceDescriptor, DeviceRegistry};
use hydra::core::error::RuntimeError;
use hydra::core::offcode::{Offcode, OffcodeCtx};
use hydra::core::proxy::Proxy;
use hydra::core::runtime::{Runtime, RuntimeConfig};
use hydra::hw::cpu::Cycles;
use hydra::odf::odf::{class_ids, DeviceClassSpec, Guid, OdfDocument};
use hydra::odf::wsdl::{InterfaceSpec, OperationSpec, TypeTag};
use hydra::sim::time::SimTime;

const CHECKSUM_GUID: Guid = Guid(0x6060843); // the GUID from Figure 4

/// A Fletcher-32 checksum Offcode — the paper's running example.
#[derive(Debug)]
struct ChecksumOffcode;

impl Offcode for ChecksumOffcode {
    fn guid(&self) -> Guid {
        CHECKSUM_GUID
    }

    fn bind_name(&self) -> &'static str {
        "hydra.net.utils.Checksum"
    }

    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        match call.operation.as_str() {
            "checksum" => {
                let data = call.args[0]
                    .as_bytes()
                    .ok_or_else(|| RuntimeError::Rejected("expected bytes".into()))?;
                // Charge ~1 cycle per byte of NIC processor time.
                ctx.charge(Cycles::new(data.len() as u64));
                let (mut a, mut b) = (0u32, 0u32);
                for chunk in data.chunks(2) {
                    let v = chunk.iter().fold(0u32, |acc, &x| (acc << 8) | u32::from(x));
                    a = (a + v) % 65535;
                    b = (b + a) % 65535;
                }
                Ok(Value::U32((b << 16) | a))
            }
            other => Err(RuntimeError::UnknownOperation(other.to_owned())),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The machine: host + programmable NIC. ------------------------
    let mut devices = DeviceRegistry::new();
    let nic = devices.install(DeviceDescriptor::programmable_nic());
    let mut rt = Runtime::new(devices, RuntimeConfig::default());

    // --- The Offcode's manifesto (ODF), as in Figure 4. ----------------
    let odf = OdfDocument::new("hydra.net.utils.Checksum", CHECKSUM_GUID)
        .with_interface("/offcodes/checksum.wsdl")
        .with_target(DeviceClassSpec {
            id: class_ids::NETWORK,
            name: "Network Device".into(),
            bus: Some("pci".into()),
            mac: Some("ethernet".into()),
            vendor: Some("3COM".into()),
        });
    println!("--- ODF ---\n{}", odf.to_xml());
    rt.register_offcode(odf, || Box::new(ChecksumOffcode))?;

    // --- CreateOffcode: the whole deployment pipeline runs here. -------
    let id = rt.create_offcode(CHECKSUM_GUID, SimTime::ZERO)?;
    println!(
        "deployed hydra.net.utils.Checksum to {}",
        rt.device_of(id).expect("just deployed")
    );
    assert_eq!(rt.device_of(id), Some(nic));

    // --- Figure 3: create a reliable zero-copy channel and connect. ----
    let channel = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(nic))?;
    rt.connect_offcode(channel, id)?;
    println!(
        "channel up via provider '{}'",
        rt.executive_mut()
            .get(channel)
            .expect("channel exists")
            .provider_name()
    );

    // --- Transparent invocation through a typed proxy. -----------------
    let spec = InterfaceSpec::new("IChecksum", CHECKSUM_GUID).with_operation(OperationSpec {
        name: "checksum".into(),
        inputs: vec![("data".into(), TypeTag::Bytes)],
        output: TypeTag::U32,
    });
    let mut proxy = Proxy::new(spec, id);
    let call = proxy.call(
        "checksum",
        vec![Value::Bytes(Bytes::from_static(
            b"tapping into the fountain of cpus",
        ))],
    )?;

    // Send the Call over the channel and pump the runtime.
    let deliver_at = rt.send_call(channel, &call, SimTime::ZERO)?;
    let results = rt.pump(deliver_at);
    for r in &results {
        println!("channel dispatch -> {:?}", r.result);
    }

    // Or invoke synchronously (what the proxy collapses to on-device).
    let direct = rt.invoke(id, &call, deliver_at)?;
    println!("direct invoke  -> {direct}");
    assert_eq!(results[0].result.as_ref().ok(), Some(&direct));
    println!("NIC cycles booked: {}", rt.device_work(nic));
    Ok(())
}
