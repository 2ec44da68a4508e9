//! The TiVoPC Offcodes and their offloading layout (paper §6.2–6.3).
//!
//! Table 1's components — GUI, Streamer, Decoder, Display, File,
//! Broadcast — implemented as HYDRA Offcodes with the ODF constraint
//! graph of Figure 8:
//!
//! * the network Streamer holds a **Gang** constraint to the disk
//!   Streamer ("we do not want packets to traverse the bus twice"),
//! * the Streamers hold a **Gang** constraint to the Decoder,
//! * the Decoder holds a **Pull** constraint to the Display (both on the
//!   GPU, which "may have specialized MPEG support on board"),
//! * the File Offcode is **Pulled** with the disk Streamer,
//! * the GUI keeps plain **Link** dependencies (control traffic only) and
//!   is the one component that stays in user space.
//!
//! Deploying `tivo.Gui` through the runtime therefore reproduces the
//! placement of Figure 8: Streamer→NIC, Streamer→disk, Decoder+Display→
//! GPU, File→disk, GUI→host.

use bytes::Bytes;
use hydra_core::call::{Call, Value};
use hydra_core::channel::ChannelId;
use hydra_core::error::RuntimeError;
use hydra_core::offcode::{Offcode, OffcodeCtx};
use hydra_core::runtime::Runtime;
use hydra_hw::cpu::Cycles;
use hydra_odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};

/// GUIDs of the TiVoPC components.
pub mod guids {
    use hydra_odf::odf::Guid;

    /// The user-interface component (host).
    pub const GUI: Guid = Guid(0x7100);
    /// The network-side Streamer.
    pub const STREAMER_NET: Guid = Guid(0x7101);
    /// The disk-side Streamer (same implementation, second instance).
    pub const STREAMER_DISK: Guid = Guid(0x7102);
    /// The MPEG Decoder.
    pub const DECODER: Guid = Guid(0x7103);
    /// The Display (framebuffer wrapper).
    pub const DISPLAY: Guid = Guid(0x7104);
    /// The File component.
    pub const FILE: Guid = Guid(0x7105);
    /// The server-side Broadcast component.
    pub const BROADCAST: Guid = Guid(0x7106);
}

fn class(id: u32, name: &str) -> DeviceClassSpec {
    DeviceClassSpec {
        id,
        name: name.into(),
        bus: None,
        mac: None,
        vendor: None,
    }
}

fn import(guid: Guid, bind_name: &str, constraint: ConstraintKind) -> Import {
    Import {
        file: format!("/offcodes/{bind_name}.odf"),
        bind_name: bind_name.into(),
        guid,
        constraint,
        priority: 0,
    }
}

/// The ODFs of the full TiVoPC client application, Figure 8's graph.
pub fn tivo_client_odfs() -> Vec<OdfDocument> {
    let gui = OdfDocument::new("tivo.Gui", guids::GUI)
        .with_import(import(
            guids::STREAMER_NET,
            "tivo.Streamer.Net",
            ConstraintKind::Link,
        ))
        .with_import(import(
            guids::STREAMER_DISK,
            "tivo.Streamer.Disk",
            ConstraintKind::Link,
        ));
    let streamer_net = OdfDocument::new("tivo.Streamer.Net", guids::STREAMER_NET)
        .with_target(class(class_ids::NETWORK, "Network Device"))
        .with_import(import(
            guids::STREAMER_DISK,
            "tivo.Streamer.Disk",
            ConstraintKind::Gang,
        ))
        .with_import(import(guids::DECODER, "tivo.Decoder", ConstraintKind::Gang));
    let streamer_disk = OdfDocument::new("tivo.Streamer.Disk", guids::STREAMER_DISK)
        .with_target(class(class_ids::STORAGE, "Smart Disk"))
        .with_import(import(guids::DECODER, "tivo.Decoder", ConstraintKind::Gang))
        .with_import(import(guids::FILE, "tivo.File", ConstraintKind::Pull));
    let decoder = OdfDocument::new("tivo.Decoder", guids::DECODER)
        .with_target(class(class_ids::GPU, "GPU"))
        .with_target(class(class_ids::NETWORK, "Network Device"))
        .with_import(import(guids::DISPLAY, "tivo.Display", ConstraintKind::Pull));
    let display =
        OdfDocument::new("tivo.Display", guids::DISPLAY).with_target(class(class_ids::GPU, "GPU"));
    let file = OdfDocument::new("tivo.File", guids::FILE)
        .with_target(class(class_ids::STORAGE, "Smart Disk"));
    vec![gui, streamer_net, streamer_disk, decoder, display, file]
}

/// The ODFs of the offloaded video server (§6.4 implementation 3): a
/// Broadcast Offcode and a File Offcode on the networking device.
pub fn tivo_server_odfs() -> Vec<OdfDocument> {
    let broadcast = OdfDocument::new("tivo.Broadcast", guids::BROADCAST)
        .with_target(class(class_ids::NETWORK, "Network Device"))
        .with_import(import(guids::FILE, "tivo.File", ConstraintKind::Pull));
    let file = OdfDocument::new("tivo.File", guids::FILE)
        .with_target(class(class_ids::NETWORK, "Network Device"))
        .with_target(class(class_ids::STORAGE, "Smart Disk"));
    vec![broadcast, file]
}

/// A generic TiVo component: counts the traffic it handles and charges
/// per-byte work; concrete behaviour (decode costs, file I/O) is modelled
/// by the timed scenarios in [`crate::server`] / [`crate::client`] — this
/// component layer exists to drive the *deployment* machinery.
#[derive(Debug)]
pub struct TivoComponent {
    guid: Guid,
    name: String,
    per_byte: Cycles,
    /// Bytes pushed through `handle_call`.
    pub bytes_handled: u64,
    /// Calls served.
    pub calls: u64,
    /// Downstream channels this component forwards data onto, installed
    /// at runtime through `wire` control calls (delivered over the
    /// OOB channel in a real deployment — §3.2: "The OOB-channel is
    /// usually used to notify the Offcode regarding … availability of
    /// other channels").
    forward: Vec<(ChannelId, Guid)>,
}

impl TivoComponent {
    /// Creates a component with the given identity and per-byte cost.
    pub fn new(guid: Guid, name: &str, per_byte: Cycles) -> Self {
        TivoComponent {
            guid,
            name: name.to_owned(),
            per_byte,
            bytes_handled: 0,
            calls: 0,
            forward: Vec::new(),
        }
    }

    fn boxed(guid: Guid, name: &str, per_byte: u64) -> Box<dyn Offcode> {
        Box::new(TivoComponent::new(guid, name, Cycles::new(per_byte)))
    }
}

impl Offcode for TivoComponent {
    fn guid(&self) -> Guid {
        self.guid
    }

    fn bind_name(&self) -> &str {
        &self.name
    }

    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        self.calls += 1;
        let bytes = call
            .args
            .iter()
            .filter_map(Value::as_bytes)
            .map(Bytes::len)
            .sum::<usize>();
        self.bytes_handled += bytes as u64;
        ctx.charge(self.per_byte * bytes as u64 + Cycles::new(500));
        match call.operation.as_str() {
            // Control plane: install a downstream channel. Arguments are
            // the channel id and the target interface GUID.
            "wire" => {
                let (Some(chan), Some(target)) = (
                    call.args.first().and_then(Value::as_u64),
                    call.args.get(1).and_then(Value::as_u64),
                ) else {
                    return Err(RuntimeError::Rejected(
                        "wire needs (channel, target guid)".into(),
                    ));
                };
                self.forward.push((ChannelId(chan as u32), Guid(target)));
                Ok(Value::Unit)
            }
            // Data plane: count, charge, and forward payloads downstream.
            "push" | "store" | "decode" | "show" | "read" | "write" | "control" => {
                for (chan, target) in &self.forward {
                    for arg in &call.args {
                        if let Value::Bytes(b) = arg {
                            let fwd = Call::new(*target, "push").with_arg(Value::Bytes(b.clone()));
                            ctx.send_call(*chan, &fwd);
                        }
                    }
                }
                Ok(Value::U64(self.bytes_handled))
            }
            other => Err(RuntimeError::UnknownOperation(other.to_owned())),
        }
    }
}

/// Registers every TiVoPC client component in a runtime's depot.
///
/// # Errors
///
/// Propagates depot registration failures (duplicate GUIDs).
pub fn register_tivo_client(rt: &mut Runtime) -> Result<(), RuntimeError> {
    for odf in tivo_client_odfs() {
        let guid = odf.guid;
        let name = odf.bind_name.clone();
        rt.register_offcode(odf, move || TivoComponent::boxed(guid, &name, 2))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
    use hydra_core::runtime::RuntimeConfig;
    use hydra_sim::time::SimTime;

    fn full_machine() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic()); // dev1
        reg.install(DeviceDescriptor::smart_disk()); // dev2
        reg.install(DeviceDescriptor::gpu()); // dev3
        reg
    }

    #[test]
    fn figure_8_layout_is_reproduced() {
        let mut rt = Runtime::new(full_machine(), RuntimeConfig::default());
        register_tivo_client(&mut rt).unwrap();
        rt.create_offcode(guids::GUI, SimTime::ZERO).unwrap();

        let dev = |g| rt.device_of(rt.get_offcode(g).unwrap()).unwrap();
        assert_eq!(dev(guids::GUI), DeviceId::HOST, "GUI stays in user space");
        assert_eq!(dev(guids::STREAMER_NET), DeviceId(1), "Streamer on NIC");
        assert_eq!(dev(guids::STREAMER_DISK), DeviceId(2), "Streamer on disk");
        assert_eq!(dev(guids::DECODER), DeviceId(3), "Decoder on GPU");
        assert_eq!(dev(guids::DISPLAY), DeviceId(3), "Display pulled to GPU");
        assert_eq!(dev(guids::FILE), DeviceId(2), "File pulled to disk");
    }

    #[test]
    fn without_gpu_gang_pulls_pipeline_back_to_host() {
        // Remove the GPU: the Decoder can fall back to the NIC (its second
        // device class), so the gang can still be satisfied.
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic());
        reg.install(DeviceDescriptor::smart_disk());
        // The static verifier flags the GPU-less machine up front (HV012:
        // the Decoder–Display Pull has no common device); disable it to
        // exercise the solver's host-fallback resolution of that Pull.
        let config = RuntimeConfig {
            verify_deployments: false,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(reg, config);
        register_tivo_client(&mut rt).unwrap();
        rt.create_offcode(guids::GUI, SimTime::ZERO).unwrap();
        let dev = |g| rt.device_of(rt.get_offcode(g).unwrap()).unwrap();
        // Decoder lands on the NIC; Display must be pulled along (its only
        // non-host class is GPU, so both end up wherever feasible).
        let d = dev(guids::DECODER);
        assert_eq!(dev(guids::DISPLAY), d, "Pull keeps them together");
    }

    #[test]
    fn components_count_traffic() {
        let mut rt = Runtime::new(full_machine(), RuntimeConfig::default());
        register_tivo_client(&mut rt).unwrap();
        rt.create_offcode(guids::GUI, SimTime::ZERO).unwrap();
        let dec = rt.get_offcode(guids::DECODER).unwrap();
        let call = Call::new(guids::DECODER, "decode")
            .with_arg(Value::Bytes(Bytes::from_static(&[0u8; 1024])));
        let out = rt.invoke(dec, &call, SimTime::ZERO).unwrap();
        assert_eq!(out, Value::U64(1024));
        // Work booked on the GPU, not the host.
        assert!(rt.device_work(DeviceId(3)).get() > 0);
        assert_eq!(rt.device_work(DeviceId::HOST).get(), 0);
    }

    #[test]
    fn unknown_operation_rejected() {
        let mut rt = Runtime::new(full_machine(), RuntimeConfig::default());
        register_tivo_client(&mut rt).unwrap();
        rt.create_offcode(guids::GUI, SimTime::ZERO).unwrap();
        let dec = rt.get_offcode(guids::DECODER).unwrap();
        assert!(matches!(
            rt.invoke(dec, &Call::new(guids::DECODER, "explode"), SimTime::ZERO),
            Err(RuntimeError::UnknownOperation(_))
        ));
    }

    #[test]
    fn server_odfs_colocate_broadcast_and_file() {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic());
        let mut rt = Runtime::new(reg, RuntimeConfig::default());
        for odf in tivo_server_odfs() {
            let guid = odf.guid;
            let name = odf.bind_name.clone();
            rt.register_offcode(odf, move || TivoComponent::boxed(guid, &name, 1))
                .unwrap();
        }
        rt.create_offcode(guids::BROADCAST, SimTime::ZERO).unwrap();
        let b = rt
            .device_of(rt.get_offcode(guids::BROADCAST).unwrap())
            .unwrap();
        let f = rt.device_of(rt.get_offcode(guids::FILE).unwrap()).unwrap();
        assert_eq!(b, DeviceId(1));
        assert_eq!(f, b, "Pull keeps File with Broadcast on the NIC");
    }

    #[test]
    fn figure_2_dataflow_through_wired_channels() {
        // Reproduce Figure 2's flow with live Call dispatch: a packet
        // enters the NIC Streamer, which forwards it over zero-copy
        // channels to the Decoder (GPU) and the disk Streamer; the
        // Decoder forwards decoded data to the Display (same device).
        use hydra_core::channel::ChannelConfig;
        let mut rt = Runtime::new(full_machine(), RuntimeConfig::default());
        register_tivo_client(&mut rt).unwrap();
        rt.create_offcode(guids::GUI, SimTime::ZERO).unwrap();
        let id = |g| rt.get_offcode(g).unwrap();
        let (net, dec, dis, dsk) = (
            id(guids::STREAMER_NET),
            id(guids::DECODER),
            id(guids::DISPLAY),
            id(guids::STREAMER_DISK),
        );
        // Channels follow the placement: NIC->GPU, NIC->disk, GPU->GPU.
        let (dev_dec, dev_dsk, dev_dis) = (
            rt.device_of(dec).unwrap(),
            rt.device_of(dsk).unwrap(),
            rt.device_of(dis).unwrap(),
        );
        let exec = rt.executive_mut();
        let to_dec = exec
            .create_channel(ChannelConfig::figure3(dev_dec))
            .unwrap();
        let to_disk = exec
            .create_channel(ChannelConfig::figure3(dev_dsk))
            .unwrap();
        let to_dis = exec
            .create_channel(ChannelConfig::figure3(dev_dis))
            .unwrap();
        rt.connect_offcode(to_dec, dec).unwrap();
        rt.connect_offcode(to_disk, dsk).unwrap();
        rt.connect_offcode(to_dis, dis).unwrap();

        // Wire the graph via control calls (OOB channel in a real system).
        let wire = |rt: &mut Runtime, target, chan: ChannelId, peer: Guid| {
            let call = Call::new(Guid(0), "wire")
                .with_arg(Value::U64(u64::from(chan.0)))
                .with_arg(Value::U64(peer.0));
            rt.invoke(target, &call, SimTime::ZERO).unwrap();
        };
        wire(&mut rt, net, to_dec, guids::DECODER);
        wire(&mut rt, net, to_disk, guids::STREAMER_DISK);
        wire(&mut rt, dec, to_dis, guids::DISPLAY);

        // Push 10 packets into the NIC Streamer and pump to quiescence.
        let mut dispatched = 0;
        for i in 0..10u64 {
            let pkt = Call::new(guids::STREAMER_NET, "push")
                .with_arg(Value::Bytes(Bytes::from(vec![i as u8; 1024])));
            rt.invoke(net, &pkt, SimTime::from_millis(i)).unwrap();
            // Advance far enough for all channel deliveries.
            dispatched += rt.pump(SimTime::from_millis(i + 100)).len();
        }
        // One final pump: the last decoder->display forward was sent
        // *during* the previous pump and delivers slightly later.
        dispatched += rt.pump(SimTime::from_secs(1)).len();
        assert_eq!(dispatched, 30, "decoder + disk + display per packet");
        // Every device on the path did work; the host did none.
        let dev_of = |oc| rt.device_of(oc).unwrap();
        assert!(rt.device_work(dev_of(net)).get() > 0);
        assert!(rt.device_work(dev_of(dec)).get() > 0);
        assert!(rt.device_work(dev_of(dsk)).get() > 0);
        assert_eq!(rt.device_work(DeviceId::HOST).get(), 0);
    }

    #[test]
    fn wire_rejects_malformed_control_calls() {
        let mut rt = Runtime::new(full_machine(), RuntimeConfig::default());
        register_tivo_client(&mut rt).unwrap();
        rt.create_offcode(guids::GUI, SimTime::ZERO).unwrap();
        let net = rt.get_offcode(guids::STREAMER_NET).unwrap();
        let bad = Call::new(Guid(0), "wire").with_arg(Value::Str("nope".into()));
        assert!(matches!(
            rt.invoke(net, &bad, SimTime::ZERO),
            Err(RuntimeError::Rejected(_))
        ));
    }

    #[test]
    fn odfs_round_trip_through_xml() {
        for odf in tivo_client_odfs().into_iter().chain(tivo_server_odfs()) {
            let re = OdfDocument::parse(&odf.to_xml()).unwrap();
            assert_eq!(re, odf);
        }
    }
}
