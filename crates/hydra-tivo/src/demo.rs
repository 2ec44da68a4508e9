//! The shared observability demo deployment.
//!
//! One deterministic scenario used by the `repro` binary's `metrics` and
//! `trace` selectors, the budget-gate test, and CI: a three-Offcode
//! TiVo-style pipeline (streamer → decoder → display) deployed on the
//! full testbed, a Figure-3 channel pushing calls at the streamer, and
//! one message explicitly walked through the device datapath (NIC
//! firmware → peer-to-peer bus forward → GPU hardware decode) so its
//! causal chain spans three trace pids: host, NIC, GPU.
//!
//! Because everything here is driven by sim time and the deterministic
//! models, two invocations produce byte-identical snapshots, Chrome
//! traces, and budget-gate inputs.

use hydra_core::call::{Call, Value};
use hydra_core::channel::ChannelConfig;
use hydra_core::device::{DeviceDescriptor, DeviceRegistry};
use hydra_core::error::RuntimeError;
use hydra_core::offcode::{Offcode, OffcodeCtx};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_hw::bus::{Bus, BusSpec};
use hydra_media::codec::{CodecConfig, Encoder, GopConfig};
use hydra_media::frame::SyntheticVideo;
use hydra_odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra_sim::time::SimTime;

use hydra_devices::gpu::GpuModel;
use hydra_devices::nic::NicModel;

/// A do-nothing Offcode for the demo deployment.
#[derive(Debug)]
struct DemoOffcode {
    guid: Guid,
    name: &'static str,
}

impl Offcode for DemoOffcode {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        self.name
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, _call: &Call) -> Result<Value, RuntimeError> {
        Ok(Value::Unit)
    }
}

/// The demo application's three ODF manifests (streamer → decoder →
/// display), root first. Shared between [`demo_deployment`] and the
/// `repro -- lint` deployment lint.
pub fn demo_odfs() -> Vec<OdfDocument> {
    let streamer = OdfDocument::new("tivo.Streamer", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_import(Import {
            file: String::new(),
            bind_name: "tivo.Decoder".into(),
            guid: Guid(2),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
    let decoder = OdfDocument::new("tivo.Decoder", Guid(2))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU))
        .with_import(Import {
            file: String::new(),
            bind_name: "tivo.Display".into(),
            guid: Guid(3),
            constraint: ConstraintKind::Pull,
            priority: 0,
        });
    let display = OdfDocument::new("tivo.Display", Guid(3))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU));
    vec![streamer, decoder, display]
}

/// Builds, deploys and exercises the demo application, returning the
/// runtime with its recorder fully populated.
///
/// The scenario: deploy the three-Offcode closure, pump four calls
/// through the streamer's Figure-3 channel, then take a fifth message
/// off the channel by hand and walk it through the traced device
/// datapath — NIC receive, bus forward, GPU decode — so at least one
/// causal chain crosses host → NIC → GPU.
pub fn demo_deployment() -> Runtime {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    let mut rt = Runtime::new(reg, RuntimeConfig::default());

    for odf in demo_odfs() {
        let guid = odf.guid;
        let name: &'static str = match guid {
            Guid(1) => "tivo.Streamer",
            Guid(2) => "tivo.Decoder",
            _ => "tivo.Display",
        };
        rt.register_offcode(odf, move || Box::new(DemoOffcode { guid, name }))
            .expect("fresh depot");
    }

    let root = rt
        .create_offcode(Guid(1), SimTime::ZERO)
        .expect("demo app deploys");
    let device = rt.device_of(root).expect("deployed");
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(device))
        .expect("figure-3 channel");
    rt.connect_offcode(chan, root).expect("connect streamer");
    let mut t = SimTime::ZERO;
    for i in 0..4u64 {
        let call = Call::new(Guid(1), "frame").with_return_id(i);
        t = rt.send_call(chan, &call, t).expect("channel accepts");
    }
    rt.pump(t);

    // One more message, received by hand so its TraceCtx can continue
    // through the device models: NIC firmware → bus forward → GPU decode.
    let recorder = rt.recorder().clone();
    let mut nic = NicModel::new_3c985b(7);
    nic.set_recorder(recorder.clone(), 1);
    let mut gpu = GpuModel::new();
    gpu.set_recorder(recorder, 3);
    let call = Call::new(Guid(1), "frame").with_return_id(99);
    let t2 = rt.send_call(chan, &call, t).expect("channel accepts");
    let msg = rt
        .executive_mut()
        .get_mut(chan)
        .expect("channel is live")
        .recv(t2, 0)
        .expect("message delivered");
    let bytes = msg.data.len();
    let (r, ctx) = nic.rx_process_traced(t2, bytes, msg.trace);
    let mut bus = Bus::new(BusSpec::pcie_x4());
    let (xfer, ctx) = nic.forward_to_peer_traced(r.end, &mut bus, bytes, ctx);
    let video = SyntheticVideo::new(64, 48);
    let frames = Encoder::new(CodecConfig {
        quantizer: 4,
        gop: GopConfig::ipp(),
    })
    .encode_sequence(&[video.frame(0)]);
    gpu.hw_decode_traced(xfer.end, &frames[0], ctx);
    rt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_is_deterministic() {
        let a = demo_deployment().metrics_snapshot();
        let b = demo_deployment().metrics_snapshot();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn demo_chain_spans_three_devices() {
        let rt = demo_deployment();
        let snap = rt.metrics_snapshot();
        // The hand-walked message: find the gpu.decode hop and follow its
        // trace back — it must include events on host (0), NIC (1), GPU (3).
        let decode = snap
            .events
            .iter()
            .find(|e| e.name == "gpu.decode")
            .expect("demo decodes on the GPU");
        let chain = snap.trace_events(decode.trace);
        assert!(chain.len() >= 5, "send, hop, recv, nic hops, gpu decode");
        let devices: std::collections::BTreeSet<u64> = chain.iter().map(|e| e.device).collect();
        assert!(devices.contains(&0) && devices.contains(&1) && devices.contains(&3));
        // Connected: every non-root event's parent is in the chain.
        for e in &chain {
            if let Some(p) = e.parent {
                assert!(chain.iter().any(|o| o.id == p), "parent {p} in chain");
            }
        }
    }
}
