//! The observability layer's core guarantee: two identical executions
//! produce byte-identical metrics snapshots.
//!
//! Nothing in `hydra-obs` touches the wall clock — spans are stamped with
//! simulation time and measured in modeled work units, and every snapshot
//! collection iterates `BTreeMap`s. These tests deploy the same
//! application twice (through the full `create_offcode` pipeline, channel
//! traffic included) and compare the JSON renderings bytewise.

use hydra::core::call::{Call, Value};
use hydra::core::channel::ChannelConfig;
use hydra::core::device::{DeviceDescriptor, DeviceRegistry};
use hydra::core::error::RuntimeError;
use hydra::core::offcode::{Offcode, OffcodeCtx};
use hydra::core::runtime::{Runtime, RuntimeConfig};
use hydra::odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra::sim::time::SimTime;

#[derive(Debug)]
struct Sink {
    guid: Guid,
    name: &'static str,
}

impl Offcode for Sink {
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

/// Deploys a three-Offcode app with Gang and Pull constraints, then
/// pushes traffic through a Figure-3 channel. Returns the runtime with
/// its populated recorder.
fn run_scenario() -> Runtime {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    let mut rt = Runtime::new(reg, RuntimeConfig::default());

    let a = OdfDocument::new("d.A", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_import(Import {
            file: String::new(),
            bind_name: "d.B".into(),
            guid: Guid(2),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
    let b = OdfDocument::new("d.B", Guid(2))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU))
        .with_import(Import {
            file: String::new(),
            bind_name: "d.C".into(),
            guid: Guid(3),
            constraint: ConstraintKind::Pull,
            priority: 0,
        });
    let c = OdfDocument::new("d.C", Guid(3)).with_target(DeviceClassSpec::numbered(class_ids::GPU));
    rt.register_offcode(a, || {
        Box::new(Sink {
            guid: Guid(1),
            name: "d.A",
        })
    })
    .unwrap();
    rt.register_offcode(b, || {
        Box::new(Sink {
            guid: Guid(2),
            name: "d.B",
        })
    })
    .unwrap();
    rt.register_offcode(c, || {
        Box::new(Sink {
            guid: Guid(3),
            name: "d.C",
        })
    })
    .unwrap();

    let root = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let device = rt.device_of(root).unwrap();
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(device))
        .unwrap();
    rt.connect_offcode(chan, root).unwrap();
    let mut t = SimTime::ZERO;
    for i in 0..8u64 {
        let call = Call::new(Guid(1), "tick").with_return_id(i);
        t = rt.send_call(chan, &call, t).unwrap();
    }
    rt.pump(t);
    rt
}

#[test]
fn identical_deployments_render_identical_snapshots() {
    let first = run_scenario().metrics_snapshot();
    let second = run_scenario().metrics_snapshot();
    assert_eq!(first, second, "snapshot structs must match");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "JSON renderings must be byte-identical"
    );
    assert_eq!(
        first.to_string(),
        second.to_string(),
        "Display renderings must be byte-identical"
    );
}

/// The acceptance shape of a populated snapshot: pipeline-stage spans
/// with work attributed, channel counters, and solver node counts.
#[test]
fn snapshot_reports_pipeline_channels_and_solver() {
    let snap = run_scenario().metrics_snapshot();

    for stage in [
        "deploy.closure",
        "deploy.layout",
        "deploy.solve",
        "deploy.link_load",
        "deploy.channels",
        "deploy.initialize",
        "deploy.start",
    ] {
        let spans = snap.spans_named(stage);
        assert_eq!(spans.len(), 1, "exactly one {stage} span");
        assert!(spans[0].work_units > 0, "{stage} must attribute work");
    }
    // Per-Offcode child spans under link/load.
    let parent = snap.spans_named("deploy.link_load")[0].seq;
    let children = snap.spans_named("deploy.offcode");
    assert_eq!(children.len(), 3, "one child span per deployed Offcode");
    assert!(children.iter().all(|s| s.parent == Some(parent)));

    // Channel traffic counters (8 explicit sends plus OOB bookkeeping).
    assert!(snap.counter_total("channel.sent") >= 8);
    assert!(snap.counter_total("channel.bytes") > 0);
    assert!(snap.counter_total("channel.provider_selected") >= 4);

    // Solver statistics.
    assert!(snap.counter("solver.nodes_explored", "ilp").unwrap() >= 1);
    let pruned = snap.counter("solver.bounds_pruned", "ilp").unwrap_or(0);
    assert!(pruned <= snap.counter("solver.nodes_explored", "ilp").unwrap());
    // The exact solver can never offload fewer Offcodes than greedy.
    assert!(
        snap.counter("solver.offloaded", "ilp").unwrap_or(0)
            >= snap.counter("solver.offloaded", "greedy").unwrap_or(0)
    );

    // Loader statistics.
    assert!(snap.counter("load.strategy", "host-side").unwrap_or(0) >= 3);
    assert!(snap.counter("link.relocations_applied", "").unwrap_or(0) > 0);
}

#[test]
fn chrome_trace_export_is_byte_identical_across_runs() {
    let first = run_scenario().trace_export();
    let second = run_scenario().trace_export();
    assert_eq!(first, second, "Chrome trace JSON must be byte-identical");
    // And so is the demo deployment the CI artifact is built from.
    let demo_a = hydra::tivo::demo::demo_deployment().trace_export();
    let demo_b = hydra::tivo::demo::demo_deployment().trace_export();
    assert_eq!(demo_a, demo_b);
}

/// The tentpole acceptance criterion: at least one message's events form
/// a connected send → provider-hop → recv chain spanning two devices, and
/// the exported JSON carries the flow events that stitch it together.
#[test]
fn trace_chains_connect_across_devices() {
    let rt = run_scenario();
    let snap = rt.metrics_snapshot();
    let recvs = snap.events_kind("recv");
    assert!(!recvs.is_empty(), "pumped messages were received");
    let chain = snap.trace_events(recvs[0].trace);
    assert_eq!(chain.len(), 3, "send, provider hop, recv");
    assert_eq!(chain[0].kind, "send");
    assert_eq!(chain[1].kind, "hop");
    assert_eq!(chain[2].kind, "recv");
    // Connected by parent ids...
    assert_eq!(chain[1].parent, Some(chain[0].id));
    assert_eq!(chain[2].parent, Some(chain[1].id));
    // ...monotone in sim time...
    assert!(chain[0].at_nanos <= chain[1].at_nanos);
    assert!(chain[1].at_nanos <= chain[2].at_nanos);
    // ...and spanning two devices: send on the host, the rest on-device.
    assert_eq!(chain[0].device, 0);
    assert_ne!(chain[1].device, 0);
    // The export stitches the chain with flow events.
    let json = rt.trace_export();
    assert!(json.contains("\"ph\":\"s\""));
    assert!(json.contains("\"ph\":\"f\""));
}

#[test]
fn flight_recorder_overflow_is_deterministic_and_accounted() {
    let run = |capacity: usize| {
        let mut rt = run_scenario();
        rt.recorder().set_flight_capacity(capacity);
        // Push more traffic than the shrunken ring can hold.
        let chan = rt
            .executive_mut()
            .create_channel(ChannelConfig::figure3(hydra::core::device::DeviceId(1)))
            .unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            let call = Call::new(Guid(9), "tick").with_return_id(i);
            t = rt.send_call(chan, &call, t).unwrap();
        }
        rt.metrics_snapshot()
    };
    let a = run(8);
    let b = run(8);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.events.len(), 8, "ring holds exactly its capacity");
    assert!(a.events_dropped > 0, "overflow is visible, not silent");
}
