//! Unit tests of the runtime: deployment, dispatch and teardown here,
//! `create_offcode`'s reuse of the last certification in `gate`.

use hydra_hw::cpu::Cycles;
use hydra_link::loader::LoadStrategy;
use hydra_odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra_sim::time::SimTime;

use super::*;
use crate::call::{Call, Value};
use crate::channel::ChannelConfig;
use crate::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use crate::error::RuntimeError;
use crate::offcode::{Offcode, OffcodeCtx};

#[derive(Debug)]
struct Counter {
    guid: Guid,
    name: String,
    initialized: bool,
    started: bool,
    count: u64,
}

impl Counter {
    fn boxed(guid: u64, name: &str) -> Box<dyn Offcode> {
        Box::new(Counter {
            guid: Guid(guid),
            name: name.to_owned(),
            initialized: false,
            started: false,
            count: 0,
        })
    }
}

impl Offcode for Counter {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn initialize(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        self.initialized = true;
        Ok(())
    }
    fn start(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        if !self.initialized {
            return Err(RuntimeError::BadState("start before initialize"));
        }
        self.started = true;
        Ok(())
    }
    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        ctx.charge(Cycles::new(1_000));
        match call.operation.as_str() {
            "incr" => {
                self.count += 1;
                Ok(Value::U64(self.count))
            }
            "get" => Ok(Value::U64(self.count)),
            other => Err(RuntimeError::UnknownOperation(other.to_owned())),
        }
    }
}

fn full_registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    reg
}

fn runtime() -> Runtime {
    Runtime::new(full_registry(), RuntimeConfig::default())
}

#[test]
fn deploys_single_offcode_to_matching_device() {
    let mut rt = runtime();
    let odf = OdfDocument::new("t.Checksum", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK));
    rt.register_offcode(odf, || Counter::boxed(1, "t.Checksum"))
        .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    assert_eq!(rt.device_of(id), Some(DeviceId(1)));
    let deps = rt.deployments();
    assert_eq!(deps.len(), 1);
    assert_eq!(deps[0].state, Lifecycle::Started);
}

#[test]
fn create_is_idempotent_per_guid() {
    let mut rt = runtime();
    rt.register_offcode(OdfDocument::new("a", Guid(1)), || Counter::boxed(1, "a"))
        .unwrap();
    let id1 = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let id2 = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    assert_eq!(id1, id2);
    assert_eq!(rt.deployments().len(), 1);
}

#[test]
fn deploys_import_closure_with_constraints() {
    let mut rt = runtime();
    let streamer = OdfDocument::new("t.Streamer", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_import(Import {
            file: String::new(),
            bind_name: "t.Decoder".into(),
            guid: Guid(2),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
    let decoder = OdfDocument::new("t.Decoder", Guid(2))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU))
        .with_import(Import {
            file: String::new(),
            bind_name: "t.Display".into(),
            guid: Guid(3),
            constraint: ConstraintKind::Pull,
            priority: 0,
        });
    let display = OdfDocument::new("t.Display", Guid(3))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU));
    rt.register_offcode(streamer, || Counter::boxed(1, "t.Streamer"))
        .unwrap();
    rt.register_offcode(decoder, || Counter::boxed(2, "t.Decoder"))
        .unwrap();
    rt.register_offcode(display, || Counter::boxed(3, "t.Display"))
        .unwrap();

    let root = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    assert_eq!(rt.deployments().len(), 3);
    assert_eq!(rt.device_of(root), Some(DeviceId(1))); // NIC
    let dec = rt.get_offcode(Guid(2)).unwrap();
    let dis = rt.get_offcode(Guid(3)).unwrap();
    // Pull: decoder and display together on the GPU.
    assert_eq!(rt.device_of(dec), Some(DeviceId(3)));
    assert_eq!(rt.device_of(dis), Some(DeviceId(3)));
}

#[test]
fn missing_import_fails_cleanly() {
    let mut rt = runtime();
    let a = OdfDocument::new("a", Guid(1)).with_import(Import {
        file: String::new(),
        bind_name: "ghost".into(),
        guid: Guid(99),
        constraint: ConstraintKind::Link,
        priority: 0,
    });
    rt.register_offcode(a, || Counter::boxed(1, "a")).unwrap();
    assert_eq!(
        rt.create_offcode(Guid(1), SimTime::ZERO),
        Err(RuntimeError::NotInDepot(Guid(99)))
    );
    assert!(rt.deployments().is_empty());
}

#[test]
fn oom_falls_back_to_host() {
    let mut reg = DeviceRegistry::new();
    let mut tiny_nic = DeviceDescriptor::programmable_nic();
    tiny_nic.offcode_memory = 64; // cannot hold anything
    reg.install(tiny_nic);
    // Pre-flight verification would reject this deployment up front
    // (HV020); switch it off to exercise the load-time fallback path.
    let config = RuntimeConfig {
        verify_deployments: false,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(reg, config);
    let odf = OdfDocument::new("t.Big", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK));
    rt.register_offcode(odf, || Counter::boxed(1, "t.Big"))
        .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    assert_eq!(rt.device_of(id), Some(DeviceId::HOST));
}

#[test]
fn verifier_gate_rejects_overcommitted_deployment() {
    let mut reg = DeviceRegistry::new();
    let mut tiny_nic = DeviceDescriptor::programmable_nic();
    tiny_nic.offcode_memory = 64;
    reg.install(tiny_nic);
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    let odf = OdfDocument::new("t.Big", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK));
    rt.register_offcode(odf, || Counter::boxed(1, "t.Big"))
        .unwrap();
    match rt.create_offcode(Guid(1), SimTime::ZERO) {
        Err(RuntimeError::Verification(msg)) => assert!(msg.contains("HV020"), "{msg}"),
        other => panic!("expected verification rejection, got {other:?}"),
    }
    assert!(rt.deployments().is_empty());
    let snap = rt.metrics_snapshot();
    assert_eq!(snap.counter("verify.errors", ""), Some(1));
    assert!(snap.counter("verify.diagnostics", "capacity").unwrap() >= 1);
}

#[test]
fn verify_deployment_reports_without_deploying() {
    let mut rt = runtime();
    let a = OdfDocument::new("a", Guid(1))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_import(Import {
            file: String::new(),
            bind_name: "b".into(),
            guid: Guid(2),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
    let b = OdfDocument::new("b", Guid(2))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_import(Import {
            file: String::new(),
            bind_name: "a".into(),
            guid: Guid(1),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
    rt.register_offcode(a, || Counter::boxed(1, "a")).unwrap();
    rt.register_offcode(b, || Counter::boxed(1, "b")).unwrap();
    let report = rt
        .certify_deployment(Guid(1), SimTime::ZERO)
        .unwrap()
        .report;
    assert!(report.has_errors());
    assert!(report
        .errors()
        .any(|d| d.code == hydra_verify::HvCode::GangCycle));
    // Nothing was deployed, but the pass metrics were recorded.
    assert!(rt.deployments().is_empty());
    let snap = rt.metrics_snapshot();
    assert!(snap.counter_total("verify.pass_work") > 0);
    assert_eq!(snap.spans_named("deploy.verify").len(), 1);
    // The gate acts on the same report.
    assert!(matches!(
        rt.create_offcode(Guid(1), SimTime::ZERO),
        Err(RuntimeError::Verification(_))
    ));
}

#[test]
fn clean_deployment_passes_verifier_gate() {
    let mut rt = runtime();
    rt.register_offcode(
        OdfDocument::new("ok", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "ok"),
    )
    .unwrap();
    let report = rt
        .certify_deployment(Guid(1), SimTime::ZERO)
        .unwrap()
        .report;
    assert!(!report.has_errors());
    assert!(rt.create_offcode(Guid(1), SimTime::ZERO).is_ok());
}

#[test]
fn invoke_routes_to_offcode_and_books_work() {
    let mut rt = runtime();
    rt.register_offcode(
        OdfDocument::new("c", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "c"),
    )
    .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let call = Call::new(Guid(1), "incr");
    assert_eq!(rt.invoke(id, &call, SimTime::ZERO).unwrap(), Value::U64(1));
    assert_eq!(rt.invoke(id, &call, SimTime::ZERO).unwrap(), Value::U64(2));
    assert_eq!(rt.device_work(DeviceId(1)), Cycles::new(2_000));
    assert!(matches!(
        rt.invoke(id, &Call::new(Guid(1), "nope"), SimTime::ZERO),
        Err(RuntimeError::UnknownOperation(_))
    ));
}

#[test]
fn channel_dispatch_via_pump() {
    let mut rt = runtime();
    rt.register_offcode(
        OdfDocument::new("c", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "c"),
    )
    .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(DeviceId(1)))
        .unwrap();
    rt.connect_offcode(chan, id).unwrap();
    let call = Call::new(Guid(1), "incr").with_return_id(42);
    let deliver_at = rt.send_call(chan, &call, SimTime::ZERO).unwrap();
    // Nothing visible before delivery.
    assert!(rt.pump(SimTime::ZERO).is_empty());
    let results = rt.pump(deliver_at);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].handler, id);
    assert_eq!(results[0].return_id, 42);
    assert_eq!(results[0].result, Ok(Value::U64(1)));
}

#[test]
fn batched_calls_dispatch_via_pump() {
    let mut rt = runtime();
    rt.register_offcode(
        OdfDocument::new("c", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "c"),
    )
    .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(DeviceId(1)))
        .unwrap();
    rt.connect_offcode(chan, id).unwrap();
    let calls: Vec<Call> = (0..4)
        .map(|i| Call::new(Guid(1), "incr").with_return_id(i))
        .collect();
    let outcome = rt.send_call_batch(chan, &calls, SimTime::ZERO).unwrap();
    assert_eq!(outcome.accepted(), 4);
    assert_eq!(outcome.rejected + outcome.dropped, 0);
    let results = rt.pump(outcome.complete_at);
    assert_eq!(results.len(), 4);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.return_id, i as u64);
        assert_eq!(r.result, Ok(Value::U64(i as u64 + 1)));
    }
}

#[test]
fn teardown_releases_resources_and_instances() {
    let mut rt = runtime();
    rt.register_offcode(
        OdfDocument::new("c", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "c"),
    )
    .unwrap();
    let nic = DeviceId(1);
    let (free_before, channels_before) = (rt.free_memory(nic), rt.executive().len());
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let reserved = rt.deployments()[0].plan.reserved_bytes;
    assert_eq!(rt.free_memory(nic), free_before - reserved);
    assert!(rt.teardown(id));
    assert!(!rt.teardown(id));
    assert_eq!(rt.free_memory(nic), free_before, "image memory returned");
    assert_eq!(
        rt.executive().len(),
        channels_before,
        "OOB channel destroyed"
    );
    assert_eq!(rt.get_offcode(Guid(1)), None);
    assert!(matches!(
        rt.invoke(id, &Call::new(Guid(1), "incr"), SimTime::ZERO),
        Err(RuntimeError::NoSuchInstance(_))
    ));
}

#[test]
fn device_side_loading_strategy_works() {
    let mut rt = Runtime::new(
        full_registry(),
        RuntimeConfig {
            load_strategy: LoadStrategy::DeviceSideLink,
            ..RuntimeConfig::default()
        },
    );
    rt.register_offcode(
        OdfDocument::new("c", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "c"),
    )
    .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let dep = rt.deployments().into_iter().find(|d| d.id == id).unwrap();
    assert_eq!(dep.plan.strategy, LoadStrategy::DeviceSideLink);
}

#[test]
fn trace_export_spans_devices_and_respects_flight_capacity() {
    let mut rt = Runtime::new(full_registry(), RuntimeConfig::default());
    rt.recorder().set_flight_capacity(8);
    assert_eq!(rt.recorder().flight_capacity(), 8);
    rt.register_offcode(
        OdfDocument::new("c", Guid(1)).with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(1, "c"),
    )
    .unwrap();
    let id = rt.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let chan = rt
        .executive_mut()
        .create_channel(ChannelConfig::figure3(DeviceId(1)))
        .unwrap();
    rt.connect_offcode(chan, id).unwrap();
    let call = Call::new(Guid(1), "incr");
    let deliver_at = rt.send_call(chan, &call, SimTime::ZERO).unwrap();
    rt.pump(deliver_at);
    let json = rt.trace_export();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"name\":\"channel.recv\""));
    // Host (pid 0) and the NIC (pid 1) both appear as processes.
    assert!(json.contains("\"args\":{\"name\":\"host\"}"));
    assert!(json.contains("\"args\":{\"name\":\"device-1\"}"));
    assert_eq!(json, rt.trace_export(), "export is stable");
}

#[test]
fn duplicate_registration_rejected() {
    let mut rt = runtime();
    rt.register_offcode(OdfDocument::new("a", Guid(1)), || Counter::boxed(1, "a"))
        .unwrap();
    assert!(rt
        .register_offcode(OdfDocument::new("b", Guid(1)), || Counter::boxed(1, "b"))
        .is_err());
}

/// `create_offcode`'s gate reusing the last certification.
mod gate;
