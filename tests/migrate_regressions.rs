//! Regression tests for the migration/teardown fixes: a migration must
//! never lose the Offcode, capacity must be prechecked before the source
//! is destroyed, every post-teardown failure leg must recover on the
//! host, and tearing an instance down must close its endpoints on every
//! channel it is connected to — not just its own OOB channel.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use hydra::core::call::{Call, Value};
use hydra::core::channel::{
    Buffering, ChannelConfig, Reliability, RetryPolicy, SyncPolicy, Transport,
};
use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::error::{MigrateError, MigrateLeg, RuntimeError};
use hydra::core::offcode::{synthetic_object, Offcode, OffcodeCtx};
use hydra::core::runtime::{Runtime, RuntimeConfig};
use hydra::link::loader::{load_host_side, DeviceMemoryAllocator};
use hydra::link::object::HofObject;
use hydra::odf::odf::{class_ids, DeviceClassSpec, Guid, OdfDocument};
use hydra::sim::time::SimTime;
use proptest::prelude::*;

/// A snapshot-able counter whose restore/start legs can be made to fail a
/// programmed number of times (shared across instances via the factory).
#[derive(Debug)]
struct Counter {
    guid: Guid,
    name: String,
    count: u64,
    fail_restores: Rc<Cell<u32>>,
    fail_starts: Rc<Cell<u32>>,
}

impl Counter {
    fn boxed(guid: Guid, name: &str) -> Box<Counter> {
        Box::new(Counter {
            guid,
            name: name.to_owned(),
            count: 0,
            fail_restores: Rc::new(Cell::new(0)),
            fail_starts: Rc::new(Cell::new(0)),
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
    fn start(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        let left = self.fail_starts.get();
        if left > 0 {
            self.fail_starts.set(left - 1);
            return Err(RuntimeError::Rejected("injected start failure".into()));
        }
        Ok(())
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        match call.operation.as_str() {
            "get" => Ok(Value::U64(self.count)),
            _ => {
                self.count += 1;
                Ok(Value::U64(self.count))
            }
        }
    }
    fn snapshot(&self) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(&self.count.to_le_bytes()))
    }
    fn restore(&mut self, state: Bytes) -> Result<(), RuntimeError> {
        let left = self.fail_restores.get();
        if left > 0 {
            self.fail_restores.set(left - 1);
            return Err(RuntimeError::Rejected("injected restore failure".into()));
        }
        let raw: [u8; 8] = state
            .as_ref()
            .try_into()
            .map_err(|_| RuntimeError::Rejected("bad snapshot".into()))?;
        self.count = u64::from_le_bytes(raw);
        Ok(())
    }
}

/// Registers the counter; returns the shared failure knobs.
fn register_counter(rt: &mut Runtime) -> (Rc<Cell<u32>>, Rc<Cell<u32>>) {
    let fail_restores = Rc::new(Cell::new(0u32));
    let fail_starts = Rc::new(Cell::new(0u32));
    let (fr, fs) = (Rc::clone(&fail_restores), Rc::clone(&fail_starts));
    let odf = OdfDocument::new("test.Counter", Guid(7))
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU));
    rt.register_offcode(odf, move || {
        Box::new(Counter {
            guid: Guid(7),
            name: "test.Counter".to_owned(),
            count: 0,
            fail_restores: Rc::clone(&fr),
            fail_starts: Rc::clone(&fs),
        })
    })
    .expect("fresh depot");
    (fail_restores, fail_starts)
}

/// The device memory one host-side load of `image` on the NIC reserves.
fn reservation(image: &HofObject) -> u64 {
    let mut alloc = DeviceMemoryAllocator::new(0, 1 << 30);
    let exports = &DeviceDescriptor::programmable_nic().exports;
    let (_, plan) =
        load_host_side(std::slice::from_ref(image), &mut alloc, exports).expect("links");
    plan.reserved_bytes
}

fn bump(rt: &mut Runtime, guid: Guid, times: u64) {
    let id = rt.get_offcode(guid).expect("deployed");
    for _ in 0..times {
        rt.invoke(id, &Call::new(guid, "inc"), SimTime::ZERO)
            .expect("handled");
    }
}

fn read_count(rt: &mut Runtime, guid: Guid) -> u64 {
    let id = rt.get_offcode(guid).expect("deployed");
    match rt.invoke(id, &Call::new(guid, "get"), SimTime::from_millis(50)) {
        Ok(Value::U64(n)) => n,
        other => panic!("unexpected: {other:?}"),
    }
}

/// Satellite (b): migrating to a target without capacity must fail the
/// precheck *before* the source instance is destroyed. Pre-PR code tore
/// the source down first and silently host-fell-back, returning `Ok`.
#[test]
fn capacity_precheck_rejects_before_teardown() {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1, 2 MB
    let mut tiny = DeviceDescriptor::gpu();
    tiny.offcode_memory = 1024; // dev2: far below the object's load size
    reg.install(tiny);
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    register_counter(&mut rt);
    let id = rt.create_offcode(Guid(7), SimTime::ZERO).expect("deploys");
    let home = rt.device_of(id).expect("live");
    bump(&mut rt, Guid(7), 4);

    let err = rt
        .migrate(id, DeviceId(2), SimTime::from_millis(1))
        .expect_err("1 kB of device memory cannot hold the image");
    assert!(
        matches!(
            err,
            RuntimeError::Migrate(MigrateError::InsufficientCapacity { .. })
        ),
        "wrong error: {err}"
    );
    // The source instance was never touched.
    assert_eq!(rt.get_offcode(Guid(7)), Some(id), "same instance survives");
    assert_eq!(rt.device_of(id), Some(home), "still on its home device");
    assert_eq!(read_count(&mut rt, Guid(7)), 4, "state intact");
    assert!(rt.audit_connections().is_empty());
}

/// A survivor with 8 bytes more than the image's load size passes a bare
/// `load_size <= free` test, but the allocator also reserves 16 bytes of
/// padding and refuses. That refusal is `InsufficientCapacity` with the
/// source untouched, so recovery lands the Offcode on the host.
#[test]
fn a_survivor_the_allocator_refuses_sends_recovery_to_the_host() {
    let image = Counter::boxed(Guid(7), "test.Counter").object_file();
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1, the home
    let mut survivor = DeviceDescriptor::gpu();
    survivor.offcode_memory = u64::from(image.load_size()) + 8; // dev2
    reg.install(survivor);
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    register_counter(&mut rt);
    let id = rt.create_offcode(Guid(7), SimTime::ZERO).expect("deploys");
    assert_eq!(rt.device_of(id), Some(DeviceId(1)));
    bump(&mut rt, Guid(7), 6);

    let err = rt.migrate(id, DeviceId(2), SimTime::from_millis(1));
    assert!(
        matches!(
            err,
            Err(RuntimeError::Migrate(
                MigrateError::InsufficientCapacity { .. }
            ))
        ),
        "wrong outcome: {err:?}"
    );
    assert_eq!(rt.device_of(id), Some(DeviceId(1)), "source untouched");

    let report = rt.on_device_failure(DeviceId(1), SimTime::from_millis(2));
    assert_eq!(
        report.expect("recovers").migrated,
        [(Guid(7), DeviceId::HOST)]
    );
    assert_eq!(read_count(&mut rt, Guid(7)), 6, "state intact");
    assert!(rt.audit_connections().is_empty());
}

/// Satellite (a), restore leg: a restore failure at the target must not
/// lose the Offcode — it recovers on the host with the snapshot intact,
/// reported as a structured `FellBack` error. Pre-PR code returned a bare
/// `Rejected` with the instance and its state already destroyed.
#[test]
fn restore_failure_falls_back_to_host_with_state() {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::gpu()); // dev2
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    let (fail_restores, _) = register_counter(&mut rt);
    let id = rt.create_offcode(Guid(7), SimTime::ZERO).expect("deploys");
    let home = rt.device_of(id).expect("live");
    let target = if home == DeviceId(1) {
        DeviceId(2)
    } else {
        DeviceId(1)
    };
    bump(&mut rt, Guid(7), 5);

    fail_restores.set(1); // the target-side restore fails; the host one works
    let err = rt
        .migrate(id, target, SimTime::from_millis(1))
        .expect_err("restore leg fails");
    let RuntimeError::Migrate(MigrateError::FellBack { leg, fallback, .. }) = err else {
        panic!("wrong error: {err}");
    };
    assert_eq!(leg, MigrateLeg::Restore);
    assert_eq!(rt.get_offcode(Guid(7)), Some(fallback));
    assert_eq!(rt.device_of(fallback), Some(DeviceId::HOST));
    assert_eq!(read_count(&mut rt, Guid(7)), 5, "snapshot survived the leg");
    assert!(rt.audit_connections().is_empty());
}

/// Satellite (a), start leg: same contract when the phase hook fails
/// after restore succeeded.
#[test]
fn start_failure_falls_back_to_host_with_state() {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::gpu()); // dev2
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    let (_, fail_starts) = register_counter(&mut rt);
    let id = rt.create_offcode(Guid(7), SimTime::ZERO).expect("deploys");
    let home = rt.device_of(id).expect("live");
    let target = if home == DeviceId(1) {
        DeviceId(2)
    } else {
        DeviceId(1)
    };
    bump(&mut rt, Guid(7), 9);

    fail_starts.set(1); // the target-side start fails; the host one works
    let err = rt
        .migrate(id, target, SimTime::from_millis(1))
        .expect_err("start leg fails");
    let RuntimeError::Migrate(MigrateError::FellBack { leg, fallback, .. }) = err else {
        panic!("wrong error: {err}");
    };
    assert_eq!(leg, MigrateLeg::Start);
    assert_eq!(rt.device_of(fallback), Some(DeviceId::HOST));
    assert_eq!(read_count(&mut rt, Guid(7)), 9);
    assert!(rt.audit_connections().is_empty());
}

/// Satellite (a): migrating an Offcode with no snapshot support is a
/// structured rejection, not a teardown.
#[test]
fn non_migratable_offcode_is_rejected_up_front() {
    #[derive(Debug)]
    struct Plain;
    impl Offcode for Plain {
        fn guid(&self) -> Guid {
            Guid(8)
        }
        fn bind_name(&self) -> &'static str {
            "test.Plain"
        }
        fn handle_call(
            &mut self,
            _ctx: &mut OffcodeCtx,
            _call: &Call,
        ) -> Result<Value, RuntimeError> {
            Ok(Value::Unit)
        }
    }
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    rt.register_offcode(
        OdfDocument::new("test.Plain", Guid(8))
            .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Box::new(Plain),
    )
    .expect("fresh depot");
    let id = rt.create_offcode(Guid(8), SimTime::ZERO).expect("deploys");
    let err = rt
        .migrate(id, DeviceId::HOST, SimTime::from_millis(1))
        .expect_err("no snapshot support");
    assert!(matches!(
        err,
        RuntimeError::Migrate(MigrateError::NotMigratable { .. })
    ));
    assert_eq!(rt.get_offcode(Guid(8)), Some(id), "nothing was torn down");
}

fn multicast_config(target: DeviceId) -> ChannelConfig {
    ChannelConfig {
        transport: Transport::Multicast,
        reliability: Reliability::Reliable,
        sync: SyncPolicy::Sequential,
        buffering: Buffering::Copied,
        capacity: 16,
        target,
        retry: RetryPolicy::none(),
    }
}

/// Satellite (c): tearing down an Offcode that is an endpoint on another
/// channel mid-send must close that endpoint (visible as an
/// `endpoint_closed` drop) and leave no dangling connection entries.
/// Pre-PR code only destroyed the instance's own OOB channel.
#[test]
fn teardown_closes_endpoints_on_foreign_channels() {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    let (_, _) = register_counter(&mut rt);
    rt.register_offcode(
        OdfDocument::new("test.Second", Guid(9))
            .with_target(DeviceClassSpec::numbered(class_ids::NETWORK)),
        || Counter::boxed(Guid(9), "test.Second"),
    )
    .expect("fresh depot");
    let a = rt.create_offcode(Guid(7), SimTime::ZERO).expect("deploys");
    let b = rt.create_offcode(Guid(9), SimTime::ZERO).expect("deploys");
    let dev = rt.device_of(a).expect("live");
    assert_eq!(rt.device_of(b), Some(dev), "both share the device");

    let chan = rt
        .executive_mut()
        .create_channel(multicast_config(dev))
        .expect("provider");
    rt.connect_offcode(chan, a).expect("connects");
    rt.connect_offcode(chan, b).expect("connects");
    // A message is pending in both endpoint queues when b dies.
    rt.send_call(chan, &Call::new(Guid(7), "inc"), SimTime::ZERO)
        .expect("accepted");

    assert!(rt.teardown(b));
    let snap = rt.metrics_snapshot();
    assert!(
        snap.counter_total("channel.endpoint_closed") >= 1,
        "b's endpoint on the shared channel was closed"
    );
    assert!(
        snap.events_kind("drop")
            .iter()
            .any(|d| d.name == "channel.endpoint_closed"),
        "the pending message's trace records the closure"
    );
    assert!(
        rt.audit_connections().is_empty(),
        "no dangling connection entries: {:?}",
        rt.audit_connections()
    );
    // The surviving endpoint still delivers.
    let delivered = rt.pump(SimTime::from_millis(10));
    assert!(
        delivered.iter().any(|d| d.handler == a),
        "a still receives on the shared channel: {delivered:?}"
    );
    // Removing the last endpoint retires the connection key too.
    assert!(rt.teardown(a));
    assert!(rt.audit_connections().is_empty());
}

/// Counts how often its object is built, through a counter shared by
/// every instance its factory makes. `stateful` Offcodes migrate; the
/// others are redeployed fresh when their device fails.
#[derive(Debug)]
struct Built {
    guid: Guid,
    name: String,
    stateful: bool,
    builds: Rc<Cell<u32>>,
}

impl Offcode for Built {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn object_file(&self) -> HofObject {
        self.builds.set(self.builds.get() + 1);
        synthetic_object(&self.name, 8 * 1024, 1024)
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, _call: &Call) -> Result<Value, RuntimeError> {
        Ok(Value::Unit)
    }
    fn snapshot(&self) -> Option<Bytes> {
        self.stateful.then(Bytes::new)
    }
    fn restore(&mut self, _state: Bytes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// Registers a `Built` Offcode that can run on the NIC or the GPU;
/// returns its build counter.
fn register_built(rt: &mut Runtime, guid: Guid, name: &str, stateful: bool) -> Rc<Cell<u32>> {
    let builds = Rc::new(Cell::new(0u32));
    let shared = Rc::clone(&builds);
    let name = name.to_owned();
    let odf = OdfDocument::new(name.clone(), guid)
        .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
        .with_target(DeviceClassSpec::numbered(class_ids::GPU));
    rt.register_offcode(odf, move || {
        Box::new(Built {
            guid,
            name: name.clone(),
            stateful,
            builds: Rc::clone(&shared),
        })
    })
    .expect("fresh depot");
    builds
}

/// The depot builds each Offcode's object once: certification, the
/// pre-flight gate, link/load, the migration reload, and a recovery
/// redeploy all read that one copy.
#[test]
fn each_depot_object_is_built_once_per_entry() {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::gpu()); // dev2
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    let (mover, fresh) = (Guid(21), Guid(22));
    let mover_builds = register_built(&mut rt, mover, "test.Mover", true);
    let fresh_builds = register_built(&mut rt, fresh, "test.Fresh", false);
    assert_eq!(
        (mover_builds.get(), fresh_builds.get()),
        (0, 0),
        "registration builds nothing"
    );

    let cert = rt
        .certify_deployment(mover, SimTime::ZERO)
        .expect("in depot");
    assert!(!cert.report.has_errors(), "{:?}", cert.report);
    let m = rt.create_offcode(mover, SimTime::ZERO).expect("deploys");
    let f = rt.create_offcode(fresh, SimTime::ZERO).expect("deploys");

    let home = rt.device_of(m).expect("live");
    let away = if home == DeviceId(1) {
        DeviceId(2)
    } else {
        DeviceId(1)
    };
    let m = rt
        .migrate(m, away, SimTime::from_millis(1))
        .expect("the other device has room");
    assert_eq!(rt.device_of(m), Some(away));

    let failed = rt.device_of(f).expect("live");
    assert!(!failed.is_host(), "the stateless Offcode was offloaded");
    let report = rt
        .on_device_failure(failed, SimTime::from_millis(2))
        .expect("recovers");
    assert_eq!(report.redeployed, vec![fresh], "redeployed fresh");

    assert_eq!(
        (mover_builds.get(), fresh_builds.get()),
        (1, 1),
        "objects built per entry"
    );
}

/// Teardown returns the image's device memory: on a NIC with room for
/// exactly one image, the Offcode deploys, is torn down, and deploys on
/// the NIC again instead of falling back to the host.
#[test]
fn teardown_returns_image_memory_for_the_next_deploy() {
    let room = reservation(&Counter::boxed(Guid(7), "test.Counter").object_file());
    let mut nic = DeviceDescriptor::programmable_nic();
    nic.offcode_memory = room;
    let mut reg = DeviceRegistry::new();
    reg.install(nic);
    let mut rt = Runtime::new(reg, RuntimeConfig::default());
    register_counter(&mut rt);
    for _ in 0..2 {
        let id = rt.create_offcode(Guid(7), SimTime::ZERO).expect("deploys");
        assert_eq!(rt.device_of(id), Some(DeviceId(1)));
        assert_eq!(rt.free_memory(DeviceId(1)), 0);
        assert!(rt.teardown(id));
        assert_eq!(rt.free_memory(DeviceId(1)), room);
    }
    let snap = rt.metrics_snapshot();
    assert_eq!(snap.counter_total("deploy.host_fallback"), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite (c): under arbitrary deploy → connect → teardown
    /// interleavings the connection table never holds an orphaned entry,
    /// and every device's free memory is its capacity minus what its
    /// live instances reserved. The NIC has room for two of the three
    /// images, so the third deploy falls back to the host.
    #[test]
    fn random_lifecycles_never_dangle(ops in proptest::collection::vec(0u8..6, 1..40)) {
        let mut nic = DeviceDescriptor::programmable_nic();
        nic.offcode_memory = 2 * reservation(&Counter::boxed(Guid(100), "test.P0").object_file());
        let mut reg = DeviceRegistry::new();
        reg.install(nic);
        let mut rt = Runtime::new(reg, RuntimeConfig::default());
        for g in 0..3u64 {
            let guid = Guid(100 + g);
            let name = format!("test.P{g}");
            let odf = OdfDocument::new(name.clone(), guid)
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK));
            rt.register_offcode(odf, move || Counter::boxed(guid, &name))
                .expect("fresh depot");
        }
        let mut chan = None;
        for (step, op) in ops.iter().enumerate() {
            let guid = Guid(100 + u64::from(*op) % 3);
            match op % 6 {
                0 | 1 => {
                    // Deploy (idempotent: already-deployed guids reject).
                    let _ = rt.create_offcode(guid, SimTime::ZERO);
                }
                2 => {
                    if chan.is_none() {
                        chan = rt.executive_mut().create_channel(multicast_config(DeviceId(1))).ok();
                    }
                    if let (Some(c), Some(id)) = (chan, rt.get_offcode(guid)) {
                        let _ = rt.connect_offcode(c, id);
                    }
                }
                3 => {
                    if let Some(c) = chan {
                        let _ = rt.send_call(c, &Call::new(guid, "inc"), SimTime::ZERO);
                    }
                }
                _ => {
                    if let Some(id) = rt.get_offcode(guid) {
                        rt.teardown(id);
                    }
                }
            }
            prop_assert!(
                rt.audit_connections().is_empty(),
                "dangling entries after step {step}: {:?}",
                rt.audit_connections()
            );
            for (device, desc) in rt.devices().iter() {
                let held: u64 = rt
                    .deployments()
                    .iter()
                    .filter(|d| d.device == device)
                    .map(|d| d.plan.reserved_bytes)
                    .sum();
                prop_assert_eq!(
                    rt.free_memory(device),
                    desc.offcode_memory - held,
                    "{} after step {}", device, step
                );
            }
        }
    }
}
