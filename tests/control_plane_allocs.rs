//! Heap allocations per control-plane phase, pinned by ceilings.
//!
//! One fixed ten-Offcode application (Gang, Pull and AsymGang imports,
//! `<footprint>` and `<traffic>`, three stateless members) goes through
//! `certify_deployment`, `create_offcode`, a crash of the device hosting
//! the most Offcodes, `pulse` until recovery, and teardown — the
//! lifecycle perfbench's `deploy_recover` runs, without the ODF parse.
//! A counting global allocator tallies every allocation the current
//! thread makes in each phase. Each ceiling sits a few percent above the
//! count the phase makes today, so a change that adds per-deploy or
//! per-recovery copies (a cloned closure, a per-call name, a handle
//! looked up by string) fails here before it shows in a benchmark.
//!
//! The count is per thread, so the tests in this binary can run in
//! parallel without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use hydra::core::call::{Call, Value};
use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::error::RuntimeError;
use hydra::core::layout::Objective;
use hydra::core::offcode::{Offcode, OffcodeCtx};
use hydra::core::runtime::{Runtime, RuntimeConfig};
use hydra::odf::odf::{
    class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec,
};
use hydra::sim::fault::{FaultKind, FaultPlan};
use hydra::sim::time::{SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A call counter; the stateful ones carry the count through migration.
#[derive(Debug)]
struct Member {
    guid: Guid,
    name: String,
    count: u64,
    stateful: bool,
}

impl Offcode for Member {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, _call: &Call) -> Result<Value, RuntimeError> {
        self.count += 1;
        Ok(Value::U64(self.count))
    }
    fn snapshot(&self) -> Option<Bytes> {
        self.stateful
            .then(|| Bytes::copy_from_slice(&self.count.to_le_bytes()))
    }
    fn restore(&mut self, state: Bytes) -> Result<(), RuntimeError> {
        let raw: [u8; 8] = state
            .as_ref()
            .try_into()
            .map_err(|_| RuntimeError::Rejected("bad snapshot length".into()))?;
        self.count = u64::from_le_bytes(raw);
        Ok(())
    }
}

/// `(importer, imported, constraint)`, indices into the ten Offcodes.
/// Every import points forward and every Offcode has one importer, so
/// the set is GUID 1's closure; the Pull groups {0, 2, 5} and {6, 8}
/// share every device class, and the leaf 9 hangs off an AsymGang edge.
const IMPORTS: [(usize, usize, ConstraintKind); 9] = [
    (0, 1, ConstraintKind::Gang),
    (0, 2, ConstraintKind::Pull),
    (1, 3, ConstraintKind::AsymGang),
    (1, 4, ConstraintKind::Gang),
    (2, 5, ConstraintKind::Pull),
    (3, 6, ConstraintKind::Gang),
    (4, 7, ConstraintKind::AsymGang),
    (6, 8, ConstraintKind::Pull),
    (8, 9, ConstraintKind::AsymGang),
];
/// The second device class each Offcode may run on, beside a NIC.
const EXTRA_CLASS: [Option<u32>; 10] = [
    None,
    Some(class_ids::STORAGE),
    None,
    Some(class_ids::GPU),
    Some(class_ids::GPU),
    None,
    Some(class_ids::STORAGE),
    None,
    Some(class_ids::STORAGE),
    Some(class_ids::GPU),
];
const STATELESS: [usize; 3] = [4, 7, 8];

fn odfs() -> Vec<OdfDocument> {
    let mut odfs: Vec<OdfDocument> = (0..10u64)
        .map(|i| {
            let mut odf = OdfDocument::new(format!("app.N{i}"), Guid(i + 1))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK));
            if let Some(class) = EXTRA_CLASS[i as usize] {
                odf = odf.with_target(DeviceClassSpec::numbered(class));
            }
            odf.with_footprint((1 + i % 7) * 8 * 1024)
                .with_traffic(TrafficSpec {
                    rate_per_sec: 20 + 17 * i,
                    burst: 1 + i % 3,
                    max_bytes: 64 << (i % 5),
                })
        })
        .collect();
    for (from, to, constraint) in IMPORTS {
        odfs[from].imports.push(Import {
            file: String::new(),
            bind_name: format!("app.N{to}"),
            guid: Guid(to as u64 + 1),
            constraint,
            priority: 0,
        });
    }
    odfs
}

fn runtime() -> Runtime {
    let mut reg = DeviceRegistry::new();
    for d in [
        DeviceDescriptor::programmable_nic(),
        DeviceDescriptor::programmable_nic(),
        DeviceDescriptor::smart_disk(),
        DeviceDescriptor::smart_disk(),
        DeviceDescriptor::gpu(),
        DeviceDescriptor::gpu(),
    ] {
        reg.install(d);
    }
    let config = RuntimeConfig {
        objective: Objective::MaximizeBusUsage {
            capacities: vec![0.0, 8.0, 8.0, 5.0, 5.0, 6.0, 6.0],
        },
        ..RuntimeConfig::default()
    };
    Runtime::new(reg, config)
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// Allocations per phase of one lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Phases {
    certify: u64,
    create: u64,
    recovering_pulse: u64,
    teardown: u64,
}

/// Runs the application through one lifecycle on a fresh runtime,
/// checking each outcome, and counts each phase's allocations.
fn lifecycle() -> Phases {
    let mut rt = runtime();
    for (i, odf) in odfs().into_iter().enumerate() {
        let (guid, name) = (odf.guid, odf.bind_name.clone());
        let stateful = !STATELESS.contains(&i);
        rt.register_offcode(odf, move || {
            Box::new(Member {
                guid,
                name: name.clone(),
                count: 0,
                stateful,
            })
        })
        .unwrap();
    }

    let (cert, certify) = counted(|| rt.certify_deployment(Guid(1), SimTime::ZERO));
    let cert = cert.unwrap();
    assert!(!cert.report.has_errors(), "{}", cert.report.render_human());
    let (created, create) = counted(|| rt.create_offcode(Guid(1), SimTime::ZERO));
    created.unwrap();

    let ids: Vec<_> = (1..=10).map(|g| rt.get_offcode(Guid(g)).unwrap()).collect();
    for (i, &id) in ids.iter().enumerate() {
        rt.invoke(id, &Call::new(Guid(i as u64 + 1), "frame"), SimTime::ZERO)
            .unwrap();
    }
    let mut load = [0u32; 7];
    for &id in &ids {
        load[rt.device_of(id).unwrap().idx()] += 1;
    }
    let victim = (1..load.len())
        .max_by_key(|&k| (load[k], std::cmp::Reverse(k)))
        .filter(|&k| load[k] > 0)
        .expect("something is offloaded");
    rt.install_fault_plan(&FaultPlan::new(1).with_event(ms(1), victim, FaultKind::Crash));

    let mut recovering_pulse = None;
    for tick in 1..=16 {
        let (reports, allocs) = counted(|| rt.pulse(ms(tick)));
        let reports = reports.unwrap();
        if let [report] = reports.as_slice() {
            assert_eq!(report.device, DeviceId(victim as u32));
            assert!(report.constraints_ok);
            assert!(!report.migrated.is_empty() || !report.redeployed.is_empty());
            recovering_pulse = Some(allocs);
            break;
        }
        assert!(reports.is_empty());
    }
    let recovering_pulse = recovering_pulse.expect("the crash is recovered within 16 pulses");
    assert!(rt.audit_connections().is_empty());

    let live: Vec<_> = (1..=10).map(|g| rt.get_offcode(Guid(g)).unwrap()).collect();
    let ((), teardown) = counted(|| {
        for &id in &live {
            assert!(rt.teardown(id));
        }
    });
    assert!(rt.deployments().is_empty());
    Phases {
        certify,
        create,
        recovering_pulse,
        teardown,
    }
}

#[test]
fn control_plane_phases_stay_under_their_allocation_ceilings() {
    let first = lifecycle();
    let phases = lifecycle();
    assert_eq!(first, phases, "a lifecycle's counts repeat exactly");
    // Today's counts: 303, 358, 359 and 0. The create and pulse ceilings
    // were set at 386 and 388.
    let ceilings = Phases {
        certify: 318,
        create: 405,
        recovering_pulse: 407,
        teardown: 0,
    };
    let checks = [
        ("certify_deployment", phases.certify, ceilings.certify),
        ("create_offcode", phases.create, ceilings.create),
        (
            "recovering pulse",
            phases.recovering_pulse,
            ceilings.recovering_pulse,
        ),
        ("teardown", phases.teardown, ceilings.teardown),
    ];
    for (phase, count, ceiling) in checks {
        assert!(
            count <= ceiling,
            "{phase} made {count} allocations, ceiling {ceiling}"
        );
    }
}
