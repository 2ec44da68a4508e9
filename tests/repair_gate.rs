//! The recovery solver-scaling gate (tier 1).
//!
//! Incremental repair exists so a single-device failure does not pay a
//! full from-scratch ILP. This gate pins that property on the committed
//! fault-demo scenario two ways:
//!
//! 1. **Strict scaling**: on the demo's recovery graph, the repair
//!    search explores strictly fewer branch-and-bound nodes than a
//!    from-scratch exact solve of the same post-failure problem — while
//!    landing on an objective-equal layout.
//! 2. **Committed budget**: the `faults` row of `hydra_bench::ARTIFACTS`
//!    carries `budgets/demo_recovery.json`, which freezes the demo's
//!    recovery counters (`recover.repaired_nodes`,
//!    `solver.nodes_explored{repair}`, …) with tolerance 0, so a change
//!    that silently degrades repair into a full re-solve fails instead
//!    of drifting unnoticed.

mod gate;

use gate::{assert_no_failures, row};
use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::layout::{GraphDelta, LayoutGraph, Objective};
use hydra::tivo::faults::fault_demo_odfs;

fn faults() -> usize {
    row(&["faults"])
}

fn demo_registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    reg
}

/// The demo's recovery re-layout must search strictly less than a
/// from-scratch solve of the identical post-failure problem, at equal
/// objective value. The repair path proves its spliced candidate
/// optimal against the LP-relaxation bound, so the common single-device
/// failure pays zero branch-and-bound nodes.
#[test]
fn recovery_repair_searches_strictly_less_than_scratch() {
    let reg = demo_registry();
    let mut g = LayoutGraph::from_odfs(&fault_demo_odfs(), &reg).expect("demo graph builds");
    let obj = Objective::MaximizeOffloading;
    let prev = g.resolve_ilp(&obj).expect("pre-fault layout");
    g.mask_device(DeviceId(1)).expect("NIC maskable");

    let (repaired, repair_stats) = g
        .repair(&prev, &GraphDelta::MaskDevice(DeviceId(1)), &obj)
        .expect("repair succeeds");
    let (scratch, scratch_stats) = g
        .resolve_ilp_with_stats(&obj)
        .expect("scratch solve succeeds");

    assert_eq!(
        repaired.offloaded_count(),
        scratch.offloaded_count(),
        "repair must be objective-equal to scratch"
    );
    assert!(
        repair_stats.nodes < scratch_stats.nodes,
        "repair explored {} nodes, scratch {} — repair must search strictly less",
        repair_stats.nodes,
        scratch_stats.nodes
    );
    assert_eq!(
        repair_stats.repaired_nodes, 3,
        "the gang/pull pipeline is the dirty component; the archiver stays frozen"
    );
}

/// The demo's recovery counters stay on the committed baseline.
#[test]
fn recovery_counters_stay_within_committed_budget() {
    assert_eq!(gate::budget(faults()).name, "demo-recovery");
    assert_no_failures(&gate::budget_failures(faults()));
}

/// The gate actually bites: perturbing any one baseline entry produces
/// exactly that one violation.
#[test]
fn perturbed_baseline_trips_exactly_one_violation() {
    gate::assert_perturbed_lines_trip_alone(faults());
}
