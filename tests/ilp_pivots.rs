//! The simplex kernel on the §5 layout ILPs.
//!
//! `LayoutGraph::to_ilp` relaxations, and the bound tightenings a
//! branch-and-bound search applies below them, must match the dense
//! reference kernel in `crates/hydra-ilp/tests/reference/` bit for bit
//! and pivot for pivot, under both objectives and after a device is
//! masked. And the exact pivot total of a fixed corpus of layout
//! searches is pinned, so a change to the pivot path fails here with a
//! number before it moves a placement or a benchmark digest.

#[path = "../crates/hydra-ilp/tests/reference/mod.rs"]
mod reference;

use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::layout::{LayoutGraph, LayoutNode, NodeIdx, Objective};
use hydra::ilp::Search;
use hydra::odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra::sim::rng::DetRng;

fn constraint(rng: &mut DetRng) -> ConstraintKind {
    match rng.index(4) {
        0 => ConstraintKind::Link,
        1 => ConstraintKind::Pull,
        2 => ConstraintKind::Gang,
        _ => ConstraintKind::AsymGang,
    }
}

/// A random graph over `k` devices (+ host) with `n` nodes, random
/// prices and random constraint edges of every kind, as
/// `tests/layout_repair.rs` builds them.
fn random_graph(rng: &mut DetRng, k: usize, n: usize) -> LayoutGraph {
    let mut g = LayoutGraph::new();
    for i in 0..n {
        let mut compat = vec![true];
        for _ in 0..k {
            compat.push(rng.chance(0.6));
        }
        g.add_node(LayoutNode {
            guid: Guid(i as u64 + 1),
            bind_name: format!("n{i}"),
            compat,
            price: 1.0 + rng.index(5) as f64,
        });
    }
    for _ in 0..n {
        let (a, b) = (rng.index(n), rng.index(n));
        let c = constraint(rng);
        if a != b {
            g.add_edge(NodeIdx(a), NodeIdx(b), c);
        }
    }
    g
}

fn random_objective(rng: &mut DetRng, devices: usize) -> Objective {
    if rng.chance(0.5) {
        Objective::MaximizeOffloading
    } else {
        Objective::MaximizeBusUsage {
            capacities: (0..devices).map(|_| 2.0 + rng.index(8) as f64).collect(),
        }
    }
}

#[test]
fn layout_relaxations_match_the_dense_reference() {
    let mut rng = DetRng::new(0x5eed_1a70);
    let mut compared = 0;
    for trial in 0..40 {
        let k = 2 + rng.index(3);
        let n = 3 + rng.index(6);
        let mut g = random_graph(&mut rng, k, n);
        let objective = random_objective(&mut rng, k + 1);
        for stage in ["as built", "masked"] {
            let (p, _) = g.to_ilp(&objective).expect("capacities fit the devices");
            compared += reference::compare_tree(&p, 6)
                .unwrap_or_else(|e| panic!("trial {trial} {stage}: {e}"));
            g.mask_device(DeviceId(1 + rng.index(k) as u32))
                .expect("a device, not the host");
        }
    }
    assert!(compared > 1000, "only {compared} relaxations compared");
}

/// Host plus two of every programmable device class, as in
/// `tests/ilp_parity.rs`.
fn twin_registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for make in [
        DeviceDescriptor::programmable_nic,
        DeviceDescriptor::smart_disk,
        DeviceDescriptor::gpu,
    ] {
        reg.install(make());
        reg.install(make());
    }
    reg
}

/// `tests/ilp_parity.rs`'s tied-optima application: 2..=8 Offcodes with
/// random target classes, each importing an earlier one (or nothing).
fn pin_graph(rng: &mut DetRng, reg: &DeviceRegistry) -> LayoutGraph {
    let n = 2 + rng.index(7);
    let mut odfs = Vec::with_capacity(n);
    for i in 0..n {
        let mut odf = OdfDocument::new(format!("oc{i}"), Guid(i as u64 + 1));
        for id in [class_ids::NETWORK, class_ids::STORAGE, class_ids::GPU] {
            if rng.chance(0.5) {
                odf = odf.with_target(DeviceClassSpec::numbered(id));
            }
        }
        if i > 0 && rng.chance(0.85) {
            odf = odf.with_import(Import {
                file: String::new(),
                bind_name: String::new(),
                guid: Guid(rng.index(i) as u64 + 1),
                constraint: constraint(rng),
                priority: 0,
            });
        }
        odfs.push(odf);
    }
    let mut g = LayoutGraph::from_odfs(&odfs, reg).expect("imports name earlier Offcodes");
    for i in 0..n {
        g.set_price(NodeIdx(i), 1.0 + rng.index(4) as f64);
    }
    g
}

/// Over 50 seeded applications built like `tests/ilp_parity.rs`'s
/// tie-break corpus, a from-scratch search of each `to_ilp` problem, and
/// of it again with one device masked, takes exactly this many
/// relaxations and pivots. A kernel that pivots differently fails here,
/// with the new totals in the message.
#[test]
fn layout_search_pivot_totals_are_pinned() {
    let reg = twin_registry();
    let devices = reg.len();
    let mut rng = DetRng::new(0x071e_b4ea);
    let (mut relaxations, mut pivots) = (0, 0);
    for trial in 0..50 {
        let mut g = pin_graph(&mut rng, &reg);
        let objective = random_objective(&mut rng, devices);
        for stage in ["as built", "masked"] {
            let (p, _) = g.to_ilp(&objective).expect("capacities fit the devices");
            let mut search = Search::new(&p);
            let outcome = search.solve(None).outcome;
            assert!(
                outcome.solution().is_some(),
                "trial {trial} {stage}: {outcome:?}"
            );
            relaxations += search.relaxations_solved();
            pivots += search.pivots();
            g.mask_device(DeviceId(1 + rng.index(devices - 1) as u32))
                .expect("a device, not the host");
        }
    }
    assert_eq!(
        (relaxations, pivots),
        (212, 4534),
        "the layout searches now take other (relaxations, pivots) totals"
    );
}
