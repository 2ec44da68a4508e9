//! ILP-vs-greedy parity on small layout graphs (≤ 6 Offcodes).
//!
//! The paper motivates the exact ILP formulation by noting the greedy
//! heuristic "is not always optimal". These tests pin the weaker — but
//! universal — direction: the exact objective is never *worse* than
//! greedy's on any feasible instance, and the branch-and-bound search
//! statistics stay sane.

use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::layout::{GraphDelta, LayoutGraph, LayoutNode, NodeIdx, Objective};
use hydra::odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra::sim::rng::DetRng;
use proptest::prelude::*;

const DEVICES: usize = 4; // host + 3 programmable devices

fn node(guid: u64, compat_bits: u8, price: f64) -> LayoutNode {
    // Bit k of `compat_bits` enables device k+1; the host is always on.
    let mut compat = vec![true];
    for k in 0..DEVICES - 1 {
        compat.push(compat_bits >> k & 1 == 1);
    }
    LayoutNode {
        guid: Guid(guid),
        bind_name: format!("n{guid}"),
        compat,
        price,
    }
}

/// Builds a graph of `n` nodes with the given compat masks and a chain of
/// constraint edges `i -> i+1`.
fn chain_graph(masks: &[u8], constraints: &[ConstraintKind]) -> LayoutGraph {
    let mut g = LayoutGraph::new();
    for (i, &m) in masks.iter().enumerate() {
        g.add_node(node(i as u64 + 1, m, 1.0 + i as f64));
    }
    for (i, &c) in constraints
        .iter()
        .enumerate()
        .take(masks.len().saturating_sub(1))
    {
        g.add_edge(NodeIdx(i), NodeIdx(i + 1), c);
    }
    g
}

fn constraint_from(idx: u8) -> ConstraintKind {
    match idx % 4 {
        0 => ConstraintKind::Link,
        1 => ConstraintKind::Pull,
        2 => ConstraintKind::Gang,
        _ => ConstraintKind::AsymGang,
    }
}

fn offloaded(placement: &[DeviceId]) -> usize {
    placement.iter().filter(|d| !d.is_host()).count()
}

#[test]
fn exact_beats_or_ties_greedy_on_fixed_instances() {
    let cases: Vec<(Vec<u8>, Vec<ConstraintKind>)> = vec![
        // Single node, one compatible device.
        (vec![0b001], vec![]),
        // Pull chain that must collapse onto one device.
        (vec![0b010, 0b010], vec![ConstraintKind::Pull]),
        // Gang pair with disjoint device options: both offloadable.
        (vec![0b001, 0b100], vec![ConstraintKind::Gang]),
        // A node with no devices forces its Gang peer onto the host; the
        // third node stays independent.
        (
            vec![0b000, 0b011, 0b100],
            vec![ConstraintKind::Gang, ConstraintKind::Link],
        ),
        // AsymGang chain across heterogeneous devices.
        (
            vec![0b001, 0b010, 0b100, 0b111],
            vec![
                ConstraintKind::AsymGang,
                ConstraintKind::AsymGang,
                ConstraintKind::Pull,
            ],
        ),
        // Six offcodes, mixed constraints.
        (
            vec![0b001, 0b001, 0b010, 0b110, 0b100, 0b111],
            vec![
                ConstraintKind::Gang,
                ConstraintKind::Link,
                ConstraintKind::Pull,
                ConstraintKind::AsymGang,
                ConstraintKind::Link,
            ],
        ),
    ];
    for (masks, constraints) in cases {
        let g = chain_graph(&masks, &constraints);
        let objective = Objective::MaximizeOffloading;
        let (exact, stats) = g
            .resolve_ilp_with_stats(&objective)
            .expect("host-everything is always feasible");
        g.check(&exact).expect("exact placement is feasible");
        // A provably host-only instance is answered by the verifier's
        // narrowing pre-check without any search at all.
        assert!(
            stats.presolved || stats.nodes >= 1,
            "at least the root LP node is explored"
        );
        assert!(
            stats.pruned <= stats.nodes,
            "cannot prune more than explored"
        );

        let greedy = g.resolve_greedy(&objective);
        if g.check(&greedy).is_ok() {
            assert!(
                offloaded(&exact.0) >= offloaded(&greedy.0),
                "ILP offloaded {} < greedy {} on masks {masks:?}",
                offloaded(&exact.0),
                offloaded(&greedy.0),
            );
        }
    }
}

#[test]
fn bus_usage_objective_parity() {
    // Two devices with tight capacity; prices 1..=4. Greedy packs by
    // descending price and can strand capacity the ILP uses fully.
    let mut g = LayoutGraph::new();
    for i in 0..4u64 {
        g.add_node(node(i + 1, 0b011, (i + 1) as f64));
    }
    let objective = Objective::MaximizeBusUsage {
        capacities: vec![0.0, 4.0, 3.0, 0.0],
    };
    let (exact, stats) = g.resolve_ilp_with_stats(&objective).unwrap();
    g.check(&exact).expect("exact placement is feasible");
    assert!(stats.nodes >= 1, "offloadable instance must search");
    assert!(!stats.presolved);
    let greedy = g.resolve_greedy(&objective);
    if g.check(&greedy).is_ok() {
        assert!(g.bus_value(&exact) >= g.bus_value(&greedy) - 1e-9);
    }
    // Capacity 4 + 3 admits price mass 7 of the available 1+2+3+4.
    assert!(g.bus_value(&exact) >= 7.0 - 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random chains of up to 6 Offcodes: the exact solver is feasible,
    /// its statistics are sane, and it never offloads fewer Offcodes than
    /// the greedy heuristic (when greedy lands on a feasible placement).
    #[test]
    fn exact_never_worse_than_greedy(
        masks in proptest::collection::vec(0u8..8, 1..7),
        ckinds in proptest::collection::vec(0u8..4, 6),
    ) {
        let constraints: Vec<ConstraintKind> =
            ckinds.iter().map(|&c| constraint_from(c)).collect();
        let g = chain_graph(&masks, &constraints);
        let objective = Objective::MaximizeOffloading;
        let (exact, stats) = g
            .resolve_ilp_with_stats(&objective)
            .expect("host-everything satisfies every chain instance");
        prop_assert!(g.check(&exact).is_ok());
        prop_assert!(stats.presolved || stats.nodes >= 1);
        prop_assert!(stats.pruned <= stats.nodes);
        if stats.presolved {
            // The pre-check may only skip the search when the answer is
            // all-host, and that answer must be optimal.
            prop_assert!(offloaded(&exact.0) == 0);
            prop_assert!(stats.nodes == 0);
        }

        let greedy = g.resolve_greedy(&objective);
        if g.check(&greedy).is_ok() {
            prop_assert!(
                offloaded(&exact.0) >= offloaded(&greedy.0),
                "ILP {} vs greedy {} on masks {:?}",
                offloaded(&exact.0),
                offloaded(&greedy.0),
                masks
            );
        }
    }
}

/// Host plus two of every programmable device class, so most Offcodes
/// have tied optima (either twin of a class serves equally well).
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

/// A seeded application: 2..=8 Offcodes with random target classes, each
/// importing an earlier one (or nothing) under a random constraint, so
/// the graphs are forests — whole-graph trees and split components both.
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
                constraint: constraint_from(rng.index(4) as u8),
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

/// FNV-1a, folded over the canonical text of each result.
fn fnv1a(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Pins *which* tied optimum the exact solver returns, and how much
/// search it takes. The random-graph oracles above and in
/// `layout_repair.rs` compare objective values only, so a solver change
/// that picks the other twin NIC, or visits a different number of
/// nodes, would pass them; it fails this digest. Over 50 seeded
/// applications on a registry with twin NICs, disks and GPUs, the digest
/// folds the placement and [`SearchStats`](hydra::ilp::SearchStats) of a
/// from-scratch `resolve_ilp_with_stats` and of a `repair` after masking
/// one device.
#[test]
fn tied_optima_and_search_effort_are_pinned() {
    let reg = twin_registry();
    let devices = reg.len();
    let mut rng = DetRng::new(0x071e_b4ea);
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for trial in 0..50 {
        let mut g = pin_graph(&mut rng, &reg);
        let objective = if rng.chance(0.5) {
            Objective::MaximizeOffloading
        } else {
            Objective::MaximizeBusUsage {
                capacities: (0..devices).map(|_| 2.0 + rng.index(6) as f64).collect(),
            }
        };
        let (prev, stats) = g
            .resolve_ilp_with_stats(&objective)
            .unwrap_or_else(|e| panic!("trial {trial}: solve: {e}"));
        fnv1a(&mut digest, &format!("{trial} solve {prev} {stats:?}\n"));

        // Mask a device the layout uses when there is one, so the repair
        // has evicted nodes to re-place.
        let used: Vec<DeviceId> = prev.0.iter().copied().filter(|d| !d.is_host()).collect();
        let failed = if used.is_empty() {
            DeviceId(1 + rng.index(devices - 1) as u32)
        } else {
            *rng.choose(&used)
        };
        g.mask_device(failed).expect("a device, not the host");
        let (repaired, stats) = g
            .repair(&prev, &GraphDelta::MaskDevice(failed), &objective)
            .unwrap_or_else(|e| panic!("trial {trial}: repair: {e}"));
        g.check(&repaired)
            .unwrap_or_else(|e| panic!("trial {trial}: repaired infeasible: {e}"));
        fnv1a(
            &mut digest,
            &format!("{trial} repair {failed} {repaired} {stats:?}\n"),
        );
    }
    assert_eq!(
        digest, 0x1c11_8424_2b75_20e8,
        "tie-break digest moved: the solver now returns other tied optima or searches differently"
    );
}
