//! Property tests tying the static verifier to the solver pipeline:
//!
//! * any well-formed ODF set (unique GUIDs, resolved acyclic imports, a
//!   shared feasible device class) verifies with **zero errors**, and the
//!   exact ILP solver resolves its layout graph;
//! * targeted mutations of such a set — dangling an import, shrinking a
//!   device class to the empty set, adding a Gang back-edge — fire the
//!   matching `HVxxx` diagnostic every time.

use hydra::core::device::{DeviceDescriptor, DeviceRegistry};
use hydra::core::layout::{LayoutGraph, Objective};
use hydra::odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra::verify::{HvCode, Report, VerifyInput};
use proptest::prelude::*;

fn constraint_from(idx: u8) -> ConstraintKind {
    match idx % 4 {
        0 => ConstraintKind::Link,
        1 => ConstraintKind::Pull,
        2 => ConstraintKind::Gang,
        _ => ConstraintKind::AsymGang,
    }
}

fn testbed() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    reg
}

/// Decodes one packed `u64` into a candidate `(from, to, kind)` edge.
fn decode_edge(v: u64) -> (usize, usize, u8) {
    (
        (v % 6) as usize,
        ((v / 6) % 6) as usize,
        ((v / 36) % 4) as u8,
    )
}

/// A well-formed ODF set: node `i` has GUID `i+1`; every node targets the
/// network class (so every Pull has a common feasible device) plus a
/// random extra class; imports only point forward (`i -> i+1..n`), so the
/// constraint graph is acyclic.
fn valid_set(extra_classes: &[u8], edges: &[u64]) -> Vec<OdfDocument> {
    let n = extra_classes.len();
    let mut odfs: Vec<OdfDocument> = (0..n)
        .map(|i| {
            let mut odf = OdfDocument::new(format!("oc.N{i}"), Guid(i as u64 + 1))
                .with_target(DeviceClassSpec::numbered(class_ids::NETWORK));
            match extra_classes[i] % 3 {
                0 => {}
                1 => odf
                    .targets
                    .push(DeviceClassSpec::numbered(class_ids::STORAGE)),
                _ => odf.targets.push(DeviceClassSpec::numbered(class_ids::GPU)),
            }
            odf
        })
        .collect();
    for (a, b, kind) in edges.iter().copied().map(decode_edge) {
        let (from, to) = (a % n, b % n);
        if from >= to {
            continue; // forward edges only: keeps the import graph acyclic
        }
        let guid = Guid(to as u64 + 1);
        if odfs[from].imports.iter().any(|i| i.guid == guid) {
            continue;
        }
        odfs[from].imports.push(Import {
            file: String::new(),
            bind_name: format!("oc.N{to}"),
            guid,
            constraint: constraint_from(kind),
            priority: 0,
        });
    }
    odfs
}

fn verify_set(odfs: &[OdfDocument]) -> Report {
    let table = testbed().verify_table();
    hydra::verify::verify(&VerifyInput {
        odfs,
        devices: &table,
        demands: None,
        roots: None,
    })
}

fn has_code(report: &Report, code: HvCode) -> bool {
    report.diagnostics.iter().any(|d| d.code == code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid sets verify without errors and their layout graphs resolve.
    #[test]
    fn valid_sets_are_clean_and_solvable(
        extra in proptest::collection::vec(0u8..3, 1..6),
        edges in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let odfs = valid_set(&extra, &edges);
        let report = verify_set(&odfs);
        prop_assert!(
            !report.has_errors(),
            "valid set must verify clean: {}",
            report.render_human()
        );

        let reg = testbed();
        let graph = LayoutGraph::from_odfs(&odfs, &reg).expect("valid set builds a graph");
        let placement = graph.resolve_ilp(&Objective::MaximizeOffloading);
        prop_assert!(placement.is_ok(), "solver must accept a verified-clean set");
    }

    /// Dangling an import (the verifier's HV002) is always caught.
    #[test]
    fn dangling_import_fires_hv002(
        extra in proptest::collection::vec(0u8..3, 2..6),
        edges in proptest::collection::vec(any::<u64>(), 0..8),
        which in any::<u64>(),
    ) {
        let mut odfs = valid_set(&extra, &edges);
        // Guarantee at least one import to dangle (the random edges may
        // all have been skipped as backward or duplicate).
        if odfs.iter().all(|o| o.imports.is_empty()) {
            let n = odfs.len();
            odfs[0].imports.push(Import {
                file: String::new(),
                bind_name: format!("oc.N{}", n - 1),
                guid: Guid(n as u64),
                constraint: ConstraintKind::Link,
                priority: 0,
            });
        }
        let importers: Vec<usize> = (0..odfs.len())
            .filter(|&i| !odfs[i].imports.is_empty())
            .collect();
        let i = importers[(which as usize) % importers.len()];
        odfs[i].imports[0].guid = Guid(999); // no such Offcode in the set
        let report = verify_set(&odfs);
        prop_assert!(report.has_errors());
        prop_assert!(has_code(&report, HvCode::DanglingImport));
    }

    /// Shrinking a device class to the empty set (no installed device can
    /// match the spec) fires HV007 on that spec.
    #[test]
    fn empty_device_class_fires_hv007(
        extra in proptest::collection::vec(0u8..3, 1..6),
        edges in proptest::collection::vec(any::<u64>(), 0..8),
        which in any::<u64>(),
    ) {
        let mut odfs = valid_set(&extra, &edges);
        let i = (which as usize) % odfs.len();
        let mut impossible = DeviceClassSpec::numbered(class_ids::NETWORK);
        impossible.vendor = Some("NoSuchVendor".into());
        odfs[i].targets = vec![impossible];
        let report = verify_set(&odfs);
        prop_assert!(has_code(&report, HvCode::UnsatisfiableTargetSpec));
    }

    /// Adding a Gang back-edge to an acyclic chain creates a constraint
    /// cycle the verifier must reject (HV010).
    #[test]
    fn gang_back_edge_fires_hv010(
        extra in proptest::collection::vec(0u8..3, 2..6),
        edges in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let mut odfs = valid_set(&extra, &edges);
        let n = odfs.len();
        // Forward chain link so the back-edge closes a cycle even with no
        // random edges, then the back-edge itself.
        let forward: Vec<Import> = vec![Import {
            file: String::new(),
            bind_name: format!("oc.N{}", n - 1),
            guid: Guid(n as u64),
            constraint: ConstraintKind::Gang,
            priority: 0,
        }];
        odfs[0].imports.retain(|imp| imp.guid != Guid(n as u64));
        odfs[0].imports.extend(forward);
        odfs[n - 1].imports.retain(|imp| imp.guid != Guid(1));
        odfs[n - 1].imports.push(Import {
            file: String::new(),
            bind_name: "oc.N0".into(),
            guid: Guid(1),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
        let report = verify_set(&odfs);
        prop_assert!(report.has_errors());
        prop_assert!(has_code(&report, HvCode::GangCycle));
    }
}
