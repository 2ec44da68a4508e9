//! Resource pre-check: worst-case memory demand per device vs the device
//! table. The greedy resolver absorbs overcommit by silently falling back
//! to the host; this pass surfaces it statically instead.

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::input::{DeviceTable, GraphView};

/// Runs the capacity pass; returns (diagnostics, work units).
pub(crate) fn run(view: &GraphView<'_>, table: &DeviceTable) -> (Vec<Diagnostic>, u64) {
    let mut diags = Vec::new();
    let work = (view.nodes.len() * table.devices.len().max(1)) as u64;
    let compat = &view.compat;

    // Per-device aggregates; index 0 (the host) is skipped — host fallback
    // is the mechanism, not a failure.
    for (k, dev) in table.devices.iter().enumerate().skip(1) {
        let mut pinned = 0u64;
        let mut pinned_count = 0usize;
        let mut total = 0u64;
        for (n, node) in view.nodes.iter().enumerate() {
            if !compat.contains(n, k) {
                continue;
            }
            total = total.saturating_add(node.demand);
            if compat.len(n) == 1 {
                pinned = pinned.saturating_add(node.demand);
                pinned_count += 1;
            }
        }
        let loc = || Loc::Device {
            index: k,
            name: dev.name.clone(),
        };
        if pinned > dev.offcode_memory {
            diags.push(Diagnostic::new(
                HvCode::DeviceOvercommit,
                loc(),
                format!(
                    "{pinned_count} offcode(s) can only run here and together demand {pinned} bytes, but the device has {} — at least one is guaranteed to fall back to the host",
                    dev.offcode_memory
                ),
            ));
        } else if total > dev.offcode_memory {
            diags.push(Diagnostic::new(
                HvCode::PotentialOvercommit,
                loc(),
                format!(
                    "worst-case demand of all compatible offcodes is {total} bytes against {} available",
                    dev.offcode_memory
                ),
            ));
        }
    }

    // Per-offcode: a footprint no target device can hold.
    for (n, node) in view.nodes.iter().enumerate() {
        let Some(best) = compat
            .iter(n)
            .map(|k| table.devices[k].offcode_memory)
            .max()
        else {
            continue;
        };
        if node.demand > best {
            diags.push(Diagnostic::new(
                HvCode::OversizedOffcode,
                Loc::Node {
                    index: n,
                    bind_name: node.bind_name.to_owned(),
                },
                format!(
                    "footprint {} bytes exceeds every target device's memory (largest: {best}); it will always load on the host",
                    node.demand
                ),
            ));
        }
    }

    (diags, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{test_view, DeviceInfo, NodeView};
    use hydra_odf::odf::{class_ids, Guid};

    fn table(nic_mem: u64) -> DeviceTable {
        DeviceTable {
            devices: vec![
                DeviceInfo {
                    class: class_ids::HOST_CPU,
                    name: "host".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 1 << 28,
                },
                DeviceInfo {
                    class: class_ids::NETWORK,
                    name: "nic".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: nic_mem,
                },
                DeviceInfo {
                    class: class_ids::GPU,
                    name: "gpu".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 1 << 24,
                },
            ],
        }
    }

    fn node<'a>(name: &'a str, compat: &'a [bool], demand: u64) -> (NodeView<'a>, &'a [bool]) {
        let node = NodeView {
            guid: Guid(name.len() as u64),
            bind_name: name,
            demand,
            traffic: None,
        };
        (node, compat)
    }

    #[test]
    fn pinned_overcommit_is_an_error() {
        let view = test_view(
            vec![
                node("a", &[true, true, false], 600),
                node("b", &[true, true, false], 600),
            ],
            vec![],
        );
        let (diags, _) = run(&view, &table(1000));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, HvCode::DeviceOvercommit);
        assert!(matches!(&diags[0].loc, Loc::Device { index: 1, .. }));
    }

    #[test]
    fn flexible_overcommit_is_a_warning() {
        // Both fit on the GPU, so nothing is *guaranteed* to spill.
        let view = test_view(
            vec![
                node("a", &[true, true, true], 600),
                node("b", &[true, true, true], 600),
            ],
            vec![],
        );
        let (diags, _) = run(&view, &table(1000));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, HvCode::PotentialOvercommit);
    }

    #[test]
    fn oversized_offcode_flagged() {
        let view = test_view(vec![node("big", &[true, true, false], 5000)], vec![]);
        let (diags, _) = run(&view, &table(1000));
        assert!(diags.iter().any(|d| d.code == HvCode::DeviceOvercommit));
        assert!(diags.iter().any(|d| d.code == HvCode::OversizedOffcode));
    }

    #[test]
    fn fitting_demand_is_clean() {
        let view = test_view(
            vec![
                node("a", &[true, true, false], 400),
                node("b", &[true, false, true], 400),
            ],
            vec![],
        );
        let (diags, _) = run(&view, &table(1000));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
