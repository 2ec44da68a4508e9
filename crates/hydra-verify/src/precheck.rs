//! Infeasibility pre-check: a narrowing fixpoint over per-node feasible
//! non-host device sets.
//!
//! The propagation is *sound*: it only removes a device from a node's set
//! when no satisfying placement can use it, so `host_only()` returning
//! `true` proves the all-host placement is the only feasible one and the
//! branch-and-bound solve can be skipped entirely. The rules:
//!
//! - `Pull(a, b)` — both endpoints must land on the same device, so any
//!   offloaded placement uses a device in both sets: intersect them.
//! - `Gang(a, b)` — offloading either requires offloading the other, so
//!   an empty side clears its peer.
//! - `AsymGang(a → b)` — offloading `a` requires offloading `b`, so an
//!   empty `b` clears `a`.
//! - `Link` — no placement coupling.

use hydra_odf::odf::ConstraintKind;

use crate::index::DeviceSets;
use crate::input::{EdgeView, GraphView};

/// The fixpoint result: per-node sets of still-feasible non-host devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Precheck {
    /// Node `n`'s set: the non-host devices it may still use.
    pub feasible: DeviceSets,
    /// Fixpoint iterations (for pass accounting).
    pub rounds: u64,
}

impl Precheck {
    /// Runs the narrowing fixpoint over the graph view.
    pub fn narrow(view: &GraphView<'_>) -> Self {
        Self::fixpoint(view.compat.clone(), view.edges.iter().copied())
    }

    /// Runs the narrowing fixpoint over each node's compatibility vector
    /// (index 0 is the host) and the constraint edges, which it walks
    /// once per round: the same fixpoint as [`Precheck::narrow`], for a
    /// caller that holds the graph in its own types.
    pub fn over<'a>(
        compat: impl Iterator<Item = &'a [bool]>,
        edges: impl Iterator<Item = EdgeView> + Clone,
    ) -> Self {
        Self::fixpoint(DeviceSets::from_rows(compat), edges)
    }

    fn fixpoint(mut feasible: DeviceSets, edges: impl Iterator<Item = EdgeView> + Clone) -> Self {
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut changed = false;
            for e in edges.clone() {
                match e.kind {
                    ConstraintKind::Link => {}
                    ConstraintKind::Pull => changed |= feasible.intersect_both(e.from, e.to),
                    ConstraintKind::Gang => {
                        if feasible.is_empty(e.from) && !feasible.is_empty(e.to) {
                            feasible.clear(e.to);
                            changed = true;
                        }
                        if feasible.is_empty(e.to) && !feasible.is_empty(e.from) {
                            feasible.clear(e.from);
                            changed = true;
                        }
                    }
                    ConstraintKind::AsymGang => {
                        if feasible.is_empty(e.to) && !feasible.is_empty(e.from) {
                            feasible.clear(e.from);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Precheck { feasible, rounds }
    }

    /// Whether every node's narrowed set is empty — i.e. the all-host
    /// placement is provably the only feasible one and an ILP solve is
    /// pointless. Vacuously `true` for an empty graph.
    pub fn host_only(&self) -> bool {
        self.feasible.all_empty()
    }

    /// Whether node `n` *had* offload options before narrowing but lost
    /// them all to constraint propagation.
    pub fn forced_host(&self, view: &GraphView<'_>, n: usize) -> bool {
        self.feasible.is_empty(n) && !view.compat.is_empty(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{test_view, NodeView};
    use hydra_odf::odf::Guid;

    fn node<'a>(name: &'a str, compat: &'a [bool]) -> (NodeView<'a>, &'a [bool]) {
        let node = NodeView {
            guid: Guid(name.len() as u64),
            bind_name: name,
            demand: 1024,
            traffic: None,
        };
        (node, compat)
    }

    fn edge(from: usize, to: usize, kind: ConstraintKind) -> EdgeView {
        EdgeView { from, to, kind }
    }

    #[test]
    fn pull_intersects_both_sides() {
        let view = test_view(
            vec![
                node("a", &[true, true, false]),
                node("b", &[true, false, true]),
            ],
            vec![edge(0, 1, ConstraintKind::Pull)],
        );
        let pre = Precheck::narrow(&view);
        assert!(pre.host_only(), "disjoint pull narrows both to empty");
        assert!(pre.forced_host(&view, 0));
        assert!(pre.forced_host(&view, 1));
    }

    #[test]
    fn gang_clears_peer_of_host_only_node() {
        let view = test_view(
            vec![
                node("a", &[true, false, false]),
                node("b", &[true, false, true]),
            ],
            vec![edge(0, 1, ConstraintKind::Gang)],
        );
        let pre = Precheck::narrow(&view);
        assert!(pre.host_only());
        assert!(!pre.forced_host(&view, 0), "a never had options");
        assert!(pre.forced_host(&view, 1));
    }

    #[test]
    fn asym_gang_is_one_directional() {
        // a --AsymGang--> b with b host-only clears a...
        let forward = test_view(
            vec![
                node("a", &[true, false, true]),
                node("b", &[true, false, false]),
            ],
            vec![edge(0, 1, ConstraintKind::AsymGang)],
        );
        assert!(Precheck::narrow(&forward).host_only());
        // ...but b --AsymGang--> a leaves a free to offload.
        let backward = test_view(
            vec![
                node("a", &[true, false, true]),
                node("b", &[true, false, false]),
            ],
            vec![edge(1, 0, ConstraintKind::AsymGang)],
        );
        let pre = Precheck::narrow(&backward);
        assert!(!pre.host_only());
        assert_eq!(pre.feasible.len(0), 1);
    }

    #[test]
    fn propagation_chains_to_fixpoint() {
        // c is host-only; Gang(b, c) clears b; Pull(a, b) then clears a.
        let view = test_view(
            vec![
                node("a", &[true, true, true]),
                node("b", &[true, true, true]),
                node("c", &[true, false, false]),
            ],
            vec![
                edge(0, 1, ConstraintKind::Pull),
                edge(1, 2, ConstraintKind::Gang),
            ],
        );
        let pre = Precheck::narrow(&view);
        assert!(pre.host_only());
        assert!(pre.rounds >= 2);
    }

    #[test]
    fn unconstrained_nodes_keep_their_options() {
        let view = test_view(
            vec![
                node("a", &[true, true, false]),
                node("b", &[true, false, true]),
            ],
            vec![edge(0, 1, ConstraintKind::Link)],
        );
        let pre = Precheck::narrow(&view);
        assert!(!pre.host_only());
        assert_eq!(pre.feasible.iter(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(pre.feasible.iter(1).collect::<Vec<_>>(), vec![2]);
    }
}
