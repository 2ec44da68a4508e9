//! Ring-sharing race detection: a lockset/ownership analysis over the
//! writers of each descriptor ring.
//!
//! Every node with inbound import edges serves one descriptor ring; its
//! writers post descriptors into it. Posting is safe when the writers
//! are *ordered* — a directed import path between them means one blocks
//! on (a chain reaching) the other, serializing their posts — or when
//! every placement pins them onto the same single-threaded executor.
//!
//! For an unordered writer pair the analysis compares placement sets
//! (the precheck's narrowed feasible devices, or the host fallback when
//! a writer has none):
//!
//! - placements that can differ, or a shared multi-device set → the
//!   writers can run on different processors and interleave
//!   mid-descriptor: `HV050`, error;
//! - both pinned to the same non-host device → posts serialize in
//!   steady state, but a migration transient (PR 5's re-layout) can
//!   alias the live endpoint while the peer still posts: `HV051`,
//!   warning;
//! - both host-only → the host dispatch loop serializes them; clean.

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::input::GraphView;
use crate::precheck::Precheck;

/// Runs the ring-race pass; returns (diagnostics, work units).
pub(crate) fn run(view: &GraphView<'_>, pre: &Precheck) -> (Vec<Diagnostic>, u64) {
    let n = view.nodes.len();
    let mut work = (n + view.edges.len()) as u64;
    let mut reach = Reach::new(view);
    let feasible = &pre.feasible;

    let mut diags = Vec::new();
    for j in 0..n {
        for (i, a) in view.writers(j).enumerate() {
            for b in view.writers(j).skip(i + 1) {
                work += 1;
                if reach.reaches(a, b) || reach.reaches(b, a) {
                    continue; // ordered: one transitively waits on the other
                }
                // The placement set race analysis reasons over: the
                // narrowed feasible devices, or the host when narrowing
                // left nothing.
                let pinned = if feasible.is_empty(a) || feasible.is_empty(b) {
                    (feasible.is_empty(a) && feasible.is_empty(b)).then_some(0)
                } else {
                    let single = feasible.same(a, b) && feasible.len(a) == 1;
                    single.then(|| feasible.iter(a).next().expect("len checked"))
                };
                if pinned == Some(0) {
                    continue; // host dispatch serializes the posts
                }
                let loc = Loc::Node {
                    index: j,
                    bind_name: view.nodes[j].bind_name.to_owned(),
                };
                let pair = format!(
                    "{} and {}",
                    view.nodes[a].bind_name, view.nodes[b].bind_name
                );
                let diag = match pinned {
                    Some(only) => Diagnostic::new(
                        HvCode::MigrationAliasRace,
                        loc,
                        format!(
                            "unordered writers {pair} share this ring; both pin to \
                             device {only}, but a migration transient can alias the \
                             live endpoint"
                        ),
                    ),
                    None => Diagnostic::new(
                        HvCode::RingWriteRace,
                        loc,
                        format!(
                            "unordered writers {pair} post to this ring from \
                             placements that can differ: descriptor interleaving \
                             is possible"
                        ),
                    ),
                };
                diags.push(diag.for_subject(view.nodes[j].guid));
            }
        }
    }

    (diags, work)
}

/// Reachability along import edges, one row per source node, each
/// computed the first time a writer pair asks for it. A deployment
/// whose rings all have one writer asks for none.
struct Reach<'v, 'a> {
    view: &'v GraphView<'a>,
    /// `rows[a]`: every node reachable from `a` (itself included).
    rows: Vec<Option<Vec<bool>>>,
}

impl<'v, 'a> Reach<'v, 'a> {
    fn new(view: &'v GraphView<'a>) -> Self {
        Reach {
            view,
            rows: Vec::new(),
        }
    }

    /// Whether `b` is reachable from `a`.
    fn reaches(&mut self, a: usize, b: usize) -> bool {
        let n = self.view.nodes.len();
        if self.rows.is_empty() {
            self.rows.resize(n, None);
        }
        let view = self.view;
        let row = self.rows[a].get_or_insert_with(|| {
            let mut seen = vec![false; n];
            let mut stack = vec![a];
            seen[a] = true;
            while let Some(v) = stack.pop() {
                for &w in view.successors(v) {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            seen
        });
        row[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{test_view, EdgeView, NodeView};
    use hydra_odf::odf::{ConstraintKind, Guid};

    fn node<'a>(name: &'a str, guid: u64, compat: &'a [bool]) -> (NodeView<'a>, &'a [bool]) {
        let node = NodeView {
            guid: Guid(guid),
            bind_name: name,
            demand: 1024,
            traffic: None,
        };
        (node, compat)
    }

    fn edge(from: usize, to: usize) -> EdgeView {
        EdgeView {
            from,
            to,
            kind: ConstraintKind::Link,
        }
    }

    fn run_race(view: &GraphView) -> Vec<Diagnostic> {
        let pre = Precheck::narrow(view);
        run(view, &pre).0
    }

    #[test]
    fn differing_placements_fire_hv050() {
        // a can run on device 1, b on device 2, both post to sink.
        let view = test_view(
            vec![
                node("a", 1, &[true, true, false]),
                node("b", 2, &[true, false, true]),
                node("sink", 3, &[true, true, true]),
            ],
            vec![edge(0, 2), edge(1, 2)],
        );
        let diags = run_race(&view);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, HvCode::RingWriteRace);
        assert_eq!(diags[0].subject, Some(Guid(3)));
    }

    #[test]
    fn ordering_edge_serializes_the_pair() {
        // a -> b -> sink and a -> sink: a waits on b transitively.
        let view = test_view(
            vec![
                node("a", 1, &[true, true, false]),
                node("b", 2, &[true, false, true]),
                node("sink", 3, &[true, true, true]),
            ],
            vec![edge(0, 1), edge(1, 2), edge(0, 2)],
        );
        assert!(run_race(&view).is_empty());
    }

    #[test]
    fn same_device_pin_downgrades_to_hv051() {
        let view = test_view(
            vec![
                node("a", 1, &[true, true]),
                node("b", 2, &[true, true]),
                node("sink", 3, &[true, true]),
            ],
            vec![edge(0, 2), edge(1, 2)],
        );
        let diags = run_race(&view);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, HvCode::MigrationAliasRace);
    }

    #[test]
    fn host_only_writers_are_clean() {
        let view = test_view(
            vec![
                node("a", 1, &[true]),
                node("b", 2, &[true]),
                node("sink", 3, &[true]),
            ],
            vec![edge(0, 2), edge(1, 2)],
        );
        assert!(run_race(&view).is_empty());
    }

    #[test]
    fn shared_multi_device_set_is_still_a_race() {
        // Both writers could go to either device — the solver may split
        // them, so the pair races.
        let view = test_view(
            vec![
                node("a", 1, &[true, true, true]),
                node("b", 2, &[true, true, true]),
                node("sink", 3, &[true, true, true]),
            ],
            vec![edge(0, 2), edge(1, 2)],
        );
        let diags = run_race(&view);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, HvCode::RingWriteRace);
    }
}
