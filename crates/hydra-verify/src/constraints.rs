//! Constraint analysis over the layout graph: Gang/AsymGang import
//! cycles (Tarjan SCC), contradictory parallel edges, Pull edges whose
//! endpoints share no feasible device, and Gang edges that drag an
//! offloadable peer to the host.

use hydra_odf::odf::ConstraintKind;

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::index::Adjacency;
use crate::input::{EdgeView, GraphView};
use crate::precheck::Precheck;

/// Runs the constraint pass; returns (diagnostics, work units).
pub(crate) fn run(view: &GraphView<'_>, pre: &Precheck) -> (Vec<Diagnostic>, u64) {
    let mut diags = Vec::new();
    let work = (view.nodes.len() + view.edges.len()) as u64;

    gang_cycles(view, &mut diags);
    conflicting_edges(view, &mut diags);

    let name = |n: usize| view.nodes[n].bind_name;
    for e in &view.edges {
        let loc = || Loc::Edge {
            from: name(e.from).to_owned(),
            to: name(e.to).to_owned(),
        };
        match e.kind {
            ConstraintKind::Pull => {
                let compat = &view.compat;
                if !compat.intersects(e.from, e.to)
                    && (!compat.is_empty(e.from) || !compat.is_empty(e.to))
                {
                    diags.push(Diagnostic::new(
                        HvCode::DisjointPull,
                        loc(),
                        "Pull endpoints have no feasible device in common; the constraint is only satisfiable on the host",
                    ));
                }
            }
            ConstraintKind::Gang | ConstraintKind::AsymGang => {
                for (host_side, peer) in [(e.from, e.to), (e.to, e.from)] {
                    // AsymGang only couples from → to.
                    if e.kind == ConstraintKind::AsymGang && host_side != e.to {
                        continue;
                    }
                    // host_side must be *intrinsically* host-only (not itself
                    // dragged there), so a propagation chain yields one
                    // root-cause diagnostic instead of one per hop.
                    if pre.feasible.is_empty(host_side)
                        && !pre.forced_host(view, host_side)
                        && pre.forced_host(view, peer)
                    {
                        diags.push(Diagnostic::new(
                            HvCode::GangForcedHost,
                            loc(),
                            format!(
                                "'{}' cannot be offloaded, so the {} constraint pins '{}' to the host",
                                name(host_side),
                                e.kind,
                                name(peer)
                            ),
                        ));
                    }
                }
            }
            ConstraintKind::Link => {}
        }
    }

    (diags, work)
}

/// Flags directed cycles in the Gang/AsymGang subgraph (HV010). Import
/// direction is importer → imported; any SCC with more than one node
/// means the offload-coupling relation is circular.
fn gang_cycles(view: &GraphView<'_>, diags: &mut Vec<Diagnostic>) {
    let gang = Adjacency::new(
        view.nodes.len(),
        view.edges
            .iter()
            .filter(|e| matches!(e.kind, ConstraintKind::Gang | ConstraintKind::AsymGang))
            .map(|e| (e.from, e.to)),
        true,
    );
    cyclic_sccs(view.nodes.len(), &gang, |scc| {
        let names: Vec<&str> = scc.iter().map(|&n| view.nodes[n].bind_name).collect();
        diags.push(Diagnostic::new(
            HvCode::GangCycle,
            Loc::Node {
                index: scc[0],
                bind_name: view.nodes[scc[0]].bind_name.to_owned(),
            },
            format!("gang constraint cycle through {}", names.join(" -> ")),
        ));
    });
}

const KINDS: [ConstraintKind; 4] = [
    ConstraintKind::Link,
    ConstraintKind::Pull,
    ConstraintKind::Gang,
    ConstraintKind::AsymGang,
];

/// Flags node pairs connected by parallel edges with differing constraint
/// kinds (HV011): the resolver silently lets the strictest win.
fn conflicting_edges(view: &GraphView<'_>, diags: &mut Vec<Diagnostic>) {
    let pair_of = |e: &EdgeView| (e.from.min(e.to), e.from.max(e.to));
    let bit = |kind: ConstraintKind| 1u8 << kind as u8;
    for (i, a) in view.edges.iter().enumerate() {
        let pair = pair_of(a);
        if view.edges[..i].iter().any(|b| pair_of(b) == pair) {
            continue;
        }
        let kinds = view.edges[i + 1..]
            .iter()
            .filter(|b| pair_of(b) == pair)
            .fold(bit(a.kind), |kinds, b| kinds | bit(b.kind));
        if kinds.count_ones() > 1 {
            let mut names: Vec<&str> = KINDS
                .into_iter()
                .filter(|&k| kinds & bit(k) != 0)
                .map(|k| k.as_str())
                .collect();
            names.sort_unstable();
            diags.push(Diagnostic::new(
                HvCode::ConflictingEdges,
                Loc::Edge {
                    from: view.nodes[pair.0].bind_name.to_owned(),
                    to: view.nodes[pair.1].bind_name.to_owned(),
                },
                format!(
                    "parallel edges carry different constraints ({}); the strictest silently wins",
                    names.join(", ")
                ),
            ));
        }
    }
}

/// Tarjan's strongly-connected components, iterative, over `adj`; calls
/// `found` with each component of more than one node, its members in
/// ascending index order.
fn cyclic_sccs(n: usize, adj: &Adjacency, mut found: impl FnMut(&[usize])) {
    const UNSET: usize = usize::MAX;
    // Per node: (DFS index, low link, on the component stack).
    let mut state = vec![(UNSET, 0usize, false); n];
    let mut stack = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;

    for start in 0..n {
        if state[start].0 != UNSET {
            continue;
        }
        // call stack: (node, next child offset)
        call.push((start, 0));
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                state[v] = (next_index, next_index, true);
                next_index += 1;
                stack.push(v);
            }
            if let Some(&w) = adj.of(v).get(*ci) {
                *ci += 1;
                if state[w].0 == UNSET {
                    call.push((w, 0));
                } else if state[w].2 {
                    state[v].1 = state[v].1.min(state[w].0);
                }
            } else {
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    state[p].1 = state[p].1.min(state[v].1);
                }
                if state[v].1 == state[v].0 {
                    let at = stack
                        .iter()
                        .rposition(|&w| w == v)
                        .expect("v is on the stack");
                    for &w in &stack[at..] {
                        state[w].2 = false;
                    }
                    if stack.len() - at > 1 {
                        stack[at..].sort_unstable();
                        found(&stack[at..]);
                    }
                    stack.truncate(at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{test_view, EdgeView, NodeView};
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

    fn check(view: &GraphView) -> Vec<Diagnostic> {
        let pre = Precheck::narrow(view);
        run(view, &pre).0
    }

    #[test]
    fn gang_two_cycle_detected() {
        let view = test_view(
            vec![node("a", &[true, true]), node("b", &[true, true])],
            vec![
                edge(0, 1, ConstraintKind::Gang),
                edge(1, 0, ConstraintKind::Gang),
            ],
        );
        let diags = check(&view);
        assert_eq!(
            diags.iter().filter(|d| d.code == HvCode::GangCycle).count(),
            1
        );
    }

    #[test]
    fn asym_gang_three_cycle_detected() {
        let view = test_view(
            vec![
                node("a", &[true, true]),
                node("b", &[true, true]),
                node("c", &[true, true]),
            ],
            vec![
                edge(0, 1, ConstraintKind::AsymGang),
                edge(1, 2, ConstraintKind::AsymGang),
                edge(2, 0, ConstraintKind::AsymGang),
            ],
        );
        let diags = check(&view);
        assert!(diags.iter().any(|d| d.code == HvCode::GangCycle));
    }

    #[test]
    fn gang_chain_is_clean() {
        let view = test_view(
            vec![
                node("a", &[true, true]),
                node("b", &[true, true]),
                node("c", &[true, true]),
            ],
            vec![
                edge(0, 1, ConstraintKind::Gang),
                edge(1, 2, ConstraintKind::AsymGang),
            ],
        );
        assert!(check(&view).is_empty());
    }

    #[test]
    fn disjoint_pull_flagged_only_when_offloadable() {
        let disjoint = test_view(
            vec![
                node("a", &[true, true, false]),
                node("b", &[true, false, true]),
            ],
            vec![edge(0, 1, ConstraintKind::Pull)],
        );
        assert!(check(&disjoint)
            .iter()
            .any(|d| d.code == HvCode::DisjointPull));

        // Both host-only: Pull is trivially satisfied on the host.
        let both_host = test_view(
            vec![
                node("a", &[true, false, false]),
                node("b", &[true, false, false]),
            ],
            vec![edge(0, 1, ConstraintKind::Pull)],
        );
        assert!(check(&both_host).is_empty());
    }

    #[test]
    fn conflicting_parallel_edges_flagged_once() {
        let view = test_view(
            vec![node("a", &[true, true]), node("b", &[true, true])],
            vec![
                edge(0, 1, ConstraintKind::Link),
                edge(1, 0, ConstraintKind::Pull),
            ],
        );
        let diags = check(&view);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == HvCode::ConflictingEdges)
                .count(),
            1
        );
    }

    #[test]
    fn gang_forced_host_warns_at_the_edge() {
        let view = test_view(
            vec![node("a", &[true, false]), node("b", &[true, true])],
            vec![edge(0, 1, ConstraintKind::Gang)],
        );
        let diags = check(&view);
        assert!(diags.iter().any(|d| d.code == HvCode::GangForcedHost));
    }
}
