//! Channel-topology analysis: the wait-for graph of synchronous calls.
//!
//! Every import edge becomes a synchronous channel at deployment time
//! (the importer blocks in `send_call` until its downstream replies), so
//! the import graph *is* the static wait-for graph. A directed cycle in
//! it is a deadlock the moment every member blocks on its downstream
//! call; nodes unreachable from any deployment root are dead weight the
//! executive will never instantiate.

use hydra_odf::odf::Guid;

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::input::GraphView;

/// Runs the channel pass; returns (diagnostics, work units).
///
/// `roots` are the GUIDs deployment starts from; `None` infers them as
/// the nodes nothing imports. When no root exists at all (the whole set
/// is cyclic) the reachability lint is skipped — the cycle itself is
/// already reported.
pub(crate) fn run(view: &GraphView<'_>, roots: Option<&[Guid]>) -> (Vec<Diagnostic>, u64) {
    let mut diags = Vec::new();
    let work = (view.nodes.len() + view.edges.len()) as u64;

    wait_for_cycles(view, &mut diags);
    unreachable_nodes(view, roots, &mut diags);

    (diags, work)
}

/// HV030: directed cycles in the wait-for graph, found by DFS
/// back-edge detection (deterministic: nodes and successors visited in
/// index order; one diagnostic per distinct cycle entry point).
fn wait_for_cycles(view: &GraphView<'_>, diags: &mut Vec<Diagnostic>) {
    // 0 = unvisited, 1 = on current DFS path, 2 = done.
    let mut state = vec![0u8; view.nodes.len()];
    // (node, next successor offset); the nodes are the 1-states.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..view.nodes.len() {
        if state[start] != 0 {
            continue;
        }
        stack.push((start, 0));
        state[start] = 1;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if let Some(&w) = view.successors(v).get(*ci) {
                *ci += 1;
                match state[w] {
                    0 => {
                        state[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => {
                        let from = stack.iter().position(|&(p, _)| p == w).unwrap_or(0);
                        let names: Vec<&str> = stack[from..]
                            .iter()
                            .map(|&(n, _)| n)
                            .chain(std::iter::once(w))
                            .map(|n| view.nodes[n].bind_name)
                            .collect();
                        diags.push(Diagnostic::new(
                            HvCode::ChannelDeadlock,
                            Loc::Node {
                                index: w,
                                bind_name: view.nodes[w].bind_name.to_owned(),
                            },
                            format!("synchronous wait-for cycle: {}", names.join(" -> ")),
                        ));
                    }
                    _ => {}
                }
            } else {
                state[v] = 2;
                stack.pop();
            }
        }
    }
}

/// HV031: nodes no deployment root can reach.
fn unreachable_nodes(view: &GraphView<'_>, roots: Option<&[Guid]>, diags: &mut Vec<Diagnostic>) {
    let mut reach = vec![false; view.nodes.len()];
    let mut queue: Vec<usize> = view.roots(roots).collect();
    if queue.is_empty() {
        return;
    }
    for &r in &queue {
        reach[r] = true;
    }
    while let Some(v) = queue.pop() {
        for &w in view.successors(v) {
            if !reach[w] {
                reach[w] = true;
                queue.push(w);
            }
        }
    }
    for (n, node) in view.nodes.iter().enumerate() {
        if !reach[n] {
            diags.push(Diagnostic::new(
                HvCode::UnreachableOffcode,
                Loc::Node {
                    index: n,
                    bind_name: node.bind_name.to_owned(),
                },
                "not reachable from any deployment root; it will never be instantiated",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{test_view, EdgeView, NodeView};
    use hydra_odf::odf::ConstraintKind;

    fn node(name: &str, guid: u64) -> (NodeView<'_>, &'static [bool]) {
        let node = NodeView {
            guid: Guid(guid),
            bind_name: name,
            demand: 1024,
            traffic: None,
        };
        (node, &[true, true])
    }

    fn edge(from: usize, to: usize) -> EdgeView {
        EdgeView {
            from,
            to,
            kind: ConstraintKind::Link,
        }
    }

    #[test]
    fn dag_is_clean() {
        let view = test_view(
            vec![node("a", 1), node("b", 2), node("c", 3)],
            vec![edge(0, 1), edge(0, 2), edge(1, 2)],
        );
        let (diags, _) = run(&view, None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cycle_is_a_deadlock() {
        let view = test_view(
            vec![node("a", 1), node("b", 2), node("c", 3)],
            vec![edge(0, 1), edge(1, 2), edge(2, 1)],
        );
        let (diags, _) = run(&view, None);
        let dl: Vec<_> = diags
            .iter()
            .filter(|d| d.code == HvCode::ChannelDeadlock)
            .collect();
        assert_eq!(dl.len(), 1);
        assert!(dl[0].message.contains("b -> c -> b"));
    }

    #[test]
    fn unreachable_node_flagged_with_inferred_roots() {
        // a -> b; c floats free but is imported by nobody, so it is a root
        // itself; d is imported by c only via... make d imported by nobody?
        // Use: a -> b, c -> c-island where c is a root too: everything
        // reachable. For a real orphan we need an imported node with an
        // unreachable importer — impossible with inferred roots, so use
        // explicit roots below and a cyclic pair here.
        let view = test_view(
            vec![node("a", 1), node("b", 2), node("c", 3), node("d", 4)],
            vec![edge(0, 1), edge(2, 3), edge(3, 2)],
        );
        let (diags, _) = run(&view, None);
        // c/d form a rootless cycle: deadlock fires, and neither is
        // reachable from the only root `a`.
        assert!(diags.iter().any(|d| d.code == HvCode::ChannelDeadlock));
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == HvCode::UnreachableOffcode)
                .count(),
            2
        );
    }

    #[test]
    fn explicit_roots_narrow_reachability() {
        let view = test_view(
            vec![node("a", 1), node("b", 2), node("c", 3)],
            vec![edge(0, 1)],
        );
        let (diags, _) = run(&view, Some(&[Guid(1)]));
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.code == HvCode::UnreachableOffcode)
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert!(matches!(&unreachable[0].loc, Loc::Node { index: 2, .. }));
    }

    #[test]
    fn fully_cyclic_set_skips_reachability() {
        let view = test_view(
            vec![node("a", 1), node("b", 2)],
            vec![edge(0, 1), edge(1, 0)],
        );
        let (diags, _) = run(&view, None);
        assert!(diags.iter().any(|d| d.code == HvCode::ChannelDeadlock));
        assert!(!diags.iter().any(|d| d.code == HvCode::UnreachableOffcode));
    }
}
