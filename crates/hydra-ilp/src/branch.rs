//! Branch-and-bound integer programming on top of the simplex.
//!
//! Solves the 0/1 (or general-integer) [`Problem`] exactly: solve the LP
//! relaxation, branch on the most fractional integer variable, prune by
//! bound against the incumbent. Layout graphs from §5 translate into a few
//! dozen binaries, well within reach of exact search.
//!
//! A [`Search`] keeps the tree it has explored. A node is a
//! `(lower, upper)` bound pair per variable over one borrowed
//! [`Problem`], and its relaxation is solved at most once: a later
//! [`Search::solve`] (say, with another warm-start hint) or
//! [`Search::root_relaxation`] replays the memoized relaxations, so it
//! visits exactly the nodes and returns exactly the answer a fresh search
//! would.

use crate::model::{Direction, Outcome, Problem, Solution};
use crate::simplex::Tableau;

const INT_TOL: f64 = 1e-6;

/// Statistics from one branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes visited, each with its LP relaxation (solved, or replayed
    /// from a [`Search`]'s memo).
    pub nodes: u64,
    /// Nodes pruned by bound.
    pub pruned: u64,
    /// True when the answer was proven without a search: an infeasibility
    /// pre-check (see `hydra-verify`) established the only feasible
    /// placement before any LP relaxation ran, so `nodes == 0`.
    pub presolved: bool,
    /// Decision variables (placement nodes) re-solved by an incremental
    /// repair instead of a from-scratch search; zero on a full solve.
    pub repaired_nodes: u64,
    /// Warm-start hints accepted as the initial incumbent by
    /// [`solve_ilp_warm`]; zero when no (feasible) hint was supplied.
    pub warm_start_hits: u64,
}

/// Exact ILP solution plus search statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpResult {
    /// The outcome.
    pub outcome: Outcome,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Solves `problem` to proven integer optimality.
///
/// # Examples
///
/// ```
/// use hydra_ilp::model::{Direction, Problem, Sense};
/// use hydra_ilp::branch::solve_ilp;
///
/// // Knapsack: max 10a + 6b + 4c  s.t.  5a + 4b + 3c <= 9, binary.
/// let mut p = Problem::new(Direction::Maximize);
/// let a = p.add_binary("a");
/// let b = p.add_binary("b");
/// let c = p.add_binary("c");
/// p.set_objective(vec![(a, 10.0), (b, 6.0), (c, 4.0)]);
/// p.add_constraint("w", vec![(a, 5.0), (b, 4.0), (c, 3.0)], Sense::Le, 9.0);
/// let r = solve_ilp(&p);
/// let sol = r.outcome.solution().unwrap();
/// assert_eq!(sol.objective, 16.0); // a + b
/// ```
pub fn solve_ilp(problem: &Problem) -> IlpResult {
    solve_ilp_warm(problem, None)
}

/// [`solve_ilp`] with an optional warm-start hint.
///
/// When `hint` is an integer-feasible point of `problem` it is installed
/// as the initial incumbent before the search begins, so branch-and-bound
/// starts with a proven lower (maximize) / upper (minimize) bound and can
/// prune every subtree that cannot beat it — the classic warm start an
/// incremental re-solve gets from the previous solution. An infeasible or
/// fractional hint is simply ignored. The result is always proven
/// optimal; only the amount of search changes.
pub fn solve_ilp_warm(problem: &Problem, hint: Option<&[f64]>) -> IlpResult {
    Search::new(problem).solve(hint)
}

/// One node of the search tree.
#[derive(Debug)]
struct Node {
    /// Per-variable `(lower, upper)` bounds: the problem's own, tightened
    /// along the branches from the root.
    bounds: Vec<(f64, f64)>,
    /// The LP relaxation over `bounds`, once solved.
    relaxation: Option<Outcome>,
    /// The two children, in the order the search pushes them, once the
    /// node has branched.
    children: Option<[usize; 2]>,
}

impl Node {
    fn new(bounds: Vec<(f64, f64)>) -> Self {
        Node {
            bounds,
            relaxation: None,
            children: None,
        }
    }
}

/// A reusable branch-and-bound search over one [`Problem`].
///
/// Each node's children depend only on its own relaxation, so the tree
/// is the same in every search; what an incumbent (or hint) changes is
/// only which nodes are pruned. `Search` therefore keeps every node it
/// has visited, with its relaxation, and a later [`Search::solve`] or
/// [`Search::root_relaxation`] runs the simplex only on nodes no earlier
/// call reached. Results and [`SearchStats`] are bitwise those of a fresh
/// [`solve_ilp_warm`] / [`solve_lp`](crate::solve_lp) call.
///
/// # Examples
///
/// ```
/// use hydra_ilp::branch::Search;
/// use hydra_ilp::model::{Direction, Problem, Sense};
///
/// let mut p = Problem::new(Direction::Maximize);
/// let x = p.add_binary("x");
/// let y = p.add_binary("y");
/// p.set_objective(vec![(x, 1.0), (y, 1.0)]);
/// p.add_constraint("c", vec![(x, 2.0), (y, 2.0)], Sense::Le, 3.0);
/// let mut search = Search::new(&p);
/// let first = search.solve(None);
/// let solved = search.relaxations_solved();
/// // The root bound is a memo hit, and so is a re-solve from a hint.
/// assert!(search.root_relaxation().solution().unwrap().objective > 1.0);
/// let again = search.solve(Some(&[1.0, 0.0]));
/// assert_eq!(search.relaxations_solved(), solved);
/// assert_eq!(again.outcome, first.outcome);
/// ```
#[derive(Debug)]
pub struct Search<'p> {
    problem: &'p Problem,
    /// The tree explored so far; `nodes[0]` is the root.
    nodes: Vec<Node>,
    tableau: Tableau,
    relaxations_solved: u64,
}

impl<'p> Search<'p> {
    /// A search over `problem` that has visited nothing yet.
    pub fn new(problem: &'p Problem) -> Self {
        Search {
            problem,
            nodes: vec![Node::new(problem.bounds())],
            tableau: Tableau::default(),
            relaxations_solved: 0,
        }
    }

    /// The problem being searched.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// How many LP relaxations this search has actually run (memo hits
    /// excluded).
    pub fn relaxations_solved(&self) -> u64 {
        self.relaxations_solved
    }

    /// How many simplex pivots those relaxations took, over phase 1, the
    /// drive-out of artificials and phase 2: an exact measure of the LP
    /// work a search did, the same on every machine.
    pub fn pivots(&self) -> u64 {
        self.tableau.pivots()
    }

    /// The root LP relaxation: [`solve_lp`](crate::solve_lp) of the
    /// problem, solved at most once per search.
    pub fn root_relaxation(&mut self) -> &Outcome {
        self.relaxation(0)
    }

    /// The relaxation of node `id`, solving it on first use.
    fn relaxation(&mut self, id: usize) -> &Outcome {
        let node = &mut self.nodes[id];
        if node.relaxation.is_none() {
            node.relaxation = Some(self.tableau.solve(self.problem, &node.bounds));
            self.relaxations_solved += 1;
        }
        node.relaxation.as_ref().expect("solved above")
    }

    /// The children of node `id` from branching on variable `j` at
    /// relaxation value `x`, created on first use: `x_j <= floor(x)` and
    /// `x_j >= ceil(x)`, the side nearer `x` pushed last (explored first).
    fn children(&mut self, id: usize, j: usize, x: f64) -> [usize; 2] {
        if let Some(children) = self.nodes[id].children {
            return children;
        }
        let bounds = &self.nodes[id].bounds;
        let (lower, upper) = bounds[j];
        let mut down = bounds.clone();
        down[j] = (lower.max(0.0), upper.min(x.floor()));
        let mut up = bounds.clone();
        up[j] = (lower.max(x.ceil()), upper);
        let (down_id, up_id) = (self.nodes.len(), self.nodes.len() + 1);
        self.nodes.push(Node::new(down));
        self.nodes.push(Node::new(up));
        let children = if x - x.floor() > 0.5 {
            [down_id, up_id]
        } else {
            [up_id, down_id]
        };
        self.nodes[id].children = Some(children);
        children
    }

    /// Searches to proven integer optimality, warm-started from `hint`
    /// as [`solve_ilp_warm`] describes.
    pub fn solve(&mut self, hint: Option<&[f64]>) -> IlpResult {
        let problem = self.problem;
        let mut stats = SearchStats::default();
        let maximizing = problem.direction() == Direction::Maximize;
        let mut incumbent: Option<Solution> = None;
        if let Some(values) = hint {
            let integral = values.len() == problem.num_vars()
                && problem
                    .variables()
                    .iter()
                    .zip(values)
                    .all(|(v, &x)| !v.integer || (x - x.round()).abs() <= INT_TOL);
            if integral && problem.check_feasible(values, INT_TOL).is_ok() {
                incumbent = Some(rounded(problem, values.to_vec()));
                stats.warm_start_hits = 1;
            }
        }

        // Depth-first over the tree, from the root.
        let mut stack: Vec<usize> = vec![0];
        let mut unbounded = false;

        while let Some(id) = stack.pop() {
            stats.nodes += 1;
            let relaxed = match self.relaxation(id) {
                Outcome::Infeasible => continue,
                Outcome::Unbounded => {
                    // The relaxation being unbounded does not prove the ILP is,
                    // but for the problem class here (bounded binaries) it only
                    // happens when continuous vars are genuinely unbounded.
                    unbounded = true;
                    break;
                }
                Outcome::Optimal(s) => s,
            };

            // Bound: can this node beat the incumbent?
            if let Some(best) = &incumbent {
                let no_better = if maximizing {
                    relaxed.objective <= best.objective + INT_TOL
                } else {
                    relaxed.objective >= best.objective - INT_TOL
                };
                if no_better {
                    stats.pruned += 1;
                    continue;
                }
            }

            // Find the most fractional integer variable.
            let mut branch_var: Option<(usize, f64)> = None;
            for (j, v) in problem.variables().iter().enumerate() {
                if !v.integer {
                    continue;
                }
                let x = relaxed.values[j];
                let frac = (x - x.round()).abs();
                if frac > INT_TOL {
                    let dist_to_half = (x - x.floor() - 0.5).abs();
                    if branch_var.is_none_or(|(_, d)| dist_to_half < d) {
                        branch_var = Some((j, dist_to_half));
                    }
                }
            }

            match branch_var {
                None => {
                    // Integral: candidate incumbent.
                    let candidate = rounded(problem, relaxed.values.clone());
                    let better = match &incumbent {
                        None => true,
                        Some(best) => {
                            if maximizing {
                                candidate.objective > best.objective + INT_TOL
                            } else {
                                candidate.objective < best.objective - INT_TOL
                            }
                        }
                    };
                    if better {
                        incumbent = Some(candidate);
                    }
                }
                Some((j, _)) => {
                    let x = relaxed.values[j];
                    stack.extend(self.children(id, j, x));
                }
            }
        }

        let outcome = if unbounded {
            Outcome::Unbounded
        } else {
            // A feasible relaxation does not guarantee an integer point, so an
            // empty incumbent is a legitimate "integer infeasible" outcome.
            match incumbent {
                Some(s) => Outcome::Optimal(s),
                None => Outcome::Infeasible,
            }
        };
        IlpResult { outcome, stats }
    }
}

/// `values` with every integer variable rounded, and its objective.
fn rounded(problem: &Problem, mut values: Vec<f64>) -> Solution {
    for (x, v) in values.iter_mut().zip(problem.variables()) {
        if v.integer {
            *x = x.round();
        }
    }
    let objective = problem.objective_value(&values);
    Solution { values, objective }
}

/// Exhaustively enumerates all assignments of the problem's binary
/// variables (continuous variables are not supported) — a reference
/// oracle for testing the branch-and-bound solver on small instances.
///
/// # Panics
///
/// Panics if the problem has a non-binary variable or more than 24
/// binaries.
pub fn solve_by_enumeration(problem: &Problem) -> Outcome {
    let n = problem.num_vars();
    assert!(n <= 24, "enumeration limited to 24 binaries");
    for v in problem.variables() {
        assert!(
            v.integer && v.lower >= 0.0 && v.upper <= 1.0,
            "enumeration requires binary variables"
        );
    }
    let maximizing = problem.direction() == Direction::Maximize;
    let mut best: Option<Solution> = None;
    for mask in 0u32..(1 << n) {
        let values: Vec<f64> = (0..n)
            .map(|j| if mask >> j & 1 == 1 { 1.0 } else { 0.0 })
            .collect();
        if problem.check_feasible(&values, 1e-9).is_err() {
            continue;
        }
        let objective = problem.objective_value(&values);
        let better = match &best {
            None => true,
            Some(b) => {
                if maximizing {
                    objective > b.objective
                } else {
                    objective < b.objective
                }
            }
        };
        if better {
            best = Some(Solution { values, objective });
        }
    }
    match best {
        Some(s) => Outcome::Optimal(s),
        None => Outcome::Infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    #[test]
    fn knapsack_exact() {
        let mut p = Problem::new(Direction::Maximize);
        let items: Vec<_> = [(10.0, 5.0), (6.0, 4.0), (4.0, 3.0), (7.0, 5.0)]
            .iter()
            .enumerate()
            .map(|(i, _)| p.add_binary(&format!("x{i}")))
            .collect();
        p.set_objective(vec![
            (items[0], 10.0),
            (items[1], 6.0),
            (items[2], 4.0),
            (items[3], 7.0),
        ]);
        p.add_constraint(
            "w",
            vec![
                (items[0], 5.0),
                (items[1], 4.0),
                (items[2], 3.0),
                (items[3], 5.0),
            ],
            Sense::Le,
            10.0,
        );
        let r = solve_ilp(&p);
        let sol = r.outcome.solution().unwrap();
        assert_eq!(sol.objective, 17.0); // items 0 and 3
        assert!(r.stats.nodes >= 1);
        assert!(p.check_feasible(&sol.values, 1e-9).is_ok());
    }

    #[test]
    fn lp_rounding_is_not_enough() {
        // Fractional LP optimum; ILP must branch.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.set_objective(vec![(x, 1.0), (y, 1.0)]);
        p.add_constraint("c", vec![(x, 2.0), (y, 2.0)], Sense::Le, 3.0);
        let r = solve_ilp(&p);
        let sol = r.outcome.solution().unwrap();
        assert_eq!(sol.objective, 1.0);
        assert!(r.stats.nodes > 1, "should have branched");
    }

    #[test]
    fn infeasible_ilp() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.set_objective(vec![(x, 1.0)]);
        p.add_constraint("a", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        assert_eq!(solve_ilp(&p).outcome, Outcome::Infeasible);
    }

    #[test]
    fn integer_feasible_but_lp_fractional_equality() {
        // x + y = 1 with max 2x + y: answer x=1.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.set_objective(vec![(x, 2.0), (y, 1.0)]);
        p.add_constraint("pick", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0);
        let sol = solve_ilp(&p).outcome.solution().unwrap().clone();
        assert_eq!(sol.objective, 2.0);
        assert!(sol.is_set(x));
        assert!(!sol.is_set(y));
    }

    #[test]
    fn minimization_ilp() {
        // Set cover: min x1+x2+x3, x1+x2>=1, x2+x3>=1, x1+x3>=1 -> 2.
        let mut p = Problem::new(Direction::Minimize);
        let x1 = p.add_binary("x1");
        let x2 = p.add_binary("x2");
        let x3 = p.add_binary("x3");
        p.set_objective(vec![(x1, 1.0), (x2, 1.0), (x3, 1.0)]);
        p.add_constraint("a", vec![(x1, 1.0), (x2, 1.0)], Sense::Ge, 1.0);
        p.add_constraint("b", vec![(x2, 1.0), (x3, 1.0)], Sense::Ge, 1.0);
        p.add_constraint("c", vec![(x1, 1.0), (x3, 1.0)], Sense::Ge, 1.0);
        let sol = solve_ilp(&p).outcome.solution().unwrap().clone();
        assert_eq!(sol.objective, 2.0);
    }

    #[test]
    fn matches_enumeration_on_random_instances() {
        use hydra_sim_free_rng::Lcg;
        // Small deterministic LCG to avoid a dependency here.
        mod hydra_sim_free_rng {
            pub struct Lcg(pub u64);
            impl Lcg {
                pub fn next(&mut self) -> u64 {
                    self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
                    self.0 >> 33
                }
                pub fn f(&mut self) -> f64 {
                    (self.next() % 1000) as f64 / 100.0
                }
            }
        }
        let mut rng = Lcg(42);
        for trial in 0..30 {
            let n = 4 + (trial % 5); // 4..8 binaries
            let mut p = Problem::new(if trial % 2 == 0 {
                Direction::Maximize
            } else {
                Direction::Minimize
            });
            let vars: Vec<_> = (0..n).map(|i| p.add_binary(&format!("x{i}"))).collect();
            p.set_objective(vars.iter().map(|&v| (v, rng.f() - 2.0)).collect());
            let ncons = 2 + (trial % 3);
            for c in 0..ncons {
                let terms: Vec<_> = vars.iter().map(|&v| (v, rng.f() - 3.0)).collect();
                let sense = match rng.next() % 3 {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Le, // keep Eq rarer: random Eq is usually infeasible
                };
                let rhs = rng.f();
                p.add_constraint(&format!("c{c}"), terms, sense, rhs);
            }
            // For minimization an all-zero point often trivially satisfies
            // Le constraints; that's fine — we just compare the answers.
            let exact = solve_ilp(&p).outcome;
            let brute = solve_by_enumeration(&p);
            match (&exact, &brute) {
                (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() < 1e-6,
                        "trial {trial}: bnb {} vs brute {}",
                        a.objective,
                        b.objective
                    );
                    assert!(p.check_feasible(&a.values, 1e-6).is_ok());
                }
                (Outcome::Infeasible, Outcome::Infeasible) => {}
                other => panic!("trial {trial}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn warm_start_accepts_feasible_hint_and_stays_optimal() {
        // Same knapsack as `knapsack_exact`; hint the true optimum.
        let mut p = Problem::new(Direction::Maximize);
        let vars: Vec<_> = (0..4).map(|i| p.add_binary(&format!("x{i}"))).collect();
        p.set_objective(vec![
            (vars[0], 10.0),
            (vars[1], 6.0),
            (vars[2], 4.0),
            (vars[3], 7.0),
        ]);
        p.add_constraint(
            "w",
            vec![
                (vars[0], 5.0),
                (vars[1], 4.0),
                (vars[2], 3.0),
                (vars[3], 5.0),
            ],
            Sense::Le,
            10.0,
        );
        let cold = solve_ilp(&p);
        let warm = solve_ilp_warm(&p, Some(&[1.0, 0.0, 0.0, 1.0]));
        assert_eq!(warm.outcome.solution().unwrap().objective, 17.0);
        assert_eq!(warm.stats.warm_start_hits, 1);
        assert!(
            warm.stats.nodes <= cold.stats.nodes,
            "a hinted optimum never searches more: warm {} vs cold {}",
            warm.stats.nodes,
            cold.stats.nodes
        );
        // A suboptimal-but-feasible hint still yields the proven optimum.
        let warm2 = solve_ilp_warm(&p, Some(&[0.0, 1.0, 1.0, 0.0]));
        assert_eq!(warm2.outcome.solution().unwrap().objective, 17.0);
        assert_eq!(warm2.stats.warm_start_hits, 1);
    }

    #[test]
    fn warm_start_ignores_infeasible_or_fractional_hints() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.set_objective(vec![(x, 1.0), (y, 1.0)]);
        p.add_constraint("c", vec![(x, 2.0), (y, 2.0)], Sense::Le, 3.0);
        // Violates the constraint.
        let r = solve_ilp_warm(&p, Some(&[1.0, 1.0]));
        assert_eq!(r.stats.warm_start_hits, 0);
        assert_eq!(r.outcome.solution().unwrap().objective, 1.0);
        // Fractional on a binary.
        let r = solve_ilp_warm(&p, Some(&[0.5, 0.0]));
        assert_eq!(r.stats.warm_start_hits, 0);
        // Wrong arity.
        let r = solve_ilp_warm(&p, Some(&[1.0]));
        assert_eq!(r.stats.warm_start_hits, 0);
        assert_eq!(r.outcome.solution().unwrap().objective, 1.0);
    }

    #[test]
    fn enumeration_rejects_continuous_vars() {
        let mut p = Problem::new(Direction::Maximize);
        p.add_var("x", 0.0, 2.0, false);
        let result = std::panic::catch_unwind(|| solve_by_enumeration(&p));
        assert!(result.is_err());
    }
}
