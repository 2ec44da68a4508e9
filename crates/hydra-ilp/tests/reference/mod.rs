//! The LP oracle's shared half: the dense reference kernel in [`dense`]
//! and the bit-for-bit comparison of `hydra_ilp`'s kernel against it.
//! `crates/hydra-ilp/tests/lp_oracle.rs` drives it with random LPs and
//! branch-and-bound bound tightenings; the root `tests/ilp_pivots.rs`
//! includes this module by path and drives it with the §5 layout ILPs.

pub mod dense;

use hydra_ilp::model::{Outcome, Problem};
use hydra_ilp::{solve_lp, Search};

/// Bitwise outcome equality: `f64`'s `==` would let `-0.0` pass for
/// `0.0`, and the kernels must agree on the very bits.
pub fn same_bits(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Optimal(x), Outcome::Optimal(y)) => {
            x.objective.to_bits() == y.objective.to_bits()
                && x.values.len() == y.values.len()
                && x.values
                    .iter()
                    .zip(&y.values)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// `problem` with its variable bounds replaced by `bounds`: a
/// branch-and-bound node's relaxation as a problem of its own.
pub fn with_bounds(problem: &Problem, bounds: &[(f64, f64)]) -> Problem {
    let mut p = Problem::new(problem.direction());
    for (v, &(lower, upper)) in problem.variables().iter().zip(bounds) {
        p.add_var(v.name.clone(), lower, upper, v.integer);
    }
    p.set_objective(problem.objective().to_vec());
    for c in problem.constraints() {
        p.add_constraint(c.name.clone(), c.terms.clone(), c.sense, c.rhs);
    }
    p
}

/// Solves `problem` with `hydra_ilp`'s kernel, through both
/// [`solve_lp`] and a [`Search`]'s root relaxation, and with the dense
/// reference. Returns the outcome and its pivot count when all three
/// outcomes match bit for bit and the pivot counts are equal, or the
/// first difference.
pub fn compare(problem: &Problem) -> Result<(Outcome, u64), String> {
    let (expected, expected_pivots) = dense::solve_lp(problem);
    let mut search = Search::new(problem);
    let got = search.root_relaxation().clone();
    let pivots = search.pivots();
    if !same_bits(&got, &expected) {
        return Err(format!("kernel {got:?} != reference {expected:?}"));
    }
    if !same_bits(&solve_lp(problem), &expected) {
        return Err(format!("solve_lp differs from the reference {expected:?}"));
    }
    if pivots != expected_pivots {
        return Err(format!(
            "kernel took {pivots} pivots, reference {expected_pivots}"
        ));
    }
    Ok((got, pivots))
}

/// The bound tightenings branch-and-bound applies below a relaxation
/// with the given `values`: first, for each fractional value, the
/// `x <= floor` and `x >= ceil` split; then, for each integer variable
/// whose bounds allow it, fixing it at 0 and at 1.
pub fn tightenings(problem: &Problem, values: &[f64]) -> Vec<Vec<(f64, f64)>> {
    let bounds: Vec<(f64, f64)> = problem
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    let (mut splits, mut fixes) = (Vec::new(), Vec::new());
    for (j, (v, &x)) in problem.variables().iter().zip(values).enumerate() {
        let (lower, upper) = bounds[j];
        let node = |b: (f64, f64)| {
            let mut node = bounds.clone();
            node[j] = b;
            node
        };
        if x.fract() != 0.0 {
            splits.push(node((lower.max(0.0), upper.min(x.floor()))));
            splits.push(node((lower.max(x.ceil()), upper)));
        }
        if v.integer && lower <= 0.0 && upper >= 1.0 {
            fixes.push(node((0.0, 0.0)));
            fixes.push(node((1.0, 1.0)));
        }
    }
    splits.retain(|node| node.iter().all(|&(lower, upper)| lower <= upper));
    splits.extend(fixes);
    splits
}

/// Compares `problem` and then, two levels deep, the tightenings below
/// each optimal relaxation (at most `fanout` per node). Returns how many
/// LPs it compared.
pub fn compare_tree(problem: &Problem, fanout: usize) -> Result<usize, String> {
    let mut compared = 0;
    let mut level = vec![problem.clone()];
    for depth in 0..3 {
        let mut next = Vec::new();
        for p in &level {
            let (outcome, _) = compare(p)?;
            compared += 1;
            if let (Outcome::Optimal(s), true) = (outcome, depth < 2) {
                let nodes = tightenings(p, &s.values);
                next.extend(nodes.iter().take(fanout).map(|b| with_bounds(p, b)));
            }
        }
        level = next;
    }
    Ok(compared)
}
