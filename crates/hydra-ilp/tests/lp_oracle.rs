//! Differential oracle for the zero-skipping simplex: on every LP here,
//! [`solve_lp`](hydra_ilp::solve_lp) and a [`Search`](hydra_ilp::Search)'s
//! root relaxation must return exactly what the dense kernel they
//! replaced returns (values and objective by `f64::to_bits`, and
//! `Infeasible`/`Unbounded` alike), after exactly as many pivots.
//!
//! The reference lives in [`reference::dense`]. The LPs are random ones
//! with `Le`/`Ge`/`Eq` rows, negative right-hand sides, duplicate terms,
//! redundant equalities and degenerate zero-rhs rows, under every bound
//! shape the tableau folds in; then the bound tightenings a
//! branch-and-bound search applies below each optimum (fixing a binary
//! at 0 or 1, splitting a fractional value), two levels deep. The §5
//! layout ILPs get the same treatment in the root `tests/ilp_pivots.rs`.

mod reference;

use hydra_ilp::model::{Direction, Outcome, Problem, Sense, VarId};
use proptest::prelude::*;
use reference::{compare, compare_tree};

/// A random LP. `vars` gives each variable's kind and bounds: `0` a
/// binary, `1` unbounded above, `2` a finite box, `3` a positive lower
/// bound. Row `r` of `rows` takes its sense from `senses[r] % 3`, its
/// rhs from `rhs[r]` and eight coefficients from `coeffs`, all in halves
/// so that ties and degenerate vertices are common; every fourth row
/// repeats a term, and `redundant` restates the first equality, once as
/// is and once doubled.
fn random_lp(
    vars: &[u8],
    objective: &[i8],
    (senses, rhs, coeffs): (&[u8], &[i8], &[i8]),
    redundant: bool,
    maximize: bool,
) -> Problem {
    let mut p = Problem::new(if maximize {
        Direction::Maximize
    } else {
        Direction::Minimize
    });
    let ids: Vec<VarId> = vars
        .iter()
        .enumerate()
        .map(|(j, &kind)| {
            let name = format!("x{j}");
            match kind % 4 {
                0 => p.add_binary(&name),
                1 => p.add_var(&name, 0.0, f64::INFINITY, false),
                2 => p.add_var(&name, 0.0, 1.5 + j as f64, false),
                _ => p.add_var(&name, 0.5, 4.0, false),
            }
        })
        .collect();
    let half = |k: i8| f64::from(k) / 2.0;
    p.set_objective(
        ids.iter()
            .zip(objective)
            .map(|(&v, &k)| (v, half(k)))
            .collect(),
    );
    let mut first_eq = None;
    for (r, (sense, rhs)) in senses.iter().zip(rhs).enumerate() {
        let mut terms: Vec<(VarId, f64)> = ids
            .iter()
            .zip(&coeffs[8 * r..])
            .filter(|&(_, &k)| k != 0)
            .map(|(&v, &k)| (v, half(k)))
            .collect();
        if r % 4 == 3 && !terms.is_empty() {
            terms.push((terms[0].0, 0.5));
        }
        let sense = [Sense::Le, Sense::Ge, Sense::Eq][usize::from(sense % 3)];
        let rhs = half(*rhs);
        if sense == Sense::Eq && first_eq.is_none() {
            first_eq = Some((terms.clone(), rhs));
        }
        p.add_constraint(&format!("c{r}"), terms, sense, rhs);
    }
    if let (true, Some((terms, rhs))) = (redundant, first_eq) {
        let doubled = terms.iter().map(|&(v, k)| (v, 2.0 * k)).collect();
        p.add_constraint("again", terms, Sense::Eq, rhs);
        p.add_constraint("twice", doubled, Sense::Eq, 2.0 * rhs);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn zero_skipping_simplex_matches_the_dense_reference(
        vars in proptest::collection::vec(0u8..4, 1..8),
        objective in proptest::collection::vec(-6i8..=6, 8),
        senses in proptest::collection::vec(0u8..3, 0..8),
        rhs in proptest::collection::vec(-8i8..=12, 8),
        coeffs in proptest::collection::vec(-4i8..=4, 64),
        redundant in any::<bool>(),
        maximize in any::<bool>(),
    ) {
        let rows = (senses.as_slice(), rhs.as_slice(), coeffs.as_slice());
        let p = random_lp(&vars, &objective, rows, redundant, maximize);
        if let Err(e) = compare_tree(&p, 4) {
            prop_assert!(false, "{}\n{:?}", e, p);
        }
    }
}

/// Fixed LPs at the edges: no rows at all, an unbounded ray, an
/// infeasible pair, Beale's cycling example (degenerate zero-rhs rows
/// that cycle under the textbook rule), a row of duplicate terms that
/// cancel, and an equality stated twice.
#[test]
fn fixed_edge_cases_match_the_dense_reference() {
    let mut cases = Vec::new();

    let mut p = Problem::new(Direction::Maximize);
    let x = p.add_var("x", 0.0, f64::INFINITY, false);
    let y = p.add_var("y", 0.0, 2.0, false);
    p.set_objective(vec![(x, 1.0), (y, 1.0)]);
    cases.push(("no rows, unbounded", p.clone(), Outcome::Unbounded));
    p.add_constraint("cap", vec![(x, 1.0), (y, -1.0)], Sense::Le, -1.0);
    p.add_constraint("floor", vec![(x, 1.0)], Sense::Ge, 3.0);
    p.add_constraint("ceil", vec![(x, 1.0)], Sense::Le, 2.0);
    cases.push(("infeasible pair", p, Outcome::Infeasible));

    let mut p = Problem::new(Direction::Maximize);
    let v: Vec<VarId> = (0..4)
        .map(|j| p.add_var(&format!("x{j}"), 0.0, f64::INFINITY, false))
        .collect();
    p.set_objective(vec![
        (v[0], 0.75),
        (v[1], -150.0),
        (v[2], 0.02),
        (v[3], -6.0),
    ]);
    p.add_constraint(
        "r1",
        vec![(v[0], 0.25), (v[1], -60.0), (v[2], -0.04), (v[3], 9.0)],
        Sense::Le,
        0.0,
    );
    p.add_constraint(
        "r2",
        vec![(v[0], 0.5), (v[1], -90.0), (v[2], -0.02), (v[3], 3.0)],
        Sense::Le,
        0.0,
    );
    p.add_constraint("r3", vec![(v[2], 1.0)], Sense::Le, 1.0);
    let beale = p.clone();

    let mut p = Problem::new(Direction::Minimize);
    let x = p.add_binary("x");
    let y = p.add_binary("y");
    p.set_objective(vec![(x, 1.0), (y, 2.0)]);
    p.add_constraint(
        "cancel",
        vec![(x, 1.0), (x, -1.0), (y, 1.0)],
        Sense::Ge,
        0.5,
    );
    p.add_constraint("pick", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0);
    p.add_constraint("pick again", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0);
    let duplicates = p;

    for (name, p, expected) in &cases {
        let (outcome, _) = compare(p).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&outcome, expected, "{name}");
    }
    for (name, p) in [("Beale", beale), ("duplicate terms", duplicates)] {
        let (outcome, pivots) = compare(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.solution().is_some(), "{name}: {outcome:?}");
        assert!(pivots > 0, "{name}");
        compare_tree(&p, 8).unwrap_or_else(|e| panic!("{name} tightened: {e}"));
    }
}
