//! Differential oracle for the memoized [`Search`]: reusing one search
//! across a solve, the root bound and a second, differently hinted solve
//! must return bitwise what fresh [`solve_ilp_warm`] and [`solve_lp`]
//! calls return (values, objective and [`SearchStats`]), while the
//! root bound after a solve runs no new LP relaxation.

use hydra_ilp::model::{Direction, Outcome, Problem, Sense};
use hydra_ilp::{solve_ilp_warm, solve_lp, Search};
use proptest::prelude::*;

/// Bitwise outcome equality: `f64`'s `==` would let `-0.0` pass for
/// `0.0`, and a memo must replay the very bits it stored.
fn same_bits(a: &Outcome, b: &Outcome) -> bool {
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

/// A random mixed program: `n` binaries, plus a bounded continuous
/// variable when `shape[0]` says so, under 1–4 random `Le`/`Ge`/`Eq`
/// rows. `coeffs` supplies every coefficient (in tenths) and rhs.
fn random_problem(n: usize, coeffs: &[i32], shape: &[u8], maximize: bool) -> Problem {
    let mut p = Problem::new(if maximize {
        Direction::Maximize
    } else {
        Direction::Minimize
    });
    let mut vars: Vec<_> = (0..n).map(|j| p.add_binary(&format!("x{j}"))).collect();
    if shape[0].is_multiple_of(3) {
        vars.push(p.add_var("y", 0.0, 3.0, false));
    }
    let mut k = coeffs.iter().map(|&c| f64::from(c) / 10.0).cycle();
    p.set_objective(vars.iter().map(|&v| (v, k.next().unwrap())).collect());
    for c in 0..=usize::from(shape[1] % 4) {
        let terms = vars
            .iter()
            .map(|&v| (v, k.next().unwrap()))
            .filter(|&(_, x)| x != 0.0)
            .collect();
        let sense = match shape[2 + c] % 5 {
            0 | 1 => Sense::Le,
            2 | 3 => Sense::Ge,
            _ => Sense::Eq,
        };
        let rhs = k.next().unwrap().abs() / 2.0;
        p.add_constraint(&format!("c{c}"), terms, sense, rhs);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_search_replays_fresh_solves_bitwise(
        n in 2usize..9,
        coeffs in proptest::collection::vec(-40i32..=40, 64),
        shape in proptest::collection::vec(0u8..=255, 8),
        bits in proptest::collection::vec(0u8..2, 9),
        maximize in any::<bool>(),
    ) {
        let p = random_problem(n, &coeffs, &shape, maximize);
        let random_hint: Vec<f64> = bits[..p.num_vars()].iter().map(|&b| f64::from(b)).collect();
        let first_hint = shape[6].is_multiple_of(2).then_some(random_hint.as_slice());

        let mut search = Search::new(&p);
        let first = search.solve(first_hint);
        let fresh = solve_ilp_warm(&p, first_hint);
        prop_assert!(same_bits(&first.outcome, &fresh.outcome), "{:?} vs {:?}", first, fresh);
        prop_assert_eq!(first.stats, fresh.stats);

        // The root is the first node every search visits: its bound is
        // now a memo hit.
        let solved = search.relaxations_solved();
        prop_assert!(solved >= 1);
        let root = search.root_relaxation().clone();
        prop_assert_eq!(search.relaxations_solved(), solved);
        prop_assert!(same_bits(&root, &solve_lp(&p)));

        // A second solve under another hint: the first optimum (a
        // feasible warm start, as repair's fallback gets) or the random
        // point the first solve did not use.
        let second_hint = match (&first.outcome, first_hint) {
            (Outcome::Optimal(s), _) if shape[7].is_multiple_of(2) => Some(s.values.clone()),
            (_, Some(_)) => None,
            (_, None) => Some(random_hint.clone()),
        };
        let second = search.solve(second_hint.as_deref());
        let fresh = solve_ilp_warm(&p, second_hint.as_deref());
        prop_assert!(same_bits(&second.outcome, &fresh.outcome), "{:?} vs {:?}", second, fresh);
        prop_assert_eq!(second.stats, fresh.stats);
        prop_assert!(search.relaxations_solved() <= solved + fresh.stats.nodes);
    }
}
