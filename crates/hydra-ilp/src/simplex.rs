//! A two-phase primal simplex on a dense tableau that skips its zeros.
//!
//! Solves the LP relaxation of a [`Problem`]: maximize (or minimize) a
//! linear objective over non-negative variables with linear constraints
//! and finite bounds. Bounds are folded into explicit constraints — layout
//! ILPs are small (tens of variables), so the tableau with Bland's
//! anti-cycling rule is simple, exact enough at `f64`, and fast.
//!
//! The tableau is one flat row-major `Vec<f64>` in a reusable
//! `Tableau`, so a branch-and-bound search allocates it once, scratch
//! buffers included. Layout tableaus are mostly zeros (at a pivot of a
//! `deploy_recover` relaxation, about 4% of the cells), so a pivot pays
//! only for the entries a dense sweep would change:
//!
//! - The entering column is gathered once: the rows whose entry is above
//!   `EPS` in magnitude, the only rows the dense sweep updates.
//! - The pivot row is compacted to its nonzero entries. Only those are
//!   divided by the pivot and subtracted from the gathered rows and from
//!   the reduced costs.
//! - Both compactions write every candidate and advance the cursor only
//!   past a kept one, so no branch depends on a cell's value.
//! - The ratio test divides every candidate row's rhs first, then runs
//!   Bland's comparison over the stored ratios, so the divisions
//!   pipeline.
//! - Phase 2 ignores the artificial columns where they lie. They are the
//!   last columns before the rhs, no artificial may re-enter the basis,
//!   and nothing in phase 2 reads them, so pricing, the pivot-row scan
//!   and the reduced-cost row stop at the first artificial column and
//!   take the rhs on its own. The columns are neither updated nor copied
//!   out.
//!
//! Each pivot is still the dense one. Every entry the sweep changes gets
//! the same IEEE operations in the same order (`a - f * b`, no fused
//! multiply-add). Where this kernel skips a cell the sweep visits, the
//! sweep would only have subtracted a zero product, which can change no
//! more than the sign of a zero entry. So every pricing and ratio
//! choice, every pivot and every vertex is what the dense sweep
//! computes. The dense kernel this one replaced
//! is kept in `crates/hydra-ilp/tests/reference/` as the oracle: outcomes
//! must match it bit for bit, after the same number of pivots.

use crate::model::{Direction, Outcome, Problem, Sense, Solution};

const EPS: f64 = 1e-9;
const MAX_ITER: usize = 50_000;

/// Solves the LP relaxation of `problem` (integrality is ignored).
///
/// # Examples
///
/// ```
/// use hydra_ilp::model::{Direction, Problem, Sense};
/// use hydra_ilp::simplex::solve_lp;
///
/// let mut p = Problem::new(Direction::Maximize);
/// let x = p.add_var("x", 0.0, f64::INFINITY, false);
/// let y = p.add_var("y", 0.0, f64::INFINITY, false);
/// p.set_objective(vec![(x, 3.0), (y, 2.0)]);
/// p.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
/// p.add_constraint("c2", vec![(x, 1.0)], Sense::Le, 2.0);
/// let sol = solve_lp(&p).solution().unwrap().clone();
/// assert!((sol.objective - 10.0).abs() < 1e-6); // x=2, y=2
/// ```
pub fn solve_lp(problem: &Problem) -> Outcome {
    Tableau::default().solve(problem, &problem.bounds())
}

/// A constraint row's sense and sign once its right-hand side is made
/// non-negative: a negative `rhs` flips `Le`/`Ge` and negates the row.
fn normalized(sense: Sense, rhs: f64) -> (Sense, bool) {
    if rhs < 0.0 {
        let flipped = match sense {
            Sense::Le => Sense::Ge,
            Sense::Ge => Sense::Le,
            Sense::Eq => Sense::Eq,
        };
        (flipped, true)
    } else {
        (sense, false)
    }
}

/// The rows the LP over `bounds` folds each variable's bounds into, in
/// order after the constraints: `x_j <= upper` when finite, then
/// `x_j >= lower` when positive.
fn bound_rows(bounds: &[(f64, f64)]) -> impl Iterator<Item = (usize, Sense, f64)> + '_ {
    bounds.iter().enumerate().flat_map(|(j, &(lower, upper))| {
        let le = upper.is_finite().then_some((j, Sense::Le, upper));
        let ge = (lower > 0.0).then_some((j, Sense::Ge, lower));
        le.into_iter().chain(ge)
    })
}

/// Writes `items` into `out` in order and returns how many it kept. Each
/// item is stored at the cursor, which then advances only past a kept
/// one, so the loop has no branch that depends on the data.
fn compact<T>(out: &mut [T], items: impl Iterator<Item = (T, bool)>) -> usize {
    let mut kept = 0;
    for (item, keep) in items {
        out[kept] = item;
        kept += usize::from(keep);
    }
    kept
}

/// A reusable simplex workspace: the flat tableau, basis and scratch
/// rows, kept across solves.
#[derive(Debug, Default)]
pub(crate) struct Tableau {
    /// `m` rows of `width` entries, row-major; the last column is the rhs.
    t: Vec<f64>,
    /// Entries per row: the `ncols` structural, slack and artificial
    /// columns plus the rhs.
    width: usize,
    /// The columns the current phase prices and pivots over: all of
    /// them in phase 1; in phase 2 the structural and slack ones, which
    /// precede the artificials. The rhs is always taken on its own.
    active: usize,
    /// The basic column of each row.
    basis: Vec<usize>,
    /// Whether each column is an artificial.
    artificial: Vec<bool>,
    /// The current phase's objective over the active columns.
    cost: Vec<f64>,
    /// The reduced-cost row, objective value in the rhs slot. Phase 2
    /// leaves its artificial entries as they were.
    zrow: Vec<f64>,
    /// The entering column's `(row, value)` entries above `EPS` in
    /// magnitude, the first `column_len` of them: the rows a pivot on it
    /// updates. Holds one slot per row.
    column: Vec<(usize, f64)>,
    column_len: usize,
    /// The pivot row's nonzero `(column, value)` entries, while it
    /// pivots. Holds one slot per column.
    pivot_nz: Vec<(usize, f64)>,
    /// The ratio test's `(row, rhs / entry)` candidates. Holds one slot
    /// per row.
    ratios: Vec<(usize, f64)>,
    /// Pivots made by every solve so far: phase 1, the drive-out of
    /// artificials and phase 2.
    pivots: u64,
}

enum RawOutcome {
    Optimal,
    Infeasible,
    Unbounded,
}

impl Tableau {
    /// Pivots made by every solve on this workspace so far.
    pub(crate) fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Solves the LP relaxation of `problem` with its variable bounds
    /// replaced by `bounds` (one `(lower, upper)` pair per variable).
    pub(crate) fn solve(&mut self, problem: &Problem, bounds: &[(f64, f64)]) -> Outcome {
        let n = problem.num_vars();
        debug_assert_eq!(bounds.len(), n);

        // Objective as a dense vector, negated for minimization.
        let mut c = vec![0.0f64; n];
        for (v, k) in problem.objective() {
            c[v.index()] += *k;
        }
        let sign = match problem.direction() {
            Direction::Maximize => 1.0,
            Direction::Minimize => -1.0,
        };
        for cj in &mut c {
            *cj *= sign;
        }

        self.load(problem, bounds);
        match self.maximize(n, &c) {
            RawOutcome::Optimal => {
                let rhs = self.width - 1;
                let mut values = vec![0.0f64; n];
                for (i, &b) in self.basis.iter().enumerate() {
                    if b < n {
                        values[b] = self.t[i * self.width + rhs];
                    }
                }
                let objective = values.iter().zip(c.iter()).map(|(x, k)| x * k).sum::<f64>();
                Outcome::Optimal(Solution {
                    values,
                    objective: objective * sign,
                })
            }
            RawOutcome::Infeasible => Outcome::Infeasible,
            RawOutcome::Unbounded => Outcome::Unbounded,
        }
    }

    /// Fills the phase-1 tableau: the constraints, then the bound rows,
    /// each normalized to a non-negative rhs. Column layout: `[0, n)`
    /// structural; then one slack/surplus per inequality; then one
    /// artificial per `Ge`/`Eq` row; last the rhs.
    fn load(&mut self, problem: &Problem, bounds: &[(f64, f64)]) {
        let n = problem.num_vars();
        let senses = problem
            .constraints()
            .iter()
            .map(|c| (c.sense, c.rhs))
            .chain(bound_rows(bounds).map(|(_, sense, rhs)| (sense, rhs)))
            .map(|(sense, rhs)| normalized(sense, rhs).0);
        let (mut m, mut n_slack, mut n_art) = (0, 0, 0);
        for sense in senses {
            m += 1;
            n_slack += usize::from(sense != Sense::Eq);
            n_art += usize::from(sense != Sense::Le);
        }
        let ncols = n + n_slack + n_art;
        self.width = ncols + 1;
        self.t.clear();
        self.t.resize(m * self.width, 0.0);
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        self.artificial.clear();
        self.artificial.resize(ncols, false);
        // The scratch buffers only grow, so a search sizes them once.
        for (buf, len) in [
            (&mut self.column, m),
            (&mut self.ratios, m),
            (&mut self.pivot_nz, self.width),
        ] {
            if buf.len() < len {
                buf.resize(len, (0, 0.0));
            }
        }

        let mut next = [n, n + n_slack];
        for (i, c) in problem.constraints().iter().enumerate() {
            let terms = c.terms.iter().map(|(v, k)| (v.index(), *k));
            self.fill_row(i, &mut next, terms, c.sense, c.rhs);
        }
        let offset = problem.num_constraints();
        for (i, (j, sense, rhs)) in bound_rows(bounds).enumerate() {
            self.fill_row(offset + i, &mut next, [(j, 1.0)], sense, rhs);
        }
    }

    /// Fills row `i` with `terms sense rhs`, normalized, taking its slack
    /// and artificial columns from `next` (the next free of each).
    fn fill_row(
        &mut self,
        i: usize,
        next: &mut [usize; 2],
        terms: impl IntoIterator<Item = (usize, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        let (sense, flip) = normalized(sense, rhs);
        let w = self.width;
        let row = &mut self.t[i * w..(i + 1) * w];
        for (j, k) in terms {
            row[j] += if flip { -k } else { k };
        }
        row[w - 1] = if flip { -rhs } else { rhs };
        let [slack, art] = next;
        match sense {
            Sense::Le => {
                row[*slack] = 1.0;
                self.basis[i] = *slack;
                *slack += 1;
            }
            Sense::Ge => {
                row[*slack] = -1.0;
                *slack += 1;
                row[*art] = 1.0;
                self.basis[i] = *art;
                self.artificial[*art] = true;
                *art += 1;
            }
            Sense::Eq => {
                row[*art] = 1.0;
                self.basis[i] = *art;
                self.artificial[*art] = true;
                *art += 1;
            }
        }
    }

    /// Core tableau simplex on the loaded tableau: maximize `c'x` over
    /// the `n` structural columns, `x >= 0`.
    fn maximize(&mut self, n: usize, c: &[f64]) -> RawOutcome {
        let w = self.width;
        let ncols = w - 1;
        let m = self.basis.len();
        self.active = ncols;

        // Phase 1: maximize -(sum of artificials).
        if self.artificial.contains(&true) {
            self.cost.clear();
            self.cost
                .extend(self.artificial.iter().map(|&a| if a { -1.0 } else { 0.0 }));
            self.build_zrow();
            if !self.pivot_to_optimality() {
                // Phase 1 cannot be unbounded (objective bounded by 0); treat
                // as numerical failure -> infeasible.
                return RawOutcome::Infeasible;
            }
            if self.zrow[ncols] < -EPS {
                return RawOutcome::Infeasible;
            }
            // From here on the artificial columns are ignored where they
            // lie: none may re-enter the basis, and no later step reads
            // them. A redundant row may keep its artificial basic at
            // zero; that column then costs zero.
            self.active = self.artificial.iter().position(|&a| a).unwrap_or(ncols);
            // Drive artificials out of the basis.
            for i in 0..m {
                if self.artificial[self.basis[i]] {
                    let row = &self.t[i * w..i * w + self.active];
                    match row.iter().position(|v| v.abs() > EPS) {
                        Some(j) => {
                            self.gather(j);
                            self.pivot(i, j);
                        }
                        // Redundant row: zero it (keep artificial basic at 0).
                        None => self.t[i * w..(i + 1) * w].fill(0.0),
                    }
                }
            }
        }

        // Phase 2: original objective.
        self.cost.clear();
        self.cost.resize(self.active, 0.0);
        self.cost[..n].copy_from_slice(&c[..n]);
        self.build_zrow();
        if !self.pivot_to_optimality() {
            return RawOutcome::Unbounded;
        }
        RawOutcome::Optimal
    }

    /// Builds the reduced-cost row ζ_j = c_B·B⁻¹A_j − c_j over the
    /// active columns, and the objective value in the rhs slot.
    fn build_zrow(&mut self) {
        let (w, active) = (self.width, self.active);
        self.zrow.clear();
        self.zrow.extend(self.cost.iter().map(|cj| -cj));
        self.zrow.resize(w, 0.0);
        for (row, &b) in self.t.chunks_exact(w).zip(&self.basis) {
            let cb = self.cost.get(b).copied().unwrap_or(0.0);
            if cb != 0.0 {
                for (zj, tj) in self.zrow[..active].iter_mut().zip(row) {
                    *zj += cb * tj;
                }
                self.zrow[w - 1] += cb * row[w - 1];
            }
        }
    }

    /// Pivots until all reduced costs are ≥ −EPS. Returns false if
    /// unbounded (or the iteration limit is hit).
    fn pivot_to_optimality(&mut self) -> bool {
        for _ in 0..MAX_ITER {
            // Bland's rule: entering = smallest index with negative reduced cost.
            let Some(enter) = self.zrow[..self.active].iter().position(|&z| z < -EPS) else {
                return true;
            };
            self.gather(enter);
            let Some(leave) = self.ratio_test() else {
                return false; // unbounded
            };
            self.pivot(leave, enter);
        }
        false
    }

    /// The leaving row for the gathered column: the smallest ratio
    /// `rhs / entry` over its entries above `EPS`, ties within `EPS`
    /// broken by the smallest basis index (Bland). `None` when no entry
    /// is positive: the column is unbounded.
    fn ratio_test(&mut self) -> Option<usize> {
        let (w, t) = (self.width, &self.t);
        let candidates = self.column[..self.column_len]
            .iter()
            .map(|&(i, a)| ((i, t[i * w + w - 1] / a), a > EPS));
        let len = compact(&mut self.ratios, candidates);
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for &(i, ratio) in &self.ratios[..len] {
            let better = ratio < best - EPS
                || (ratio < best + EPS && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
            if better {
                best = ratio;
                leave = Some(i);
            }
        }
        leave
    }

    /// Gathers column `col`'s entries above `EPS` in magnitude, in row
    /// order, for the ratio test and the pivot that follows it.
    fn gather(&mut self, col: usize) {
        let entries = self.t.iter().skip(col).step_by(self.width).enumerate();
        self.column_len = compact(
            &mut self.column,
            entries.map(|(i, &v)| ((i, v), v.abs() > EPS)),
        );
    }

    /// Pivots column `col` into the basis at `row`; [`Tableau::gather`]
    /// must have gathered `col` since the last pivot.
    fn pivot(&mut self, row: usize, col: usize) {
        let (w, active) = (self.width, self.active);
        self.pivots += 1;
        let pivot_row = &mut self.t[row * w..(row + 1) * w];
        let p = pivot_row[col];
        debug_assert!(p.abs() > EPS, "pivot on ~zero element");
        let entries = pivot_row[..active].iter().enumerate();
        let mut len = compact(
            &mut self.pivot_nz,
            entries.map(|(j, &v)| ((j, v), v != 0.0)),
        );
        let rhs = pivot_row[w - 1];
        self.pivot_nz[len] = (w - 1, rhs);
        len += usize::from(rhs != 0.0);
        let nonzeros = &mut self.pivot_nz[..len];
        for (j, v) in nonzeros.iter_mut() {
            *v /= p;
            pivot_row[*j] = *v;
        }
        for &(i, f) in &self.column[..self.column_len] {
            if i != row {
                let r = &mut self.t[i * w..(i + 1) * w];
                for &(j, pv) in nonzeros.iter() {
                    r[j] -= f * pv;
                }
            }
        }
        let f = self.zrow[col];
        if f.abs() > EPS {
            for &(j, pv) in nonzeros.iter() {
                self.zrow[j] -= f * pv;
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Direction, Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (answer 36)
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, false);
        let y = p.add_var("y", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 3.0), (y, 5.0)]);
        p.add_constraint("a", vec![(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint("b", vec![(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint("c", vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert!(p.check_feasible(&sol.values, 1e-6).is_ok());
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2  (answer: x=10,y=0 -> 20)
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, false);
        let y = p.add_var("y", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 2.0), (y, 3.0)]);
        p.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.add_constraint("xmin", vec![(x, 1.0)], Sense::Ge, 2.0);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 20.0);
        assert_close(sol.value(x), 10.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, false);
        let y = p.add_var("y", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 1.0), (y, 1.0)]);
        p.add_constraint("s", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        p.add_constraint("d", vec![(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 1.0)]);
        p.add_constraint("lo", vec![(x, 1.0)], Sense::Ge, 5.0);
        p.add_constraint("hi", vec![(x, 1.0)], Sense::Le, 3.0);
        assert_eq!(solve_lp(&p), Outcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, false);
        let y = p.add_var("y", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 1.0)]);
        p.add_constraint("c", vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        assert_eq!(solve_lp(&p), Outcome::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, 2.5, false);
        p.set_objective(vec![(x, 1.0)]);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 2.5);
    }

    #[test]
    fn lower_bounds_respected() {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", 1.5, 10.0, false);
        p.set_objective(vec![(x, 1.0)]);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 1.5);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2 with max x, x <= 10 -> x=10 needs y >= 12; feasible.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, 10.0, false);
        let y = p.add_var("y", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 1.0)]);
        p.add_constraint("c", vec![(x, 1.0), (y, -1.0)], Sense::Le, -2.0);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 10.0);
        assert!(sol.value(y) >= 12.0 - 1e-6);
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, 1.0, false);
        p.add_constraint("c", vec![(x, 1.0)], Sense::Ge, 0.5);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert!(p.check_feasible(&sol.values, 1e-6).is_ok());
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone setup; Bland's rule must terminate.
        let mut p = Problem::new(Direction::Maximize);
        let x1 = p.add_var("x1", 0.0, f64::INFINITY, false);
        let x2 = p.add_var("x2", 0.0, f64::INFINITY, false);
        let x3 = p.add_var("x3", 0.0, f64::INFINITY, false);
        let x4 = p.add_var("x4", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x1, 0.75), (x2, -150.0), (x3, 0.02), (x4, -6.0)]);
        p.add_constraint(
            "r1",
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            "r2",
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint("r3", vec![(x3, 1.0)], Sense::Le, 1.0);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn redundant_equality_rows_handled() {
        // x + y = 4 stated twice.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, false);
        let y = p.add_var("y", 0.0, f64::INFINITY, false);
        p.set_objective(vec![(x, 1.0)]);
        p.add_constraint("a", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
        p.add_constraint("b", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
        let sol = solve_lp(&p).solution().unwrap().clone();
        assert_close(sol.objective, 4.0);
    }
}
