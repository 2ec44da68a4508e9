//! The dense two-phase simplex that `hydra_ilp::simplex` replaced, kept
//! as the differential oracle for it.
//!
//! This is the parent's `Tableau`, moved here unchanged but for three
//! things a test needs: it is public, [`solve_lp`] reads the bounds from
//! the problem's variables (the crate's `Problem::bounds` is private)
//! and returns the pivot count too, and [`Tableau::pivots`] counts every
//! pivot. It scans whole rows and columns for their nonzeros, one branch
//! per cell, and runs phase 2 on a copy of the tableau with the
//! artificial columns cut out. The crate's kernel must return
//! bit-identical outcomes after the same number of pivots.

use hydra_ilp::model::{Direction, Outcome, Problem, Sense, Solution};

const EPS: f64 = 1e-9;
const MAX_ITER: usize = 50_000;

/// Solves the LP relaxation of `problem` over its own variable bounds,
/// returning the outcome and the pivots it took.
pub fn solve_lp(problem: &Problem) -> (Outcome, u64) {
    let bounds: Vec<(f64, f64)> = problem
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    let mut tableau = Tableau::default();
    let outcome = tableau.solve(problem, &bounds);
    (outcome, tableau.pivots)
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

/// A reusable simplex workspace: the flat tableau, basis and scratch
/// rows, kept across solves.
#[derive(Debug, Default)]
pub struct Tableau {
    /// `m` rows of `width` entries, row-major; the last column is the rhs.
    t: Vec<f64>,
    /// Entries per row: the `ncols` structural, slack and artificial
    /// columns plus the rhs.
    width: usize,
    /// The basic column of each row.
    basis: Vec<usize>,
    /// Whether each column is an artificial.
    artificial: Vec<bool>,
    /// The current phase's objective over all columns.
    cost: Vec<f64>,
    /// The reduced-cost row, objective value in the rhs slot.
    zrow: Vec<f64>,
    /// The entering column's `(row, value)` entries above `EPS` in
    /// magnitude: the rows a pivot on it updates.
    column: Vec<(usize, f64)>,
    /// The pivot row's nonzero `(column, value)` entries.
    pivot_nz: Vec<(usize, f64)>,
    /// Pivots made by every solve so far: phase 1, the drive-out of
    /// artificials and phase 2.
    pub pivots: u64,
}

enum RawOutcome {
    Optimal,
    Infeasible,
    Unbounded,
}

impl Tableau {
    /// Solves the LP relaxation of `problem` with its variable bounds
    /// replaced by `bounds` (one `(lower, upper)` pair per variable).
    pub fn solve(&mut self, problem: &Problem, bounds: &[(f64, f64)]) -> Outcome {
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
            // Drive artificials out of the basis.
            let n_real = self.artificial.iter().position(|&a| a).unwrap_or(ncols);
            for i in 0..m {
                if self.artificial[self.basis[i]] {
                    let row = &self.t[i * w..i * w + n_real];
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
            // Forbid artificials from re-entering: drop their columns.
            self.truncate_columns(n_real);
        }

        // Phase 2: original objective.
        self.cost.clear();
        self.cost.resize(self.width - 1, 0.0);
        self.cost[..n].copy_from_slice(&c[..n]);
        self.build_zrow();
        if !self.pivot_to_optimality() {
            return RawOutcome::Unbounded;
        }
        RawOutcome::Optimal
    }

    /// Keeps each row's first `keep` columns and its rhs, dropping the
    /// columns between. Phase 2 drops the artificial columns this way:
    /// they are the last ones before the rhs, and no artificial may
    /// re-enter the basis, so no phase-2 pricing, ratio test or pivot
    /// needs them. A redundant row may keep its artificial basic at
    /// zero; that index then lies past the tableau and costs zero.
    fn truncate_columns(&mut self, keep: usize) {
        let (w, nw) = (self.width, keep + 1);
        for i in 0..self.basis.len() {
            let rhs = self.t[i * w + w - 1];
            self.t.copy_within(i * w..i * w + keep, i * nw);
            self.t[i * nw + keep] = rhs;
        }
        self.t.truncate(self.basis.len() * nw);
        self.width = nw;
    }

    /// Builds the reduced-cost row ζ_j = c_B·B⁻¹A_j − c_j and the
    /// objective value in the rhs slot.
    fn build_zrow(&mut self) {
        let w = self.width;
        self.zrow.clear();
        self.zrow.extend(self.cost.iter().map(|cj| -cj));
        self.zrow.push(0.0);
        for (row, &b) in self.t.chunks_exact(w).zip(&self.basis) {
            let cb = self.cost.get(b).copied().unwrap_or(0.0);
            if cb != 0.0 {
                for (zj, tj) in self.zrow.iter_mut().zip(row) {
                    *zj += cb * tj;
                }
            }
        }
    }

    /// Pivots until all reduced costs are ≥ −EPS. Returns false if
    /// unbounded (or the iteration limit is hit).
    fn pivot_to_optimality(&mut self) -> bool {
        let w = self.width;
        let ncols = w - 1;
        for _ in 0..MAX_ITER {
            // Bland's rule: entering = smallest index with negative reduced cost.
            let Some(enter) = self.zrow[..ncols].iter().position(|&z| z < -EPS) else {
                return true;
            };
            // Ratio test with Bland tie-break on smallest basis index.
            self.gather(enter);
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for &(i, a) in &self.column {
                if a > EPS {
                    let ratio = self.t[i * w + ncols] / a;
                    let better = ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return false; // unbounded
            };
            self.pivot(leave, enter);
        }
        false
    }

    /// Gathers column `col`'s entries above `EPS` in magnitude, in row
    /// order, for the ratio test and the pivot that follows it.
    fn gather(&mut self, col: usize) {
        self.column.clear();
        for (i, row) in self.t.chunks_exact(self.width).enumerate() {
            if row[col].abs() > EPS {
                self.column.push((i, row[col]));
            }
        }
    }

    /// Pivots column `col` into the basis at `row`; [`Tableau::gather`]
    /// must have gathered `col` since the last pivot.
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.width;
        let p = self.t[row * w + col];
        debug_assert!(p.abs() > EPS, "pivot on ~zero element");
        self.pivots += 1;
        self.pivot_nz.clear();
        for (j, v) in self.t[row * w..(row + 1) * w].iter_mut().enumerate() {
            if *v != 0.0 {
                *v /= p;
                self.pivot_nz.push((j, *v));
            }
        }
        for &(i, f) in &self.column {
            if i != row {
                let r = &mut self.t[i * w..(i + 1) * w];
                for &(j, pv) in &self.pivot_nz {
                    r[j] -= f * pv;
                }
            }
        }
        let f = self.zrow[col];
        if f.abs() > EPS {
            for &(j, pv) in &self.pivot_nz {
                self.zrow[j] -= f * pv;
            }
        }
        self.basis[row] = col;
    }
}
