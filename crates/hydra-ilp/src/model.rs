//! Linear/integer program modelling.
//!
//! Paper §5 expresses the offloading layout problem as a 0/1 integer
//! linear program: placement variables `X[n][k]`, compatibility masks,
//! uniqueness/Pull/Gang constraints, and an objective (maximized
//! offloading or bus usage). [`Problem`] is the model those equations are
//! built into; `hydra-ilp`'s solvers consume it.
//!
//! Variables and constraints are named by a [`Name`]: a stem plus up to
//! two indices. With a static stem it is a borrowed tag, so building a
//! problem allocates no name strings; a name is rendered only when a
//! caller displays it, as [`Problem::check_feasible`] does for what it
//! rejects.

use std::borrow::Cow;
use std::fmt;

/// Index of a decision variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The name of a variable or constraint: a stem and up to two indices,
/// rendered `stem`, `stem_i` or `stem_i_j` when displayed.
///
/// A static stem (a string literal, [`Name::at`], [`Name::at2`]) is a
/// borrowed tag: naming allocates nothing. A stem built at run time is
/// held owned.
///
/// ```
/// use hydra_ilp::model::Name;
///
/// assert_eq!(Name::from("cap").to_string(), "cap");
/// assert_eq!(Name::at("unique", 3).to_string(), "unique_3");
/// assert_eq!(Name::at2("x", 2, 1).to_string(), "x_2_1");
/// assert_eq!(Name::from(&format!("c{}", 4)).to_string(), "c4");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Name {
    stem: Cow<'static, str>,
    indices: [usize; 2],
    arity: u8,
}

impl Name {
    /// `stem_i`.
    pub const fn at(stem: &'static str, i: usize) -> Self {
        Name {
            stem: Cow::Borrowed(stem),
            indices: [i, 0],
            arity: 1,
        }
    }

    /// `stem_i_j`.
    pub const fn at2(stem: &'static str, i: usize, j: usize) -> Self {
        Name {
            stem: Cow::Borrowed(stem),
            indices: [i, j],
            arity: 2,
        }
    }

    fn plain(stem: Cow<'static, str>) -> Self {
        Name {
            stem,
            indices: [0, 0],
            arity: 0,
        }
    }
}

impl From<&'static str> for Name {
    fn from(stem: &'static str) -> Self {
        Name::plain(Cow::Borrowed(stem))
    }
}

impl From<&String> for Name {
    fn from(stem: &String) -> Self {
        Name::plain(Cow::Owned(stem.clone()))
    }
}

impl Name {
    fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(&self.stem)?;
        for i in &self.indices[..usize::from(self.arity)] {
            write!(out, "_{i}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_none() && f.precision().is_none() {
            return self.render(f);
        }
        // Padding applies to the whole rendered name.
        let mut text = String::new();
        self.render(&mut text)?;
        f.pad(&text)
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        })
    }
}

/// One decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Diagnostic name.
    pub name: Name,
    /// Lower bound (≥ 0 for the solvers in this crate).
    pub lower: f64,
    /// Upper bound (`f64::INFINITY` for unbounded).
    pub upper: f64,
    /// Whether the variable must take an integer value.
    pub integer: bool,
}

/// One linear constraint: `Σ coeff·var  sense  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Diagnostic name.
    pub name: Name,
    /// Sparse coefficient list.
    pub terms: Vec<(VarId, f64)>,
    /// Sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// Optimization direction (the objective terms are always stored for
/// maximization internally; minimization negates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// A linear (or mixed 0/1 integer) program.
///
/// # Examples
///
/// ```
/// use hydra_ilp::model::{Direction, Problem, Sense};
///
/// // maximize x + y  s.t.  x + 2y <= 4, x <= 3, x,y >= 0
/// let mut p = Problem::new(Direction::Maximize);
/// let x = p.add_var("x", 0.0, f64::INFINITY, false);
/// let y = p.add_var("y", 0.0, f64::INFINITY, false);
/// p.set_objective(vec![(x, 1.0), (y, 1.0)]);
/// p.add_constraint("cap", vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0);
/// p.add_constraint("xcap", vec![(x, 1.0)], Sense::Le, 3.0);
/// assert_eq!(p.num_vars(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    direction: Direction,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: Vec<(VarId, f64)>,
}

impl Problem {
    /// Creates an empty problem.
    pub fn new(direction: Direction) -> Self {
        Problem {
            direction,
            variables: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// The optimization direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Adds a variable.
    ///
    /// # Panics
    ///
    /// Panics if `lower` is negative (the simplex here assumes `x ≥ 0`),
    /// `lower > upper`, or a bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<Name>,
        lower: f64,
        upper: f64,
        integer: bool,
    ) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN variable bound");
        assert!(lower >= 0.0, "variables must be non-negative");
        assert!(lower <= upper, "lower bound exceeds upper bound");
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            lower,
            upper,
            integer,
        });
        id
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, name: impl Into<Name>) -> VarId {
        self.add_var(name, 0.0, 1.0, true)
    }

    /// Sets the objective terms (replacing any previous objective).
    pub fn set_objective(&mut self, terms: Vec<(VarId, f64)>) {
        for (v, _) in &terms {
            assert!(v.0 < self.variables.len(), "objective var out of range");
        }
        self.objective = terms;
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not exist or a coefficient
    /// is NaN.
    pub fn add_constraint(
        &mut self,
        name: impl Into<Name>,
        terms: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        assert!(!rhs.is_nan(), "NaN rhs");
        for (v, c) in &terms {
            assert!(v.0 < self.variables.len(), "constraint var out of range");
            assert!(!c.is_nan(), "NaN coefficient");
        }
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            sense,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective terms.
    pub fn objective(&self) -> &[(VarId, f64)] {
        &self.objective
    }

    /// The objective value of an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.iter().map(|(v, c)| c * values[v.0]).sum()
    }

    /// Checks whether `values` satisfies every constraint and bound within
    /// `tol`, returning the first violated constraint's name.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        if values.len() != self.variables.len() {
            return Err("wrong assignment length".into());
        }
        for (v, x) in self.variables.iter().zip(values) {
            if *x < v.lower - tol || *x > v.upper + tol {
                return Err(format!("bound violated for {}", v.name));
            }
            if v.integer && (x - x.round()).abs() > tol {
                return Err(format!("integrality violated for {}", v.name));
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|(v, k)| k * values[v.0]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "constraint '{}' violated: {} {} {}",
                    c.name, lhs, c.sense, c.rhs
                ));
            }
        }
        Ok(())
    }

    /// Each variable's `(lower, upper)` bounds, indexed by [`VarId`]:
    /// the root of a branch-and-bound search, whose nodes tighten them.
    pub(crate) fn bounds(&self) -> Vec<(f64, f64)> {
        self.variables.iter().map(|v| (v.lower, v.upper)).collect()
    }
}

/// A solver outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An optimal assignment was found.
    Optimal(Solution),
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl Outcome {
    /// The solution, if optimal.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Outcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// An optimal assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Objective value (in the problem's own direction).
    pub objective: f64,
}

impl Solution {
    /// The value of one variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// Whether a binary variable is set (value > 0.5).
    pub fn is_set(&self, var: VarId) -> bool {
        self.values[var.0] > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_binary("x");
        let y = p.add_var("y", 0.0, 10.0, false);
        p.set_objective(vec![(x, 2.0), (y, 1.0)]);
        p.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Sense::Le, 5.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert!(p.variables()[0].integer);
        assert_eq!(p.objective_value(&[1.0, 3.0]), 5.0);
    }

    #[test]
    fn feasibility_checker() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_binary("x");
        p.add_constraint("c", vec![(x, 1.0)], Sense::Le, 0.0);
        assert!(p.check_feasible(&[0.0], 1e-9).is_ok());
        assert!(p.check_feasible(&[1.0], 1e-9).is_err());
        assert!(p.check_feasible(&[0.5], 1e-9).is_err()); // integrality
        assert!(p.check_feasible(&[], 1e-9).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lower_bound_rejected() {
        Problem::new(Direction::Maximize).add_var("x", -1.0, 1.0, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_var_rejected() {
        let mut p = Problem::new(Direction::Maximize);
        let _x = p.add_binary("x");
        let mut other = Problem::new(Direction::Maximize);
        let y = other.add_binary("y");
        let _ = y;
        // Fabricate an out-of-range VarId via a second problem with more vars.
        let mut big = Problem::new(Direction::Maximize);
        big.add_binary("a");
        let b = big.add_binary("b");
        p.add_constraint("c", vec![(b, 1.0)], Sense::Le, 1.0);
    }
}
