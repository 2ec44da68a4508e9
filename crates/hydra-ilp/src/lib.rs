//! # hydra-ilp — linear and 0/1 integer programming
//!
//! Paper §5 formulates offloading-layout optimization as a 0/1 integer
//! linear program and notes that "any ILP solver can then be used". This
//! crate is that solver: a problem model with binaries, bounds and
//! Le/Ge/Eq constraints whose variables and rows are named by [`Name`]
//! tags, rendered only on display ([`model`]), a two-phase primal
//! simplex with Bland's anti-cycling rule for the LP relaxation, whose
//! pivots skip the dense tableau's zeros and whose phase 2 ignores the
//! artificial columns in place ([`simplex`]), and an
//! exact branch-and-bound search with most-fractional branching and
//! bound pruning ([`branch`]) that a reusable [`Search`] runs with every
//! node's relaxation memoized, plus a brute-force enumeration oracle used
//! by the property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod model;
pub mod simplex;

pub use branch::{solve_by_enumeration, solve_ilp, solve_ilp_warm, IlpResult, Search, SearchStats};
pub use model::{Constraint, Direction, Name, Outcome, Problem, Sense, Solution, VarId, Variable};
pub use simplex::solve_lp;
