//! A small, dependency-free mixed-integer linear programming (MILP) solver.
//!
//! This crate stands in for CPLEX in the vm1dp reproduction of the DAC 2017
//! vertical-M1 detailed-placement paper. It provides:
//!
//! * [`Model`] — a builder for linear models with bounded continuous,
//!   binary, and general-integer variables, linear constraints, a linear
//!   (minimization) objective, and optional SOS1 groups;
//! * an LP solver (bounded-variable primal simplex, dense, two-phase) in
//!   [`lp`];
//! * a branch-and-bound MILP solver, [`solve`] (and [`solve_certified`],
//!   which also records a replayable certificate), with most-fractional
//!   and SOS1 branching, a rounding heuristic, warm starts, and a node
//!   limit.
//!
//! The solver is exact on the model classes the workspace produces
//! (hundreds of bounded variables, big-M indicator constraints); its answers
//! are cross-checked in the test-suite against exhaustive enumeration.
//!
//! # Examples
//!
//! A tiny knapsack:
//!
//! ```
//! use vm1_milp::{Model, SolveParams, Status};
//!
//! let mut m = Model::new();
//! let x = m.add_binary("x");
//! let y = m.add_binary("y");
//! let z = m.add_binary("z");
//! // maximize 5x + 4y + 3z  <=>  minimize -(5x + 4y + 3z)
//! m.set_objective([(x, -5.0), (y, -4.0), (z, -3.0)]);
//! m.add_le([(x, 2.0), (y, 3.0), (z, 1.0)], 3.0);
//! let sol = vm1_milp::solve(&m, &SolveParams::default());
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - (-8.0)).abs() < 1e-6); // x + z
//! ```

#![warn(missing_docs)]

mod branch;
pub mod cert;
pub mod lp;
mod model;
mod presolve;
pub mod tol;

pub use branch::{solve, solve_certified, CertifiedSolution, MilpSolution, SolveParams, Status};
pub use cert::{BranchStep, CertNode, Certificate, NodeOutcome};
pub use model::{ConstraintSense, LinExpr, Model, VarId, VarKind};
