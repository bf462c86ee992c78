//! Named numeric tolerances of the solver stack.
//!
//! Every floating-point slack the MILP crate uses lives here, with its
//! rationale, instead of as an anonymous `1e-…` literal at the point of
//! use (`crates/flow/tests/source_policy.rs` forbids raw
//! negative-exponent float literals in this crate's library code outside
//! this module). Each says how far the simplex / branch-and-bound let
//! floating arithmetic drift before a comparison flips. These are
//! engineering knobs: loosening them hides infeasibility, tightening
//! them causes cycling on ill-conditioned bases.
//!
//! The `vm1-certify` checker deliberately uses none of these: its
//! verdict path is exact rational arithmetic with its own dyadic
//! constants (see that crate's docs).

/// Primal feasibility tolerance of the bounded-variable simplex: a
/// variable is "at" a bound, and a ratio-test step is "blocked", within
/// this absolute slack.
pub const FEAS_TOL: f64 = 1e-7;

/// Dual (reduced-cost) tolerance of the simplex pricing step: a
/// nonbasic variable enters only if its reduced cost is favorable by
/// more than this, so extracted duals satisfy their sign conditions to
/// within `COST_TOL`.
pub const COST_TOL: f64 = 1e-7;

/// Residual sum of artificial variables above which phase 1 declares
/// the LP infeasible. Looser than [`FEAS_TOL`] because it accumulates
/// over all rows.
pub const PHASE1_INFEAS_TOL: f64 = 1e-6;

/// Ratio-test tie window: two blocking ratios within this of each other
/// are treated as tied and broken by pivot magnitude (numerical
/// stability beats Dantzig order on ties).
pub const RATIO_TIE_TOL: f64 = 1e-12;

/// Smallest pivot element the basis-inverse update accepts; below this
/// the update would amplify error catastrophically (guarded by a debug
/// assertion).
pub const PIVOT_MIN: f64 = 1e-12;

/// Eta-update skip threshold: basis-inverse rows whose multiplier is
/// below this are left untouched (the update would be pure noise).
pub const PIVOT_SKIP_TOL: f64 = 1e-13;

/// Minimum objective improvement per pivot that counts as progress for
/// the anti-cycling watchdog; stalls longer than a basis-size multiple
/// switch the pricing rule to Bland's.
pub const STALL_IMPROVE_TOL: f64 = 1e-10;

/// Integrality tolerance of branch-and-bound: an LP value within this
/// of an integer is considered integral (CPLEX's default integrality
/// tolerance is 1e-5; ours is tighter because window models are small).
pub const INT_TOL: f64 = 1e-6;

/// Feasibility tolerance for full-assignment checks
/// ([`crate::Model::is_feasible`] calls made by the solver on warm
/// starts and rounding-heuristic candidates).
pub const FEASIBILITY_TOL: f64 = 1e-6;

/// Default absolute optimality gap of [`crate::SolveParams`]: incumbents
/// within this of the best bound stop the search.
pub const DEFAULT_ABS_GAP: f64 = 1e-6;

/// Presolve comparison tolerance: bound changes smaller than this are
/// not applied (they would churn the fixpoint without tightening
/// anything an LP could distinguish).
pub const PRESOLVE_TOL: f64 = 1e-9;

/// Activity slack beyond which presolve declares a row infeasible.
/// Deliberately looser than [`PRESOLVE_TOL`]: proving infeasibility
/// from accumulated float activity needs headroom.
pub const ACTIVITY_INFEAS_TOL: f64 = 1e-7;

/// Fudge added/subtracted before integral rounding in presolve so a
/// bound that is an integer up to float noise (2.9999999…) rounds to
/// that integer, not past it.
pub const INT_ROUND_FUDGE: f64 = 1e-7;
