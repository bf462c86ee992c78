//! Vertical M1 routing-aware detailed placement — the core contribution of
//! the DAC 2017 paper, reproduced in Rust.
//!
//! Given a placed (and nominally routed) design on a ClosedM1 or OpenM1
//! library, the optimizer perturbs cell positions/orientations within
//! per-cell ranges to minimize
//!
//! ```text
//!   − α · Σ d_pq  (− ε · Σ o_pq, OpenM1)  +  Σ_n β_n · HPWL(n)        (1)/(10)
//! ```
//!
//! where `d_pq` indicates a *vertically alignable* pin pair — same M1
//! track for ClosedM1, ≥ δ horizontal shape overlap for OpenM1 — within γ
//! placement rows, i.e. a potential **direct vertical M1 route**.
//!
//! The implementation follows the paper's structure:
//!
//! * [`problem`] — window-local optimization problems with
//!   single-cell-placement (SCP) candidates (constraints (5)–(9));
//! * [`milp`] — the faithful MILP formulations (constraints (2)–(4) for
//!   ClosedM1, (11)–(14) for OpenM1) solved with the `vm1-milp`
//!   branch-and-bound;
//! * [`solver`] — interchangeable exact window solvers (MILP and a DFS
//!   branch-and-bound exploiting that all auxiliary variables are
//!   determined by the λ assignment);
//! * [`window`] — layout partitioning and diagonally independent window
//!   selection (Fig. 3) for the distributable optimization;
//! * `distopt` — Algorithm 2 (DistOpt), with windows of one diagonal set
//!   solved in parallel;
//! * [`session`] — Algorithm 1 (VM1Opt) behind the [`Vm1Optimizer`]
//!   session API: the metaheuristic outer loop over a queue of parameter
//!   sets with the perturb-then-flip schedule, owning the per-worker
//!   solve buffers and the metrics sinks (`vm1-obs`).
//!
//! # Examples
//!
//! ```
//! use vm1_core::{ParamSet, Vm1Config, Vm1Optimizer};
//! use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
//! use vm1_place::{place, PlaceConfig};
//! use vm1_tech::{CellArch, Library};
//!
//! let lib = Library::synthetic_7nm(CellArch::ClosedM1);
//! let mut d = GeneratorConfig::profile(DesignProfile::M0)
//!     .with_insts(150)
//!     .generate(&lib, 1);
//! place(&mut d, &PlaceConfig::default(), 1);
//! let cfg = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(5.0, 3, 1)]);
//! let before = vm1_core::count_alignments(&d, &cfg);
//! let stats = Vm1Optimizer::new(cfg).run(&mut d);
//! assert!(stats.final_alignments >= before);
//! d.validate_placement().unwrap();
//! ```

#![warn(missing_docs)]

pub mod audit;
mod config;
mod distopt;
pub mod milp;
mod objective;
mod pairs;
pub mod problem;
mod sched;
pub mod session;
pub mod solver;
pub mod window;

pub use audit::{audit_design, recount_alignments, DesignAuditReport};
pub use config::{ParamSet, SolverKind, Vm1Config};
pub use objective::{calculate_obj, count_alignments, overlap_stats, Objective};
pub use pairs::{alignable_pairs, pair_aligned, PairIndex};
pub use session::{OptStats, Vm1Optimizer};
