//! End-to-end flows and experiments for the vm1dp workspace.
//!
//! Mirrors the paper's evaluation flow: synthesize a testcase (synthetic
//! netlist at one of the four design profiles), place it, route it, take
//! the **Init** measurements, run the vertical-M1 detailed-placement
//! optimization ([`vm1_core::Vm1Optimizer`]), re-route, and take the
//! **Final** measurements — the columns of Table 2. Every
//! [`optimize_and_measure`] run is instrumented end to end: its
//! [`ExperimentRow::metrics`] telemetry report can be rendered with
//! [`format_metrics_summary`] or exported as JSON/CSV.
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's §5 (see DESIGN.md for the per-experiment index):
//!
//! | artifact | function |
//! |---|---|
//! | Figure 5 (window/perturbation sweep) | [`experiments::expt_a1`] |
//! | Figure 6 (α sensitivity) | [`experiments::expt_a2`] |
//! | Figure 7 (optimization sequences) | [`experiments::expt_a3`] |
//! | Table 2 (ClosedM1 + OpenM1 designs) | [`experiments::expt_b`] |
//! | Figure 8 (DRVs vs utilization) | [`experiments::expt_fig8`] |
//!
//! # Examples
//!
//! ```no_run
//! use vm1_flow::{build_testcase, optimize_and_measure, FlowConfig};
//! use vm1_netlist::generator::DesignProfile;
//! use vm1_tech::CellArch;
//!
//! let cfg = FlowConfig::new(DesignProfile::Aes, CellArch::ClosedM1).with_scale(0.02);
//! let mut tc = build_testcase(&cfg);
//! let row = optimize_and_measure(&mut tc, &vm1_core::Vm1Config::closedm1());
//! println!("{}", row.table_line());
//! ```

#![warn(missing_docs)]

pub mod experiments;
mod flow;
mod report;
mod timing_driven;
pub mod viz;

pub use flow::{
    build_testcase, measure, measure_with, optimize_and_measure, route_with, FlowConfig, Testcase,
};
pub use report::{format_metrics_summary, format_table2, ExperimentRow, Snapshot};
pub use timing_driven::{net_criticality_weights, with_timing_driven_weights};
