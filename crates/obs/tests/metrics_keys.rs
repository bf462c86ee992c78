//! Pins the metrics key list: the key column of an empty report's CSV,
//! the format `--metrics-out x.csv` writes.
//!
//! Consumers look counters and stage times up by name: the perfbench
//! harness reads a key it cannot find as 0, so a renamed key would zero
//! a per-layer metric without failing anything else. Renaming, removing,
//! adding or reordering a key must edit this list in the same change.

use vm1_obs::Telemetry;

/// Every key, in export order: the counters, the `exact` verdict, the
/// stage times (`_ms`) and the scheduler gauges (`sched_`).
const KEYS: &[&str] = &[
    // Counters.
    "bb_nodes",
    "bb_nodes_pruned",
    "lp_solves",
    "simplex_pivots",
    "presolve_tightenings",
    "presolve_redundant_rows",
    "milp_fallbacks",
    "milp_limit_hit",
    "dfs_nodes",
    "dfs_budget_exhausted",
    "windows_visited",
    "windows_improved",
    "batches_solved",
    "cells_changed",
    "distopt_rounds",
    "distopt_passes",
    "rowmap_builds",
    "rowmap_rows_patched",
    "iterations",
    "param_sets",
    "audit_errors",
    "audit_placement_checks",
    "audit_placement_violations",
    "cert_recorded",
    "cert_verified",
    "cert_rejected",
    "route_searches",
    "route_heap_pops",
    "route_bbox_widenings",
    "route_overflow",
    "route_unrouted",
    // Exactness verdict.
    "exact",
    // Stage times.
    "vm1opt_ms",
    "perturb_ms",
    "flip_ms",
    "objective_eval_ms",
    "window_build_ms",
    "window_solve_ms",
    "commit_ms",
    "milp_build_ms",
    "milp_solve_ms",
    "route_ms",
    "analysis_ms",
    "audit_ms",
    "certify_ms",
    // Scheduler gauges.
    "sched_queue_high_water",
    "sched_tasks_executed",
    "sched_worker_busy_ns",
    "sched_worker_busy_max_ns",
];

#[test]
fn metrics_keys_match_the_checked_in_list() {
    let csv = Telemetry::new().report().to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("metric,value"));
    let keys: Vec<&str> = lines
        .map(|l| l.split_once(',').map_or(l, |(key, _)| key))
        .collect();
    assert_eq!(keys, KEYS);
}
