//! Measurement snapshots and Table 2-style reporting.

use vm1_geom::Dbu;
use vm1_obs::{Counter, MetricsReport, SchedGauge, Stage};

/// Metrics of a routed design at one point of the flow — the columns of
/// the paper's Table 2.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Direct vertical M1 routes (#dM1).
    pub dm1: usize,
    /// M1 wirelength (nm).
    pub m1_wl: Dbu,
    /// Via count between M1 and M2 (#via12).
    pub via12: usize,
    /// Half-perimeter wirelength (nm).
    pub hpwl: Dbu,
    /// Routed wirelength (nm).
    pub rwl: Dbu,
    /// Worst negative slack as the paper prints it (ns; 0.000 when met).
    pub wns_ns: f64,
    /// Total power (mW).
    pub power_mw: f64,
    /// Design-rule-violation proxy count.
    pub drvs: usize,
    /// Vertically alignable pin pairs in the placement (Σ d_pq).
    pub alignments: usize,
}

/// One design row of Table 2: Init vs Final plus run metadata.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// Design name.
    pub design: String,
    /// Instance count.
    pub insts: usize,
    /// Target utilization.
    pub util: f64,
    /// α used.
    pub alpha: f64,
    /// Before optimization.
    pub init: Snapshot,
    /// After optimization + re-route.
    pub fin: Snapshot,
    /// Optimizer runtime (ms).
    pub runtime_ms: u64,
    /// Telemetry of the optimize-and-measure run (counters, stage times,
    /// objective trajectory), when the flow was instrumented.
    pub metrics: Option<MetricsReport>,
}

impl ExperimentRow {
    /// Percentage change helper (`(fin - init) / init · 100`).
    fn pct(init: f64, fin: f64) -> f64 {
        if init.abs() < 1e-12 {
            0.0
        } else {
            (fin - init) / init * 100.0
        }
    }

    /// Δ% of routed wirelength (negative = reduction, the paper's
    /// headline metric).
    #[must_use]
    pub fn rwl_delta_pct(&self) -> f64 {
        Self::pct(self.init.rwl.nm() as f64, self.fin.rwl.nm() as f64)
    }

    /// Δ% of #via12.
    #[must_use]
    pub fn via12_delta_pct(&self) -> f64 {
        Self::pct(self.init.via12 as f64, self.fin.via12 as f64)
    }

    /// Δ% of HPWL.
    #[must_use]
    pub fn hpwl_delta_pct(&self) -> f64 {
        Self::pct(self.init.hpwl.nm() as f64, self.fin.hpwl.nm() as f64)
    }

    /// Ratio of final to initial #dM1 (the paper reports > 4× for
    /// ClosedM1).
    #[must_use]
    pub fn dm1_ratio(&self) -> f64 {
        if self.init.dm1 == 0 {
            if self.fin.dm1 == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.fin.dm1 as f64 / self.init.dm1 as f64
        }
    }

    /// One formatted line in the style of Table 2.
    #[must_use]
    pub fn table_line(&self) -> String {
        format!(
            "{:<10} {:>6} {:>4.0}% {:>6.0} | dM1 {:>6} -> {:>6} ({:>6.1}x) | M1WL {:>9} -> {:>9} | via12 {:>6} -> {:>6} ({:>+6.1}%) | HPWL(um) {:>9.1} -> {:>9.1} ({:>+5.1}%) | RWL(um) {:>9.1} -> {:>9.1} ({:>+5.1}%) | WNS {:>6.3} -> {:>6.3} | P(mW) {:>7.3} -> {:>7.3} | {:>7} ms",
            self.design,
            self.insts,
            self.util * 100.0,
            self.alpha,
            self.init.dm1,
            self.fin.dm1,
            self.dm1_ratio(),
            self.init.m1_wl.nm(),
            self.fin.m1_wl.nm(),
            self.init.via12,
            self.fin.via12,
            self.via12_delta_pct(),
            self.init.hpwl.to_um(),
            self.fin.hpwl.to_um(),
            self.hpwl_delta_pct(),
            self.init.rwl.to_um(),
            self.fin.rwl.to_um(),
            self.rwl_delta_pct(),
            self.init.wns_ns,
            self.fin.wns_ns,
            self.init.power_mw,
            self.fin.power_mw,
            self.runtime_ms,
        )
    }
}

/// Formats a telemetry report as a human-readable summary table:
/// solver-work counters, per-stage wall times, parallel utilization, and
/// the per-ParamSet objective/alignment trajectory.
#[must_use]
pub fn format_metrics_summary(r: &MetricsReport) -> String {
    let mut out = String::from("-- telemetry --\n");
    out.push_str("counter                    value\n");
    for c in Counter::ALL {
        let v = r.counter(c);
        if v > 0 {
            out.push_str(&format!("{:<24} {:>8}\n", c.name(), v));
        }
    }
    out.push_str("stage                    ms      calls\n");
    for s in Stage::ALL {
        if r.stage_calls(s) > 0 {
            out.push_str(&format!(
                "{:<20} {:>10.1} {:>8}\n",
                s.name(),
                r.stage_ms(s),
                r.stage_calls(s)
            ));
        }
    }
    if SchedGauge::ALL.iter().any(|&g| r.gauge(g) > 0) {
        out.push_str("scheduler                  value\n");
        for g in SchedGauge::ALL {
            let v = r.gauge(g);
            if v > 0 {
                out.push_str(&format!("{:<24} {:>8}\n", g.name(), v));
            }
        }
    }
    if let Some(u) = r.parallel_utilization() {
        out.push_str(&format!("parallel utilization {u:>10.2}\n"));
    }
    if !r.trajectory().is_empty() {
        out.push_str("trajectory (param_set, iteration, objective, hpwl_nm, alignments)\n");
        for p in r.trajectory() {
            out.push_str(&format!(
                "  u{} it{:<3} obj {:>14.1} hpwl {:>12} align {:>6}\n",
                p.param_set, p.iteration, p.objective, p.hpwl_nm, p.alignments
            ));
        }
    }
    out
}

/// Formats rows as a Table 2-style block with a header.
#[must_use]
pub fn format_table2(title: &str, rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(
        "design      #Inst util  alpha |  #dM1 Init -> Final  | M1 WL (nm)            | #via12              | HPWL               | RWL                 | WNS (ns)        | Power            | runtime\n",
    );
    for r in rows {
        out.push_str(&r.table_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> ExperimentRow {
        ExperimentRow {
            design: "aes_like".into(),
            insts: 1234,
            util: 0.75,
            alpha: 1200.0,
            init: Snapshot {
                dm1: 100,
                m1_wl: Dbu(50_000),
                via12: 4000,
                hpwl: Dbu(3_000_000),
                rwl: Dbu(3_500_000),
                wns_ns: 0.0,
                power_mw: 3.2,
                drvs: 0,
                alignments: 120,
            },
            fin: Snapshot {
                dm1: 450,
                m1_wl: Dbu(45_000),
                via12: 3500,
                hpwl: Dbu(2_950_000),
                rwl: Dbu(3_300_000),
                wns_ns: 0.0,
                power_mw: 3.15,
                drvs: 0,
                alignments: 500,
            },
            runtime_ms: 1234,
            metrics: None,
        }
    }

    #[test]
    fn percentage_helpers() {
        let r = row();
        assert!((r.rwl_delta_pct() - (-5.714_285)).abs() < 1e-3);
        assert!((r.via12_delta_pct() - (-12.5)).abs() < 1e-9);
        assert!((r.dm1_ratio() - 4.5).abs() < 1e-9);
        assert!(r.hpwl_delta_pct() < 0.0);
    }

    #[test]
    fn zero_init_dm1_ratio_is_safe() {
        let mut r = row();
        r.init.dm1 = 0;
        assert!(r.dm1_ratio().is_infinite());
        r.fin.dm1 = 0;
        assert_eq!(r.dm1_ratio(), 1.0);
    }

    #[test]
    fn table_formatting_contains_key_fields() {
        let text = format_table2("ClosedM1-based designs", &[row()]);
        assert!(text.contains("aes_like"));
        assert!(text.contains("ClosedM1-based designs"));
        assert!(text.contains("4.5x"));
    }

    #[test]
    fn metrics_summary_shows_active_counters_and_stages_only() {
        use vm1_obs::{Telemetry, TrajectoryPoint};
        let t = Telemetry::new();
        use vm1_obs::MetricsSink;
        t.add(Counter::BbNodes, 7);
        t.record_time(Stage::Route, 3_000_000);
        t.record_point(TrajectoryPoint {
            param_set: 0,
            iteration: 1,
            objective: -10.0,
            hpwl_nm: 500,
            alignments: 3,
        });
        let text = format_metrics_summary(&t.report());
        assert!(text.contains("bb_nodes"));
        assert!(!text.contains("cache_hits"), "zero counters are elided");
        assert!(text.contains("route"));
        assert!(!text.contains("milp_solve"), "untimed stages are elided");
        assert!(text.contains("trajectory"));
        assert!(text.contains("u0 it1"));
        assert!(
            !text.contains("scheduler"),
            "gauge section is elided when no gauge fired"
        );
    }

    #[test]
    fn metrics_summary_shows_scheduler_gauges() {
        use vm1_obs::{MetricsSink, Telemetry};
        let t = Telemetry::new();
        t.record_gauge(SchedGauge::TasksExecuted, 40);
        t.record_gauge(SchedGauge::WorkerBusyNanos, 5);
        let text = format_metrics_summary(&t.report());
        assert!(text.contains("scheduler"));
        assert!(text.contains("sched_tasks_executed"));
        assert!(text.contains("sched_worker_busy_ns"));
        assert!(
            !text.contains("sched_queue_high_water"),
            "zero gauges are elided"
        );
    }
}
