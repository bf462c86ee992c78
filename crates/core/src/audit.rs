//! Whole-design audit: placement invariants plus an independent dM1
//! recount.
//!
//! [`audit_design`] combines two static checks:
//!
//! * the geometric placement invariants of
//!   [`vm1_place::verify`] (in-core, no overlap, and — when a
//!   snapshot is supplied — fixed cells unmoved and displacement
//!   bounds);
//! * an **independent recount** of the vertically alignable pin pairs
//!   (Σ d_pq), cross-checked against the count the objective claims.
//!
//! The recount in [`recount_alignments`] deliberately does *not* reuse
//! the production code path (`pairs::alignable_pairs` +
//! `pairs::pair_aligned` driving `objective::calculate_obj`): it walks
//! the nets itself, applies the paper's eligibility rules from scratch,
//! and — for ClosedM1 — counts by grouping pins into exact x-columns
//! instead of testing pairs one by one. It shares only the `vm1-netlist`
//! geometric primitives (`pin_position`, `pin_x_range`), so a bug in the
//! pair enumeration, the γ/δ tests, or the objective bookkeeping makes
//! the two counts disagree — which is exactly what the audit reports.
//!
//! `Vm1Optimizer` runs these checks behind `debug_assert!`-gated
//! checkpoints at every pass boundary; `vm1dp --audit` runs them
//! unconditionally and maps the outcome to structured exit codes.

use crate::objective::calculate_obj;
use crate::Vm1Config;
use vm1_netlist::{Design, NetPin};
use vm1_obs::{Counter, MetricsHandle, Stage};
use vm1_place::verify::{verify_with, DisplacementBounds, PlacementSnapshot, VerifyReport};
use vm1_tech::{CellArch, Layer};

/// Result of a whole-design audit.
#[derive(Clone, Debug)]
#[must_use = "an audit report is only useful if its findings are inspected"]
pub struct DesignAuditReport {
    /// Geometric invariant check results.
    pub placement: VerifyReport,
    /// Σ d_pq recomputed independently of the objective code path.
    pub recounted_dm1: usize,
    /// Σ d_pq as claimed by `calculate_obj` on the same placement.
    pub reported_dm1: usize,
}

impl DesignAuditReport {
    /// Whether the two dM1 counts agree.
    #[must_use]
    pub fn dm1_consistent(&self) -> bool {
        self.recounted_dm1 == self.reported_dm1
    }

    /// Whether every placement invariant holds *and* the dM1 counts
    /// agree.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.placement.is_clean() && self.dm1_consistent()
    }

    /// One line per finding (empty string when clean).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = self.placement.summary();
        if !self.dm1_consistent() {
            out.push_str(&format!(
                "dM1 mismatch: independent recount found {} alignable pairs, \
                 objective reported {}\n",
                self.recounted_dm1, self.reported_dm1
            ));
        }
        out
    }
}

/// Audits `design`: placement invariants plus the dM1 cross-check.
/// Equivalent to [`audit_design_with`] with a disabled metrics handle.
pub fn audit_design(design: &Design, cfg: &Vm1Config) -> DesignAuditReport {
    audit_design_with(design, cfg, &MetricsHandle::disabled())
}

/// [`audit_design`] with metrics: wall-clock goes to
/// [`Stage::Audit`]; a dM1 mismatch counts as one
/// [`Counter::AuditErrors`].
pub fn audit_design_with(
    design: &Design,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
) -> DesignAuditReport {
    let placement = verify_with(design, None, None, metrics);
    let (recounted, reported) = metrics.timed(Stage::Audit, || {
        (
            recount_alignments(design, cfg),
            calculate_obj(design, cfg).alignments,
        )
    });
    if recounted != reported {
        metrics.incr(Counter::AuditErrors);
    }
    DesignAuditReport {
        placement,
        recounted_dm1: recounted,
        reported_dm1: reported,
    }
}

/// Recounts the vertically alignable pin pairs (Σ d_pq) of the current
/// placement from first principles (see the module docs for what makes
/// this count independent of the objective's).
#[must_use]
pub fn recount_alignments(design: &Design, cfg: &Vm1Config) -> usize {
    let arch = design.library().arch();
    let tech = design.library().tech();
    let y_span = tech.gamma_span();
    match arch {
        CellArch::Conv12T => 0,
        CellArch::ClosedM1 => {
            // Group each net's M1 pins into exact x-columns; only pins
            // sharing a column can align, so count the pairs within γ
            // rows inside each column.
            let mut count = 0usize;
            for (_, net) in design.nets() {
                if net.pins.len() > cfg.max_net_pins {
                    continue;
                }
                let mut pins: Vec<(usize, i64, i64)> = Vec::new(); // (inst, x, y)
                for &np in &net.pins {
                    if let NetPin::Inst(pr) = np {
                        if design.macro_pin(pr).shape.layer == Layer::M1 {
                            let p = design.pin_position(pr);
                            pins.push((pr.inst.0, p.x.nm(), p.y.nm()));
                        }
                    }
                }
                pins.sort_unstable_by_key(|&(_, x, y)| (x, y));
                let mut col_start = 0;
                for i in 1..=pins.len() {
                    if i == pins.len() || pins[i].1 != pins[col_start].1 {
                        let col = &pins[col_start..i];
                        for (a_idx, a) in col.iter().enumerate() {
                            for b in &col[a_idx + 1..] {
                                if a.0 != b.0 && (a.2 - b.2).abs() <= y_span.nm() {
                                    count += 1;
                                }
                            }
                        }
                        col_start = i;
                    }
                }
            }
            count
        }
        CellArch::OpenM1 => {
            // Pairwise shape-overlap test over each net's M0 pins.
            let mut count = 0usize;
            for (_, net) in design.nets() {
                if net.pins.len() > cfg.max_net_pins {
                    continue;
                }
                let mut pins: Vec<(usize, vm1_geom::Interval, i64)> = Vec::new();
                for &np in &net.pins {
                    if let NetPin::Inst(pr) = np {
                        if design.macro_pin(pr).shape.layer == Layer::M0 {
                            pins.push((
                                pr.inst.0,
                                design.pin_x_range(pr),
                                design.pin_position(pr).y.nm(),
                            ));
                        }
                    }
                }
                for (a_idx, a) in pins.iter().enumerate() {
                    for b in &pins[a_idx + 1..] {
                        if a.0 != b.0
                            && (a.2 - b.2).abs() <= y_span.nm()
                            && a.1.overlap_len(b.1) >= tech.delta
                        {
                            count += 1;
                        }
                    }
                }
            }
            count
        }
    }
}

/// Runs the debug-build placement checkpoint: verifies `design` against
/// `snapshot` under `bounds` and panics with the full violation list if
/// any invariant fails. Compiled to nothing in release builds; the
/// passed metrics handle sees the check counts only in debug builds, so
/// counter values stay deterministic within a build profile.
#[inline]
pub fn debug_checkpoint(
    design: &Design,
    snapshot: &PlacementSnapshot,
    bounds: Option<DisplacementBounds>,
    metrics: &MetricsHandle,
    context: &str,
) {
    if cfg!(debug_assertions) {
        let r = verify_with(design, Some(snapshot), bounds, metrics);
        assert!(
            r.is_clean(),
            "placement checkpoint failed {context}:\n{}",
            r.summary()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_alignments;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::Library;

    fn setup(arch: CellArch, n: usize, seed: u64) -> Design {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        d
    }

    #[test]
    fn recount_matches_objective_closedm1() {
        let cfg = Vm1Config::closedm1();
        for seed in 1..=4 {
            let d = setup(CellArch::ClosedM1, 200, seed);
            assert_eq!(
                recount_alignments(&d, &cfg),
                count_alignments(&d, &cfg),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn recount_matches_objective_openm1() {
        let cfg = Vm1Config::openm1();
        for seed in 1..=4 {
            let d = setup(CellArch::OpenM1, 200, seed);
            assert_eq!(
                recount_alignments(&d, &cfg),
                count_alignments(&d, &cfg),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn recount_is_zero_for_conv12t() {
        let cfg = Vm1Config::closedm1();
        let d = setup(CellArch::Conv12T, 150, 1);
        assert_eq!(recount_alignments(&d, &cfg), 0);
    }

    #[test]
    fn legal_design_audits_clean() {
        let cfg = Vm1Config::closedm1();
        let d = setup(CellArch::ClosedM1, 200, 2);
        let r = audit_design(&d, &cfg);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn detects_seeded_dm1_miscount() {
        // A mis-set config pair simulates an objective whose claimed dM1
        // disagrees with the placement: recount with the default pin cap
        // against a report computed with `max_net_pins = 1` (which
        // suppresses every pair).
        let cfg = Vm1Config::closedm1();
        let mut broken = cfg.clone();
        broken.max_net_pins = 1;
        let d = setup(CellArch::ClosedM1, 250, 3);
        let honest = recount_alignments(&d, &cfg);
        let suppressed = calculate_obj(&d, &broken).alignments;
        assert!(
            honest > suppressed,
            "seeded miscount must be visible: {honest} vs {suppressed}"
        );
    }

    #[test]
    fn audit_flags_corrupt_placement() {
        use vm1_netlist::InstId;
        let cfg = Vm1Config::closedm1();
        let mut d = setup(CellArch::ClosedM1, 150, 4);
        let orient = d.inst(InstId(0)).orient;
        d.move_inst(InstId(0), -5, 0, orient);
        let r = audit_design(&d, &cfg);
        assert!(!r.is_clean());
        assert!(!r.placement.is_clean());
    }

    #[test]
    fn audit_metrics_flow_through() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;
        let cfg = Vm1Config::closedm1();
        let d = setup(CellArch::ClosedM1, 150, 5);
        let sink = Arc::new(Telemetry::new());
        let metrics = MetricsHandle::of(sink.clone());
        let r = audit_design_with(&d, &cfg, &metrics);
        assert!(r.is_clean(), "{}", r.summary());
        let report = sink.report();
        assert!(report.counter(Counter::AuditPlacementChecks) > 0);
        assert_eq!(report.counter(Counter::AuditErrors), 0);
        assert!(report.stage_calls(Stage::Audit) >= 1);
    }
}
