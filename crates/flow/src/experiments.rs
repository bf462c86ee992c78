//! Drivers that regenerate every table and figure of the paper's §5.
//!
//! Each driver takes an [`ExperimentScale`]: `Smoke` for tests and
//! `Reduced` (default) for runs that preserve the paper's qualitative
//! shapes at well below the paper's absolute design sizes (see DESIGN.md
//! §5).

use crate::{build_testcase, measure, optimize_and_measure, ExperimentRow, FlowConfig};
use vm1_core::{ParamSet, Vm1Config};
use vm1_netlist::generator::DesignProfile;
use vm1_obs::timer::Stopwatch;
use vm1_tech::CellArch;

/// Effort level of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny designs / short sweeps, for tests.
    Smoke,
    /// Default: same qualitative curves as the paper.
    Reduced,
}

impl ExperimentScale {
    fn design_scale(self) -> f64 {
        match self {
            ExperimentScale::Smoke => 0.015,
            ExperimentScale::Reduced => 0.04,
        }
    }
}

// ---------------------------------------------------------------------------
// ExptA-1 — Figure 5
// ---------------------------------------------------------------------------

/// One point of the Figure 5 sweep.
#[derive(Clone, Copy, Debug)]
pub struct A1Row {
    /// Window size (µm, square).
    pub bw_um: f64,
    /// Max x displacement (sites).
    pub lx: i64,
    /// Max y displacement (rows).
    pub ly: i64,
    /// Routed wirelength after one DistOpt pair + re-route (µm).
    pub rwl_um: f64,
    /// Optimizer runtime (ms).
    pub runtime_ms: u64,
}

/// ExptA-1: scalability sweep over window size and perturbation range on
/// the aes-like ClosedM1 design, one `DistOpt` pair per point (Figure 5).
#[must_use]
pub fn expt_a1(scale: ExperimentScale) -> Vec<A1Row> {
    let windows: &[f64] = match scale {
        ExperimentScale::Smoke => &[2.0, 4.0],
        ExperimentScale::Reduced => &[1.5, 2.0, 3.0, 5.0, 8.0],
    };
    let ranges: &[(i64, i64)] = match scale {
        ExperimentScale::Smoke => &[(3, 1)],
        ExperimentScale::Reduced => &[(2, 0), (2, 1), (3, 1), (4, 1), (5, 1)],
    };
    let base =
        FlowConfig::new(DesignProfile::Aes, CellArch::ClosedM1).with_scale(scale.design_scale());
    let mut rows = Vec::new();
    for &bw in windows {
        for &(lx, ly) in ranges {
            let mut tc = build_testcase(&base);
            let mut cfg = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(bw, lx, ly)]);
            // One iteration of Algorithm 1 = one DistOpt pair.
            cfg.max_inner_iters = 1;
            let row = optimize_and_measure(&mut tc, &cfg);
            rows.push(A1Row {
                bw_um: bw,
                lx,
                ly,
                rwl_um: row.fin.rwl.to_um(),
                runtime_ms: row.runtime_ms,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// ExptA-2 — Figure 6
// ---------------------------------------------------------------------------

/// One point of the Figure 6 α sweep.
#[derive(Clone, Copy, Debug)]
pub struct A2Row {
    /// α value.
    pub alpha: f64,
    /// Routed wirelength after optimization (µm).
    pub rwl_um: f64,
    /// #dM1 after optimization.
    pub dm1: usize,
    /// Alignable pairs in the optimized placement.
    pub alignments: usize,
}

/// ExptA-2: sensitivity of RWL and #dM1 to α (Figure 6).
#[must_use]
pub fn expt_a2(scale: ExperimentScale, arch: CellArch) -> Vec<A2Row> {
    let alphas: &[f64] = match scale {
        ExperimentScale::Smoke => &[0.0, 1200.0],
        ExperimentScale::Reduced => &[0.0, 150.0, 300.0, 600.0, 1200.0, 2400.0, 6000.0],
    };
    let base = FlowConfig::new(DesignProfile::Aes, arch).with_scale(scale.design_scale());
    let mut rows = Vec::new();
    for &alpha in alphas {
        let mut tc = build_testcase(&base);
        let cfg = arch_config(arch)
            .with_alpha(alpha)
            .with_sequence(vec![ParamSet::new(3.0, 4, 1)]);
        let row = optimize_and_measure(&mut tc, &cfg);
        rows.push(A2Row {
            alpha,
            rwl_um: row.fin.rwl.to_um(),
            dm1: row.fin.dm1,
            alignments: row.fin.alignments,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// ExptA-3 — Figure 7
// ---------------------------------------------------------------------------

/// One optimization sequence of ExptA-3.
#[derive(Clone, Debug)]
pub struct A3Row {
    /// Sequence number (1–5, as in the paper).
    pub id: usize,
    /// Human-readable sequence description.
    pub label: String,
    /// Routed wirelength after the full sequence (µm).
    pub rwl_um: f64,
    /// Total runtime (ms).
    pub runtime_ms: u64,
}

/// The paper's five optimization sequences, window sizes scaled 4× down
/// with the designs (20 µm → 5 µm, 10 µm → 2.5 µm).
#[must_use]
pub fn paper_sequences() -> Vec<(usize, String, Vec<ParamSet>)> {
    let seqs: Vec<Vec<(f64, i64, i64)>> = vec![
        vec![(5.0, 4, 1)],
        vec![(2.5, 3, 1), (2.5, 4, 0), (5.0, 4, 0)],
        vec![(2.5, 3, 1), (5.0, 3, 1), (5.0, 3, 0)],
        vec![(2.5, 3, 1), (5.0, 3, 0)],
        vec![(2.5, 3, 1), (2.5, 3, 0), (5.0, 3, 1), (5.0, 3, 0)],
    ];
    seqs.into_iter()
        .enumerate()
        .map(|(i, seq)| {
            let label = seq
                .iter()
                .map(|(b, lx, ly)| format!("({b}, {lx}, {ly})"))
                .collect::<Vec<_>>()
                .join(" -> ");
            (
                i + 1,
                label,
                seq.into_iter()
                    .map(|(b, lx, ly)| ParamSet::new(b, lx, ly))
                    .collect(),
            )
        })
        .collect()
}

/// ExptA-3: quality/runtime of the five optimization sequences (Figure 7).
#[must_use]
pub fn expt_a3(scale: ExperimentScale) -> Vec<A3Row> {
    let base =
        FlowConfig::new(DesignProfile::Aes, CellArch::ClosedM1).with_scale(scale.design_scale());
    let sequences = match scale {
        ExperimentScale::Smoke => paper_sequences().into_iter().take(2).collect::<Vec<_>>(),
        ExperimentScale::Reduced => paper_sequences(),
    };
    let mut rows = Vec::new();
    for (id, label, seq) in sequences {
        let mut tc = build_testcase(&base);
        let cfg = Vm1Config::closedm1().with_sequence(seq);
        let start = Stopwatch::start();
        let row = optimize_and_measure(&mut tc, &cfg);
        let _ = start;
        rows.push(A3Row {
            id,
            label,
            rwl_um: row.fin.rwl.to_um(),
            runtime_ms: row.runtime_ms,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// ExptB — Table 2
// ---------------------------------------------------------------------------

/// ExptB: the Table 2 rows for one architecture (α = 1200 for ClosedM1,
/// 1000 for OpenM1, as selected in ExptA-2).
#[must_use]
pub fn expt_b(scale: ExperimentScale, arch: CellArch) -> Vec<ExperimentRow> {
    let profiles = match scale {
        ExperimentScale::Smoke => vec![DesignProfile::M0],
        ExperimentScale::Reduced => DesignProfile::ALL.to_vec(),
    };
    let mut rows = Vec::new();
    for profile in profiles {
        let fc = FlowConfig::new(profile, arch).with_scale(scale.design_scale());
        let mut tc = build_testcase(&fc);
        let cfg = arch_config(arch);
        rows.push(optimize_and_measure(&mut tc, &cfg));
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 8 — DRVs vs utilization
// ---------------------------------------------------------------------------

/// One utilization point of Figure 8.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Row {
    /// Core utilization.
    pub util: f64,
    /// DRVs before optimization.
    pub drvs_orig: usize,
    /// DRVs after optimization.
    pub drvs_opt: usize,
    /// #dM1 after optimization.
    pub dm1_opt: usize,
}

/// ExptB-1 congestion study: raise the aes-like design's utilization to
/// induce hotspots and compare DRVs before/after optimization (Figure 8).
#[must_use]
pub fn expt_fig8(scale: ExperimentScale) -> Vec<Fig8Row> {
    let utils: &[f64] = match scale {
        ExperimentScale::Smoke => &[0.82],
        ExperimentScale::Reduced => &[0.80, 0.81, 0.82, 0.83, 0.84],
    };
    let mut rows = Vec::new();
    for &util in utils {
        let fc = FlowConfig::new(DesignProfile::Aes, CellArch::ClosedM1)
            .with_scale(scale.design_scale())
            .with_utilization(util);
        let mut tc = build_testcase(&fc);
        let cfg = Vm1Config::closedm1();
        let (init, _) = measure(&tc, &cfg);
        let _ = vm1_core::Vm1Optimizer::new(cfg.clone()).run(&mut tc.design);
        let (fin, _) = measure(&tc, &cfg);
        rows.push(Fig8Row {
            util,
            drvs_orig: init.drvs,
            drvs_opt: fin.drvs,
            dm1_opt: fin.dm1,
        });
    }
    rows
}

fn arch_config(arch: CellArch) -> Vm1Config {
    match arch {
        CellArch::OpenM1 => Vm1Config::openm1(),
        _ => Vm1Config::closedm1(),
    }
}

// ---------------------------------------------------------------------------
// Ablation: placer-awareness × router-awareness
// ---------------------------------------------------------------------------

/// One cell of the 2×2 ablation matrix.
#[derive(Clone, Copy, Debug)]
pub struct AblationRow {
    /// Whether the vertical-M1-aware placer ran.
    pub placer_aware: bool,
    /// Whether the router exploits dM1 at all.
    pub router_aware: bool,
    /// #dM1 in the final routing.
    pub dm1: usize,
    /// Routed wirelength (µm).
    pub rwl_um: f64,
    /// V12 count.
    pub via12: usize,
}

/// Ablation of the paper's §1.1 premise: "both the detailed placer and
/// the router must comprehend vertical alignment in order to maximally
/// exploit direct vertical M1 routing". Runs the 2×2 matrix
/// {optimizer on/off} × {dM1-aware routing on/off} on the aes-like
/// ClosedM1 design.
#[must_use]
pub fn expt_ablation(scale: ExperimentScale) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for placer_aware in [false, true] {
        for router_aware in [false, true] {
            let mut fc = FlowConfig::new(DesignProfile::Aes, CellArch::ClosedM1)
                .with_scale(scale.design_scale());
            fc.router.enable_dm1 = router_aware;
            let mut tc = build_testcase(&fc);
            let cfg = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(3.0, 4, 1)]);
            if placer_aware {
                let _ = vm1_core::Vm1Optimizer::new(cfg.clone()).run(&mut tc.design);
            }
            let (snap, _) = measure(&tc, &cfg);
            rows.push(AblationRow {
                placer_aware,
                router_aware,
                dm1: snap.dm1,
                rwl_um: snap.rwl.to_um(),
                via12: snap.via12,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Timing-driven extension (paper future work ii)
// ---------------------------------------------------------------------------

/// Comparison row of the timing-criticality-weighted objective.
#[derive(Clone, Copy, Debug)]
pub struct TimingDrivenRow {
    /// Criticality boost used (0 = the paper's uniform β).
    pub boost: f64,
    /// Final worst negative slack (ns, paper convention).
    pub wns_ns: f64,
    /// Final #dM1.
    pub dm1: usize,
    /// Final routed wirelength (µm).
    pub rwl_um: f64,
}

/// Runs the optimizer with uniform β versus timing-criticality-weighted
/// β_n (the paper's future-work extension) at a clock tightened below the
/// initial critical path, and reports the resulting WNS.
#[must_use]
pub fn expt_timing_driven(scale: ExperimentScale) -> Vec<TimingDrivenRow> {
    let boosts: &[f64] = match scale {
        ExperimentScale::Smoke => &[0.0, 4.0],
        ExperimentScale::Reduced => &[0.0, 2.0, 4.0, 8.0],
    };
    let fc =
        FlowConfig::new(DesignProfile::Aes, CellArch::ClosedM1).with_scale(scale.design_scale());
    let mut rows = Vec::new();
    for &boost in boosts {
        let mut tc = build_testcase(&fc);
        // Tighten the clock so slack becomes scarce and the weighting
        // matters.
        tc.clock_ps *= 0.97;
        let base = Vm1Config::closedm1().with_sequence(vec![ParamSet::new(3.0, 4, 1)]);
        let cfg = if boost > 0.0 {
            crate::with_timing_driven_weights(&tc, base, boost)
        } else {
            base
        };
        let row = optimize_and_measure(&mut tc, &cfg);
        rows.push(TimingDrivenRow {
            boost,
            wns_ns: row.fin.wns_ns,
            dm1: row.fin.dm1,
            rwl_um: row.fin.rwl.to_um(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sequences_match_section_5_2() {
        let seqs = paper_sequences();
        assert_eq!(seqs.len(), 5);
        // Sequence 1 is the preferred (20, 4, 1), scaled to (5, 4, 1).
        assert_eq!(seqs[0].2, vec![ParamSet::new(5.0, 4, 1)]);
        // Sequence 5 has four stages.
        assert_eq!(seqs[4].2.len(), 4);
        assert!(seqs[1].1.contains("->"));
    }

    #[test]
    fn smoke_a2_alpha_zero_vs_paper_alpha() {
        let rows = expt_a2(ExperimentScale::Smoke, CellArch::ClosedM1);
        assert_eq!(rows.len(), 2);
        // More α ⇒ at least as many alignments.
        assert!(rows[1].alignments >= rows[0].alignments);
    }
}
