//! Timing-criticality-weighted optimization — the paper's future-work
//! item (ii): "extension of our placement objective function to consider
//! other design criteria, including timing criticality".
//!
//! Nets with little slack get a larger β_n, so the MILP trades alignment
//! bonuses against *weighted* wirelength and avoids stretching critical
//! nets to create alignments on non-critical ones.

use crate::Testcase;
use vm1_core::Vm1Config;
use vm1_route::route;
use vm1_timing::net_slacks;

/// Computes per-net weight multipliers from STA slacks:
/// `w_n = 1 + boost · criticality_n` with
/// `criticality = clamp(1 − slack / clock, 0, 1)`.
///
/// Nets with no timing endpoint (clock, dangling) get weight 1.
///
/// # Panics
///
/// Panics on a cyclic netlist (cannot happen for generated designs).
#[expect(clippy::expect_used, reason = "documented # Panics contract")]
#[must_use]
pub fn net_criticality_weights(tc: &Testcase, boost: f64) -> Vec<f64> {
    let r = route(&tc.design, &tc.router);
    let slacks = net_slacks(&tc.design, Some(&r), tc.clock_ps).expect("acyclic netlist");
    slacks
        .iter()
        .map(|&s| {
            if !s.is_finite() {
                1.0
            } else {
                let crit = (1.0 - s / tc.clock_ps).clamp(0.0, 1.0);
                1.0 + boost * crit
            }
        })
        .collect()
}

/// Installs criticality weights computed from the testcase's current state
/// into an optimizer config.
#[must_use]
pub fn with_timing_driven_weights(tc: &Testcase, cfg: Vm1Config, boost: f64) -> Vm1Config {
    cfg.with_net_weights(net_criticality_weights(tc, boost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_testcase, FlowConfig};
    use vm1_netlist::generator::DesignProfile;
    use vm1_tech::CellArch;

    fn tc() -> Testcase {
        build_testcase(
            &FlowConfig::new(DesignProfile::M0, CellArch::ClosedM1)
                .with_scale(0.015)
                .with_seed(9),
        )
    }

    #[test]
    fn weights_are_bounded_and_cover_all_nets() {
        let tc = tc();
        let w = net_criticality_weights(&tc, 3.0);
        assert_eq!(w.len(), tc.design.num_nets());
        for &x in &w {
            assert!((1.0..=4.0).contains(&x), "weight {x}");
        }
    }

    #[test]
    fn critical_nets_get_larger_weights() {
        let tc = tc();
        let w = net_criticality_weights(&tc, 3.0);
        let max = w.iter().copied().fold(0.0, f64::max);
        let min = w.iter().copied().fold(f64::INFINITY, f64::min);
        // The calibrated clock leaves ~0 slack on the critical path and
        // plenty elsewhere, so the weights must spread.
        assert!(max > min + 0.5, "weights must differentiate: {min}..{max}");
    }

    #[test]
    fn zero_boost_gives_uniform_weights() {
        let tc = tc();
        let w = net_criticality_weights(&tc, 0.0);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn config_installation() {
        let tc = tc();
        let cfg = with_timing_driven_weights(&tc, Vm1Config::closedm1(), 2.0);
        assert!(cfg.net_weights.is_some());
        let (id, _) = tc.design.nets().next().unwrap();
        assert!(cfg.net_weight(id) >= 1.0);
    }
}
