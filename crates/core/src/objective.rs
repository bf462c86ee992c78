//! The paper's objective on a whole design (`CalculateObj` of
//! Algorithm 2).

use crate::pairs::{alignable_pairs, pair_aligned};
use crate::Vm1Config;
use vm1_geom::Dbu;
use vm1_netlist::Design;

/// Decomposed objective value.
#[derive(Clone, Copy, Debug, PartialEq)]
#[must_use = "an objective evaluation is only useful if it is read"]
pub struct Objective {
    /// Σ HPWL over all nets (nm).
    pub hpwl: Dbu,
    /// Number of vertically alignable pin pairs (Σ d_pq).
    pub alignments: usize,
    /// Total overlap length beyond δ over aligned pairs (Σ o_pq, nm;
    /// zero for ClosedM1).
    pub overlap_sum: Dbu,
    /// The scalar objective
    /// `β·HPWL − α·alignments − ε·overlap_sum` (minimized).
    pub value: f64,
}

/// Evaluates objective (1)/(10) on the current placement.
pub fn calculate_obj(design: &Design, cfg: &Vm1Config) -> Objective {
    let hpwl = design.total_hpwl();
    let weighted_hpwl: f64 = design
        .nets()
        .map(|(id, _)| cfg.net_weight(id) * design.net_hpwl(id).nm() as f64)
        .sum();
    let (alignments, overlap_sum) = overlap_stats(design, cfg);
    let value =
        weighted_hpwl - cfg.alpha * alignments as f64 - cfg.epsilon * overlap_sum.nm() as f64;
    Objective {
        hpwl,
        alignments,
        overlap_sum,
        value,
    }
}

/// Number of alignable pairs in the current placement (Σ d_pq).
#[must_use]
pub fn count_alignments(design: &Design, cfg: &Vm1Config) -> usize {
    overlap_stats(design, cfg).0
}

/// `(Σ d_pq, Σ o_pq)` over all eligible pairs.
#[must_use]
pub fn overlap_stats(design: &Design, cfg: &Vm1Config) -> (usize, Dbu) {
    let pairs = alignable_pairs(design, cfg);
    let mut count = 0usize;
    let mut overlap = Dbu::ZERO;
    for &(a, b, _) in &pairs {
        if let Some(ov) = pair_aligned(design, a, b) {
            count += 1;
            overlap += ov;
        }
    }
    (count, overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    #[test]
    fn objective_components_consistent() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(150)
            .generate(&lib, 1);
        place(&mut d, &PlaceConfig::default(), 1);
        let cfg = Vm1Config::closedm1();
        let obj = calculate_obj(&d, &cfg);
        assert_eq!(obj.hpwl, d.total_hpwl());
        assert_eq!(obj.alignments, count_alignments(&d, &cfg));
        let expect = obj.hpwl.nm() as f64 - cfg.alpha * obj.alignments as f64;
        assert!((obj.value - expect).abs() < 1e-9);
    }

    #[test]
    fn alignment_increases_lower_objective() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = vm1_netlist::Design::new("t", lib, 3, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        let cfg = Vm1Config::closedm1();
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 7, 1, Orient::North); // not aligned
        let o1 = calculate_obj(&d, &cfg);
        d.move_inst(b, 6, 1, Orient::North); // aligned, shorter too
        let o2 = calculate_obj(&d, &cfg);
        assert_eq!(o1.alignments, 0);
        assert_eq!(o2.alignments, 1);
        assert!(o2.value < o1.value);
    }

    #[test]
    fn openm1_counts_overlap_length() {
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        let mut d = vm1_netlist::Design::new("t", lib, 3, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        let cfg = Vm1Config::openm1();
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 6, 1, Orient::North);
        let (cnt, ov) = overlap_stats(&d, &cfg);
        assert_eq!(cnt, 1);
        assert!(ov > Dbu(0), "generous overlap beyond delta");
    }
}
