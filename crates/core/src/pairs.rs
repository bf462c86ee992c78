//! Extraction of candidate pin pairs for vertical M1 alignment.

use crate::Vm1Config;
use vm1_geom::Dbu;
use vm1_netlist::{Design, InstId, NetId, NetPin, PinRef};
use vm1_tech::{CellArch, Layer};

/// Enumerates the pin pairs eligible for a `d_pq` variable per the paper
/// ("∀(p, q) in n"): every unordered pair of cell pins within each net,
/// on the architecture's pin layer, excluding ports, pins of the same
/// instance, over-large nets, and architectures without inter-row M1.
/// Each pair is `(p, q, net)` with `p < q` by instance/pin order.
#[must_use]
pub fn alignable_pairs(design: &Design, cfg: &Vm1Config) -> Vec<(PinRef, PinRef, NetId)> {
    let arch = design.library().arch();
    if !arch.allows_inter_row_m1() {
        return Vec::new();
    }
    let want_layer = pin_layer(arch);
    let mut pairs = Vec::new();
    for (net_id, net) in design.nets() {
        if net.pins.len() > cfg.max_net_pins {
            continue;
        }
        let cell_pins: Vec<PinRef> = net
            .pins
            .iter()
            .filter_map(|&np| match np {
                NetPin::Inst(pr) if design.macro_pin(pr).shape.layer == want_layer => Some(pr),
                _ => None,
            })
            .collect();
        for i in 0..cell_pins.len() {
            for j in (i + 1)..cell_pins.len() {
                if cell_pins[i].inst != cell_pins[j].inst {
                    pairs.push((cell_pins[i], cell_pins[j], net_id));
                }
            }
        }
    }
    pairs
}

/// The eligible pairs of [`alignable_pairs`] with an instance → pairs
/// adjacency in CSR form. Eligibility depends on the netlist, the library
/// pin layers and `max_net_pins`, never on the placement, so one index
/// serves a whole `DistOpt` pass.
#[derive(Clone, Debug, Default)]
pub struct PairIndex {
    pairs: Vec<(PinRef, PinRef, NetId)>,
    /// `adj[start[i]..start[i + 1]]` are the pairs touching instance `i`,
    /// in ascending pair order.
    start: Vec<usize>,
    adj: Vec<usize>,
}

impl PairIndex {
    /// Enumerates the eligible pairs of `design` and indexes them by
    /// instance.
    #[must_use]
    pub fn build(design: &Design, cfg: &Vm1Config) -> PairIndex {
        let pairs = alignable_pairs(design, cfg);
        let mut start = vec![0usize; design.num_insts() + 1];
        for (p, q, _) in &pairs {
            start[p.inst.0 + 1] += 1;
            start[q.inst.0 + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut adj = vec![0usize; 2 * pairs.len()];
        for (pi, (p, q, _)) in pairs.iter().enumerate() {
            for inst in [p.inst, q.inst] {
                adj[fill[inst.0]] = pi;
                fill[inst.0] += 1;
            }
        }
        PairIndex { pairs, start, adj }
    }

    /// Every eligible pair, in [`alignable_pairs`] order.
    #[must_use]
    pub fn pairs(&self) -> &[(PinRef, PinRef, NetId)] {
        &self.pairs
    }

    /// Indices into [`PairIndex::pairs`] of the pairs with an endpoint on
    /// `inst`, ascending.
    #[must_use]
    pub fn pairs_of(&self, inst: InstId) -> &[usize] {
        &self.adj[self.start[inst.0]..self.start[inst.0 + 1]]
    }
}

/// The layer signal pins live on for each architecture.
#[must_use]
pub fn pin_layer(arch: CellArch) -> Layer {
    match arch {
        CellArch::OpenM1 => Layer::M0,
        CellArch::ClosedM1 | CellArch::Conv12T => Layer::M1,
    }
}

/// Tests whether pins `a` and `b` are vertically M1-connectable in the
/// *current* placement: within γ rows, and x-aligned (ClosedM1) or
/// overlapped by ≥ δ (OpenM1), with γ and δ read from the design's
/// `Technology` like the router's. Returns the overlap length beyond δ
/// (`Dbu::ZERO` for ClosedM1) when connectable.
#[must_use]
pub fn pair_aligned(design: &Design, a: PinRef, b: PinRef) -> Option<Dbu> {
    let tech = design.library().tech();
    let pa = design.pin_position(a);
    let pb = design.pin_position(b);
    if (pa.y - pb.y).abs() > tech.gamma_span() {
        return None;
    }
    match design.library().arch() {
        CellArch::ClosedM1 => (pa.x == pb.x).then_some(Dbu::ZERO),
        CellArch::OpenM1 => {
            let ov = design.pin_x_range(a).overlap_len(design.pin_x_range(b));
            (ov >= tech.delta).then(|| ov - tech.delta)
        }
        CellArch::Conv12T => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::Library;

    fn gen(arch: CellArch) -> Design {
        let lib = Library::synthetic_7nm(arch);
        GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(150)
            .generate(&lib, 1)
    }

    #[test]
    fn pairs_exist_for_m1_archs() {
        let cfg = Vm1Config::closedm1();
        let d = gen(CellArch::ClosedM1);
        let p = alignable_pairs(&d, &cfg);
        assert!(!p.is_empty());
        // Pairs never repeat an instance.
        for &(a, b, _) in &p {
            assert_ne!(a.inst, b.inst);
        }
    }

    #[test]
    fn conv12t_has_no_pairs() {
        let cfg = Vm1Config::closedm1();
        let d = gen(CellArch::Conv12T);
        assert!(alignable_pairs(&d, &cfg).is_empty());
    }

    #[test]
    fn clock_net_excluded_by_degree() {
        let cfg = Vm1Config::closedm1();
        let d = gen(CellArch::ClosedM1);
        let clk = d.nets().find(|(_, n)| n.name == "clk_net").unwrap().0;
        let p = alignable_pairs(&d, &cfg);
        assert!(p.iter().all(|&(_, _, n)| n != clk));
    }

    #[test]
    fn aligned_test_closedm1() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 5, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        // ZN at cell col 2, A at cell col 1: site_b = site_a + 1 aligns.
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 6, 1, Orient::North);
        let zn = PinRef {
            inst: a,
            pin: d.library().cell(inv).pin_index("ZN").unwrap(),
        };
        let pa = PinRef {
            inst: b,
            pin: d.library().cell(inv).pin_index("A").unwrap(),
        };
        assert_eq!(pair_aligned(&d, zn, pa), Some(Dbu(0)));
        // Misaligned by one site.
        d.move_inst(b, 7, 1, Orient::North);
        assert_eq!(pair_aligned(&d, zn, pa), None);
        // Aligned again via flip: flipped A lands at width-72 => col 2.
        d.move_inst(b, 5, 1, Orient::FlippedNorth);
        assert_eq!(pair_aligned(&d, zn, pa), Some(Dbu(0)));
        // Too far vertically (γ = 3).
        d.move_inst(b, 6, 4, Orient::North);
        assert_eq!(pair_aligned(&d, zn, pa), None);
    }

    #[test]
    fn aligned_test_openm1_overlap() {
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        let mut d = Design::new("t", lib, 4, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        let zn = PinRef {
            inst: a,
            pin: d.library().cell(inv).pin_index("ZN").unwrap(),
        };
        let pa = PinRef {
            inst: b,
            pin: d.library().cell(inv).pin_index("A").unwrap(),
        };
        // Overlapping placement: ZN spans cols [1,4) of a, A spans [0,2) of b.
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 7, 1, Orient::North);
        let ov = pair_aligned(&d, zn, pa).expect("overlap");
        assert!(ov >= Dbu(0));
        // Far apart horizontally: no overlap.
        d.move_inst(b, 20, 1, Orient::North);
        assert_eq!(pair_aligned(&d, zn, pa), None);
    }

    use vm1_netlist::Design;
}
