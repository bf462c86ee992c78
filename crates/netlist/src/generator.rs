//! Deterministic synthetic design generator.
//!
//! The paper evaluates on an ARM Cortex M0 core and three OpenCores designs
//! (aes, jpeg, vga) synthesized with a commercial flow. Those netlists are
//! not redistributable, so this module generates random-logic designs whose
//! *structural statistics* (instance count, flop ratio, fanout
//! distribution, combinational depth) match each testcase's character, at a
//! configurable scale. Everything is derived from a single `u64` seed via
//! [`SplitMix64`], so a given `(config, seed)` pair always produces the
//! identical design.

use crate::{Design, InstId, NetId};
use vm1_geom::rng::SplitMix64;
use vm1_geom::{Dbu, Point};
use vm1_tech::{Library, PinDir};

/// The four testcases of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DesignProfile {
    /// ARM Cortex M0-like: ~9.9 k instances, flop-rich control logic.
    M0,
    /// aes-like: ~12.3 k instances, XOR-heavy datapath.
    Aes,
    /// jpeg-like: ~54.6 k instances, wide datapath.
    Jpeg,
    /// vga-like: ~68.6 k instances.
    Vga,
}

impl DesignProfile {
    /// All profiles in the paper's table order.
    pub const ALL: [DesignProfile; 4] = [
        DesignProfile::M0,
        DesignProfile::Aes,
        DesignProfile::Jpeg,
        DesignProfile::Vga,
    ];

    /// Canonical lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DesignProfile::M0 => "m0",
            DesignProfile::Aes => "aes",
            DesignProfile::Jpeg => "jpeg",
            DesignProfile::Vga => "vga",
        }
    }

    /// Paper instance count (Table 2 `#Inst`).
    #[must_use]
    pub fn paper_inst_count(self) -> usize {
        match self {
            DesignProfile::M0 => 9_922,
            DesignProfile::Aes => 12_345,
            DesignProfile::Jpeg => 54_570,
            DesignProfile::Vga => 68_606,
        }
    }

    fn ff_ratio(self) -> f64 {
        match self {
            DesignProfile::M0 => 0.16,
            DesignProfile::Aes => 0.10,
            DesignProfile::Jpeg => 0.08,
            DesignProfile::Vga => 0.11,
        }
    }

    fn xor_bias(self) -> f64 {
        match self {
            DesignProfile::Aes => 2.5,
            DesignProfile::Jpeg => 1.5,
            _ => 1.0,
        }
    }
}

/// Parameters for [`GeneratorConfig::generate`].
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// Number of standard-cell instances.
    pub n_insts: usize,
    /// Fraction of instances that are flip-flops.
    pub ff_ratio: f64,
    /// Number of primary inputs.
    pub n_pi: usize,
    /// Combinational depth (levels).
    pub depth: usize,
    /// Maximum signal-net fanout (the clock net is exempt).
    pub max_fanout: usize,
    /// Target core utilization (the paper uses 75 % for Table 2 and sweeps
    /// 80–84 % for Figure 8).
    pub target_util: f64,
    /// Relative XOR/XNOR weight (datapath-ish designs are XOR-heavy).
    pub xor_bias: f64,
}

impl GeneratorConfig {
    /// Configuration matching one of the paper's testcases at scale 0.1
    /// (≈10 % of the paper's instance count; see DESIGN.md §5).
    #[must_use]
    pub fn profile(profile: DesignProfile) -> GeneratorConfig {
        GeneratorConfig {
            name: format!("{}_like", profile.name()),
            n_insts: (profile.paper_inst_count() as f64 * 0.1) as usize,
            ff_ratio: profile.ff_ratio(),
            n_pi: 32,
            depth: 12,
            max_fanout: 8,
            target_util: 0.75,
            xor_bias: profile.xor_bias(),
        }
    }

    /// Scales the instance count relative to the *paper's* size (1.0 = the
    /// paper's full instance count).
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> GeneratorConfig {
        // `profile` already applied 0.1; recover the base via the name.
        let base = DesignProfile::ALL
            .iter()
            .find(|p| self.name.starts_with(p.name()))
            .map_or(self.n_insts * 10, |p| p.paper_inst_count());
        self.n_insts = ((base as f64 * scale) as usize).max(20);
        self
    }

    /// Overrides the target utilization.
    #[must_use]
    pub fn with_utilization(mut self, util: f64) -> GeneratorConfig {
        assert!(util > 0.1 && util < 1.0, "utilization {util} out of range");
        self.target_util = util;
        self
    }

    /// Overrides the instance count directly.
    #[must_use]
    pub fn with_insts(mut self, n: usize) -> GeneratorConfig {
        self.n_insts = n;
        self
    }

    /// Generates the design (unplaced; run the placer next).
    ///
    /// # Panics
    ///
    /// Panics if the library lacks the generated cell functions (never for
    /// [`Library::synthetic_7nm`]).
    #[must_use]
    pub fn generate(&self, library: &Library, seed: u64) -> Design {
        let mut rng = SplitMix64::new(seed);

        // ---- choose cells ----------------------------------------------
        let comb_choices = comb_cell_weights(library, self.xor_bias);
        #[expect(clippy::expect_used, reason = "documented # Panics contract")]
        let dff = *library.sequential().first().expect("library has a DFF");
        let n_ff = ((self.n_insts as f64) * self.ff_ratio).round() as usize;
        let n_comb = self.n_insts.saturating_sub(n_ff).max(1);

        // ---- core size --------------------------------------------------
        let mut cells: Vec<usize> = Vec::with_capacity(self.n_insts);
        for _ in 0..n_comb {
            cells.push(weighted_pick(&mut rng, &comb_choices));
        }
        cells.extend(std::iter::repeat_n(dff, n_ff));
        let used_sites: i64 = cells.iter().map(|&c| library.cell(c).width_sites).sum();
        let capacity = (used_sites as f64 / self.target_util).ceil();
        // Square-ish core: S sites per row, R rows, S*sw ≈ R*rh.
        let ratio = library.tech().row_height.nm() as f64 / library.tech().site_width.nm() as f64;
        let rows = (capacity / ratio).sqrt().ceil().max(2.0) as i64;
        let sites = (capacity / rows as f64).ceil() as i64 + 2;

        let mut d = Design::new(&self.name, library.clone(), rows, sites);

        // ---- instances ---------------------------------------------------
        let insts: Vec<InstId> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| d.add_inst(&format!("u{i}"), c))
            .collect();
        let comb = &insts[..n_comb];
        let ffs = &insts[n_comb..];

        // ---- ports --------------------------------------------------------
        let core = d.core_area();
        let clk_port = d.add_port("clk", Point::new(Dbu(0), core.hi().y / 2), PinDir::In);
        let mut pis = Vec::with_capacity(self.n_pi);
        for i in 0..self.n_pi {
            let frac = (i as i64 + 1) * core.hi().y.nm() / (self.n_pi as i64 + 1);
            pis.push(d.add_port(&format!("in{i}"), Point::new(Dbu(0), Dbu(frac)), PinDir::In));
        }

        // ---- levelized wiring --------------------------------------------
        // Levels: FF outputs and PIs are level 0 sources; combinational cell
        // i gets a random level 1..=depth and may only be driven by strictly
        // lower levels (guarantees acyclicity).
        let mut level = vec![0usize; d.num_insts()];
        for &c in comb {
            level[c.0] = rng.range_usize(1, self.depth + 1);
        }

        // Driver pool: (source, level, fanout_so_far, net-once-created).
        struct Driver {
            src: Src,
            level: usize,
            fanout: usize,
            net: Option<NetId>,
        }
        #[derive(Clone, Copy)]
        enum Src {
            InstOut(InstId),
            Pi(usize), // index into pis
        }
        let mut drivers: Vec<Driver> = Vec::new();
        for (i, &pi) in pis.iter().enumerate() {
            let _ = pi;
            drivers.push(Driver {
                src: Src::Pi(i),
                level: 0,
                fanout: 0,
                net: None,
            });
        }
        for &ff in ffs {
            drivers.push(Driver {
                src: Src::InstOut(ff),
                level: 0,
                fanout: 0,
                net: None,
            });
        }
        for &c in comb {
            drivers.push(Driver {
                src: Src::InstOut(c),
                level: level[c.0],
                fanout: 0,
                net: None,
            });
        }
        // Sort drivers by level for fast "level < l" sampling: build index
        // ranges per level.
        drivers.sort_by_key(|dr| dr.level);
        let mut level_end = vec![0usize; self.depth + 2];
        for dr in &drivers {
            level_end[dr.level + 1] += 1;
        }
        for l in 1..level_end.len() {
            level_end[l] += level_end[l - 1];
        }

        let mut net_count = 0usize;
        let get_net = |d: &mut Design, drv: &mut Driver, count: &mut usize| -> NetId {
            if let Some(n) = drv.net {
                return n;
            }
            let n = d.add_net(&format!("n{count}"));
            *count += 1;
            match drv.src {
                Src::InstOut(inst) => {
                    let out = d.library().cell(d.inst(inst).cell).function.output_name();
                    d.connect(inst, out, n);
                }
                Src::Pi(i) => d.connect_port(pis[i], n),
            }
            drv.net = Some(n);
            n
        };

        // Wire every input pin of every instance.
        let mut all_inputs: Vec<(InstId, &'static str, usize)> = Vec::new();
        for &id in &insts {
            let f = d.library().cell(d.inst(id).cell).function;
            let lvl = if f.is_sequential() {
                self.depth + 1
            } else {
                level[id.0]
            };
            for &n in f.input_names() {
                all_inputs.push((id, n, lvl));
            }
        }

        let clk_net = d.add_net("clk_net");
        net_count += 1;
        d.connect_port(clk_port, clk_net);

        for (inst, pin_name, lvl) in all_inputs {
            if pin_name == "CK" {
                d.connect(inst, "CK", clk_net);
                continue;
            }
            // Candidate drivers: all with level < lvl (for FF D inputs,
            // lvl = depth+1, i.e. everything qualifies).
            let hi = level_end[lvl.min(self.depth + 1)];
            debug_assert!(hi > 0, "no drivers below level {lvl}");
            // Prefer low-fanout drivers: a few attempts to respect max_fanout.
            let mut pick = rng.range_usize(0, hi);
            for _ in 0..6 {
                if drivers[pick].fanout < self.max_fanout {
                    break;
                }
                pick = rng.range_usize(0, hi);
            }
            let net = get_net(&mut d, &mut drivers[pick], &mut net_count);
            drivers[pick].fanout += 1;
            d.connect(inst, pin_name, net);
        }

        // Dangling outputs become primary outputs.
        let mut po_count = 0usize;
        for dr in &mut drivers {
            if let Src::InstOut(inst) = dr.src {
                if dr.net.is_none() {
                    let net = get_net(&mut d, dr, &mut net_count);
                    // Spread POs along the right edge.
                    let y = Dbu((po_count as i64 * 977 + 180) % core.hi().y.nm().max(1));
                    let po = d.add_port(
                        &format!("out{po_count}"),
                        Point::new(core.hi().x, y),
                        PinDir::Out,
                    );
                    d.connect_port(po, net);
                    po_count += 1;
                    let _ = inst;
                }
            }
        }

        d
    }
}

/// `(cell index, weight)` pairs for combinational selection.
fn comb_cell_weights(library: &Library, xor_bias: f64) -> Vec<(usize, f64)> {
    let w = |name: &str, weight: f64| -> Option<(usize, f64)> {
        library.cell_index(name).map(|i| (i, weight))
    };
    [
        w("INV_X1", 12.0),
        w("INV_X2", 4.0),
        w("BUF_X1", 6.0),
        w("BUF_X2", 2.0),
        w("NAND2_X1", 16.0),
        w("NOR2_X1", 12.0),
        w("AND2_X1", 8.0),
        w("OR2_X1", 7.0),
        w("AOI21_X1", 7.0),
        w("OAI21_X1", 7.0),
        w("XOR2_X1", 5.0 * xor_bias),
        w("XNOR2_X1", 4.0 * xor_bias),
        w("MUX2_X1", 6.0),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn weighted_pick(rng: &mut SplitMix64, choices: &[(usize, f64)]) -> usize {
    let total: f64 = choices.iter().map(|(_, w)| w).sum();
    let mut r = rng.next_f64() * total;
    // Rounding can leave r marginally positive after the loop; the last
    // visited choice then wins (0 is unreachable: callers never pass an
    // empty choice list).
    let mut pick = 0;
    for &(c, w) in choices {
        pick = c;
        r -= w;
        if r <= 0.0 {
            break;
        }
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_tech::{CellArch, Function};

    fn tiny(seed: u64) -> Design {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        GeneratorConfig::profile(DesignProfile::Aes)
            .with_insts(300)
            .generate(&lib, seed)
    }

    #[test]
    fn generates_connected_design() {
        let d = tiny(1);
        assert_eq!(d.num_insts(), 300);
        d.validate_connectivity().expect("valid connectivity");
        assert!(d.num_nets() > 250);
    }

    #[test]
    fn deterministic_for_equal_seed() {
        let a = tiny(7);
        let b = tiny(7);
        assert_eq!(a.num_nets(), b.num_nets());
        for (i, (na, nb)) in a.nets().zip(b.nets()).enumerate() {
            assert_eq!(na.1.pins, nb.1.pins, "net {i} differs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny(1);
        let b = tiny(2);
        let diff = a
            .nets()
            .zip(b.nets())
            .filter(|(x, y)| x.1.pins != y.1.pins)
            .count();
        assert!(diff > 0);
    }

    #[test]
    fn ff_ratio_respected() {
        let d = tiny(3);
        let ffs = d
            .insts()
            .filter(|(_, i)| d.library().cell(i.cell).function.is_sequential())
            .count();
        let ratio = ffs as f64 / d.num_insts() as f64;
        assert!((ratio - 0.10).abs() < 0.02, "ff ratio {ratio}");
    }

    #[test]
    fn fanout_capped_except_clock() {
        let d = tiny(4);
        for (id, net) in d.nets() {
            if net.name == "clk_net" {
                continue;
            }
            assert!(
                net.pins.len() <= 1 + 8 + 4, // driver + max_fanout slack
                "net {} fanout {}",
                net.name,
                net.pins.len()
            );
            let _ = id;
        }
    }

    #[test]
    fn clock_net_reaches_all_ffs() {
        let d = tiny(5);
        let clk = d.nets().find(|(_, n)| n.name == "clk_net").unwrap().0;
        let ff_count = d
            .insts()
            .filter(|(_, i)| d.library().cell(i.cell).function.is_sequential())
            .count();
        // clock net = clk port + one CK pin per FF
        assert_eq!(d.net(clk).pins.len(), ff_count + 1);
    }

    #[test]
    fn utilization_close_to_target() {
        let d = tiny(6);
        let util = d.utilization();
        assert!((0.60..=0.80).contains(&util), "utilization {util}");
    }

    #[test]
    fn utilization_override() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = GeneratorConfig::profile(DesignProfile::Aes)
            .with_insts(300)
            .with_utilization(0.84)
            .generate(&lib, 1);
        assert!(
            (0.70..=0.88).contains(&d.utilization()),
            "{}",
            d.utilization()
        );
    }

    #[test]
    fn profiles_scale() {
        let cfg = GeneratorConfig::profile(DesignProfile::Jpeg).with_scale(0.01);
        assert_eq!(cfg.n_insts, 545);
        let cfg2 = GeneratorConfig::profile(DesignProfile::M0);
        assert_eq!(cfg2.n_insts, 992);
    }

    #[test]
    fn xor_bias_shifts_mix() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let count_xor = |d: &Design| {
            d.insts()
                .filter(|(_, i)| {
                    matches!(
                        d.library().cell(i.cell).function,
                        Function::Xor2 | Function::Xnor2
                    )
                })
                .count()
        };
        let aes = GeneratorConfig::profile(DesignProfile::Aes)
            .with_insts(1000)
            .generate(&lib, 9);
        let vga = GeneratorConfig::profile(DesignProfile::Vga)
            .with_insts(1000)
            .generate(&lib, 9);
        assert!(count_xor(&aes) > count_xor(&vga));
    }

    #[test]
    fn openm1_library_works_too() {
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        let d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(200)
            .generate(&lib, 11);
        d.validate_connectivity().unwrap();
    }
}
