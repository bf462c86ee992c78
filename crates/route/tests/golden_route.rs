//! Golden routes: four real designs routed with the default config, pinned
//! by three separate fingerprints.
//!
//! * a geometry digest — per net the routed flag, the via counts and the
//!   segments in order, plus every [`RouteMetrics`] field except `num_dm1`;
//! * the dM1 tally, which depends only on how routes are classified;
//! * the search counters of [`RouteStats`]. Equal heap pops show that the
//!   A* kernel popped its entries in the same order.
//!
//! A change to the search kernel that keeps routes identical must leave
//! all three unchanged. A change to the dM1 classification moves only the
//! tally.

use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_place::{greedy_refine, place, PlaceConfig};
use vm1_route::{route, RouteMetrics, RouteResult, RouteStats, RouterConfig};
use vm1_tech::{CellArch, Library};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, v: i64) {
        self.word(v as u64);
    }
}

fn geometry_digest(r: &RouteResult) -> u64 {
    let mut h = Fnv::new();
    for n in &r.nets {
        h.word(u64::from(n.routed));
        for &v in &n.vias {
            h.word(v as u64);
        }
        h.word(n.segments.len() as u64);
        for s in &n.segments {
            h.word(s.layer.index() as u64);
            for c in [s.x0, s.y0, s.x1, s.y1] {
                h.int(c);
            }
        }
    }
    let RouteMetrics {
        routed_wl,
        layer_wl,
        vias,
        num_dm1: _,
        drvs,
        unrouted,
    } = &r.metrics;
    h.int(routed_wl.nm());
    for wl in layer_wl {
        h.int(wl.nm());
    }
    for &v in vias {
        h.word(v as u64);
    }
    h.word(*drvs as u64);
    h.word(*unrouted as u64);
    h.0
}

/// A placed design like one input of the benchmark's flow workload:
/// generated, placed and greedily refined.
fn flow_like(arch: CellArch) -> Design {
    let lib = Library::synthetic_7nm(arch);
    let mut d = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(150)
        .generate(&lib, 1);
    place(&mut d, &PlaceConfig::default(), 1);
    let _ = greedy_refine(&mut d, 3, 2);
    d
}

/// A congested design: rip-up and re-route runs.
fn congested_aes() -> Design {
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut d = GeneratorConfig::profile(DesignProfile::Aes)
        .with_insts(400)
        .with_utilization(0.88)
        .generate(&lib, 5);
    place(&mut d, &PlaceConfig::default(), 5);
    d
}

fn check(d: &Design, geometry: u64, dm1: usize, stats: RouteStats) {
    let r = route(d, &RouterConfig::default());
    let got = (geometry_digest(&r), r.metrics.num_dm1, r.stats);
    assert_eq!(got.0, geometry, "geometry digest");
    assert_eq!(got.1, dm1, "dM1 tally");
    assert_eq!(got.2, stats, "search counters");
}

#[test]
fn closedm1_flow_design() {
    check(
        &flow_like(CellArch::ClosedM1),
        18_027_711_070_965_744_663,
        9,
        RouteStats {
            searches: 356,
            heap_pops: 74_776,
            bbox_widenings: 0,
        },
    );
}

#[test]
fn openm1_flow_design() {
    check(
        &flow_like(CellArch::OpenM1),
        16_174_380_415_893_256_568,
        14,
        RouteStats {
            searches: 345,
            heap_pops: 161_633,
            bbox_widenings: 2,
        },
    );
}

#[test]
fn conv12t_flow_design() {
    check(
        &flow_like(CellArch::Conv12T),
        2_582_731_213_037_418_139,
        0,
        RouteStats {
            searches: 356,
            heap_pops: 191_445,
            bbox_widenings: 0,
        },
    );
}

#[test]
fn congested_aes_with_rip_up() {
    check(
        &congested_aes(),
        7_611_709_626_034_670_278,
        8,
        RouteStats {
            searches: 1_181,
            heap_pops: 1_815_035,
            bbox_widenings: 0,
        },
    );
}
