//! Routing connectivity verification: for every routed net, the union of
//! its wire segments, vias, and pin access nodes must form one connected
//! component that touches every terminal. This is the strongest
//! correctness statement about the router and is checked with a
//! union-find over grid nodes.

use std::collections::BTreeMap;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_place::{place, PlaceConfig};
use vm1_route::{route, RouterConfig, RoutingGrid, Segment};
use vm1_tech::{CellArch, Layer, Library};

struct Dsu {
    parent: BTreeMap<u64, u64>,
}

impl Dsu {
    fn new() -> Dsu {
        Dsu {
            parent: BTreeMap::new(),
        }
    }
    fn find(&mut self, x: u64) -> u64 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            x
        } else {
            let r = self.find(p);
            self.parent.insert(x, r);
            r
        }
    }
    fn union(&mut self, a: u64, b: u64) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

fn key(layer: usize, x: i64, y: i64) -> u64 {
    (layer as u64) << 48 | (x as u64) << 24 | y as u64
}

fn seg_nodes(s: &Segment) -> Vec<(usize, i64, i64)> {
    let l = s.layer.index();
    let mut out = Vec::new();
    if s.x0 == s.x1 {
        let (lo, hi) = (s.y0.min(s.y1), s.y0.max(s.y1));
        for y in lo..=hi {
            out.push((l, s.x0, y));
        }
    } else {
        let (lo, hi) = (s.x0.min(s.x1), s.x0.max(s.x1));
        for x in lo..=hi {
            out.push((l, x, s.y0));
        }
    }
    out
}

fn check_connectivity(arch: CellArch, n: usize, seed: u64) {
    let lib = Library::synthetic_7nm(arch);
    let mut d = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(n)
        .generate(&lib, seed);
    place(&mut d, &PlaceConfig::default(), seed);
    let result = route(&d, &RouterConfig::default());
    assert_eq!(result.metrics.unrouted, 0, "fully routed design expected");

    let (grid, net_pins) = RoutingGrid::build(&d);

    for (i, (net_id, net)) in d.nets().enumerate() {
        if net.pins.len() < 2 {
            continue;
        }
        let nr = result.net(net_id);
        assert!(nr.routed, "net {} marked routed", net.name);

        let mut dsu = Dsu::new();
        // Wire segments connect consecutive nodes on their layer.
        for s in &nr.segments {
            let nodes = seg_nodes(s);
            for w in nodes.windows(2) {
                dsu.union(key(w[0].0, w[0].1, w[0].2), key(w[1].0, w[1].1, w[1].2));
            }
        }
        // Vias connect the two layers at a point. The route result keeps
        // only counts, so recover via locations from the committed edges —
        // not exposed; instead connect stacked nodes wherever two
        // segments of adjacent layers share (x, y) or a pin sits below.
        // Conservative completion: union any pair of nodes at the same
        // (x, y) on adjacent layers that both appear in the net's node
        // set.
        let mut present: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        let mut all_nodes: Vec<(usize, i64, i64)> = Vec::new();
        for s in &nr.segments {
            all_nodes.extend(seg_nodes(s));
        }
        for acc in &net_pins[i] {
            for &node in &acc.nodes {
                let (l, x, y) = grid.coords(node);
                all_nodes.push((l.index(), x, y));
            }
        }
        for &(l, x, y) in &all_nodes {
            present.entry((x, y)).or_default().push(l);
        }
        // Layer changes happen through via stacks at a fixed (x, y); a
        // pass-through layer of a stacked via leaves no wire segment, so
        // union every pair of present layers at the same point.
        for ((x, y), layers) in &present {
            for &a in layers {
                for &b in layers {
                    if b > a {
                        dsu.union(key(a, *x, *y), key(b, *x, *y));
                    }
                }
            }
        }
        // Pin access nodes of one terminal are mutually connected (they
        // are one physical shape).
        for acc in &net_pins[i] {
            for w in acc.nodes.windows(2) {
                let (l0, x0, y0) = grid.coords(w[0]);
                let (l1, x1, y1) = grid.coords(w[1]);
                dsu.union(key(l0.index(), x0, y0), key(l1.index(), x1, y1));
            }
        }

        // Every terminal must be in one component.
        let mut root = None;
        for acc in &net_pins[i] {
            let (l, x, y) = grid.coords(acc.nodes[0]);
            let r = dsu.find(key(l.index(), x, y));
            match root {
                None => root = Some(r),
                Some(r0) => assert_eq!(
                    r0,
                    r,
                    "net {} ({} pins): disconnected terminal",
                    net.name,
                    net.pins.len()
                ),
            }
        }
    }
    let _ = Layer::M0;
}

#[test]
fn closedm1_routes_are_connected() {
    check_connectivity(CellArch::ClosedM1, 150, 1);
}

#[test]
fn openm1_routes_are_connected() {
    check_connectivity(CellArch::OpenM1, 150, 2);
}

#[test]
fn conv12t_routes_are_connected() {
    check_connectivity(CellArch::Conv12T, 120, 3);
}

#[test]
fn connected_across_seeds() {
    for seed in 4..7 {
        check_connectivity(CellArch::ClosedM1, 100, seed);
    }
}

#[test]
fn steiner_estimate_bounds_routed_wirelength() {
    // HPWL ≤ RSMT ≤ routed WL holds per net for fully routed designs
    // (detours can only add length over the Steiner minimum).
    use vm1_route::steiner::{rmst_length, rsmt_length};
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut d = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(120)
        .generate(&lib, 9);
    place(&mut d, &PlaceConfig::default(), 9);
    let result = route(&d, &RouterConfig::default());
    assert_eq!(result.metrics.unrouted, 0);
    let (grid, _) = RoutingGrid::build(&d);
    let mut checked = 0;
    for (id, net) in d.nets() {
        if net.pins.len() < 2 || net.pins.len() > 8 {
            continue;
        }
        let pts: Vec<_> = net.pins.iter().map(|&p| d.net_pin_position(p)).collect();
        let rsmt = rsmt_length(&pts);
        let rmst = rmst_length(&pts);
        assert!(rsmt <= rmst);
        let routed: i64 = result
            .net(id)
            .segments
            .iter()
            .map(|s| s.len_nm(&grid))
            .sum();
        // Grid snapping can shave sub-pitch amounts off the ideal length;
        // allow one pitch of slack per pin.
        let slack = 48 * net.pins.len() as i64 + 360;
        assert!(
            routed + slack >= rsmt.nm(),
            "net {}: routed {} < rsmt {}",
            net.name,
            routed,
            rsmt.nm()
        );
        checked += 1;
    }
    assert!(checked > 50, "checked {checked} nets");
}
