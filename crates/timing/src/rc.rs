//! Net RC extraction from routed segments or HPWL estimates.

use vm1_netlist::{Design, NetId, NetPin};
use vm1_route::RouteResult;
use vm1_tech::PinDir;

/// Wire capacitance of a net in fF.
///
/// With a routing result, sums segment lengths weighted by per-layer
/// capacitance plus via capacitance; otherwise estimates from HPWL at the
/// M2 capacitance (the usual pre-route estimate).
#[must_use]
pub fn net_wire_cap_ff(design: &Design, routes: Option<&RouteResult>, net: NetId) -> f64 {
    let e = &design.library().tech().electrical;
    match routes {
        Some(r) => {
            let nr = r.net(net);
            let mut cap = 0.0;
            for s in &nr.segments {
                let len = ((s.x1 - s.x0).abs() * design.library().tech().site_width.nm()
                    + (s.y1 - s.y0).abs()
                        * (design.library().tech().row_height.nm()
                            / design.library().tech().arch.tracks_per_row()))
                    as f64;
                cap += len * e.layer_cap[s.layer.index()];
            }
            cap + nr.vias.iter().sum::<usize>() as f64 * e.via_cap
        }
        None => design.net_hpwl(net).nm() as f64 * e.layer_cap[2],
    }
}

/// Total load on a net's driver: wire capacitance plus every sink pin's
/// input capacitance, in fF.
#[must_use]
pub fn net_load_ff(design: &Design, routes: Option<&RouteResult>, net: NetId) -> f64 {
    let mut load = net_wire_cap_ff(design, routes, net);
    for &np in &design.net(net).pins {
        if let NetPin::Inst(pr) = np {
            let pin = design.macro_pin(pr);
            if pin.dir == PinDir::In {
                load += pin.cap_ff;
            }
        }
    }
    load
}

/// Wire resistance estimate from the net driver to a specific sink, in kΩ:
/// Manhattan distance at the M2 resistivity (a star approximation of the
/// routed tree).
#[must_use]
pub fn driver_to_sink_res_kohm(design: &Design, net: NetId, sink: NetPin) -> f64 {
    let e = &design.library().tech().electrical;
    let Some(driver) = design.net_driver(net) else {
        return 0.0;
    };
    let a = design.net_pin_position(driver);
    let b = design.net_pin_position(sink);
    a.manhattan_distance(b).nm() as f64 * e.layer_res[2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_place::{place, PlaceConfig};
    use vm1_route::{route, RouterConfig};
    use vm1_tech::{CellArch, Library};

    fn setup() -> (Design, RouteResult) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(100)
            .generate(&lib, 1);
        place(&mut d, &PlaceConfig::default(), 1);
        let r = route(&d, &RouterConfig::default());
        (d, r)
    }

    use vm1_netlist::Design;

    #[test]
    fn routed_cap_positive_and_scales_with_length() {
        let (d, r) = setup();
        let mut caps: Vec<(i64, f64)> = Vec::new();
        for (id, _) in d.nets() {
            let c = net_wire_cap_ff(&d, Some(&r), id);
            assert!(c >= 0.0);
            caps.push((d.net_hpwl(id).nm(), c));
        }
        // Longest routed net should have much more cap than a zero-length
        // net.
        caps.sort_by_key(|&(l, _)| l);
        assert!(caps.last().unwrap().1 > caps.first().unwrap().1);
    }

    #[test]
    fn load_includes_pin_caps() {
        let (d, r) = setup();
        for (id, _) in d.nets() {
            assert!(net_load_ff(&d, Some(&r), id) >= net_wire_cap_ff(&d, Some(&r), id));
        }
    }

    #[test]
    fn hpwl_estimate_when_unrouted() {
        let (d, _) = setup();
        let (id, _) = d.nets().next().unwrap();
        let est = net_wire_cap_ff(&d, None, id);
        assert!((est - d.net_hpwl(id).nm() as f64 * 1.9e-4).abs() < 1e-9);
    }

    #[test]
    fn sink_resistance_grows_with_distance() {
        let (d, _) = setup();
        // Find a net with at least 2 sinks and compare.
        for (id, net) in d.nets() {
            if net.pins.len() >= 3 {
                let driver = d.net_driver(id).unwrap();
                let sinks: Vec<_> = net.pins.iter().filter(|&&p| p != driver).collect();
                let r0 = driver_to_sink_res_kohm(&d, id, *sinks[0]);
                assert!(r0 >= 0.0);
                break;
            }
        }
    }
}
