use vm1_geom::{Dbu, Interval};
use vm1_netlist::{Design, NetPin};
use vm1_tech::{Layer, LayerDir};

/// Identifier of a routing-grid node: `layer * W * T + y * W + x`.
pub type NodeId = u32;

/// Access information for one net terminal (cell pin or port): the grid
/// nodes that realize it plus the geometry needed for direct-vertical-M1
/// tests.
#[derive(Clone, Debug)]
pub struct PinAccess {
    /// Grid nodes belonging to this terminal.
    pub nodes: Vec<NodeId>,
    /// Layer the terminal lives on (M1 for ClosedM1/conventional pins, M0
    /// for OpenM1 pins, M2 for ports).
    pub layer: Layer,
    /// Inclusive column range covered by the terminal.
    pub col_lo: i64,
    /// Inclusive column range covered by the terminal.
    pub col_hi: i64,
    /// Inclusive track range covered by the terminal.
    pub track_lo: i64,
    /// Inclusive track range covered by the terminal.
    pub track_hi: i64,
    /// Absolute x-extent of the terminal shape (for the δ overlap test).
    pub x_range: Interval,
}

/// The detailed-routing lattice (see the crate docs for the model).
#[derive(Clone, Debug)]
pub struct RoutingGrid {
    /// Number of columns (== placement sites per row).
    pub width: i64,
    /// Number of y tracks (rows × tracks-per-row).
    pub tracks: i64,
    /// Tracks per placement row.
    pub tpr: i64,
    /// Column pitch in nm.
    pub pitch_x: i64,
    /// Track pitch in nm.
    pub pitch_y: i64,
    row_height: i64,
    blocked: Vec<bool>,
    /// Wire-edge usage: index = node id of the edge's lower/left endpoint.
    /// Horizontal layers use +x edges, vertical layers +y edges.
    wire_usage: Vec<u16>,
    /// PathFinder history per wire edge.
    wire_hist: Vec<u16>,
    /// Via usage between layer `l` and `l+1`: `l * W * T + y * W + x`.
    via_usage: Vec<u16>,
    via_hist: Vec<u16>,
}

impl RoutingGrid {
    /// Builds the lattice for a placed design: dimensions from the core
    /// area, M1 blockages from every instance, PDN staples for OpenM1.
    ///
    /// Also extracts, for every net, the [`PinAccess`] of each terminal;
    /// the return order matches `design.nets()` / `net.pins`.
    #[must_use]
    pub fn build(design: &Design) -> (RoutingGrid, Vec<Vec<PinAccess>>) {
        let tech = design.library().tech();
        let tpr = tech.arch.tracks_per_row();
        let width = design.sites_per_row;
        let tracks = design.num_rows * tpr;
        let row_height = tech.row_height.nm();
        let n_nodes = (Layer::COUNT as i64 * width * tracks) as usize;
        let mut grid = RoutingGrid {
            width,
            tracks,
            tpr,
            pitch_x: tech.site_width.nm(),
            pitch_y: row_height / tpr,
            row_height,
            blocked: vec![false; n_nodes],
            wire_usage: vec![0; n_nodes],
            wire_hist: vec![0; n_nodes],
            via_usage: vec![0; ((Layer::COUNT - 1) as i64 * width * tracks) as usize],
            via_hist: vec![0; ((Layer::COUNT - 1) as i64 * width * tracks) as usize],
        };

        // M0 carries no routing: blocked except at OpenM1 pins (unblocked
        // below).
        for y in 0..tracks {
            for x in 0..width {
                let id = grid.node(Layer::M0, x, y);
                grid.blocked[id as usize] = true;
            }
        }

        // Instance M1 blockages.
        for (id, inst) in design.insts() {
            let cell = design.library().cell(inst.cell);
            let t0 = inst.row * tpr;
            for col in cell.m1_blocked_cols(inst.orient, tech.site_width) {
                let x = inst.site + col;
                if x < 0 || x >= width {
                    continue;
                }
                for t in t0..(t0 + tpr).min(tracks) {
                    let nid = grid.node(Layer::M1, x, t);
                    grid.blocked[nid as usize] = true;
                }
            }
            let _ = id;
        }

        // OpenM1 PDN staples: periodic fully blocked M1 columns.
        if let Some(pitch) = tech.pdn_staple_pitch_sites {
            let mut x = pitch / 2;
            while x < width {
                for t in 0..tracks {
                    let nid = grid.node(Layer::M1, x, t);
                    grid.blocked[nid as usize] = true;
                }
                x += pitch;
            }
        }

        // Pin access extraction.
        let mut net_pins: Vec<Vec<PinAccess>> = Vec::with_capacity(design.num_nets());
        for (_, net) in design.nets() {
            let mut accesses = Vec::with_capacity(net.pins.len());
            for &np in &net.pins {
                let acc = match np {
                    NetPin::Port(p) => grid.port_access(design, p),
                    NetPin::Inst(pr) => grid.pin_access(design, pr),
                };
                // OpenM1 pins live on otherwise-blocked M0: unblock them.
                if acc.layer == Layer::M0 {
                    for &n in &acc.nodes {
                        grid.blocked[n as usize] = false;
                    }
                }
                accesses.push(acc);
            }
            net_pins.push(accesses);
        }
        (grid, net_pins)
    }

    fn port_access(&self, design: &Design, p: vm1_netlist::PortId) -> PinAccess {
        let pos = design.port(p).position;
        let x = (pos.x.nm() / self.pitch_x).clamp(0, self.width - 1);
        let t = self.track_of_y(pos.y.nm());
        PinAccess {
            nodes: vec![self.node(Layer::M2, x, t)],
            layer: Layer::M2,
            col_lo: x,
            col_hi: x,
            track_lo: t,
            track_hi: t,
            x_range: Interval::new(pos.x, pos.x + Dbu(self.pitch_x)),
        }
    }

    fn pin_access(&self, design: &Design, pr: vm1_netlist::PinRef) -> PinAccess {
        let pin = design.macro_pin(pr);
        let inst = design.inst(pr.inst);
        let cell = design.library().cell(inst.cell);
        let origin = design.inst_origin(pr.inst);
        let xr = design.pin_x_range(pr);
        let y_lo = origin.y.nm() + pin.shape.rect.lo().y.nm();
        let y_hi = origin.y.nm() + pin.shape.rect.hi().y.nm();
        let col_lo = (xr.lo().nm() / self.pitch_x).clamp(0, self.width - 1);
        let col_hi = ((xr.hi().nm() - 1) / self.pitch_x).clamp(0, self.width - 1);
        let track_lo = self.track_of_y(y_lo);
        let track_hi = self.track_of_y((y_hi - 1).max(y_lo));
        let layer = pin.shape.layer;
        let mut nodes = Vec::new();
        match layer {
            Layer::M1 => {
                if design.library().tech().arch.allows_inter_row_m1() {
                    // ClosedM1: the pin owns its M1 column across the whole
                    // cell row (a dM1 route extends the pin segment through
                    // the cell boundary), so its net may pass anywhere in it.
                    let t0 = inst.row * self.tpr;
                    let t1 = (t0 + self.tpr).min(self.tracks);
                    for t in t0.max(0)..t1 {
                        nodes.push(self.node(Layer::M1, col_lo, t));
                    }
                } else {
                    // Conventional cells: the M1 PG rails at the row edges
                    // belong to the power nets; only the pin shape itself
                    // is accessible.
                    for t in track_lo..=track_hi {
                        nodes.push(self.node(Layer::M1, col_lo, t));
                    }
                }
            }
            Layer::M0 => {
                // Horizontal segment: all columns at the pin track.
                for c in col_lo..=col_hi {
                    nodes.push(self.node(Layer::M0, c, track_lo));
                }
            }
            other => {
                // Not produced by the synthetic libraries; treat the centre
                // node as the access point.
                nodes.push(self.node(other, col_lo, track_lo));
            }
        }
        let _ = cell;
        PinAccess {
            nodes,
            layer,
            col_lo,
            col_hi,
            track_lo,
            track_hi,
            x_range: xr,
        }
    }

    /// Track index containing absolute y (nm).
    #[must_use]
    pub fn track_of_y(&self, y_nm: i64) -> i64 {
        let row = y_nm.div_euclid(self.row_height);
        let within = y_nm - row * self.row_height;
        let t = row * self.tpr + (within * self.tpr) / self.row_height;
        t.clamp(0, self.tracks - 1)
    }

    /// Placement row of a track.
    #[must_use]
    pub fn row_of_track(&self, t: i64) -> i64 {
        t.div_euclid(self.tpr)
    }

    /// Node id for `(layer, x, y)`.
    ///
    /// # Panics
    ///
    /// Debug-panics when out of bounds.
    #[must_use]
    pub fn node(&self, layer: Layer, x: i64, y: i64) -> NodeId {
        debug_assert!((0..self.width).contains(&x), "x {x} out of grid");
        debug_assert!((0..self.tracks).contains(&y), "y {y} out of grid");
        (layer.index() as i64 * self.width * self.tracks + y * self.width + x) as NodeId
    }

    /// Decomposes a node id into `(layer, x, y)`.
    #[must_use]
    pub fn coords(&self, id: NodeId) -> (Layer, i64, i64) {
        let per = self.width * self.tracks;
        let l = id as i64 / per;
        let rem = id as i64 % per;
        (
            Layer::from_index(l as usize),
            rem % self.width,
            rem / self.width,
        )
    }

    /// Whether the node is blocked (ignoring any allowance).
    #[must_use]
    pub fn is_blocked(&self, id: NodeId) -> bool {
        self.blocked[id as usize]
    }

    /// Explicitly blocks a node (used by tests and by congestion what-ifs).
    pub fn block(&mut self, id: NodeId) {
        self.blocked[id as usize] = true;
    }

    /// Total number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.blocked.len()
    }

    // ---- edges -----------------------------------------------------------

    /// Canonical edge key for the wire edge between two adjacent same-layer
    /// nodes, or the via index for a stacked pair. Returns `None` for
    /// non-adjacent pairs or wrong-direction wires.
    #[must_use]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<Edge> {
        let (la, xa, ya) = self.coords(a);
        let (lb, xb, yb) = self.coords(b);
        if la == lb {
            let same_y = ya == yb && (xa - xb).abs() == 1;
            let same_x = xa == xb && (ya - yb).abs() == 1;
            match la.dir() {
                LayerDir::Horizontal if same_y => Some(Edge::Wire(a.min(b))),
                LayerDir::Vertical if same_x => Some(Edge::Wire(a.min(b))),
                _ => None,
            }
        } else if xa == xb && ya == yb && (la.index() as i64 - lb.index() as i64).abs() == 1 {
            let l = la.index().min(lb.index());
            Some(Edge::Via(
                (l as i64 * self.width * self.tracks + ya * self.width + xa) as u32,
            ))
        } else {
            None
        }
    }

    /// Current usage of an edge.
    #[must_use]
    pub fn usage(&self, e: Edge) -> u16 {
        match e {
            Edge::Wire(i) => self.wire_usage[i as usize],
            Edge::Via(i) => self.via_usage[i as usize],
        }
    }

    /// PathFinder history of an edge.
    #[must_use]
    pub fn history(&self, e: Edge) -> u16 {
        match e {
            Edge::Wire(i) => self.wire_hist[i as usize],
            Edge::Via(i) => self.via_hist[i as usize],
        }
    }

    /// Adds `delta` (may be negative) to an edge's usage.
    pub fn add_usage(&mut self, e: Edge, delta: i32) {
        let u = match e {
            Edge::Wire(i) => &mut self.wire_usage[i as usize],
            Edge::Via(i) => &mut self.via_usage[i as usize],
        };
        *u = (*u as i32 + delta).max(0) as u16;
    }

    /// Increments history on all currently over-capacity edges; returns the
    /// number of over-capacity edges (total overflow amount).
    pub fn bump_history(&mut self) -> usize {
        let mut over = 0;
        for (u, h) in self.wire_usage.iter().zip(self.wire_hist.iter_mut()) {
            if *u > 1 {
                *h = h.saturating_add(*u - 1);
                over += (*u - 1) as usize;
            }
        }
        for (u, h) in self.via_usage.iter().zip(self.via_hist.iter_mut()) {
            if *u > 1 {
                *h = h.saturating_add(*u - 1);
                over += (*u - 1) as usize;
            }
        }
        over
    }

    /// Total overflow (sum of usage beyond capacity 1 over all edges) —
    /// the DRV proxy metric.
    #[must_use]
    pub fn total_overflow(&self) -> usize {
        self.wire_usage
            .iter()
            .chain(self.via_usage.iter())
            .map(|&u| u.saturating_sub(1) as usize)
            .sum()
    }
}

/// A routing resource: one wire edge (keyed by its lower/left node) or one
/// via site (keyed by layer-pair index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Wire edge; the id is the smaller adjacent node id.
    Wire(u32),
    /// Via between consecutive layers.
    Via(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::{CellArch, Library};

    fn build_small(arch: CellArch) -> (RoutingGrid, Vec<Vec<PinAccess>>, Design) {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(60)
            .generate(&lib, 1);
        vm1_place::place(&mut d, &vm1_place::PlaceConfig::default(), 1);
        let (g, pins) = RoutingGrid::build(&d);
        (g, pins, d)
    }

    #[test]
    fn dimensions_match_core() {
        let (g, _, d) = build_small(CellArch::ClosedM1);
        assert_eq!(g.width, d.sites_per_row);
        assert_eq!(g.tracks, d.num_rows * 7);
        assert_eq!(g.pitch_x, 48);
    }

    #[test]
    fn node_coords_round_trip() {
        let (g, _, _) = build_small(CellArch::ClosedM1);
        for layer in Layer::ALL {
            for &(x, y) in &[(0, 0), (3, 7), (g.width - 1, g.tracks - 1)] {
                let id = g.node(layer, x, y);
                assert_eq!(g.coords(id), (layer, x, y));
            }
        }
    }

    #[test]
    fn m0_blocked_except_openm1_pins() {
        let (g, pins, _) = build_small(CellArch::OpenM1);
        // Every net pin on M0 is unblocked; a random far-away M0 node is
        // blocked.
        let mut found_pin = false;
        for net in &pins {
            for acc in net {
                if acc.layer == Layer::M0 {
                    found_pin = true;
                    for &n in &acc.nodes {
                        assert!(!g.is_blocked(n));
                    }
                }
            }
        }
        assert!(found_pin, "OpenM1 design must have M0 pins");
    }

    #[test]
    fn closedm1_pins_block_their_column() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = vm1_netlist::Design::new("t", lib, 3, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let u = d.add_inst("u0", inv);
        d.move_inst(u, 5, 1, Orient::North);
        // Minimal valid net so build() succeeds.
        let n = d.add_net("n");
        d.connect(u, "ZN", n);
        let p = d.add_port(
            "o",
            vm1_geom::Point::new(Dbu(0), Dbu(0)),
            vm1_tech::PinDir::Out,
        );
        d.connect_port(p, n);
        let (g, _) = RoutingGrid::build(&d);
        // Pin A is at cell column 1 => absolute column 6, row 1 tracks 7..14.
        for t in 7..14 {
            assert!(g.is_blocked(g.node(Layer::M1, 6, t)), "track {t}");
        }
        // Row 0 and row 2 at the same column are free (inter-row M1!).
        assert!(!g.is_blocked(g.node(Layer::M1, 6, 3)));
        assert!(!g.is_blocked(g.node(Layer::M1, 6, 16)));
    }

    #[test]
    fn conv12t_blocks_whole_rows() {
        let lib = Library::synthetic_7nm(CellArch::Conv12T);
        let mut d = vm1_netlist::Design::new("t", lib, 2, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let u = d.add_inst("u0", inv);
        d.move_inst(u, 5, 0, Orient::North);
        let n = d.add_net("n");
        d.connect(u, "ZN", n);
        let p = d.add_port(
            "o",
            vm1_geom::Point::new(Dbu(0), Dbu(0)),
            vm1_tech::PinDir::Out,
        );
        d.connect_port(p, n);
        let (g, _) = RoutingGrid::build(&d);
        // Every column of the cell footprint is blocked (PG rails).
        for col in 0..4 {
            let blocked_tracks = (0..12)
                .filter(|&t| g.is_blocked(g.node(Layer::M1, 5 + col, t)))
                .count();
            assert!(blocked_tracks > 0, "col {col} has no blockage");
        }
    }

    #[test]
    fn openm1_pdn_staples_block_columns() {
        let (g, _, _) = build_small(CellArch::OpenM1);
        // Staple pitch 16 starting at 8.
        for t in 0..g.tracks {
            assert!(g.is_blocked(g.node(Layer::M1, 8, t)));
        }
        // Neighbouring column is not fully blocked.
        let free = (0..g.tracks).any(|t| !g.is_blocked(g.node(Layer::M1, 9, t)));
        assert!(free);
    }

    #[test]
    fn edge_between_respects_directions() {
        let (g, _, _) = build_small(CellArch::ClosedM1);
        let a = g.node(Layer::M2, 3, 3);
        let b = g.node(Layer::M2, 4, 3);
        assert!(matches!(g.edge_between(a, b), Some(Edge::Wire(_))));
        // Vertical move on a horizontal layer: not an edge.
        let c = g.node(Layer::M2, 3, 4);
        assert_eq!(g.edge_between(a, c), None);
        // Vertical move on M1: fine.
        let d1 = g.node(Layer::M1, 3, 3);
        let d2 = g.node(Layer::M1, 3, 4);
        assert!(matches!(g.edge_between(d1, d2), Some(Edge::Wire(_))));
        // Via between M1 and M2 at same (x, y).
        assert!(matches!(g.edge_between(d1, a), Some(Edge::Via(_))));
        // Non-adjacent layers: no edge.
        let m4 = g.node(Layer::M4, 3, 3);
        assert_eq!(g.edge_between(d1, m4), None);
    }

    #[test]
    fn usage_and_overflow_accounting() {
        let (mut g, _, _) = build_small(CellArch::ClosedM1);
        let a = g.node(Layer::M2, 3, 3);
        let b = g.node(Layer::M2, 4, 3);
        let e = g.edge_between(a, b).unwrap();
        assert_eq!(g.usage(e), 0);
        g.add_usage(e, 1);
        g.add_usage(e, 1);
        assert_eq!(g.usage(e), 2);
        assert_eq!(g.total_overflow(), 1);
        let over = g.bump_history();
        assert_eq!(over, 1);
        assert_eq!(g.history(e), 1);
        g.add_usage(e, -1);
        assert_eq!(g.total_overflow(), 0);
    }

    #[test]
    fn track_math() {
        let (g, _, _) = build_small(CellArch::ClosedM1);
        assert_eq!(g.track_of_y(0), 0);
        assert_eq!(g.track_of_y(359), 6); // last track of row 0
        assert_eq!(g.track_of_y(360), 7); // first track of row 1
        assert_eq!(g.row_of_track(6), 0);
        assert_eq!(g.row_of_track(7), 1);
    }

    use vm1_netlist::Design;
}
