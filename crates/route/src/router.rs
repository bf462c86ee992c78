//! Net-level routing driver: dM1-first connection, Steiner-tree growth by
//! nearest-terminal maze routing, PathFinder rip-up & re-route, metric
//! extraction.

use crate::grid::{Edge, PinAccess, RoutingGrid};
use crate::maze::{search, MazeCosts, SearchBox, SearchSpace};
use crate::NodeId;
use vm1_geom::Dbu;
use vm1_netlist::{Design, NetId};
use vm1_tech::Layer;

/// Router parameters.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Cost of one via cut in nm-equivalents.
    pub via_cost: i64,
    /// Cost penalty per unit of pre-existing usage on an edge.
    pub overflow_penalty: i64,
    /// Weight of PathFinder history.
    pub history_weight: i64,
    /// Rip-up and re-route iterations (1 = single pass).
    pub iterations: usize,
    /// Initial search-window margin around a subnet's bounding box, in
    /// grid units; doubled twice before falling back to the whole grid.
    pub bbox_margin: i64,
    /// Whether the router attempts direct vertical M1 routes at all.
    /// Disabling this models a flow that cannot exploit pin alignment
    /// (ablation of the paper's premise).
    pub enable_dm1: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            via_cost: 150,
            overflow_penalty: 3000,
            history_weight: 800,
            iterations: 3,
            bbox_margin: 12,
            enable_dm1: true,
        }
    }
}

/// One straight routed shape in grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Layer of the shape.
    pub layer: Layer,
    /// Start column.
    pub x0: i64,
    /// Start track.
    pub y0: i64,
    /// End column (inclusive).
    pub x1: i64,
    /// End track (inclusive).
    pub y1: i64,
}

impl Segment {
    /// Length of the segment in nm given the grid pitches.
    #[must_use]
    pub fn len_nm(&self, grid: &RoutingGrid) -> i64 {
        (self.x1 - self.x0).abs() * grid.pitch_x + (self.y1 - self.y0).abs() * grid.pitch_y
    }
}

/// Routing of one net.
#[derive(Clone, Debug, Default)]
pub struct NetRoute {
    /// Straight wire shapes.
    pub segments: Vec<Segment>,
    /// Via counts per layer pair (index 0 = V01 … 3 = V34).
    pub vias: [usize; 4],
    /// Number of direct vertical M1 (sub)routes in this net.
    pub dm1: usize,
    /// Whether every terminal was connected.
    pub routed: bool,
    /// Resources consumed (for rip-up).
    pub(crate) edges: Vec<Edge>,
}

/// Aggregate routing metrics — the quantities of the paper's Table 2 and
/// Figures 5–8.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteMetrics {
    /// Total routed wirelength.
    pub routed_wl: Dbu,
    /// Wirelength per layer (index = layer).
    pub layer_wl: [Dbu; 5],
    /// Via counts per layer pair (index 0 = V01 … 3 = V34).
    pub vias: [usize; 4],
    /// Number of direct vertical M1 routes (#dM1).
    pub num_dm1: usize,
    /// Design-rule-violation proxy: total edge overflow plus a fixed
    /// charge per unrouted subnet.
    pub drvs: usize,
    /// Subnets that could not be connected.
    pub unrouted: usize,
}

impl RouteMetrics {
    /// M1 wirelength (the paper's "M1 WL" column).
    #[must_use]
    pub fn m1_wl(&self) -> Dbu {
        self.layer_wl[Layer::M1.index()]
    }

    /// V12 count (the paper's "#via12" column).
    #[must_use]
    pub fn via12(&self) -> usize {
        self.vias[1]
    }

    /// Total edge overflow: the DRVs less the charge for unrouted
    /// subnets.
    #[must_use]
    pub fn overflow(&self) -> usize {
        self.drvs - UNROUTED_DRVS * self.unrouted
    }
}

/// DRVs charged per unrouted subnet.
const UNROUTED_DRVS: usize = 5;

/// Search effort of one routing run. Like the metrics, these counts are
/// deterministic for a given design and configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// A* maze searches run (every bounding-box attempt counts).
    pub searches: u64,
    /// Heap entries popped over all searches, stale entries included.
    pub heap_pops: u64,
    /// Retries after a failed search, with the search box widened ×4 or
    /// to the whole grid: the router's one silent limit.
    pub bbox_widenings: u64,
}

/// Complete routing result.
#[derive(Clone, Debug)]
pub struct RouteResult {
    /// Per-net routes, indexed like `design.nets()`.
    pub nets: Vec<NetRoute>,
    /// Aggregate metrics.
    pub metrics: RouteMetrics,
    /// Search effort.
    pub stats: RouteStats,
}

impl RouteResult {
    /// Route of a specific net.
    #[must_use]
    pub fn net(&self, id: NetId) -> &NetRoute {
        &self.nets[id.0]
    }
}

/// Routes the whole design. See the crate docs for the model.
#[must_use]
pub fn route(design: &Design, cfg: &RouterConfig) -> RouteResult {
    let (mut grid, net_pins) = RoutingGrid::build(design);
    let mut space = SearchSpace::new(grid.num_nodes());
    let mut routes: Vec<NetRoute> = vec![NetRoute::default(); design.num_nets()];
    let mut stats = RouteStats::default();

    // Short nets first: they have the least flexibility.
    let mut order: Vec<usize> = (0..design.num_nets()).collect();
    order.sort_by_cached_key(|&i| design.net_hpwl(NetId(i)));

    for &i in &order {
        routes[i] = route_net(design, &mut grid, &mut space, &net_pins[i], cfg, &mut stats);
    }

    // Rip-up and re-route over-capacity nets.
    for _ in 1..cfg.iterations {
        if grid.total_overflow() == 0 {
            break;
        }
        grid.bump_history();
        let offenders: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| routes[i].edges.iter().any(|&e| grid.usage(e) > 1))
            .collect();
        if offenders.is_empty() {
            break;
        }
        for &i in &offenders {
            for &e in &routes[i].edges {
                grid.add_usage(e, -1);
            }
            routes[i] = route_net(design, &mut grid, &mut space, &net_pins[i], cfg, &mut stats);
        }
    }

    // Metrics.
    let mut metrics = RouteMetrics::default();
    for r in &routes {
        for s in &r.segments {
            let len = Dbu(s.len_nm(&grid));
            metrics.layer_wl[s.layer.index()] += len;
            metrics.routed_wl += len;
        }
        for (k, &v) in r.vias.iter().enumerate() {
            metrics.vias[k] += v;
        }
        metrics.num_dm1 += r.dm1;
        if !r.routed {
            metrics.unrouted += 1;
        }
    }
    metrics.drvs = grid.total_overflow() + UNROUTED_DRVS * metrics.unrouted;
    RouteResult {
        nets: routes,
        metrics,
        stats,
    }
}

fn route_net(
    design: &Design,
    grid: &mut RoutingGrid,
    space: &mut SearchSpace,
    pins: &[PinAccess],
    cfg: &RouterConfig,
    stats: &mut RouteStats,
) -> NetRoute {
    let mut out = NetRoute {
        routed: true,
        ..NetRoute::default()
    };
    if pins.len() < 2 {
        return out;
    }
    // The net's own pins are passable for it even where the grid is
    // blocked.
    space.mark_pins(pins.iter().flat_map(|p| p.nodes.iter().copied()));
    let costs = MazeCosts {
        via_cost: cfg.via_cost,
        overflow_penalty: cfg.overflow_penalty,
        history_weight: cfg.history_weight,
    };
    let tech = design.library().tech();

    // Tree state.
    let mut tree_nodes: Vec<NodeId> = pins[0].nodes.clone();
    let mut connected: Vec<usize> = vec![0];
    let mut remaining: Vec<usize> = (1..pins.len()).collect();

    while !remaining.is_empty() {
        // Nearest unconnected pin to any connected pin (centre distance).
        let Some((pick_pos, &pin_idx)) = remaining.iter().enumerate().min_by_key(|&(_, &p)| {
            connected
                .iter()
                .map(|&q| pin_dist(&pins[p], &pins[q]))
                .min()
                .unwrap_or(i64::MAX)
        }) else {
            break; // loop guard makes this unreachable
        };
        remaining.swap_remove(pick_pos);
        let target = &pins[pin_idx];

        // --- direct vertical M1 attempt -------------------------------
        let mut done = false;
        if cfg.enable_dm1 && tech.arch.allows_inter_row_m1() {
            for &q in &connected {
                if let Some(plan) = try_dm1(grid, space, &pins[q], target, tech.gamma, tech.delta) {
                    commit_dm1(grid, &plan, &mut out, &mut tree_nodes);
                    done = true;
                    break;
                }
            }
        }
        if done {
            connected.push(pin_idx);
            continue;
        }

        // --- maze routing ----------------------------------------------
        let bbox = tree_bbox(grid, &tree_nodes, target).expanded(cfg.bbox_margin, grid);
        let mut path = search(grid, space, &tree_nodes, &target.nodes, costs, bbox, stats);
        for wider in [
            bbox.expanded(cfg.bbox_margin * 4, grid),
            SearchBox::whole(grid),
        ] {
            if path.is_some() {
                break;
            }
            stats.bbox_widenings += 1;
            path = search(grid, space, &tree_nodes, &target.nodes, costs, wider, stats);
        }
        match path {
            Some(p) => {
                let max_span = tech.gamma * grid.tpr;
                commit_path(grid, &p, &mut out, &mut tree_nodes, max_span);
                connected.push(pin_idx);
            }
            None => {
                out.routed = false;
            }
        }
    }
    out
}

fn pin_dist(a: &PinAccess, b: &PinAccess) -> i64 {
    let ax = (a.col_lo + a.col_hi) / 2;
    let ay = (a.track_lo + a.track_hi) / 2;
    let bx = (b.col_lo + b.col_hi) / 2;
    let by = (b.track_lo + b.track_hi) / 2;
    (ax - bx).abs() + (ay - by).abs()
}

fn tree_bbox(grid: &RoutingGrid, tree: &[NodeId], target: &PinAccess) -> SearchBox {
    let mut x_lo = target.col_lo;
    let mut x_hi = target.col_hi;
    let mut y_lo = target.track_lo;
    let mut y_hi = target.track_hi;
    for &n in tree {
        let (_, x, y) = grid.coords(n);
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    SearchBox {
        x_lo,
        x_hi,
        y_lo,
        y_hi,
    }
}

/// A feasible direct vertical M1 route between two pins.
#[derive(Clone, Copy, Debug)]
struct DmPlan {
    col: i64,
    /// Track of the connection at pin a / pin b.
    y_a: i64,
    y_b: i64,
    /// Whether each end needs a V01 (pin on M0).
    via_a: bool,
    via_b: bool,
}

/// Tests whether pins `a` and `b` admit a direct vertical M1 route:
/// a single M1 segment (plus V01s for M0 pins), within γ rows, with the
/// required δ overlap for M0 pins, over free resources.
fn try_dm1(
    grid: &RoutingGrid,
    space: &SearchSpace,
    a: &PinAccess,
    b: &PinAccess,
    gamma: i64,
    delta: Dbu,
) -> Option<DmPlan> {
    // Only cell pins on M1 (ClosedM1/conventional) or M0 (OpenM1).
    if a.layer != b.layer || !matches!(a.layer, Layer::M0 | Layer::M1) {
        return None;
    }
    // Row span within γ.
    let row_a = grid.row_of_track((a.track_lo + a.track_hi) / 2);
    let row_b = grid.row_of_track((b.track_lo + b.track_hi) / 2);
    if (row_a - row_b).abs() > gamma {
        return None;
    }
    // Column overlap.
    let c_lo = a.col_lo.max(b.col_lo);
    let c_hi = a.col_hi.min(b.col_hi);
    if c_lo > c_hi {
        return None;
    }
    // δ overlap for horizontal (M0) pins — constraint (13) of the paper.
    if a.layer == Layer::M0 && a.x_range.overlap_len(b.x_range) < delta {
        return None;
    }

    // Connection tracks: nearest tracks of each pin toward the other.
    let y_a = ((b.track_lo + b.track_hi) / 2).clamp(a.track_lo, a.track_hi);
    let y_b = y_a.clamp(b.track_lo, b.track_hi);
    let (lo, hi) = (y_a.min(y_b), y_a.max(y_b));
    let via_a = a.layer == Layer::M0;
    let via_b = b.layer == Layer::M0;

    // Try columns from the middle of the overlap outward.
    let mid = (c_lo + c_hi) / 2;
    let mut cols: Vec<i64> = (c_lo..=c_hi).collect();
    cols.sort_by_key(|&c| (c - mid).abs());
    'col: for c in cols {
        // All M1 nodes along the segment must be passable and all vertical
        // edges unused.
        for y in lo..=hi {
            let n = grid.node(Layer::M1, c, y);
            if grid.is_blocked(n) && !space.is_pin(n) {
                continue 'col;
            }
            if y < hi {
                let Some(e) = grid.edge_between(n, grid.node(Layer::M1, c, y + 1)) else {
                    continue 'col;
                };
                if grid.usage(e) > 0 {
                    continue 'col;
                }
            }
        }
        // V01 landing for M0 pins: the M0 node at (c, y) must be this net's
        // pin, and the via must be free.
        if via_a {
            let m0 = grid.node(Layer::M0, c, y_a);
            if !space.is_pin(m0) {
                continue 'col;
            }
            let Some(e) = grid.edge_between(m0, grid.node(Layer::M1, c, y_a)) else {
                continue 'col;
            };
            if grid.usage(e) > 0 {
                continue 'col;
            }
        }
        if via_b {
            let m0 = grid.node(Layer::M0, c, y_b);
            if !space.is_pin(m0) {
                continue 'col;
            }
            let Some(e) = grid.edge_between(m0, grid.node(Layer::M1, c, y_b)) else {
                continue 'col;
            };
            if grid.usage(e) > 0 {
                continue 'col;
            }
        } else {
            // M1 pin: the segment endpoint must belong to the pin's own
            // column (guaranteed when c is in the pin's col range).
        }
        return Some(DmPlan {
            col: c,
            y_a,
            y_b,
            via_a,
            via_b,
        });
    }
    None
}

fn commit_dm1(
    grid: &mut RoutingGrid,
    plan: &DmPlan,
    out: &mut NetRoute,
    tree_nodes: &mut Vec<NodeId>,
) {
    let (lo, hi) = (plan.y_a.min(plan.y_b), plan.y_a.max(plan.y_b));
    for y in lo..=hi {
        let n = grid.node(Layer::M1, plan.col, y);
        tree_nodes.push(n);
        if y < hi {
            // try_dm1 already walked these edges, so they exist.
            if let Some(e) = grid.edge_between(n, grid.node(Layer::M1, plan.col, y + 1)) {
                grid.add_usage(e, 1);
                out.edges.push(e);
            }
        }
    }
    if lo < hi {
        out.segments.push(Segment {
            layer: Layer::M1,
            x0: plan.col,
            y0: lo,
            x1: plan.col,
            y1: hi,
        });
    }
    for (is_via, y) in [(plan.via_a, plan.y_a), (plan.via_b, plan.y_b)] {
        if is_via {
            let m0 = grid.node(Layer::M0, plan.col, y);
            if let Some(e) = grid.edge_between(m0, grid.node(Layer::M1, plan.col, y)) {
                grid.add_usage(e, 1);
                out.edges.push(e);
                out.vias[0] += 1;
            }
            tree_nodes.push(m0);
        }
    }
    out.dm1 += 1;
}

fn commit_path(
    grid: &mut RoutingGrid,
    path: &[NodeId],
    out: &mut NetRoute,
    tree_nodes: &mut Vec<NodeId>,
    max_dm1_span_tracks: i64,
) {
    // Consume edges.
    let first_new = out.segments.len();
    let mut non_pin_via = false;
    for w in path.windows(2) {
        // Maze search only ever steps between grid neighbours.
        let Some(e) = grid.edge_between(w[0], w[1]) else {
            continue;
        };
        grid.add_usage(e, 1);
        out.edges.push(e);
        if let Edge::Via(_) = e {
            let la = grid.coords(w[0]).0.index().min(grid.coords(w[1]).0.index());
            out.vias[la] += 1;
            if la > 0 {
                non_pin_via = true;
            }
        }
    }
    // Compress into straight segments.
    let mut run_start = 0usize;
    for k in 1..=path.len() {
        let end_run = k == path.len() || grid.coords(path[k]).0 != grid.coords(path[run_start]).0;
        if end_run {
            let (layer, x0, y0) = grid.coords(path[run_start]);
            let (_, x1, y1) = grid.coords(path[k - 1]);
            if (x0, y0) != (x1, y1) {
                out.segments.push(Segment {
                    layer,
                    x0,
                    y0,
                    x1,
                    y1,
                });
            }
            run_start = k;
        }
    }
    // A maze path that happens to be exactly one M1 segment with only pin
    // vias also counts as a direct vertical M1 route — within the same
    // γ-row span the metric uses everywhere else. Only this path's
    // segments count: the net's earlier subnets may use any layer.
    if let [s] = &out.segments[first_new..] {
        if s.layer == Layer::M1 && !non_pin_via && (s.y1 - s.y0).abs() <= max_dm1_span_tracks {
            out.dm1 += 1;
        }
    }
    tree_nodes.extend_from_slice(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::{Orient, Point};
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library, PinDir};

    fn routed_design(arch: CellArch, n: usize, seed: u64) -> (Design, RouteResult) {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let r = route(&d, &RouterConfig::default());
        (d, r)
    }

    use vm1_netlist::Design;

    #[test]
    fn routes_small_design_completely() {
        let (_, r) = routed_design(CellArch::ClosedM1, 100, 1);
        assert_eq!(r.metrics.unrouted, 0, "all subnets routed");
        assert!(r.metrics.routed_wl.nm() > 0);
        assert!(r.metrics.vias.iter().sum::<usize>() > 0);
    }

    #[test]
    fn closedm1_finds_dm1_routes() {
        let (_, r) = routed_design(CellArch::ClosedM1, 300, 2);
        assert!(r.metrics.num_dm1 > 0, "some aligned pins exist by chance");
    }

    #[test]
    fn openm1_finds_dm1_routes() {
        let (_, r) = routed_design(CellArch::OpenM1, 300, 2);
        assert!(r.metrics.num_dm1 > 0);
    }

    #[test]
    fn conv12t_has_no_dm1() {
        let (_, r) = routed_design(CellArch::Conv12T, 200, 3);
        assert_eq!(r.metrics.num_dm1, 0, "M1 PG rails forbid inter-row M1");
    }

    #[test]
    fn disabling_dm1_never_adds_dm1() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(200)
            .generate(&lib, 4);
        place(&mut d, &PlaceConfig::default(), 4);
        let cfg = RouterConfig {
            enable_dm1: false,
            ..RouterConfig::default()
        };
        let r = route(&d, &cfg);
        // Incidental single-segment M1 maze routes may still occur, but the
        // deliberate dM1-first path is off, so the count must not exceed
        // the enabled router's.
        let r_on = route(&d, &RouterConfig::default());
        assert!(r.metrics.num_dm1 <= r_on.metrics.num_dm1);
        assert!(r_on.metrics.num_dm1 > 0);
    }

    #[test]
    fn hand_built_aligned_inverters_use_dm1() {
        // Two INVs in adjacent rows with ZN above A, x-aligned: the classic
        // Figure 2(a) situation.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("fig2a", lib, 2, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let lo = d.add_inst("lo", inv);
        let hi = d.add_inst("hi", inv);
        // INV_X1: A at col 1, ZN at col 2 (width 4).
        // Align lo.ZN (col site+2) with hi.A (col site'+1): site' = site+1.
        d.move_inst(lo, 5, 0, Orient::North);
        d.move_inst(hi, 6, 1, Orient::North);
        let n = d.add_net("n");
        d.connect(lo, "ZN", n);
        d.connect(hi, "A", n);
        // Tie-off inputs/outputs so connectivity validates.
        let p1 = d.add_port("i", Point::new(Dbu(0), Dbu(100)), PinDir::In);
        let n_in = d.add_net("n_in");
        d.connect_port(p1, n_in);
        d.connect(lo, "A", n_in);
        let p2 = d.add_port("o", Point::new(Dbu(30 * 48), Dbu(600)), PinDir::Out);
        let n_out = d.add_net("n_out");
        d.connect(hi, "ZN", n_out);
        d.connect_port(p2, n_out);

        let r = route(&d, &RouterConfig::default());
        assert_eq!(r.metrics.unrouted, 0);
        let nr = r.net(NetId(0));
        assert_eq!(nr.dm1, 1, "aligned pins must use direct vertical M1");
        // The dM1 net uses exactly one M1 segment and no vias at all
        // (ClosedM1 pins are on M1 already).
        assert_eq!(nr.segments.len(), 1);
        assert_eq!(nr.segments[0].layer, Layer::M1);
        assert_eq!(nr.vias.iter().sum::<usize>(), 0);
    }

    #[test]
    fn misaligned_inverters_need_more_than_m1() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("fig2a_miss", lib, 2, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let lo = d.add_inst("lo", inv);
        let hi = d.add_inst("hi", inv);
        d.move_inst(lo, 5, 0, Orient::North);
        d.move_inst(hi, 12, 1, Orient::North); // far off: no alignment
        let n = d.add_net("n");
        d.connect(lo, "ZN", n);
        d.connect(hi, "A", n);
        let p1 = d.add_port("i", Point::new(Dbu(0), Dbu(100)), PinDir::In);
        let n_in = d.add_net("n_in");
        d.connect_port(p1, n_in);
        d.connect(lo, "A", n_in);
        let p2 = d.add_port("o", Point::new(Dbu(30 * 48), Dbu(600)), PinDir::Out);
        let n_out = d.add_net("n_out");
        d.connect(hi, "ZN", n_out);
        d.connect_port(p2, n_out);

        let r = route(&d, &RouterConfig::default());
        let nr = r.net(NetId(0));
        assert_eq!(nr.dm1, 0);
        assert!(nr.vias.iter().sum::<usize>() > 0, "must hop to M2");
    }

    #[test]
    fn openm1_overlapping_pins_use_dm1_with_v01() {
        // Figure 2(b): OpenM1 INVs with horizontally overlapping pins.
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        let mut d = Design::new("fig2b", lib, 2, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let lo = d.add_inst("lo", inv);
        let hi = d.add_inst("hi", inv);
        // OpenM1 INV_X1 (w=4): A spans cols [0,2), ZN spans cols [1,4).
        // Put hi.A over lo.ZN: hi.site + [0,2) overlaps lo.site + [1,4).
        d.move_inst(lo, 5, 0, Orient::North);
        d.move_inst(hi, 6, 1, Orient::North);
        let n = d.add_net("n");
        d.connect(lo, "ZN", n);
        d.connect(hi, "A", n);
        let p1 = d.add_port("i", Point::new(Dbu(0), Dbu(100)), PinDir::In);
        let n_in = d.add_net("n_in");
        d.connect_port(p1, n_in);
        d.connect(lo, "A", n_in);
        let p2 = d.add_port("o", Point::new(Dbu(40 * 48), Dbu(600)), PinDir::Out);
        let n_out = d.add_net("n_out");
        d.connect(hi, "ZN", n_out);
        d.connect_port(p2, n_out);

        let r = route(&d, &RouterConfig::default());
        let nr = r.net(NetId(0));
        assert_eq!(nr.dm1, 1, "overlapping OpenM1 pins must use dM1");
        assert_eq!(nr.vias[0], 2, "V01 at both ends");
    }

    #[test]
    fn rip_up_reduces_overflow() {
        // Dense small design to force congestion; RRR should not increase
        // DRVs vs a single pass.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::Aes)
            .with_insts(400)
            .with_utilization(0.88)
            .generate(&lib, 5);
        place(&mut d, &PlaceConfig::default(), 5);
        let one = route(
            &d,
            &RouterConfig {
                iterations: 1,
                ..RouterConfig::default()
            },
        );
        let three = route(&d, &RouterConfig::default());
        assert!(three.metrics.drvs <= one.metrics.drvs);
    }

    #[test]
    fn metrics_accumulate_consistently() {
        let (_, r) = routed_design(CellArch::ClosedM1, 150, 6);
        let seg_wl: i64 = 0; // recomputed below per layer
        let _ = seg_wl;
        let total: Dbu = r.metrics.layer_wl.iter().copied().sum();
        assert_eq!(total, r.metrics.routed_wl);
        let via_sum: usize = r.nets.iter().map(|n| n.vias.iter().sum::<usize>()).sum();
        assert_eq!(via_sum, r.metrics.vias.iter().sum::<usize>());
    }

    /// A subnet routed as one M1 run is a dM1 even when an earlier subnet
    /// of the same net went through M2.
    #[test]
    fn m1_run_after_an_m2_subnet_counts_one_dm1() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("empty", lib, 3, 30);
        let p1 = d.add_port("a", Point::new(Dbu(0), Dbu(0)), PinDir::In);
        let p2 = d.add_port("b", Point::new(Dbu(0), Dbu(360)), PinDir::Out);
        let n = d.add_net("n");
        d.connect_port(p1, n);
        d.connect_port(p2, n);
        let (mut grid, _) = RoutingGrid::build(&d);
        let mut out = NetRoute::default();
        out.segments.push(Segment {
            layer: Layer::M2,
            x0: 2,
            y0: 3,
            x1: 9,
            y1: 3,
        });
        let path: Vec<NodeId> = (4..=8).map(|y| grid.node(Layer::M1, 5, y)).collect();
        let mut tree = Vec::new();
        commit_path(&mut grid, &path, &mut out, &mut tree, 21);
        assert_eq!(out.dm1, 1);
        assert_eq!(out.segments.len(), 2);
    }

    #[test]
    fn deterministic_routing() {
        let (_, r1) = routed_design(CellArch::ClosedM1, 150, 7);
        let (_, r2) = routed_design(CellArch::ClosedM1, 150, 7);
        assert_eq!(r1.metrics, r2.metrics);
    }
}
