//! Multi-source A* maze search over the routing lattice.
//!
//! The kernel works on node ids (DESIGN.md §"Router kernel"). A node id is
//! `layer·W·T + y·W + x`, so a neighbour is the id `±1` on horizontal
//! layers, `±W` on vertical layers and `±W·T` through a via, and the edge
//! to it is keyed by the smaller of the two ids. Heap entries are
//! `(f, node)` pairs packed into one `u64`. A search with a key that does
//! not fit is rerun with `(i64, NodeId)` entries, so the pop order is
//! always the lexicographic order of `(f, node)`.
//!
//! The A* bound is the Manhattan wire length to the targets' box plus the
//! fewest vias a path still needs ([`VIA_LB`]): a path that must move in
//! x has to visit a horizontal wiring layer, one that must move in y a
//! vertical one, and it has to end on a target's layer.

use crate::grid::{Edge, RoutingGrid};
use crate::router::RouteStats;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::LazyLock;
use vm1_tech::{Layer, LayerDir};

/// Cost weights for the maze search (a view into the router config).
#[derive(Clone, Copy, Debug)]
pub struct MazeCosts {
    /// Extra cost of one via cut, in nm-equivalents.
    pub via_cost: i64,
    /// Penalty per unit of existing usage on an edge (congestion avoidance).
    pub overflow_penalty: i64,
    /// Weight of the PathFinder history term.
    pub history_weight: i64,
}

/// Search state of one node, valid while `stamp` equals the search epoch.
#[derive(Clone, Copy, Debug, Default)]
struct NodeRec {
    dist: i64,
    parent: NodeId,
    stamp: u32,
}

/// Reusable search scratch space: epoch-stamped per-node arrays and the
/// heap, so a search allocates only the path it returns.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    nodes: Vec<NodeRec>,
    /// `target[n] == epoch` marks the targets of the current search.
    target: Vec<u32>,
    epoch: u32,
    /// `pin[n] == pin_epoch` marks the pin nodes of the net being routed.
    pin: Vec<u32>,
    pin_epoch: u32,
    heap: BinaryHeap<Reverse<u64>>,
}

impl SearchSpace {
    /// Creates scratch space for a grid with `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> SearchSpace {
        SearchSpace {
            nodes: vec![NodeRec::default(); n],
            target: vec![0; n],
            epoch: 0,
            pin: vec![0; n],
            // Above every stamp, so no node starts out marked.
            pin_epoch: 1,
            heap: BinaryHeap::new(),
        }
    }

    /// Marks `pins` as the own pin nodes of the net being routed: passable
    /// for it even where the grid is blocked. Clears the previous marks.
    pub(crate) fn mark_pins(&mut self, pins: impl IntoIterator<Item = NodeId>) {
        self.pin_epoch = self.pin_epoch.wrapping_add(1);
        if self.pin_epoch == 0 {
            // Stamp wrap-around: reset.
            self.pin.fill(0);
            self.pin_epoch = 1;
        }
        for n in pins {
            self.pin[n as usize] = self.pin_epoch;
        }
    }

    /// Whether `n` is one of the pin nodes last marked by
    /// [`SearchSpace::mark_pins`].
    pub(crate) fn is_pin(&self, n: NodeId) -> bool {
        self.pin[n as usize] == self.pin_epoch
    }

    /// Starts a search: a new epoch, with `targets` marked.
    fn begin(&mut self, targets: &[NodeId]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset.
            self.nodes.iter_mut().for_each(|r| r.stamp = 0);
            self.target.fill(0);
            self.epoch = 1;
        }
        for &t in targets {
            self.target[t as usize] = self.epoch;
        }
    }

    /// The path from a source to `node` along the parent links, source
    /// first.
    fn path_to(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        let mut cur = node;
        while self.nodes[cur as usize].parent != cur {
            cur = self.nodes[cur as usize].parent;
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// Search window in grid coordinates (inclusive).
#[derive(Clone, Copy, Debug)]
pub struct SearchBox {
    /// Lowest column.
    pub x_lo: i64,
    /// Highest column.
    pub x_hi: i64,
    /// Lowest track.
    pub y_lo: i64,
    /// Highest track.
    pub y_hi: i64,
}

impl SearchBox {
    /// The whole grid.
    #[must_use]
    pub fn whole(grid: &RoutingGrid) -> SearchBox {
        SearchBox {
            x_lo: 0,
            x_hi: grid.width - 1,
            y_lo: 0,
            y_hi: grid.tracks - 1,
        }
    }

    /// Expands the box by `margin` and clamps to the grid.
    #[must_use]
    pub fn expanded(self, margin: i64, grid: &RoutingGrid) -> SearchBox {
        SearchBox {
            x_lo: (self.x_lo - margin).max(0),
            x_hi: (self.x_hi + margin).min(grid.width - 1),
            y_lo: (self.y_lo - margin).max(0),
            y_hi: (self.y_hi + margin).min(grid.tracks - 1),
        }
    }

    fn contains(self, x: i64, y: i64) -> bool {
        (self.x_lo..=self.x_hi).contains(&x) && (self.y_lo..=self.y_hi).contains(&y)
    }
}

/// A heap entry `(f, node)` whose `Ord` is the lexicographic order of the
/// pair.
trait HeapKey: Ord + Copy {
    /// The entry, or `None` if `f` does not fit this key type.
    fn pack(f: i64, node: NodeId) -> Option<Self>;
    /// The `(f, node)` pair back.
    fn unpack(self) -> (i64, NodeId);
}

/// `f` in the high half, the node in the low half: ordered like
/// `(f, node)` whenever `0 ≤ f < 2^32`, and refused otherwise.
impl HeapKey for u64 {
    fn pack(f: i64, node: NodeId) -> Option<u64> {
        let f = u32::try_from(f).ok()?;
        Some(u64::from(f) << 32 | u64::from(node))
    }

    fn unpack(self) -> (i64, NodeId) {
        ((self >> 32) as i64, self as NodeId)
    }
}

/// The wide key: every `(f, node)` fits.
impl HeapKey for (i64, NodeId) {
    fn pack(f: i64, node: NodeId) -> Option<(i64, NodeId)> {
        Some((f, node))
    }

    fn unpack(self) -> (i64, NodeId) {
        self
    }
}

/// Whether `run` moves along layer `l` in direction `dir` (M0 has no
/// wires).
fn wires_along(l: Layer, dir: LayerDir) -> bool {
    l != Layer::M0 && l.dir() == dir
}

/// `VIA_LB[t][l][need_x][need_y]`: the fewest layer changes on a walk
/// from layer `l` to layer `t` that visits a horizontal wiring layer if
/// `need_x` and a vertical one if `need_y`. The start and end layers
/// count as visited.
///
/// A shortest path over the 5 × 2 × 2 states (layer, x still needed,
/// y still needed): a via moves one layer up or down, and standing on a
/// wiring layer clears its direction's need.
static VIA_LB: LazyLock<[[[[u8; 2]; 2]; Layer::COUNT]; Layer::COUNT]> = LazyLock::new(|| {
    let mut table = [[[[u8::MAX; 2]; 2]; Layer::COUNT]; Layer::COUNT];
    for (t, lb) in table.iter_mut().enumerate() {
        // Bellman-Ford rounds: no shortest walk repeats one of the 20
        // states, so 20 rounds reach the fixed point.
        for _ in 0..Layer::COUNT * 4 {
            for l in Layer::ALL {
                for (nx, ny) in [(false, false), (false, true), (true, false), (true, true)] {
                    let mx = nx && !wires_along(l, LayerDir::Horizontal);
                    let my = ny && !wires_along(l, LayerDir::Vertical);
                    lb[l.index()][usize::from(nx)][usize::from(ny)] =
                        if l.index() == t && !mx && !my {
                            0
                        } else {
                            [l.below(), l.above()]
                                .into_iter()
                                .flatten()
                                .map(|to| lb[to.index()][usize::from(mx)][usize::from(my)])
                                .min()
                                .map_or(u8::MAX, |d| d.saturating_add(1))
                        };
                }
            }
        }
    }
    table
});

/// A search with packed keys met an `f` outside `0..2^32`.
#[derive(Debug)]
struct KeyOverflow;

/// One search query, with the grid shape and the heuristic's target box
/// decoded once.
struct Query<'a> {
    grid: &'a RoutingGrid,
    sources: &'a [NodeId],
    targets: &'a [NodeId],
    costs: MazeCosts,
    bbox: SearchBox,
    /// Grid width `W`: the id step between tracks.
    w: u32,
    /// Nodes per layer `W·T`: the id step between layers.
    per: u32,
    /// Bounding box of the targets (columns, then tracks).
    tx: (i64, i64),
    ty: (i64, i64),
    /// `via_h[layer][need_x][need_y]`: the via term of the bound, the
    /// least [`VIA_LB`] over the targets' layers times the via cost.
    via_h: [[[i64; 2]; 2]; Layer::COUNT],
}

impl<'a> Query<'a> {
    /// `None` when there are no targets.
    fn new(
        grid: &'a RoutingGrid,
        sources: &'a [NodeId],
        targets: &'a [NodeId],
        costs: MazeCosts,
        bbox: SearchBox,
    ) -> Option<Query<'a>> {
        let mut q = Query {
            grid,
            sources,
            targets,
            costs,
            bbox,
            w: grid.width as u32,
            per: (grid.width * grid.tracks) as u32,
            tx: (i64::MAX, i64::MIN),
            ty: (i64::MAX, i64::MIN),
            via_h: [[[i64::MAX; 2]; 2]; Layer::COUNT],
        };
        let mut target_layers = [false; Layer::COUNT];
        for &t in targets {
            let (layer, x, y) = q.decode(t);
            target_layers[layer] = true;
            q.tx = (q.tx.0.min(x), q.tx.1.max(x));
            q.ty = (q.ty.0.min(y), q.ty.1.max(y));
        }
        // A negative via cost would make the via term overestimate.
        let via_cost = costs.via_cost.max(0);
        for t in (0..Layer::COUNT).filter(|&t| target_layers[t]) {
            for (h, lb) in q
                .via_h
                .iter_mut()
                .flatten()
                .flatten()
                .zip(VIA_LB[t].iter().flatten().flatten())
            {
                *h = (*h).min(via_cost * i64::from(*lb));
            }
        }
        (!targets.is_empty()).then_some(q)
    }

    /// `(layer index, x, y)` of a node id.
    fn decode(&self, n: NodeId) -> (usize, i64, i64) {
        let rem = n % self.per;
        (
            (n / self.per) as usize,
            i64::from(rem % self.w),
            i64::from(rem / self.w),
        )
    }

    /// Consistent lower bound on the cost from `(layer, x, y)` to a
    /// target: the wire length to the target box plus the vias a path
    /// still needs. A wire move changes only the coordinate whose need
    /// its own layer already meets, and a via changes [`VIA_LB`] by at
    /// most one, so no move lowers the bound by more than it costs.
    fn h(&self, layer: usize, x: i64, y: i64) -> i64 {
        let dx = (self.tx.0 - x).max(0) + (x - self.tx.1).max(0);
        let dy = (self.ty.0 - y).max(0) + (y - self.ty.1).max(0);
        dx * self.grid.pitch_x
            + dy * self.grid.pitch_y
            + self.via_h[layer][usize::from(dx > 0)][usize::from(dy > 0)]
    }
}

/// Runs a multi-source A* from `sources` to any node in `targets`.
///
/// The pin nodes marked by [`SearchSpace::mark_pins`] are passable even
/// though the grid blocks them. Returns the node path from a source to
/// the reached target (source first), or `None` if no path exists within
/// `bbox`. Counts the search and its heap pops in `stats`.
pub fn search(
    grid: &RoutingGrid,
    space: &mut SearchSpace,
    sources: &[NodeId],
    targets: &[NodeId],
    costs: MazeCosts,
    bbox: SearchBox,
    stats: &mut RouteStats,
) -> Option<Vec<NodeId>> {
    stats.searches += 1;
    let q = Query::new(grid, sources, targets, costs, bbox)?;
    let mut heap = std::mem::take(&mut space.heap);
    let packed = run::<u64>(&q, space, &mut heap, stats);
    space.heap = heap;
    packed.unwrap_or_else(|KeyOverflow| {
        // Wide keys always fit, so this rerun cannot fail.
        run::<(i64, NodeId)>(&q, space, &mut BinaryHeap::new(), stats).unwrap_or(None)
    })
}

/// The A* loop on keys of type `K`. Adds its heap pops to `stats` only
/// when it completes, so a search rerun with wide keys counts once.
fn run<K: HeapKey>(
    q: &Query<'_>,
    space: &mut SearchSpace,
    heap: &mut BinaryHeap<Reverse<K>>,
    stats: &mut RouteStats,
) -> Result<Option<Vec<NodeId>>, KeyOverflow> {
    let grid = q.grid;
    let costs = q.costs;
    space.begin(q.targets);
    let epoch = space.epoch;
    heap.clear();
    for &s in q.sources {
        let (layer, x, y) = q.decode(s);
        if !q.bbox.contains(x, y) {
            continue;
        }
        let rec = &mut space.nodes[s as usize];
        if rec.stamp != epoch {
            *rec = NodeRec {
                dist: 0,
                parent: s,
                stamp: epoch,
            };
            heap.push(Reverse(K::pack(q.h(layer, x, y), s).ok_or(KeyOverflow)?));
        }
    }

    let mut pops = 0u64;
    let reached = loop {
        let Some(Reverse(key)) = heap.pop() else {
            break None;
        };
        pops += 1;
        let (f, node) = key.unpack();
        let g = space.nodes[node as usize].dist;
        let (layer, x, y) = q.decode(node);
        let h = q.h(layer, x, y);
        if f - h > g {
            continue; // stale entry
        }
        if space.target[node as usize] == epoch {
            break Some(node);
        }

        // Relaxes the edge `e` to neighbour `nb` at `(nl, nx, ny)`.
        let mut relax = |nb: NodeId, e: Edge, base: i64, nl: usize, nx: i64, ny: i64| {
            if grid.is_blocked(nb) && !space.is_pin(nb) {
                return Ok(());
            }
            let ng = g
                + (base
                    + i64::from(grid.usage(e)) * costs.overflow_penalty
                    + i64::from(grid.history(e)) * costs.history_weight);
            let rec = &mut space.nodes[nb as usize];
            if rec.stamp != epoch || ng < rec.dist {
                *rec = NodeRec {
                    dist: ng,
                    parent: node,
                    stamp: epoch,
                };
                heap.push(Reverse(
                    K::pack(ng + q.h(nl, nx, ny), nb).ok_or(KeyOverflow)?,
                ));
            }
            Ok(())
        };

        // Same-layer moves, preferred direction only (M0 has no wires).
        if layer != Layer::M0.index() {
            let b = q.bbox;
            match Layer::from_index(layer).dir() {
                LayerDir::Horizontal => {
                    if x < b.x_hi {
                        relax(node + 1, Edge::Wire(node), grid.pitch_x, layer, x + 1, y)?;
                    }
                    if x > b.x_lo {
                        relax(
                            node - 1,
                            Edge::Wire(node - 1),
                            grid.pitch_x,
                            layer,
                            x - 1,
                            y,
                        )?;
                    }
                }
                LayerDir::Vertical => {
                    if y < b.y_hi {
                        relax(node + q.w, Edge::Wire(node), grid.pitch_y, layer, x, y + 1)?;
                    }
                    if y > b.y_lo {
                        relax(
                            node - q.w,
                            Edge::Wire(node - q.w),
                            grid.pitch_y,
                            layer,
                            x,
                            y - 1,
                        )?;
                    }
                }
            }
        }
        // Vias up/down, keyed by the lower node.
        if layer + 1 < Layer::COUNT {
            relax(
                node + q.per,
                Edge::Via(node),
                costs.via_cost,
                layer + 1,
                x,
                y,
            )?;
        }
        if layer > 0 {
            relax(
                node - q.per,
                Edge::Via(node - q.per),
                costs.via_cost,
                layer - 1,
                x,
                y,
            )?;
        }
    };
    stats.heap_pops += pops;
    Ok(reached.map(|t| space.path_to(t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::rng::SplitMix64;
    use vm1_geom::Dbu;
    use vm1_netlist::Design;
    use vm1_tech::{CellArch, Library, PinDir};

    /// Empty design => empty grid for pure search tests.
    fn empty_grid(rows: i64, sites: i64) -> RoutingGrid {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("g", lib, rows, sites);
        // One dummy net so the design is trivially valid (unused).
        let p1 = d.add_port("a", vm1_geom::Point::new(Dbu(0), Dbu(0)), PinDir::In);
        let p2 = d.add_port("b", vm1_geom::Point::new(Dbu(0), Dbu(360)), PinDir::Out);
        let n = d.add_net("n");
        d.connect_port(p1, n);
        d.connect_port(p2, n);
        RoutingGrid::build(&d).0
    }

    fn costs() -> MazeCosts {
        MazeCosts {
            via_cost: 150,
            overflow_penalty: 3000,
            history_weight: 800,
        }
    }

    #[test]
    fn routes_straight_wire_on_m2() {
        let g = empty_grid(3, 30);
        let mut sp = SearchSpace::new(g.num_nodes());
        let s = g.node(Layer::M2, 2, 5);
        let t = g.node(Layer::M2, 12, 5);
        let path = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .expect("path");
        assert_eq!(path.first(), Some(&s));
        assert_eq!(path.last(), Some(&t));
        assert_eq!(path.len(), 11, "straight line, no detour");
    }

    #[test]
    fn l_shape_uses_via() {
        let g = empty_grid(3, 30);
        let mut sp = SearchSpace::new(g.num_nodes());
        let s = g.node(Layer::M2, 2, 2);
        let t = g.node(Layer::M2, 10, 12);
        let path = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .expect("path");
        // Must change layer to move vertically: at least 2 vias.
        let layers: Vec<Layer> = path.iter().map(|&n| g.coords(n).0).collect();
        assert!(layers.iter().any(|&l| l != Layer::M2));
    }

    #[test]
    fn blocked_node_forces_detour() {
        let mut g = empty_grid(3, 30);
        // Wall on M2 track 5 between the terminals, plus block M1/M3
        // around so it must go around.
        let s = g.node(Layer::M2, 2, 5);
        let t = g.node(Layer::M2, 12, 5);
        let wall = g.node(Layer::M2, 7, 5);
        g.block(wall);
        let mut sp = SearchSpace::new(g.num_nodes());
        let path = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .expect("path despite wall");
        assert!(!path.contains(&wall));
        assert!(path.len() > 11, "detour is longer");
    }

    /// The net's own pin nodes (marked with `mark_pins`) are passable
    /// even where the grid is blocked.
    #[test]
    fn allowed_set_opens_blocked_nodes() {
        let mut g = empty_grid(3, 30);
        let s = g.node(Layer::M2, 2, 5);
        let t = g.node(Layer::M2, 4, 5);
        let mid = g.node(Layer::M2, 3, 5);
        g.block(mid);
        let mut sp = SearchSpace::new(g.num_nodes());
        // Without allowance: path must detour.
        let p1 = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .unwrap();
        assert!(p1.len() > 3);
        // Marked as the net's own pin: straight through.
        sp.mark_pins([mid]);
        let p2 = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .unwrap();
        assert_eq!(p2.len(), 3);
        // The next net's marks clear this one's.
        sp.mark_pins([s]);
        assert!(!sp.is_pin(mid));
    }

    #[test]
    fn bbox_restricts_search() {
        let g = empty_grid(3, 30);
        let mut sp = SearchSpace::new(g.num_nodes());
        let s = g.node(Layer::M2, 2, 5);
        let t = g.node(Layer::M2, 25, 5);
        let tight = SearchBox {
            x_lo: 0,
            x_hi: 10,
            y_lo: 0,
            y_hi: 10,
        };
        assert!(search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            tight,
            &mut RouteStats::default(),
        )
        .is_none());
    }

    #[test]
    fn congestion_steers_away() {
        let mut g = empty_grid(3, 30);
        let s = g.node(Layer::M2, 2, 5);
        let t = g.node(Layer::M2, 12, 5);
        // Pre-load usage on the straight track.
        for x in 2..12 {
            let e = g
                .edge_between(g.node(Layer::M2, x, 5), g.node(Layer::M2, x + 1, 5))
                .unwrap();
            g.add_usage(e, 1);
        }
        let mut sp = SearchSpace::new(g.num_nodes());
        let path = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .unwrap();
        // The router should avoid the congested track (detour via another
        // track/layer), so the path is not the straight 11-node line.
        assert!(path.len() > 11);
    }

    /// Regression for determinism rule D1: ties between equidistant
    /// targets are broken by the `(f, node)` heap order, never by the
    /// order in which the targets are listed.
    #[test]
    fn equidistant_targets_resolve_deterministically() {
        let g = empty_grid(3, 30);
        let s = g.node(Layer::M2, 10, 5);
        // Two targets at equal Manhattan distance from the source.
        let (a, b) = (g.node(Layer::M2, 6, 5), g.node(Layer::M2, 14, 5));
        let mut first: Option<Vec<NodeId>> = None;
        for targets in [[a, b], [b, a], [a, b], [b, a]] {
            let mut sp = SearchSpace::new(g.num_nodes());
            let path = search(
                &g,
                &mut sp,
                &[s],
                &targets,
                costs(),
                SearchBox::whole(&g),
                &mut RouteStats::default(),
            )
            .expect("path");
            match &first {
                None => first = Some(path),
                Some(p) => assert_eq!(p, &path, "same query must give the same path"),
            }
        }
    }

    #[test]
    fn multi_source_picks_nearest() {
        let g = empty_grid(3, 30);
        let mut sp = SearchSpace::new(g.num_nodes());
        let far = g.node(Layer::M2, 0, 0);
        let near = g.node(Layer::M2, 10, 5);
        let t = g.node(Layer::M2, 12, 5);
        let path = search(
            &g,
            &mut sp,
            &[far, near],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut RouteStats::default(),
        )
        .unwrap();
        assert_eq!(path.first(), Some(&near));
    }

    /// Runs one search on wide keys only; returns the path and its pops.
    fn wide_only(
        g: &RoutingGrid,
        sources: &[NodeId],
        targets: &[NodeId],
        costs: MazeCosts,
    ) -> (Option<Vec<NodeId>>, u64) {
        let mut sp = SearchSpace::new(g.num_nodes());
        let mut stats = RouteStats::default();
        let q = Query::new(g, sources, targets, costs, SearchBox::whole(g)).expect("targets");
        let path = run::<(i64, NodeId)>(&q, &mut sp, &mut BinaryHeap::new(), &mut stats)
            .expect("wide keys always fit");
        (path, stats.heap_pops)
    }

    #[test]
    fn packed_keys_pop_in_wide_key_order() {
        let mut g = empty_grid(3, 30);
        for x in 2..12 {
            g.add_usage(Edge::Wire(g.node(Layer::M2, x, 5)), 1);
        }
        let (s, t) = (g.node(Layer::M2, 2, 5), g.node(Layer::M2, 12, 5));
        let mut sp = SearchSpace::new(g.num_nodes());
        let mut stats = RouteStats::default();
        let path = search(
            &g,
            &mut sp,
            &[s],
            &[t],
            costs(),
            SearchBox::whole(&g),
            &mut stats,
        );
        assert_eq!((path, stats.heap_pops), wide_only(&g, &[s], &[t], costs()));
        assert_eq!(stats.searches, 1);
    }

    /// Costs so large that `f ≥ 2^32` make the packed-key run give up;
    /// the rerun on wide keys must find exactly the wide-key path, and
    /// count its pops once.
    #[test]
    fn oversized_keys_rerun_on_wide_keys() {
        let g = empty_grid(3, 30);
        let huge = MazeCosts {
            via_cost: 1 << 33,
            overflow_penalty: 1 << 34,
            history_weight: 1 << 34,
        };
        let (s, t) = ([g.node(Layer::M2, 2, 2)], [g.node(Layer::M2, 10, 12)]);
        let mut sp = SearchSpace::new(g.num_nodes());
        let mut stats = RouteStats::default();
        let q = Query::new(&g, &s, &t, huge, SearchBox::whole(&g)).expect("targets");
        let mut heap = BinaryHeap::new();
        assert!(
            run::<u64>(&q, &mut sp, &mut heap, &mut stats).is_err(),
            "the packed run must meet an oversized key"
        );
        assert_eq!(stats.heap_pops, 0, "an abandoned run counts no pops");

        let path = search(&g, &mut sp, &s, &t, huge, SearchBox::whole(&g), &mut stats);
        let (wide, wide_pops) = wide_only(&g, &s, &t, huge);
        assert!(wide.as_ref().is_some_and(|p| p.len() > 2), "L-shaped path");
        assert_eq!(path, wide);
        assert_eq!(stats.heap_pops, wide_pops);
    }

    /// Every move of the lattice out of `n` and its base cost, from the
    /// coordinates alone: a wire step along the layer's direction (none
    /// on M0) and a via to each adjacent layer.
    fn moves(g: &RoutingGrid, n: NodeId, via_cost: i64) -> Vec<(NodeId, i64)> {
        let (l, x, y) = g.coords(n);
        let mut out = Vec::new();
        if l != Layer::M0 {
            let (sx, sy, pitch) = match l.dir() {
                LayerDir::Horizontal => (1, 0, g.pitch_x),
                LayerDir::Vertical => (0, 1, g.pitch_y),
            };
            for s in [-1, 1] {
                let (nx, ny) = (x + s * sx, y + s * sy);
                if (0..g.width).contains(&nx) && (0..g.tracks).contains(&ny) {
                    out.push((g.node(l, nx, ny), pitch));
                }
            }
        }
        for nl in [l.below(), l.above()].into_iter().flatten() {
            out.push((g.node(nl, x, y), via_cost));
        }
        out
    }

    /// The full cost of the step `a → b`: base, usage and history.
    fn step_cost(g: &RoutingGrid, a: NodeId, b: NodeId, c: MazeCosts) -> i64 {
        let e = g.edge_between(a, b).expect("adjacent nodes");
        let base = match e {
            Edge::Via(_) => c.via_cost,
            Edge::Wire(_) if g.coords(a).0.dir() == LayerDir::Horizontal => g.pitch_x,
            Edge::Wire(_) => g.pitch_y,
        };
        base + i64::from(g.usage(e)) * c.overflow_penalty
            + i64::from(g.history(e)) * c.history_weight
    }

    #[test]
    fn via_table_spot_values() {
        let lb = |t: Layer, l: Layer, nx: bool, ny: bool| {
            VIA_LB[t.index()][l.index()][usize::from(nx)][usize::from(ny)]
        };
        assert_eq!(lb(Layer::M2, Layer::M2, false, false), 0);
        assert_eq!(lb(Layer::M2, Layer::M2, true, false), 0, "M2 wires in x");
        assert_eq!(lb(Layer::M2, Layer::M2, false, true), 2, "M2 → M1|M3 → M2");
        assert_eq!(lb(Layer::M1, Layer::M1, true, false), 2, "M1 → M2 → M1");
        assert_eq!(lb(Layer::M0, Layer::M0, false, false), 0);
        assert_eq!(lb(Layer::M0, Layer::M0, true, false), 4, "M0 has no wires");
        assert_eq!(lb(Layer::M0, Layer::M0, false, true), 2);
        assert_eq!(lb(Layer::M0, Layer::M0, true, true), 4);
        assert_eq!(lb(Layer::M0, Layer::M4, false, false), 4);
        assert_eq!(lb(Layer::M1, Layer::M0, true, true), 3, "M0 → M1 → M2 → M1");
        assert_eq!(lb(Layer::M4, Layer::M1, true, true), 3);
    }

    /// `h(u) ≤ c(u, v) + h(v)` on every move of a small grid, for target
    /// sets on every layer and every pair of layers, with `h = 0` on the
    /// targets: the bound is consistent, so A* stays exact.
    #[test]
    fn bound_is_consistent_on_every_edge() {
        let g = empty_grid(2, 7);
        let (x_hi, y_hi) = (g.width - 2, g.tracks - 3);
        for via_cost in [0, 150, 10_000] {
            let c = MazeCosts {
                via_cost,
                ..costs()
            };
            for a in Layer::ALL {
                for b in Layer::ALL {
                    let targets = [g.node(a, 2, 3), g.node(b, x_hi, y_hi)];
                    for t in [&targets[..1], &targets[..]] {
                        let q = Query::new(&g, &[], t, c, SearchBox::whole(&g)).expect("targets");
                        let h = |n: NodeId| {
                            let (l, x, y) = q.decode(n);
                            q.h(l, x, y)
                        };
                        for &n in t {
                            assert_eq!(h(n), 0, "h on target {:?}", g.coords(n));
                        }
                        for u in 0..g.num_nodes() as NodeId {
                            for (v, base) in moves(&g, u, via_cost) {
                                assert!(
                                    h(u) <= base + h(v),
                                    "targets {t:?}: h({:?}) = {} > {base} + h({:?}) = {}",
                                    g.coords(u),
                                    h(u),
                                    g.coords(v),
                                    h(v),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The least path cost from `sources` to any of `targets`, by a plain
    /// Dijkstra over [`moves`] that passes blocked nodes only where they
    /// are marked pins.
    fn dijkstra(
        g: &RoutingGrid,
        sp: &SearchSpace,
        sources: &[NodeId],
        targets: &[NodeId],
        c: MazeCosts,
    ) -> Option<i64> {
        let mut dist = vec![i64::MAX; g.num_nodes()];
        let mut heap = BinaryHeap::new();
        for &s in sources {
            dist[s as usize] = 0;
            heap.push(Reverse((0, s)));
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if targets.contains(&u) {
                return Some(d);
            }
            for (v, _) in moves(g, u, c.via_cost) {
                if g.is_blocked(v) && !sp.is_pin(v) {
                    continue;
                }
                let dv = d + step_cost(g, u, v, c);
                if dv < dist[v as usize] {
                    dist[v as usize] = dv;
                    heap.push(Reverse((dv, v)));
                }
            }
        }
        None
    }

    /// One to three random nodes on M0, M1 or M2.
    fn random_pins(g: &RoutingGrid, rng: &mut SplitMix64) -> Vec<NodeId> {
        (0..rng.range_usize(1, 4))
            .map(|_| {
                let l = *rng.pick(&[Layer::M0, Layer::M1, Layer::M2]);
                g.node(l, rng.range_i64(0, g.width), rng.range_i64(0, g.tracks))
            })
            .collect()
    }

    /// On random grids with blockages, usage and history, `search` finds
    /// a legal path whose cost equals the least cost that Dijkstra finds,
    /// for sources and targets on M0, M1 and M2.
    #[test]
    fn search_cost_matches_dijkstra_on_random_grids() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut routed = 0;
        for case in 0..200 {
            let mut g = empty_grid(rng.range_i64(1, 3), rng.range_i64(4, 14));
            let n = g.num_nodes() as NodeId;
            let sources = random_pins(&g, &mut rng);
            let targets = random_pins(&g, &mut rng);
            let via_cost = *rng.pick(&[0, 150, 600]);
            let c = MazeCosts {
                via_cost,
                ..costs()
            };
            let mut edges = Vec::new();
            for u in 0..n {
                edges.extend(moves(&g, u, 0).into_iter().map(|(v, _)| (u, v)));
            }
            for _ in 0..edges.len() / 6 {
                let &(u, v) = rng.pick(&edges);
                let e = g.edge_between(u, v).expect("adjacent");
                g.add_usage(e, rng.range_i64(1, 4) as i32);
            }
            // History on the overflowing edges, then usage from scratch.
            g.bump_history();
            for &(u, v) in &edges {
                let e = g.edge_between(u, v).expect("adjacent");
                g.add_usage(e, -4);
                if rng.chance(0.1) {
                    g.add_usage(e, 1);
                }
            }
            for u in 0..n {
                if rng.chance(0.2) {
                    g.block(u);
                }
            }
            let mut sp = SearchSpace::new(g.num_nodes());
            sp.mark_pins(sources.iter().chain(&targets).copied());
            let path = search(
                &g,
                &mut sp,
                &sources,
                &targets,
                c,
                SearchBox::whole(&g),
                &mut RouteStats::default(),
            );
            let got = path.map(|p| {
                assert!(sources.contains(&p[0]), "case {case}: starts at a source");
                assert!(
                    targets.contains(&p[p.len() - 1]),
                    "case {case}: ends at a target"
                );
                p.windows(2)
                    .map(|w| {
                        assert!(
                            !g.is_blocked(w[1]) || sp.is_pin(w[1]),
                            "case {case}: blocked"
                        );
                        step_cost(&g, w[0], w[1], c)
                    })
                    .sum::<i64>()
            });
            let want = dijkstra(&g, &sp, &sources, &targets, c);
            assert_eq!(got, want, "case {case}: path cost");
            routed += usize::from(want.is_some());
        }
        assert!(routed > 150, "only {routed} of 200 cases have a path");
    }

    #[test]
    fn packed_key_order_matches_pair_order() {
        let pairs = [
            (0, 0),
            (0, 7),
            (1, 0),
            (1, u32::MAX),
            (i64::from(u32::MAX), 3),
        ];
        for a in pairs {
            for b in pairs {
                let (ka, kb) = (
                    <u64 as HeapKey>::pack(a.0, a.1).expect("fits"),
                    <u64 as HeapKey>::pack(b.0, b.1).expect("fits"),
                );
                assert_eq!(ka.cmp(&kb), a.cmp(&b));
                assert_eq!(ka.unpack(), a);
            }
        }
        assert!(<u64 as HeapKey>::pack(-1, 0).is_none());
        assert!(<u64 as HeapKey>::pack(1 << 32, 0).is_none());
    }
}
