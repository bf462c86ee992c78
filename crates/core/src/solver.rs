//! Window solvers: exact DFS branch-and-bound and the faithful MILP.
//!
//! Both consume a [`WindowProblem`] and return a candidate assignment
//! that is legal and no worse than the input placement. The DFS and MILP
//! solvers find the same optimum (cross-checked in tests) unless their
//! node budget `max_nodes` cuts the search short; a cut DFS solve returns
//! its best assignment so far and counts under
//! [`Counter::DfsBudgetExhausted`], a cut MILP solve its incumbent under
//! [`Counter::MilpLimitHit`]. The DFS solver exploits the fact that
//! every auxiliary MILP variable (net bounds, `d_pq`, `o_pq`) is uniquely
//! determined by the λ assignment, so the search space is just one
//! candidate choice per cell with admissible bounds: each net's box of
//! placed pins grown by the nearest reach of its unplaced ones, and every
//! open pair's largest bonus. It searches the independent components of a
//! batch apart (DESIGN.md §5, "Window kernel").

use crate::milp::{build_milp, extract_assignment, warm_start};
use crate::problem::{End, LocalPair, PinGeo, WindowProblem};
use crate::{SolverKind, Vm1Config};
use vm1_milp::{solve as milp_solve, solve_certified, SolveParams};
use vm1_obs::{Counter, MetricsHandle, Stage};

/// Solves a window problem with the engine selected in `cfg`.
///
/// The returned assignment is always legal and its objective never exceeds
/// the input placement's.
#[must_use]
pub fn solve_window(prob: &WindowProblem, cfg: &Vm1Config) -> Vec<usize> {
    solve_window_with(prob, cfg, &MetricsHandle::disabled())
}

/// [`solve_window`] with a metrics sink: records solver-engine counters
/// ([`Counter::DfsNodes`], [`Counter::DfsBudgetExhausted`], the MILP
/// family) and the MILP build/solve stage timers.
#[must_use]
pub fn solve_window_with(
    prob: &WindowProblem,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
) -> Vec<usize> {
    if prob.cells.is_empty() {
        return Vec::new();
    }
    let result = match cfg.solver {
        SolverKind::Dfs => {
            let (assign, nodes, truncated) = dfs_solve_counted(prob, cfg.max_nodes, true);
            metrics.add(Counter::DfsNodes, nodes as u64);
            if truncated {
                metrics.incr(Counter::DfsBudgetExhausted);
            }
            assign
        }
        SolverKind::Milp => milp_window_solve_with(prob, cfg, metrics),
    };
    // Safety net: never return something worse or illegal.
    let cur = prob.current_assign();
    if prob.is_legal(&result) && prob.eval(&result) <= prob.eval(&cur) + 1e-9 {
        result
    } else {
        cur
    }
}

// ---------------------------------------------------------------------------
// MILP
// ---------------------------------------------------------------------------

/// Most branch-and-bound nodes of one window MILP solve. A node solves a
/// dense LP, thousands of times the work of a DFS node, so the MILP takes
/// the smaller of this and `Vm1Config::max_nodes`. On a 2-core x86-64
/// host 10k nodes of an 8-cell window take 20-40 s; with the default
/// `max_nodes` (300k) one such window ran for more than 3 minutes.
pub const MILP_MAX_NODES: usize = 10_000;

/// Solves the window through the faithful MILP formulation.
#[must_use]
pub fn milp_window_solve(prob: &WindowProblem, cfg: &Vm1Config) -> Vec<usize> {
    milp_window_solve_with(prob, cfg, &MetricsHandle::disabled())
}

/// [`milp_window_solve`] with a metrics sink. The B&B statistics
/// (nodes, prunes, LP solves, pivots, presolve reductions) are emitted by
/// `vm1-milp` itself through the handle passed in [`SolveParams`];
/// this layer adds the build/solve timers and the fallback counter.
#[must_use]
pub fn milp_window_solve_with(
    prob: &WindowProblem,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
) -> Vec<usize> {
    let (model, vars) = metrics.timed(Stage::MilpBuild, || build_milp(prob));
    let cur = prob.current_assign();
    let params = SolveParams {
        max_nodes: cfg.max_nodes.min(MILP_MAX_NODES),
        abs_gap: 1e-6,
        warm_start: Some(warm_start(prob, &model, &vars, &cur)),
        metrics: metrics.clone(),
    };
    let sol = if cfg.certify {
        // Proof-carrying solve: record a certificate alongside the B&B
        // run and replay it through the independent exact-arithmetic
        // checker. A rejected certificate means the solve cannot be
        // trusted, so the window keeps its input placement.
        let certified = metrics.timed(Stage::MilpSolve, || solve_certified(&model, &params));
        metrics.incr(Counter::CertRecorded);
        let report = metrics.timed(Stage::Certify, || {
            vm1_certify::check(&model, &certified.certificate)
        });
        if report.accepted {
            metrics.incr(Counter::CertVerified);
        } else {
            metrics.incr(Counter::CertRejected);
            metrics.incr(Counter::MilpFallbacks);
            return cur;
        }
        certified.solution
    } else {
        metrics.timed(Stage::MilpSolve, || milp_solve(&model, &params))
    };
    if sol.has_solution() {
        extract_assignment(&vars, &sol.values)
    } else {
        metrics.incr(Counter::MilpFallbacks);
        cur
    }
}

// ---------------------------------------------------------------------------
// Exact DFS branch-and-bound
// ---------------------------------------------------------------------------

/// A net bounding box `(x0, y0, x1, y1)` in nm.
type BBox = (i64, i64, i64, i64);

/// Where the unplaced pins of one net reach at the least: every final
/// box of the net has `x1 ≥ x_hi`, `x0 ≤ x_lo`, `y1 ≥ y_hi` and `y0 ≤
/// y_lo`. An unplaced pin takes one of its candidate positions, so
/// `x_hi` is the largest over the pins of the pin's smallest candidate
/// x, and `x_lo` the smallest of its largest (likewise for y).
#[derive(Clone, Copy)]
struct Reach {
    x_hi: i64,
    x_lo: i64,
    y_hi: i64,
    y_lo: i64,
}

impl Reach {
    /// The reach of no pins: it constrains nothing.
    const NONE: Reach = Reach {
        x_hi: i64::MIN,
        x_lo: i64::MAX,
        y_hi: i64::MIN,
        y_lo: i64::MAX,
    };
}

/// Smallest HPWL of a net whose placed pins span `bb` and whose unplaced
/// pins reach `r`.
fn hpwl_lb(bb: Option<BBox>, r: Reach) -> i64 {
    match bb {
        Some((x0, y0, x1, y1)) => {
            (x1.max(r.x_hi) - x0.min(r.x_lo)) + (y1.max(r.y_hi) - y0.min(r.y_lo))
        }
        None if r.x_hi == i64::MIN => 0,
        None => (r.x_hi - r.x_lo).max(0) + (r.y_hi - r.y_lo).max(0),
    }
}

/// β-weighted HPWL that the unplaced pins reaching `r` add at the least
/// to a net whose placed pins span `bb`.
fn reach_extra(weight: f64, bb: Option<BBox>, r: Reach) -> f64 {
    let span = bb.map_or(0, |(x0, y0, x1, y1)| (x1 - x0) + (y1 - y0));
    weight * (hpwl_lb(bb, r) - span) as f64
}

/// The pins of one cell on one net: `net`, its β weight and the cell's
/// pin slots `DfsState::slots[lo..hi]`.
#[derive(Clone, Copy)]
struct CellNet {
    net: usize,
    weight: f64,
    lo: usize,
    hi: usize,
}

/// Search state. Everything the search touches per node is allocated
/// once per solve: the per-depth candidate buffers and the undo stacks
/// are reused at every node.
struct DfsState<'a> {
    prob: &'a WindowProblem,
    /// Per cell: the smallest cell index of its component (see
    /// [`components`]).
    comp: Vec<usize>,
    /// Cell order: component by component, in the order of their first
    /// cells; within a component, most constrained (fewest candidates)
    /// first.
    order: Vec<usize>,
    /// The component being searched: `order[comp_start..comp_end]`.
    comp_start: usize,
    comp_end: usize,
    assign: Vec<usize>,
    best_assign: Vec<usize>,
    /// Objective of the component's nets and pairs at `best_assign`.
    best_obj: f64,
    /// Whether the component's search has taken a leaf yet.
    taken: bool,
    nodes: usize,
    max_nodes: usize,
    /// Per pair: number of movable, not-yet-assigned endpoints.
    pair_open: Vec<u8>,
    /// Sum of max_bonus over open pairs (admissible bonus bound).
    open_bonus: f64,
    /// Bonus collected from decided pairs.
    done_bonus: f64,
    /// Per net: current bbox (fixed ∪ assigned pins).
    net_bb: Vec<Option<BBox>>,
    hpwl_partial: f64,
    /// Per depth `d` and net: the reach of the pins of the unplaced
    /// cells `order[d..]`, at `reach[d * nets + net]`.
    reach: Vec<Reach>,
    /// Σ over nets of [`reach_extra`] at the current depth: added to
    /// `hpwl_partial`, a lower bound on the HPWL term of every leaf below.
    reach_partial: f64,
    /// Pin geometry, flat: pin `slot` of cell `c` under candidate `k` is
    /// `geo[geo_base[c] + k * nslots[c] + slot]`.
    geo: Vec<PinGeo>,
    geo_base: Vec<usize>,
    nslots: Vec<usize>,
    /// Which pairs touch each cell.
    cell_pairs: Vec<Vec<usize>>,
    /// The nets of each cell, in net order, with their pin slots.
    cell_nets: Vec<Vec<CellNet>>,
    slots: Vec<usize>,
    /// Spans `(row, site0, site1)` of the assigned cells, by depth.
    spans: Vec<(i64, i64, i64)>,
    /// Per depth: `(local score, candidate)` in trial order.
    cand_order: Vec<Vec<(f64, usize)>>,
    /// Undo records `(net, old bbox, old − new weighted HPWL, old − new
    /// reach extra)`.
    undo_bb: Vec<(usize, Option<BBox>, f64, f64)>,
    /// Undo records `(pair, bonus collected)` of pairs decided.
    undo_pairs: Vec<(usize, f64)>,
}

/// `bb` grown to cover pin `g`.
fn grow(bb: Option<BBox>, g: PinGeo) -> BBox {
    match bb {
        None => (g.x, g.y, g.x, g.y),
        Some((x0, y0, x1, y1)) => (x0.min(g.x), y0.min(g.y), x1.max(g.x), y1.max(g.y)),
    }
}

/// β-weighted HPWL of a bounding box (0 for no pins).
fn weighted_hpwl(weight: f64, bb: Option<BBox>) -> f64 {
    bb.map_or(0.0, |(x0, y0, x1, y1)| {
        weight * ((x1 - x0) + (y1 - y0)) as f64
    })
}

/// Exact branch-and-bound over candidate assignments, cut short after
/// `max_nodes` search nodes (it then returns the best assignment found).
///
/// The cells of a batch fall into independent components (cells that
/// share no net or pair and can never overlap); each is searched on its
/// own, and all of them share the one `max_nodes` budget.
#[must_use]
pub fn dfs_solve(prob: &WindowProblem, max_nodes: usize) -> Vec<usize> {
    dfs_solve_counted(prob, max_nodes, true).0
}

/// [`dfs_solve`] as one search over the whole batch, without the split
/// into components. For tests only: uncut, both return the same
/// assignment.
#[doc(hidden)]
#[must_use]
pub fn dfs_solve_unsplit(prob: &WindowProblem, max_nodes: usize) -> Vec<usize> {
    dfs_solve_counted(prob, max_nodes, false).0
}

/// The search's lower bound on the objective at the root: the HPWL each
/// net reaches at the least, less every pair's largest bonus. For
/// tests only.
#[doc(hidden)]
#[must_use]
pub fn dfs_root_bound(prob: &WindowProblem) -> f64 {
    if prob.cells.is_empty() {
        return 0.0;
    }
    let mut st = DfsState::new(prob, 0, false);
    st.start_component(0, prob.cells.len());
    st.hpwl_partial + st.reach_partial - st.open_bonus
}

/// [`dfs_solve`] also returning the number of search nodes explored and
/// whether the search stopped at `max_nodes`; `split` selects the
/// search by components.
fn dfs_solve_counted(
    prob: &WindowProblem,
    max_nodes: usize,
    split: bool,
) -> (Vec<usize>, usize, bool) {
    let n = prob.cells.len();
    let mut st = DfsState::new(prob, max_nodes, split);
    let mut start = 0;
    while start < n {
        let label = st.comp[st.order[start]];
        let len = st.order[start..]
            .iter()
            .take_while(|&&c| st.comp[c] == label)
            .count();
        st.start_component(start, start + len);
        dfs_recurse(&mut st, start);
        start += len;
    }
    let truncated = st.nodes >= max_nodes;
    // The components may each take a tie with their current placement;
    // the batch keeps its input unless the whole gains.
    let cur = prob.current_assign();
    let assign = if prob.eval(&st.best_assign) < prob.eval(&cur) - 1e-9 {
        st.best_assign
    } else {
        cur
    };
    (assign, st.nodes, truncated)
}

/// Labels every cell with the smallest cell index of its component.
/// Two cells depend on each other, and share a component, if they share
/// a net, share a pair, or have candidate spans on a common row whose
/// hulls overlap; the hull test may join independent cells but never
/// splits dependent ones. Cells of different components touch disjoint
/// nets and pairs and can never overlap, so each component's optimum
/// can be found apart. Without `split`, every cell is labelled 0.
fn components(prob: &WindowProblem, split: bool) -> Vec<usize> {
    fn find(label: &[usize], mut c: usize) -> usize {
        while label[c] != c {
            c = label[c];
        }
        c
    }
    fn union(label: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(label, a), find(label, b));
        label[ra.max(rb)] = ra.min(rb);
    }
    let n = prob.cells.len();
    if !split {
        return vec![0; n];
    }
    let mut label: Vec<usize> = (0..n).collect();
    for net in &prob.nets {
        for w in net.movable.windows(2) {
            union(&mut label, w[0].0, w[1].0);
        }
    }
    // A pair's pins share a net, so this adds nothing today; it keeps the
    // split sound should pairs ever span nets.
    for pair in &prob.pairs {
        if let (End::Movable { cell: a, .. }, End::Movable { cell: b, .. }) = (pair.a, pair.b) {
            union(&mut label, a, b);
        }
    }
    // Per cell and row: the hull `(row, site0, site1)` of its candidate
    // spans.
    let hulls: Vec<Vec<(i64, i64, i64)>> = prob
        .cells
        .iter()
        .map(|cell| {
            let mut hull: Vec<(i64, i64, i64)> = Vec::new();
            for c in &cell.cands {
                let (s0, s1) = (c.site, c.site + cell.width);
                match hull.iter_mut().find(|h| h.0 == c.row) {
                    Some(h) => {
                        h.1 = h.1.min(s0);
                        h.2 = h.2.max(s1);
                    }
                    None => hull.push((c.row, s0, s1)),
                }
            }
            hull
        })
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            let overlap = hulls[i].iter().any(|&(r, a0, a1)| {
                hulls[j]
                    .iter()
                    .any(|&(q, b0, b1)| r == q && a1 > b0 && b1 > a0)
            });
            if overlap {
                union(&mut label, i, j);
            }
        }
    }
    (0..n).map(|c| find(&label, c)).collect()
}

/// The first movable cell of a pair (every pair of a batch has one).
fn pair_cell(pair: &LocalPair) -> Option<usize> {
    [pair.a, pair.b].into_iter().find_map(|e| match e {
        End::Movable { cell, .. } => Some(cell),
        End::Fixed(_) => None,
    })
}

impl<'a> DfsState<'a> {
    /// Builds the per-solve tables; `split` selects the components.
    fn new(prob: &'a WindowProblem, max_nodes: usize, split: bool) -> DfsState<'a> {
        let n = prob.cells.len();
        let cur = prob.current_assign();
        // Cell → pairs indices.
        let mut cell_pairs = vec![Vec::new(); n];
        let mut pair_open = vec![0u8; prob.pairs.len()];
        for (pi, pair) in prob.pairs.iter().enumerate() {
            for e in [&pair.a, &pair.b] {
                if let End::Movable { cell, .. } = *e {
                    cell_pairs[cell].push(pi);
                    pair_open[pi] += 1;
                }
            }
        }
        // Cell → nets, each with the cell's pin slots on that net.
        let mut cell_nets: Vec<Vec<CellNet>> = vec![Vec::new(); n];
        let mut slots = Vec::new();
        for (ni, net) in prob.nets.iter().enumerate() {
            for &(cell, _) in &net.movable {
                if cell_nets[cell].last().is_some_and(|cn| cn.net == ni) {
                    continue;
                }
                let lo = slots.len();
                slots.extend(
                    net.movable
                        .iter()
                        .filter(|&&(c2, _)| c2 == cell)
                        .map(|&(_, slot)| slot),
                );
                cell_nets[cell].push(CellNet {
                    net: ni,
                    weight: net.weight,
                    lo,
                    hi: slots.len(),
                });
            }
        }
        let mut geo = Vec::new();
        let mut geo_base = Vec::with_capacity(n);
        let mut nslots = Vec::with_capacity(n);
        for per_cand in &prob.pin_geo {
            geo_base.push(geo.len());
            nslots.push(per_cand.first().map_or(0, Vec::len));
            for pins in per_cand {
                geo.extend_from_slice(pins);
            }
        }

        let net_bb: Vec<Option<BBox>> = prob.nets.iter().map(|nt| nt.fixed).collect();

        let comp = components(prob, split);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&c| (comp[c], prob.cells[c].cands.len()));

        // Reach table, built from the deepest level up: level `d` is level
        // `d + 1` plus the pins of `order[d]`.
        let nnets = prob.nets.len();
        let mut reach = vec![Reach::NONE; (n + 1) * nnets];
        for d in (0..n).rev() {
            reach.copy_within((d + 1) * nnets..(d + 2) * nnets, d * nnets);
            let cell = order[d];
            let ncands = prob.cells[cell].cands.len();
            for cn in &cell_nets[cell] {
                let r = &mut reach[d * nnets + cn.net];
                for &slot in &slots[cn.lo..cn.hi] {
                    let mut near = Reach {
                        x_hi: i64::MAX,
                        x_lo: i64::MIN,
                        y_hi: i64::MAX,
                        y_lo: i64::MIN,
                    };
                    for k in 0..ncands {
                        let g = geo[geo_base[cell] + k * nslots[cell] + slot];
                        near.x_hi = near.x_hi.min(g.x);
                        near.x_lo = near.x_lo.max(g.x);
                        near.y_hi = near.y_hi.min(g.y);
                        near.y_lo = near.y_lo.max(g.y);
                    }
                    r.x_hi = r.x_hi.max(near.x_hi);
                    r.x_lo = r.x_lo.min(near.x_lo);
                    r.y_hi = r.y_hi.max(near.y_hi);
                    r.y_lo = r.y_lo.min(near.y_lo);
                }
            }
        }
        let cand_order = order
            .iter()
            .map(|&c| Vec::with_capacity(prob.cells[c].cands.len()))
            .collect();
        let undo_bb = Vec::with_capacity(cell_nets.iter().map(Vec::len).sum());
        let undo_pairs = Vec::with_capacity(prob.pairs.len());

        DfsState {
            prob,
            comp,
            order,
            comp_start: 0,
            comp_end: 0,
            assign: cur.clone(),
            best_assign: cur,
            best_obj: 0.0,
            taken: false,
            nodes: 0,
            max_nodes,
            pair_open,
            open_bonus: 0.0,
            done_bonus: 0.0,
            net_bb,
            hpwl_partial: 0.0,
            reach,
            reach_partial: 0.0,
            geo,
            geo_base,
            nslots,
            cell_pairs,
            cell_nets,
            slots,
            spans: Vec::with_capacity(n),
            cand_order,
            undo_bb,
            undo_pairs,
        }
    }

    /// Starts the search of the component `order[start..end]`: the
    /// running sums cover its nets and pairs only, and its incumbent is
    /// its value at the current placement.
    fn start_component(&mut self, start: usize, end: usize) {
        let prob = self.prob;
        let label = self.comp[self.order[start]];
        let nnets = prob.nets.len();
        let cur = prob.current_assign();
        let in_comp = |c: Option<usize>| c.is_some_and(|c| self.comp[c] == label);
        let (mut hpwl, mut reach, mut value) = (0.0, 0.0, 0.0);
        for (ni, net) in prob.nets.iter().enumerate() {
            if in_comp(net.movable.first().map(|m| m.0)) {
                hpwl += weighted_hpwl(net.weight, net.fixed);
                reach += reach_extra(net.weight, net.fixed, self.reach[start * nnets + ni]);
                value += net.weight * prob.net_hpwl(net, &cur) as f64;
            }
        }
        let mut open = 0.0;
        for pair in &prob.pairs {
            if in_comp(pair_cell(pair)) {
                open += pair.max_bonus;
                value -= prob.pair_bonus(pair, &cur);
            }
        }
        self.comp_start = start;
        self.comp_end = end;
        self.hpwl_partial = hpwl;
        self.reach_partial = reach;
        self.open_bonus = open;
        self.done_bonus = 0.0;
        self.best_obj = value;
        self.taken = false;
    }

    /// Whether a leaf or a bound of value `v` can still win. Until the
    /// component's search takes its first leaf, anything no worse than
    /// its current placement can; after that, only strict improvements.
    /// So each component takes the first of its optimal leaves in search
    /// order, as one search over the whole batch does.
    fn admits(&self, v: f64) -> bool {
        if self.taken {
            v < self.best_obj - 1e-9
        } else {
            v <= self.best_obj + 1e-9
        }
    }
}

fn dfs_recurse(st: &mut DfsState<'_>, depth: usize) {
    if st.nodes >= st.max_nodes {
        return;
    }
    if depth == st.comp_end {
        let obj = st.hpwl_partial - st.done_bonus;
        if st.admits(obj) {
            st.best_obj = obj;
            st.taken = true;
            for &c in &st.order[st.comp_start..st.comp_end] {
                st.best_assign[c] = st.assign[c];
            }
        }
        return;
    }
    let cell = st.order[depth];
    let width = st.prob.cells[cell].width;

    // Candidate order: cheapest local cost first for early incumbents.
    let mut cand_order = std::mem::take(&mut st.cand_order[depth]);
    cand_order.clear();
    for k in 0..st.prob.cells[cell].cands.len() {
        cand_order.push((local_score(st, cell, k), k));
    }
    cand_order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    for &(_, k) in &cand_order {
        st.nodes += 1;
        if st.nodes >= st.max_nodes {
            break;
        }
        let cand = st.prob.cells[cell].cands[k];
        // Legality against assigned cells.
        let span = (cand.row, cand.site, cand.site + width);
        let clash = st
            .spans
            .iter()
            .any(|&(r, s0, s1)| r == span.0 && s1 > span.1 && span.2 > s0);
        if clash {
            continue;
        }

        // ---- apply -----------------------------------------------------
        st.assign[cell] = k;
        st.spans.push(span);
        let bb_mark = st.undo_bb.len();
        let pair_mark = st.undo_pairs.len();
        let geo_row = st.geo_base[cell] + k * st.nslots[cell];
        let nnets = st.prob.nets.len();
        for cn in &st.cell_nets[cell] {
            let old = st.net_bb[cn.net];
            let old_hp = weighted_hpwl(cn.weight, old);
            let old_extra = reach_extra(cn.weight, old, st.reach[depth * nnets + cn.net]);
            // Grow by every pin of this cell on this net.
            let mut bb = old;
            for &slot in &st.slots[cn.lo..cn.hi] {
                bb = Some(grow(bb, st.geo[geo_row + slot]));
            }
            let new_hp = weighted_hpwl(cn.weight, bb);
            let new_extra = reach_extra(cn.weight, bb, st.reach[(depth + 1) * nnets + cn.net]);
            st.net_bb[cn.net] = bb;
            st.hpwl_partial += new_hp - old_hp;
            st.reach_partial += new_extra - old_extra;
            st.undo_bb
                .push((cn.net, old, old_hp - new_hp, old_extra - new_extra));
        }
        for &pi in &st.cell_pairs[cell] {
            st.pair_open[pi] -= 1;
            if st.pair_open[pi] == 0 {
                // Pair decided: replace potential with actual bonus.
                let actual = st.prob.pair_bonus(&st.prob.pairs[pi], &st.assign);
                st.open_bonus -= st.prob.pairs[pi].max_bonus;
                st.done_bonus += actual;
                st.undo_pairs.push((pi, actual));
            }
        }

        // ---- bound & recurse ---------------------------------------------
        let bound = st.hpwl_partial + st.reach_partial - st.done_bonus - st.open_bonus;
        if st.admits(bound) {
            dfs_recurse(st, depth + 1);
        }

        // ---- undo (last applied first) -----------------------------------
        for (pi, actual) in st.undo_pairs.drain(pair_mark..).rev() {
            st.done_bonus -= actual;
            st.open_bonus += st.prob.pairs[pi].max_bonus;
        }
        for &pi in &st.cell_pairs[cell] {
            st.pair_open[pi] += 1;
        }
        for (ni, old, hp_delta, extra_delta) in st.undo_bb.drain(bb_mark..).rev() {
            st.net_bb[ni] = old;
            st.hpwl_partial += hp_delta;
            st.reach_partial += extra_delta;
        }
        st.spans.pop();
    }
    st.cand_order[depth] = cand_order;
    st.assign[cell] = st.prob.cells[cell].current;
}

/// Heuristic per-candidate score used only for move ordering.
fn local_score(st: &DfsState<'_>, cell: usize, k: usize) -> f64 {
    let mut score = 0.0;
    let geo_row = st.geo_base[cell] + k * st.nslots[cell];
    for cn in &st.cell_nets[cell] {
        let mut bb = st.net_bb[cn.net];
        for &slot in &st.slots[cn.lo..cn.hi] {
            bb = Some(grow(bb, st.geo[geo_row + slot]));
        }
        score += weighted_hpwl(cn.weight, bb);
    }
    // Reward candidates that immediately decide pairs favourably.
    for &pi in &st.cell_pairs[cell] {
        if st.pair_open[pi] == 1 {
            score -= st
                .prob
                .pair_bonus_with(&st.prob.pairs[pi], &st.assign, cell, k);
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Overrides;
    use crate::window::Window;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_netlist::Design;
    use vm1_place::{place, PlaceConfig, RowMap};
    use vm1_tech::{CellArch, Library};

    fn problem(arch: CellArch, n_cells: usize, seed: u64) -> WindowProblem {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(200)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let cfg = if arch == CellArch::OpenM1 {
            Vm1Config::openm1()
        } else {
            Vm1Config::closedm1()
        };
        let rm = RowMap::build(&d);
        let win = Window {
            site0: 0,
            row0: 0,
            w_sites: d.sites_per_row.min(36),
            h_rows: d.num_rows.min(4),
        };
        let movable: Vec<_> = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new())
            .into_iter()
            .take(n_cells)
            .collect();
        WindowProblem::build(&d, &rm, win, &movable, 2, 1, false, &cfg, &Overrides::new())
    }

    /// Exhaustive optimum by enumerating all legal assignments.
    fn brute_force(prob: &WindowProblem) -> f64 {
        fn rec(prob: &WindowProblem, assign: &mut Vec<usize>, cell: usize, best: &mut f64) {
            if cell == prob.cells.len() {
                if prob.is_legal(assign) {
                    *best = best.min(prob.eval(assign));
                }
                return;
            }
            for k in 0..prob.cells[cell].cands.len() {
                assign[cell] = k;
                rec(prob, assign, cell + 1, best);
            }
        }
        let mut best = f64::INFINITY;
        let mut assign = prob.current_assign();
        rec(prob, &mut assign, 0, &mut best);
        best
    }

    #[test]
    fn dfs_matches_brute_force() {
        for seed in [1, 2, 3] {
            let prob = problem(CellArch::ClosedM1, 3, seed);
            if prob.cells.len() < 2 {
                continue;
            }
            let expect = brute_force(&prob);
            let got = dfs_solve(&prob, 1_000_000);
            assert!(prob.is_legal(&got));
            assert!(
                (prob.eval(&got) - expect).abs() < 1e-6,
                "seed {seed}: dfs {} vs brute {expect}",
                prob.eval(&got)
            );
        }
    }

    #[test]
    fn milp_matches_dfs() {
        for arch in [CellArch::ClosedM1, CellArch::OpenM1] {
            let prob = problem(arch, 3, 4);
            if prob.cells.len() < 2 {
                continue;
            }
            let cfg = if arch == CellArch::OpenM1 {
                Vm1Config::openm1()
            } else {
                Vm1Config::closedm1()
            };
            let dfs = dfs_solve(&prob, 1_000_000);
            let milp = milp_window_solve(&prob, &cfg);
            assert!(prob.is_legal(&milp), "{arch}: milp assignment legal");
            assert!(
                (prob.eval(&dfs) - prob.eval(&milp)).abs() < 1e-6,
                "{arch}: dfs {} vs milp {}",
                prob.eval(&dfs),
                prob.eval(&milp)
            );
        }
    }

    #[test]
    fn certified_milp_matches_dfs_and_records_counters() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;
        let prob = problem(CellArch::ClosedM1, 3, 4);
        if prob.cells.len() < 2 {
            return;
        }
        let cfg = Vm1Config::closedm1()
            .with_solver(SolverKind::Milp)
            .with_certify(true);
        let sink = Arc::new(Telemetry::new());
        let metrics = MetricsHandle::of(sink.clone());
        let a = solve_window_with(&prob, &cfg, &metrics);
        assert!(prob.is_legal(&a));
        let dfs = dfs_solve(&prob, 1_000_000);
        assert!(
            (prob.eval(&a) - prob.eval(&dfs)).abs() < 1e-6,
            "certified milp {} vs dfs {}",
            prob.eval(&a),
            prob.eval(&dfs)
        );
        let report = sink.report();
        assert!(report.counter(Counter::CertRecorded) >= 1);
        assert_eq!(
            report.counter(Counter::CertVerified),
            report.counter(Counter::CertRecorded),
            "every recorded certificate must verify"
        );
        assert_eq!(report.counter(Counter::CertRejected), 0);
    }

    #[test]
    fn solve_window_dispatch_respects_safety_net() {
        let prob = problem(CellArch::ClosedM1, 5, 7);
        for kind in [SolverKind::Dfs, SolverKind::Milp] {
            let cfg = Vm1Config::closedm1().with_solver(kind);
            let a = solve_window(&prob, &cfg);
            assert!(prob.is_legal(&a), "{kind:?}");
            assert!(prob.eval(&a) <= prob.eval(&prob.current_assign()) + 1e-9);
        }
    }

    #[test]
    fn node_cap_still_returns_legal() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;
        let prob = problem(CellArch::ClosedM1, 6, 8);
        let a = dfs_solve(&prob, 10); // absurdly small budget
        assert!(prob.is_legal(&a));
        assert!(prob.eval(&a) <= prob.eval(&prob.current_assign()) + 1e-9);
        // A cut search is counted once; a complete one not at all.
        for (max_nodes, cut) in [(10, 1), (usize::MAX, 0)] {
            let mut cfg = Vm1Config::closedm1();
            cfg.max_nodes = max_nodes;
            let sink = Arc::new(Telemetry::new());
            let _ = solve_window_with(&prob, &cfg, &MetricsHandle::of(sink.clone()));
            let report = sink.report();
            assert_eq!(report.counter(Counter::DfsBudgetExhausted), cut);
            assert_eq!(report.all_exact(), cut == 0);
            if cut == 0 {
                assert!(report.counter(Counter::DfsNodes) > 10, "10 nodes must cut");
            }
        }
    }

    #[test]
    fn hand_case_dfs_aligns_pins() {
        // Two inverters, one net, plenty of room: the optimum must align
        // ZN over A (one alignment) without inflating HPWL.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 3, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        d.move_inst(a, 5, 0, vm1_geom::Orient::North);
        d.move_inst(b, 9, 1, vm1_geom::Orient::North); // off by 3 sites
        let cfg = Vm1Config::closedm1();
        let rm = RowMap::build(&d);
        let win = Window {
            site0: 0,
            row0: 0,
            w_sites: 30,
            h_rows: 3,
        };
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 4, 1, false, &cfg, &Overrides::new());
        let got = dfs_solve(&prob, 100_000);
        // Exactly one pair, and the optimal assignment realizes it.
        assert_eq!(prob.pairs.len(), 1);
        assert_eq!(prob.pair_bonus(&prob.pairs[0], &got), cfg.alpha);
    }
}
