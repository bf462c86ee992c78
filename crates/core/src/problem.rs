//! Window-local optimization problem with single-cell-placement (SCP)
//! candidates.
//!
//! A [`WindowProblem`] captures one window of the distributable
//! optimization: the movable cells with their candidate `(site, row,
//! orient)` placements (the λ variables of constraints (5)–(8)), the fixed
//! occupancy (constraint (9)), the touched nets with the bounding box of
//! their non-movable pins (constraints (2)–(3)), and the eligible pin
//! pairs (constraints (4) / (11)–(14)). Both solvers — MILP and exact
//! DFS — consume this structure, which guarantees they optimize the
//! identical objective.

use crate::pairs::PairIndex;
use crate::window::Window;
use crate::Vm1Config;
use std::collections::{BTreeMap, BTreeSet};
use vm1_geom::Orient;
use vm1_netlist::{Design, InstId, NetId, NetPin, PinRef};
use vm1_place::RowMap;

/// A candidate placement of one cell (one λ variable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Left edge, in sites.
    pub site: i64,
    /// Placement row.
    pub row: i64,
    /// Orientation.
    pub orient: Orient,
}

/// A movable cell of the window.
#[derive(Clone, Debug)]
pub struct MovableCell {
    /// The design instance.
    pub inst: InstId,
    /// Width in sites.
    pub width: i64,
    /// Candidate placements (always contains the current placement).
    pub cands: Vec<Candidate>,
    /// Index of the current placement within `cands`.
    pub current: usize,
}

/// Absolute geometry of one pin under one candidate (or of a fixed pin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinGeo {
    /// Pin centre x (nm).
    pub x: i64,
    /// Pin centre y (nm).
    pub y: i64,
    /// Pin shape x-extent (nm).
    pub x_lo: i64,
    /// Pin shape x-extent (nm).
    pub x_hi: i64,
}

/// One endpoint of an alignable pair.
#[derive(Clone, Copy, Debug)]
pub enum End {
    /// Pin `slot` of movable cell `cell`.
    Movable {
        /// Index into [`WindowProblem::cells`].
        cell: usize,
        /// Pin slot of that cell (see [`WindowProblem::pin_geo`]).
        slot: usize,
    },
    /// A pin whose position cannot change in this window.
    Fixed(PinGeo),
}

/// A net restricted to the window.
#[derive(Clone, Debug)]
pub struct LocalNet {
    /// β weight.
    pub weight: f64,
    /// Bounding box of the net's immovable pins, `(x0, y0, x1, y1)` in nm;
    /// `None` if every pin is movable.
    pub fixed: Option<(i64, i64, i64, i64)>,
    /// `(cell index, pin slot)` of each movable pin.
    pub movable: Vec<(usize, usize)>,
    /// Originating design net.
    pub net: NetId,
}

/// An eligible `d_pq` pair.
#[derive(Clone, Debug)]
pub struct LocalPair {
    /// First endpoint.
    pub a: End,
    /// Second endpoint.
    pub b: End,
    /// Largest bonus this pair can contribute (α + ε·max overlap), used
    /// for admissible pruning.
    pub max_bonus: f64,
}

/// The window subproblem. See the module docs.
#[derive(Clone, Debug)]
pub struct WindowProblem {
    /// Movable cells.
    pub cells: Vec<MovableCell>,
    /// Per cell, per candidate, per pin slot: absolute pin geometry.
    pub pin_geo: Vec<Vec<Vec<PinGeo>>>,
    /// Nets touching movable cells.
    pub nets: Vec<LocalNet>,
    /// Eligible pin pairs.
    pub pairs: Vec<LocalPair>,
    /// The window.
    pub window: Window,
    /// Occupied window sites (row-major `(row - row0) * w_sites + (site -
    /// site0)`), counting every non-movable cell.
    pub occupied: Vec<bool>,
    /// α (nm per alignment).
    pub alpha: f64,
    /// ε (per nm of overlap beyond δ).
    pub epsilon: f64,
    /// γ·H in nm.
    pub gamma_span: i64,
    /// δ in nm.
    pub delta: i64,
    /// Whether alignment requires exact x equality (ClosedM1) rather than
    /// ≥ δ overlap (OpenM1).
    pub exact: bool,
}

/// Placement override map used when a window is solved in batches: cells
/// moved by earlier batches keep their new positions while later batches
/// are built.
pub type Overrides = BTreeMap<InstId, Candidate>;

/// Reusable buffers for window-problem construction. The optimizer
/// session keeps one scratch per window worker and each worker threads
/// it through every window it solves, so the hot path
/// ([`WindowProblem::movable_in_window_into`] and
/// [`WindowProblem::build_with_scratch`]) allocates only once per worker
/// instead of once per window.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Row-occupant buffer ([`RowMap::occupants_into`]).
    ids: Vec<InstId>,
    /// Output buffer of [`WindowProblem::movable_in_window_into`].
    pub(crate) movable: Vec<InstId>,
    /// Instance de-duplication set of the occupancy scan.
    seen: BTreeSet<InstId>,
    /// Pair indices touching the batch ([`PairIndex::pairs_of`]).
    pair_ids: Vec<usize>,
}

impl SolveScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }
}

fn view_pos(design: &Design, ov: &Overrides, inst: InstId) -> Candidate {
    ov.get(&inst).copied().unwrap_or_else(|| {
        let i = design.inst(inst);
        Candidate {
            site: i.site,
            row: i.row,
            orient: i.orient,
        }
    })
}

fn geo_of(design: &Design, cand: Candidate, pr: PinRef) -> PinGeo {
    let tech = design.library().tech();
    let inst = design.inst(pr.inst);
    let cell = design.library().cell(inst.cell);
    let pin = &cell.pins[pr.pin];
    let ox = tech.site_to_x(cand.site).nm();
    let oy = tech.row_to_y(cand.row).nm();
    let (lo, hi) =
        cand.orient
            .apply_x_range(pin.shape.rect.lo().x, pin.shape.rect.hi().x, cell.width);
    PinGeo {
        x: ox + pin.x_center(cand.orient, cell.width).nm(),
        y: oy + pin.y_center().nm(),
        x_lo: ox + lo.nm(),
        x_hi: ox + hi.nm(),
    }
}

impl WindowProblem {
    /// Builds the subproblem for `window`.
    ///
    /// `movable` lists the instances this problem may move (already
    /// filtered to cells wholly inside the window); every other instance
    /// intersecting the window contributes fixed occupancy and fixed pin
    /// positions. `overrides` supplies updated positions from earlier
    /// batches of the same window. Enumerates the design's eligible pin
    /// pairs; callers building many problems of one design share a
    /// [`PairIndex`] through [`WindowProblem::build_with_scratch`].
    #[must_use]
    #[expect(
        clippy::too_many_arguments,
        reason = "the window, its move ranges and the batch state"
    )]
    pub fn build(
        design: &Design,
        rowmap: &RowMap,
        window: Window,
        movable: &[InstId],
        lx: i64,
        ly: i64,
        flip: bool,
        cfg: &Vm1Config,
        overrides: &Overrides,
    ) -> WindowProblem {
        let mut scratch = SolveScratch::default();
        WindowProblem::build_with_scratch(
            design,
            rowmap,
            &PairIndex::build(design, cfg),
            window,
            movable,
            lx,
            ly,
            flip,
            cfg,
            overrides,
            &mut scratch,
        )
    }

    /// [`WindowProblem::build`] with the design's pair index `pairs` and
    /// caller-owned scratch buffers (see [`SolveScratch`]); the hot path
    /// of the round workers.
    #[must_use]
    #[expect(
        clippy::too_many_arguments,
        reason = "the window, its move ranges and the batch state"
    )]
    pub fn build_with_scratch(
        design: &Design,
        rowmap: &RowMap,
        pairs: &PairIndex,
        window: Window,
        movable: &[InstId],
        lx: i64,
        ly: i64,
        flip: bool,
        cfg: &Vm1Config,
        overrides: &Overrides,
        scratch: &mut SolveScratch,
    ) -> WindowProblem {
        let tech = design.library().tech();
        let arch = design.library().arch();
        let exact = arch.requires_exact_alignment();
        let gamma_span = tech.gamma_span().nm();
        let delta = tech.delta.nm();

        // Index of an instance in `movable`, if it is one; a batch holds
        // at most `max_cells_per_milp` cells, so a scan beats a map.
        let movable_idx = |id: InstId| movable.iter().position(|&m| m == id);

        // ---- occupancy -------------------------------------------------
        let mut occupied = vec![false; (window.w_sites * window.h_rows) as usize];
        let mark = |site: i64, w: i64, row: i64, occ: &mut Vec<bool>| {
            if row < window.row0 || row >= window.row_end() {
                return;
            }
            let s0 = site.max(window.site0);
            let s1 = (site + w).min(window.site_end());
            for s in s0..s1 {
                occ[((row - window.row0) * window.w_sites + (s - window.site0)) as usize] = true;
            }
        };
        // All instances intersecting the window (including border-crossers
        // and earlier-batch movers).
        scratch.seen.clear();
        for row in window.row0..window.row_end() {
            rowmap.occupants_into(row, window.site0, window.site_end(), &mut scratch.ids);
            scratch.seen.extend(scratch.ids.iter().copied());
        }
        for &id in &scratch.seen {
            if movable_idx(id).is_some() {
                continue;
            }
            let pos = view_pos(design, overrides, id);
            let w = design.library().cell(design.inst(id).cell).width_sites;
            mark(pos.site, w, pos.row, &mut occupied);
        }

        // ---- movable cells + candidates --------------------------------
        let mut cells = Vec::with_capacity(movable.len());
        for &id in movable {
            let pos = view_pos(design, overrides, id);
            let w = design.library().cell(design.inst(id).cell).width_sites;
            let s_lo = (pos.site - lx).max(window.site0);
            let s_hi = (pos.site + lx).min(window.site_end() - w);
            let r_lo = (pos.row - ly).max(window.row0);
            let r_hi = (pos.row + ly).min(window.row_end() - 1);
            let orients: &[Orient] = if flip {
                &Orient::ALL
            } else {
                std::slice::from_ref(match pos.orient {
                    Orient::North => &Orient::ALL[0],
                    Orient::FlippedNorth => &Orient::ALL[1],
                })
            };
            let mut cands = Vec::new();
            let mut current = 0usize;
            for row in r_lo..=r_hi {
                for site in s_lo..=s_hi {
                    // Legal against fixed occupancy.
                    let free = (site..site + w).all(|s| {
                        !occupied
                            [((row - window.row0) * window.w_sites + (s - window.site0)) as usize]
                    });
                    if !free {
                        continue;
                    }
                    for &orient in orients {
                        let c = Candidate { site, row, orient };
                        if c == pos {
                            current = cands.len();
                        }
                        cands.push(c);
                    }
                }
            }
            if cands.is_empty() || !cands.contains(&pos) {
                // The current position must always be available (it is
                // legal by construction).
                cands.push(pos);
                current = cands.len() - 1;
            }
            cells.push(MovableCell {
                inst: id,
                width: w,
                cands,
                current,
            });
        }

        // ---- nets -------------------------------------------------------
        // Pin slots: per cell, the macro pin indices used by any net, in
        // first-use order; a pin's slot is its position in the list.
        let mut slot_pins: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
        let intern = |pins: &mut Vec<usize>, pin: usize| {
            pins.iter().position(|&p| p == pin).unwrap_or_else(|| {
                pins.push(pin);
                pins.len() - 1
            })
        };

        let mut net_ids: Vec<NetId> = movable
            .iter()
            .flat_map(|&id| design.inst_nets(id))
            .collect();
        net_ids.sort_unstable();
        net_ids.dedup();

        let mut nets = Vec::with_capacity(net_ids.len());
        for net_id in net_ids {
            let mut fixed: Option<(i64, i64, i64, i64)> = None;
            let mut movable_pins = Vec::new();
            for &np in &design.net(net_id).pins {
                let g = match np {
                    NetPin::Inst(pr) => {
                        if let Some(cell) = movable_idx(pr.inst) {
                            let slot = intern(&mut slot_pins[cell], pr.pin);
                            movable_pins.push((cell, slot));
                            continue;
                        }
                        geo_of(design, view_pos(design, overrides, pr.inst), pr)
                    }
                    NetPin::Port(p) => {
                        let pos = design.port(p).position;
                        PinGeo {
                            x: pos.x.nm(),
                            y: pos.y.nm(),
                            x_lo: pos.x.nm(),
                            x_hi: pos.x.nm(),
                        }
                    }
                };
                fixed = Some(match fixed {
                    None => (g.x, g.y, g.x, g.y),
                    Some((x0, y0, x1, y1)) => (x0.min(g.x), y0.min(g.y), x1.max(g.x), y1.max(g.y)),
                });
            }
            nets.push(LocalNet {
                weight: cfg.net_weight(net_id),
                fixed,
                movable: movable_pins,
                net: net_id,
            });
        }

        // ---- pairs -------------------------------------------------------
        // Every pair touching the batch, in ascending index order: the
        // order of a scan over all eligible pairs.
        batch_pairs(pairs, movable, &mut scratch.pair_ids);
        let mut local_pairs = Vec::with_capacity(scratch.pair_ids.len());
        for &pi in &scratch.pair_ids {
            let (p, q, _net) = pairs.pairs()[pi];
            let mut mk_end = |pr: PinRef| match movable_idx(pr.inst) {
                Some(cell) => End::Movable {
                    cell,
                    slot: intern(&mut slot_pins[cell], pr.pin),
                },
                None => End::Fixed(geo_of(design, view_pos(design, overrides, pr.inst), pr)),
            };
            let a = mk_end(p);
            let b = mk_end(q);
            local_pairs.push(LocalPair {
                a,
                b,
                max_bonus: 0.0, // filled after pin_geo is computed
            });
        }

        // ---- pin geometry cache ------------------------------------------
        let mut pin_geo: Vec<Vec<Vec<PinGeo>>> = Vec::with_capacity(cells.len());
        for (k, cell) in cells.iter().enumerate() {
            let mut per_cand = Vec::with_capacity(cell.cands.len());
            for &cand in &cell.cands {
                let geos: Vec<PinGeo> = slot_pins[k]
                    .iter()
                    .map(|&pin| {
                        geo_of(
                            design,
                            cand,
                            PinRef {
                                inst: cell.inst,
                                pin,
                            },
                        )
                    })
                    .collect();
                per_cand.push(geos);
            }
            pin_geo.push(per_cand);
        }

        let mut prob = WindowProblem {
            cells,
            pin_geo,
            nets,
            pairs: local_pairs,
            window,
            occupied,
            alpha: cfg.alpha,
            epsilon: cfg.epsilon,
            gamma_span,
            delta,
            exact,
        };
        prob.finalize_pairs();
        prob
    }

    /// Computes each pair's maximum achievable bonus and drops pairs that
    /// can never align under any candidate combination.
    fn finalize_pairs(&mut self) {
        let cells = &self.cells;
        let pin_geo = &self.pin_geo;
        let gamma_span = self.gamma_span;
        let delta = self.delta;
        let exact = self.exact;
        let alpha = self.alpha;
        let epsilon = self.epsilon;
        // An endpoint's geometry under each of its candidates (one for a
        // fixed pin).
        let n_geos = |e: &End| match *e {
            End::Fixed(_) => 1,
            End::Movable { cell, .. } => cells[cell].cands.len(),
        };
        let geo = |e: &End, k: usize| match *e {
            End::Fixed(g) => g,
            End::Movable { cell, slot } => pin_geo[cell][k][slot],
        };
        self.pairs.retain_mut(|pair| {
            // Feasibility and max bonus over candidate combinations
            // (coarse O(|A|·|B|) scan; window candidate counts are small).
            let mut best: Option<i64> = None;
            for i in 0..n_geos(&pair.a) {
                let a = geo(&pair.a, i);
                for j in 0..n_geos(&pair.b) {
                    let b = geo(&pair.b, j);
                    if (a.y - b.y).abs() > gamma_span {
                        continue;
                    }
                    if exact {
                        if a.x == b.x {
                            best = Some(best.unwrap_or(0).max(0));
                        }
                    } else {
                        let ov = a.x_hi.min(b.x_hi) - a.x_lo.max(b.x_lo);
                        if ov >= delta {
                            best = Some(best.unwrap_or(0).max(ov - delta));
                        }
                    }
                }
            }
            match best {
                Some(ov) => {
                    pair.max_bonus = alpha + epsilon * ov as f64;
                    true
                }
                None => false,
            }
        });
    }

    /// The assignment representing the unperturbed input placement.
    #[must_use]
    pub fn current_assign(&self) -> Vec<usize> {
        self.cells.iter().map(|c| c.current).collect()
    }

    /// A digest of everything the solvers can observe: cells with their
    /// candidates and current positions, net fixed boxes, pair geometry
    /// and weights. Two problems with equal digests produce identical
    /// solver results, so a digest identifies a batch in golden tests.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut mix = |v: u64| {
            h ^= v
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(h << 6)
                .wrapping_add(h >> 2);
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        };
        mix(self.window.site0 as u64);
        mix(self.window.row0 as u64);
        mix(self.window.w_sites as u64);
        mix(self.window.h_rows as u64);
        mix(self.alpha.to_bits());
        mix(self.epsilon.to_bits());
        mix(self.gamma_span as u64);
        mix(self.delta as u64);
        mix(u64::from(self.exact));
        for cell in &self.cells {
            mix(cell.inst.0 as u64);
            mix(cell.width as u64);
            mix(cell.current as u64);
            for c in &cell.cands {
                mix(c.site as u64);
                mix(c.row as u64);
                mix(u64::from(c.orient.is_flipped()));
            }
        }
        for net in &self.nets {
            mix(net.weight.to_bits());
            if let Some((x0, y0, x1, y1)) = net.fixed {
                mix(x0 as u64);
                mix(y0 as u64);
                mix(x1 as u64);
                mix(y1 as u64);
            }
            for &(c, s) in &net.movable {
                mix(c as u64);
                mix(s as u64);
            }
        }
        for pair in &self.pairs {
            for e in [&pair.a, &pair.b] {
                match *e {
                    End::Movable { cell, slot } => {
                        mix(1);
                        mix(cell as u64);
                        mix(slot as u64);
                    }
                    End::Fixed(g) => {
                        mix(2);
                        mix(g.x as u64);
                        mix(g.y as u64);
                        mix(g.x_lo as u64);
                        mix(g.x_hi as u64);
                    }
                }
            }
        }
        h
    }

    /// Pin geometry of an endpoint under `assign`.
    #[must_use]
    pub fn end_geo(&self, e: &End, assign: &[usize]) -> PinGeo {
        match *e {
            End::Fixed(g) => g,
            End::Movable { cell, slot } => self.pin_geo[cell][assign[cell]][slot],
        }
    }

    /// Bonus contributed by one pair under `assign` (0 when not aligned).
    #[must_use]
    pub fn pair_bonus(&self, pair: &LocalPair, assign: &[usize]) -> f64 {
        self.bonus_of(self.end_geo(&pair.a, assign), self.end_geo(&pair.b, assign))
    }

    /// [`WindowProblem::pair_bonus`] with `cell` at candidate `k` and
    /// every other cell at `assign`.
    #[must_use]
    pub fn pair_bonus_with(
        &self,
        pair: &LocalPair,
        assign: &[usize],
        cell: usize,
        k: usize,
    ) -> f64 {
        let geo = |e: &End| match *e {
            End::Movable { cell: c, slot } if c == cell => self.pin_geo[cell][k][slot],
            _ => self.end_geo(e, assign),
        };
        self.bonus_of(geo(&pair.a), geo(&pair.b))
    }

    /// Bonus of a pin pair at geometries `a` and `b` (0 when not aligned).
    fn bonus_of(&self, a: PinGeo, b: PinGeo) -> f64 {
        if (a.y - b.y).abs() > self.gamma_span {
            return 0.0;
        }
        if self.exact {
            if a.x == b.x {
                self.alpha
            } else {
                0.0
            }
        } else {
            let ov = a.x_hi.min(b.x_hi) - a.x_lo.max(b.x_lo);
            if ov >= self.delta {
                self.alpha + self.epsilon * (ov - self.delta) as f64
            } else {
                0.0
            }
        }
    }

    /// HPWL of one local net under `assign` (nm).
    #[must_use]
    pub fn net_hpwl(&self, net: &LocalNet, assign: &[usize]) -> i64 {
        let mut bb = net.fixed;
        for &(cell, slot) in &net.movable {
            let g = self.pin_geo[cell][assign[cell]][slot];
            bb = Some(match bb {
                None => (g.x, g.y, g.x, g.y),
                Some((x0, y0, x1, y1)) => (x0.min(g.x), y0.min(g.y), x1.max(g.x), y1.max(g.y)),
            });
        }
        bb.map_or(0, |(x0, y0, x1, y1)| (x1 - x0) + (y1 - y0))
    }

    /// Full objective of an assignment: `Σ β·HPWL − Σ bonus` (minimized).
    #[must_use]
    pub fn eval(&self, assign: &[usize]) -> f64 {
        let mut v = 0.0;
        for net in &self.nets {
            v += net.weight * self.net_hpwl(net, assign) as f64;
        }
        for pair in &self.pairs {
            v -= self.pair_bonus(pair, assign);
        }
        v
    }

    /// Whether the assignment is free of overlaps (against fixed occupancy
    /// — guaranteed per candidate — and among the movable cells).
    #[must_use]
    pub fn is_legal(&self, assign: &[usize]) -> bool {
        let mut spans: Vec<(i64, i64, i64)> = self
            .cells
            .iter()
            .zip(assign)
            .map(|(c, &k)| {
                let cand = c.cands[k];
                (cand.row, cand.site, cand.site + c.width)
            })
            .collect();
        spans.sort_unstable();
        spans
            .windows(2)
            .all(|w| w[0].0 != w[1].0 || w[0].2 <= w[1].1)
    }

    /// Applies an assignment to the design and records it in `overrides`.
    pub fn apply(&self, design: &mut Design, assign: &[usize], overrides: &mut Overrides) {
        for (cell, &k) in self.cells.iter().zip(assign) {
            let cand = cell.cands[k];
            design.move_inst(cell.inst, cand.site, cand.row, cand.orient);
            overrides.insert(cell.inst, cand);
        }
    }

    /// Movable instances fully contained in `window` (the batching input
    /// for [`WindowProblem::build`]); deterministic order.
    #[must_use]
    pub fn movable_in_window(
        design: &Design,
        rowmap: &RowMap,
        window: &Window,
        overrides: &Overrides,
    ) -> Vec<InstId> {
        let mut scratch = SolveScratch::default();
        WindowProblem::movable_in_window_into(design, rowmap, window, overrides, &mut scratch);
        scratch.movable
    }

    /// [`WindowProblem::movable_in_window`] into the reusable
    /// `scratch.movable` buffer (same deterministic order).
    pub fn movable_in_window_into(
        design: &Design,
        rowmap: &RowMap,
        window: &Window,
        overrides: &Overrides,
        scratch: &mut SolveScratch,
    ) {
        scratch.movable.clear();
        for row in window.row0..window.row_end() {
            rowmap.occupants_into(row, window.site0, window.site_end(), &mut scratch.ids);
            scratch.ids.sort_unstable();
            for &id in &scratch.ids {
                let inst = design.inst(id);
                if inst.fixed {
                    continue;
                }
                let pos = view_pos(design, overrides, id);
                if pos.row != row {
                    continue; // counted at its own row
                }
                let w = design.library().cell(inst.cell).width_sites;
                if window.contains_span(pos.site, w, pos.row) {
                    scratch.movable.push(id);
                }
            }
        }
    }
}

/// Collects into `ids` the indices of the pairs of `index` with an
/// endpoint in `movable`, ascending and without repeats.
fn batch_pairs(index: &PairIndex, movable: &[InstId], ids: &mut Vec<usize>) {
    ids.clear();
    for &inst in movable {
        ids.extend_from_slice(index.pairs_of(inst));
    }
    ids.sort_unstable();
    ids.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::alignable_pairs;
    use crate::window::WindowGrid;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    fn setup(arch: CellArch) -> (Design, Vm1Config) {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(200)
            .generate(&lib, 1);
        place(&mut d, &PlaceConfig::default(), 1);
        let cfg = if arch == CellArch::OpenM1 {
            Vm1Config::openm1()
        } else {
            Vm1Config::closedm1()
        };
        (d, cfg)
    }

    fn first_window(d: &Design) -> Window {
        Window {
            site0: 0,
            row0: 0,
            w_sites: d.sites_per_row.min(40),
            h_rows: d.num_rows.min(4),
        }
    }

    #[test]
    fn build_produces_consistent_problem() {
        let (d, cfg) = setup(CellArch::ClosedM1);
        let rm = RowMap::build(&d);
        let win = first_window(&d);
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        assert!(!movable.is_empty());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 3, 1, false, &cfg, &Overrides::new());
        assert_eq!(prob.cells.len(), movable.len());
        // Current assignment is always legal and matches the design.
        let cur = prob.current_assign();
        assert!(prob.is_legal(&cur));
        for (c, &k) in prob.cells.iter().zip(&cur) {
            let inst = d.inst(c.inst);
            assert_eq!(c.cands[k].site, inst.site);
            assert_eq!(c.cands[k].row, inst.row);
        }
    }

    #[test]
    fn eval_matches_global_objective_delta() {
        // Moving one cell inside a window must change the window objective
        // by the same amount as the global objective.
        let (mut d, cfg) = setup(CellArch::ClosedM1);
        let rm = RowMap::build(&d);
        let win = first_window(&d);
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 3, 1, true, &cfg, &Overrides::new());
        let cur = prob.current_assign();
        let g0 = crate::calculate_obj(&d, &cfg).value;
        let l0 = prob.eval(&cur);
        // Find some cell with an alternative candidate and try it.
        let mut alt = cur.clone();
        let target = prob
            .cells
            .iter()
            .position(|c| c.cands.len() > 1)
            .expect("some cell has alternatives");
        alt[target] = (cur[target] + 1) % prob.cells[target].cands.len();
        if !prob.is_legal(&alt) {
            return; // extremely dense window; skip silently
        }
        let l1 = prob.eval(&alt);
        let cand = prob.cells[target].cands[alt[target]];
        d.move_inst(prob.cells[target].inst, cand.site, cand.row, cand.orient);
        let g1 = crate::calculate_obj(&d, &cfg).value;
        assert!(
            ((g1 - g0) - (l1 - l0)).abs() < 1e-6,
            "global delta {} vs local delta {}",
            g1 - g0,
            l1 - l0
        );
    }

    #[test]
    fn candidates_respect_window_and_range() {
        let (d, cfg) = setup(CellArch::ClosedM1);
        let rm = RowMap::build(&d);
        let win = first_window(&d);
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 2, 1, false, &cfg, &Overrides::new());
        for c in &prob.cells {
            let cur = c.cands[c.current];
            for cand in &c.cands {
                assert!(win.contains_span(cand.site, c.width, cand.row));
                assert!((cand.site - cur.site).abs() <= 2);
                assert!((cand.row - cur.row).abs() <= 1);
                assert_eq!(cand.orient, cur.orient, "no flip when f=0");
            }
        }
    }

    #[test]
    fn flip_only_candidates() {
        let (d, cfg) = setup(CellArch::ClosedM1);
        let rm = RowMap::build(&d);
        let win = first_window(&d);
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 0, 0, true, &cfg, &Overrides::new());
        for c in &prob.cells {
            assert!(c.cands.len() <= 2);
            let cur = c.cands[c.current];
            for cand in &c.cands {
                assert_eq!((cand.site, cand.row), (cur.site, cur.row));
            }
        }
    }

    #[test]
    fn openm1_pairs_have_overlap_bonus() {
        let (d, cfg) = setup(CellArch::OpenM1);
        let rm = RowMap::build(&d);
        let win = Window {
            site0: 0,
            row0: 0,
            w_sites: d.sites_per_row,
            h_rows: d.num_rows,
        };
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 3, 1, false, &cfg, &Overrides::new());
        assert!(!prob.pairs.is_empty());
        for p in &prob.pairs {
            assert!(p.max_bonus >= cfg.alpha);
        }
    }

    #[test]
    fn pair_index_selects_what_a_full_scan_selects() {
        // Oracle: the scan over every eligible pair of the design that the
        // window build ran per batch before the index existed.
        for arch in [CellArch::ClosedM1, CellArch::OpenM1] {
            let (d, cfg) = setup(arch);
            let all = alignable_pairs(&d, &cfg);
            let index = PairIndex::build(&d, &cfg);
            assert_eq!(index.pairs(), all.pairs.as_slice());
            let rm = RowMap::build(&d);
            let grid = WindowGrid::partition(&d, 0, 0, 40, 4);
            let mut ids = Vec::new();
            let mut batches = 0;
            for win in &grid.windows {
                let movable = WindowProblem::movable_in_window(&d, &rm, win, &Overrides::new());
                for batch in movable.chunks(cfg.max_cells_per_milp) {
                    batch_pairs(&index, batch, &mut ids);
                    let oracle: Vec<usize> = (0..all.len())
                        .filter(|&i| {
                            let (p, q, _) = all.pairs[i];
                            batch.contains(&p.inst) || batch.contains(&q.inst)
                        })
                        .collect();
                    assert_eq!(ids, oracle, "{arch:?} {win:?}");
                    batches += 1;
                }
            }
            assert!(batches > 1, "{arch:?}: {batches} batches");
        }
        let (d, cfg) = setup(CellArch::Conv12T);
        assert!(PairIndex::build(&d, &cfg).pairs().is_empty());
    }

    #[test]
    fn movable_excludes_fixed_and_border_cells() {
        let (mut d, cfg) = setup(CellArch::ClosedM1);
        let _ = &cfg;
        let rm = RowMap::build(&d);
        let win = first_window(&d);
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        assert!(!movable.is_empty());
        let victim = movable[0];
        d.inst_mut(victim).fixed = true;
        let rm2 = RowMap::build(&d);
        let movable2 = WindowProblem::movable_in_window(&d, &rm2, &win, &Overrides::new());
        assert!(!movable2.contains(&victim));
    }
}
