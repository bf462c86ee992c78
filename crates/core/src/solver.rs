//! Window solvers: exact DFS branch-and-bound, faithful MILP, and greedy.
//!
//! All three consume a [`WindowProblem`] and return a candidate assignment
//! that is legal and no worse than the input placement. The DFS and MILP
//! solvers find the same optimum (cross-checked in tests); the DFS solver
//! exploits the fact that every auxiliary MILP variable (net bounds,
//! `d_pq`, `o_pq`) is uniquely determined by the λ assignment, so the
//! search space is just one candidate choice per cell with admissible
//! bounds.

use crate::milp::{build_milp, extract_assignment, warm_start};
use crate::problem::{End, WindowProblem};
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
/// ([`Counter::DfsNodes`], [`Counter::GreedyPasses`], the MILP family) and
/// the MILP build/solve stage timers.
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
            let (assign, nodes) = dfs_solve_counted(prob, cfg.max_nodes);
            metrics.add(Counter::DfsNodes, nodes as u64);
            assign
        }
        SolverKind::Milp => milp_window_solve_with(prob, cfg, metrics),
        SolverKind::Greedy => {
            let (assign, passes) = greedy_solve_counted(prob, 4);
            metrics.add(Counter::GreedyPasses, passes as u64);
            assign
        }
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
    // Pre-solve checkpoint: the emitted window model must lint clean of
    // structural errors (infeasible bounds, malformed SOS1 groups).
    #[cfg(debug_assertions)]
    {
        let lint = vm1_milp::audit::audit_with(&model, metrics);
        assert!(
            !lint.has_errors(),
            "window MILP failed the model lint:\n{}",
            lint.summary()
        );
    }
    let cur = prob.current_assign();
    let params = SolveParams {
        max_nodes: cfg.max_nodes,
        time_limit_ms: 30_000,
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

struct DfsState<'a> {
    prob: &'a WindowProblem,
    /// Cell order (most constrained first).
    order: Vec<usize>,
    assign: Vec<usize>,
    best_assign: Vec<usize>,
    best_obj: f64,
    nodes: usize,
    max_nodes: usize,
    /// Per pair: number of movable, not-yet-assigned endpoints.
    pair_open: Vec<u8>,
    /// Sum of max_bonus over open pairs (admissible bonus bound).
    open_bonus: f64,
    /// Bonus collected from decided pairs.
    done_bonus: f64,
    /// Per net: current bbox (fixed ∪ assigned pins) and its HPWL.
    net_bb: Vec<Option<(i64, i64, i64, i64)>>,
    hpwl_partial: f64,
    /// Which pairs/nets touch each cell.
    cell_pairs: Vec<Vec<usize>>,
    cell_nets: Vec<Vec<usize>>,
    /// Spans of assigned cells for legality.
    spans: Vec<Option<(i64, i64, i64)>>,
}

/// Exact branch-and-bound over candidate assignments.
#[must_use]
pub fn dfs_solve(prob: &WindowProblem, max_nodes: usize) -> Vec<usize> {
    dfs_solve_counted(prob, max_nodes).0
}

/// [`dfs_solve`] also returning the number of search nodes explored.
fn dfs_solve_counted(prob: &WindowProblem, max_nodes: usize) -> (Vec<usize>, usize) {
    let n = prob.cells.len();
    let cur = prob.current_assign();

    // Cell → pairs / nets indices.
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
    let mut cell_nets = vec![Vec::new(); n];
    for (ni, net) in prob.nets.iter().enumerate() {
        for &(cell, _) in &net.movable {
            if !cell_nets[cell].contains(&ni) {
                cell_nets[cell].push(ni);
            }
        }
    }

    let open_bonus: f64 = prob.pairs.iter().map(|p| p.max_bonus).sum();
    let net_bb: Vec<Option<(i64, i64, i64, i64)>> = prob.nets.iter().map(|nt| nt.fixed).collect();
    let hpwl_partial: f64 = prob
        .nets
        .iter()
        .map(|nt| {
            nt.fixed.map_or(0.0, |(x0, y0, x1, y1)| {
                nt.weight * ((x1 - x0) + (y1 - y0)) as f64
            })
        })
        .sum();

    // Order: most constrained (fewest candidates) first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| prob.cells[c].cands.len());

    let mut st = DfsState {
        prob,
        order,
        assign: cur.clone(),
        best_assign: cur.clone(),
        best_obj: prob.eval(&cur),
        nodes: 0,
        max_nodes,
        pair_open,
        open_bonus,
        done_bonus: 0.0,
        net_bb,
        hpwl_partial,
        cell_pairs,
        cell_nets,
        spans: vec![None; n],
    };
    dfs_recurse(&mut st, 0);
    let nodes = st.nodes;
    (st.best_assign, nodes)
}

fn dfs_recurse(st: &mut DfsState<'_>, depth: usize) {
    if st.nodes >= st.max_nodes {
        return;
    }
    if depth == st.order.len() {
        let obj = st.hpwl_partial - st.done_bonus;
        if obj < st.best_obj - 1e-9 {
            st.best_obj = obj;
            st.best_assign = st.assign.clone();
        }
        return;
    }
    let cell = st.order[depth];
    let n_cands = st.prob.cells[cell].cands.len();

    // Candidate order: cheapest local cost first for early incumbents.
    let mut cand_order: Vec<(f64, usize)> = (0..n_cands)
        .map(|k| (local_score(st, cell, k), k))
        .collect();
    cand_order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    for (_, k) in cand_order {
        st.nodes += 1;
        if st.nodes >= st.max_nodes {
            return;
        }
        let cand = st.prob.cells[cell].cands[k];
        // Legality against assigned cells.
        let span = (cand.row, cand.site, cand.site + st.prob.cells[cell].width);
        let clash = st
            .spans
            .iter()
            .flatten()
            .any(|&(r, s0, s1)| r == span.0 && s1 > span.1 && span.2 > s0);
        if clash {
            continue;
        }

        // ---- apply -----------------------------------------------------
        st.assign[cell] = k;
        st.spans[cell] = Some(span);
        #[expect(
            clippy::type_complexity,
            reason = "(net, old bbox, old weighted HPWL) undo records"
        )]
        let mut undo_bb: Vec<(usize, Option<(i64, i64, i64, i64)>, f64)> = Vec::new();
        for &ni in &st.cell_nets[cell].clone() {
            let net = &st.prob.nets[ni];
            let old = st.net_bb[ni];
            let old_hp = old.map_or(0.0, |(x0, y0, x1, y1)| {
                net.weight * ((x1 - x0) + (y1 - y0)) as f64
            });
            // Grow by every pin of this cell on this net.
            let mut bb = old;
            for &(c2, slot) in &net.movable {
                if c2 == cell {
                    let g = st.prob.pin_geo[cell][k][slot];
                    bb = Some(match bb {
                        None => (g.x, g.y, g.x, g.y),
                        Some((x0, y0, x1, y1)) => {
                            (x0.min(g.x), y0.min(g.y), x1.max(g.x), y1.max(g.y))
                        }
                    });
                }
            }
            let new_hp = bb.map_or(0.0, |(x0, y0, x1, y1)| {
                net.weight * ((x1 - x0) + (y1 - y0)) as f64
            });
            st.net_bb[ni] = bb;
            st.hpwl_partial += new_hp - old_hp;
            undo_bb.push((ni, old, old_hp - new_hp));
        }
        let mut undo_pairs: Vec<(usize, f64)> = Vec::new();
        for &pi in &st.cell_pairs[cell].clone() {
            st.pair_open[pi] -= 1;
            if st.pair_open[pi] == 0 {
                // Pair decided: replace potential with actual bonus.
                let actual = st.prob.pair_bonus(&st.prob.pairs[pi], &st.assign);
                st.open_bonus -= st.prob.pairs[pi].max_bonus;
                st.done_bonus += actual;
                undo_pairs.push((pi, actual));
            }
        }

        // ---- bound & recurse ---------------------------------------------
        let bound = st.hpwl_partial - st.done_bonus - st.open_bonus;
        if bound < st.best_obj - 1e-9 {
            dfs_recurse(st, depth + 1);
        }

        // ---- undo ---------------------------------------------------------
        for (pi, actual) in undo_pairs.into_iter().rev() {
            st.done_bonus -= actual;
            st.open_bonus += st.prob.pairs[pi].max_bonus;
        }
        for &pi in &st.cell_pairs[cell] {
            st.pair_open[pi] += 1;
        }
        for (ni, old, hp_delta) in undo_bb.into_iter().rev() {
            st.net_bb[ni] = old;
            st.hpwl_partial += hp_delta;
        }
        st.spans[cell] = None;
    }
    st.assign[cell] = st.prob.cells[cell].current;
}

/// Heuristic per-candidate score used only for move ordering.
fn local_score(st: &DfsState<'_>, cell: usize, k: usize) -> f64 {
    let prob = st.prob;
    let mut score = 0.0;
    for &ni in &st.cell_nets[cell] {
        let net = &prob.nets[ni];
        let mut bb = st.net_bb[ni];
        for &(c2, slot) in &net.movable {
            if c2 == cell {
                let g = prob.pin_geo[cell][k][slot];
                bb = Some(match bb {
                    None => (g.x, g.y, g.x, g.y),
                    Some((x0, y0, x1, y1)) => (x0.min(g.x), y0.min(g.y), x1.max(g.x), y1.max(g.y)),
                });
            }
        }
        score += bb.map_or(0.0, |(x0, y0, x1, y1)| {
            net.weight * ((x1 - x0) + (y1 - y0)) as f64
        });
    }
    // Reward candidates that immediately decide pairs favourably.
    for &pi in &st.cell_pairs[cell] {
        if st.pair_open[pi] == 1 {
            let mut tmp = st.assign.clone();
            tmp[cell] = k;
            score -= prob.pair_bonus(&prob.pairs[pi], &tmp);
        }
    }
    score
}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// Greedy coordinate descent: repeatedly give each cell its locally best
/// candidate. Baseline/ablation engine.
#[must_use]
pub fn greedy_solve(prob: &WindowProblem, passes: usize) -> Vec<usize> {
    greedy_solve_counted(prob, passes).0
}

/// [`greedy_solve`] also returning the number of passes executed.
fn greedy_solve_counted(prob: &WindowProblem, passes: usize) -> (Vec<usize>, usize) {
    let mut assign = prob.current_assign();
    let mut executed = 0usize;
    for _ in 0..passes {
        executed += 1;
        let mut improved = false;
        for cell in 0..prob.cells.len() {
            let mut best_k = assign[cell];
            let mut best_v = prob.eval(&assign);
            let orig = assign[cell];
            for k in 0..prob.cells[cell].cands.len() {
                if k == orig {
                    continue;
                }
                assign[cell] = k;
                if prob.is_legal(&assign) {
                    let v = prob.eval(&assign);
                    if v < best_v - 1e-9 {
                        best_v = v;
                        best_k = k;
                    }
                }
            }
            assign[cell] = best_k;
            improved |= best_k != orig;
        }
        if !improved {
            break;
        }
    }
    (assign, executed)
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
    fn greedy_never_worse_than_input() {
        let prob = problem(CellArch::ClosedM1, 5, 5);
        let cur = prob.current_assign();
        let greedy = greedy_solve(&prob, 4);
        assert!(prob.is_legal(&greedy));
        assert!(prob.eval(&greedy) <= prob.eval(&cur) + 1e-9);
    }

    #[test]
    fn dfs_improves_or_equals_greedy() {
        let prob = problem(CellArch::ClosedM1, 5, 6);
        let dfs = dfs_solve(&prob, 1_000_000);
        let greedy = greedy_solve(&prob, 4);
        assert!(prob.eval(&dfs) <= prob.eval(&greedy) + 1e-9);
    }

    #[test]
    fn solve_window_dispatch_respects_safety_net() {
        let prob = problem(CellArch::ClosedM1, 5, 7);
        for kind in [SolverKind::Dfs, SolverKind::Milp, SolverKind::Greedy] {
            let cfg = Vm1Config::closedm1().with_solver(kind);
            let a = solve_window(&prob, &cfg);
            assert!(prob.is_legal(&a), "{kind:?}");
            assert!(prob.eval(&a) <= prob.eval(&prob.current_assign()) + 1e-9);
        }
    }

    #[test]
    fn node_cap_still_returns_legal() {
        let prob = problem(CellArch::ClosedM1, 6, 8);
        let a = dfs_solve(&prob, 10); // absurdly small budget
        assert!(prob.is_legal(&a));
        assert!(prob.eval(&a) <= prob.eval(&prob.current_assign()) + 1e-9);
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
