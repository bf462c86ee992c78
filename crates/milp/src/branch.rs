//! Branch-and-bound MILP solver on top of the LP relaxation in [`crate::lp`].
//!
//! Branching strategy:
//!
//! * If the model declares SOS1 groups (the single-cell-placement candidate
//!   sets of the detailed-placement formulations), the group whose LP values
//!   are most fractional is split into two halves by LP weight, and each
//!   child forbids one half. This is exponentially more effective than 0/1
//!   branching on individual candidate variables.
//! * Otherwise the most fractional integer variable is branched floor/ceil.
//!
//! A rounding heuristic at every node tries to snap the LP point to an
//! integer-feasible solution, which provides early incumbents; callers can
//! also supply a warm-start assignment (the current placement, which is
//! always feasible).

use crate::cert::{BranchStep, CertNode, Certificate, NodeOutcome};
use crate::lp::{solve_lp, LpStatus};
use crate::model::{Model, VarId, VarKind};
use crate::presolve::presolve;
use crate::tol::{DEFAULT_ABS_GAP, FEASIBILITY_TOL, INT_TOL};
use vm1_obs::timer::Stopwatch;
use vm1_obs::{Counter, MetricsHandle};

/// Outcome class of a MILP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal solution found.
    Optimal,
    /// A feasible solution was found but optimality was not proven before a
    /// node/time limit.
    Feasible,
    /// The model has no feasible solution.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// No feasible solution found before a node/time limit.
    Unknown,
}

/// Result of a MILP solve.
#[derive(Clone, Debug)]
#[must_use = "a solver result must be inspected for its status"]
pub struct MilpSolution {
    /// Outcome class.
    pub status: Status,
    /// Objective of `values` (+∞ when no solution was found).
    pub objective: f64,
    /// Best assignment found (empty when none).
    pub values: Vec<f64>,
    /// Best proven lower bound on the optimum.
    pub best_bound: f64,
    /// Number of branch-and-bound nodes processed.
    pub nodes: usize,
    /// Nodes cut off without branching (parent-bound prunes before the LP
    /// solve, bound prunes after it, and LP-infeasible children).
    pub nodes_pruned: usize,
    /// LP relaxations solved (node LPs plus rounding-heuristic LPs).
    pub lp_solves: usize,
    /// Simplex pivots performed over all LP solves.
    pub pivots: u64,
}

impl MilpSolution {
    /// Whether a usable assignment is available.
    #[must_use]
    pub fn has_solution(&self) -> bool {
        matches!(self.status, Status::Optimal | Status::Feasible)
    }

    /// Value of `var` in the best assignment.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        assert!(self.has_solution(), "no MILP solution available");
        self.values[var.index()]
    }
}

/// Tunable limits for [`solve`].
#[derive(Clone, Debug)]
pub struct SolveParams {
    /// Maximum branch-and-bound nodes before giving up with the incumbent.
    pub max_nodes: usize,
    /// Wall-clock limit in milliseconds.
    pub time_limit_ms: u64,
    /// Accept incumbents within this absolute gap of the best bound.
    pub abs_gap: f64,
    /// Optional warm-start assignment (full variable vector). If feasible it
    /// seeds the incumbent.
    pub warm_start: Option<Vec<f64>>,
    /// Metrics sinks the solve reports its counters to (disabled by
    /// default; the same statistics are always returned in
    /// [`MilpSolution`]).
    pub metrics: MetricsHandle,
}

impl Default for SolveParams {
    fn default() -> SolveParams {
        SolveParams {
            max_nodes: 100_000,
            time_limit_ms: 60_000,
            abs_gap: DEFAULT_ABS_GAP,
            warm_start: None,
            metrics: MetricsHandle::disabled(),
        }
    }
}

/// Convenience wrapper around [`Solver`].
pub fn solve(model: &Model, params: &SolveParams) -> MilpSolution {
    Solver::new(model, params.clone()).run()
}

/// A solve result together with its replayable [`Certificate`].
#[derive(Clone, Debug)]
#[must_use = "a certified solve must have its certificate checked"]
pub struct CertifiedSolution {
    /// The usual solve result.
    pub solution: MilpSolution,
    /// The recorded search trace for independent verification.
    pub certificate: Certificate,
}

/// Like [`solve`], but records a [`Certificate`] of the search that an
/// independent checker (the `vm1-certify` crate) can verify in exact
/// arithmetic.
pub fn solve_certified(model: &Model, params: &SolveParams) -> CertifiedSolution {
    let mut solver = Solver::new(model, params.clone());
    solver.cert = Some(CertRecorder::default());
    let solution = solver.run_inner();
    let rec = solver.cert.take().unwrap_or_default();
    // Integer coordinates of the incumbent are integral only up to the
    // solver's tolerance; the certificate records them rounded so the
    // checker can demand *exact* integrality.
    let incumbent = if solution.has_solution() {
        let mut vals = solution.values.clone();
        for v in model.integer_vars() {
            vals[v.index()] = vals[v.index()].round();
        }
        Some(vals)
    } else {
        None
    };
    let certificate = Certificate {
        status: solution.status,
        objective: solution.objective,
        best_bound: solution.best_bound,
        abs_gap: solver.params.abs_gap,
        incumbent,
        root_lb: rec.root_lb,
        root_ub: rec.root_ub,
        nodes: rec.nodes,
    };
    CertifiedSolution {
        solution,
        certificate,
    }
}

/// Index meaning "certificate recording disabled" for [`Node::cert_id`].
const NO_CERT: usize = usize::MAX;

/// Accumulates the certificate while the search runs.
#[derive(Default)]
struct CertRecorder {
    nodes: Vec<CertNode>,
    root_lb: Vec<f64>,
    root_ub: Vec<f64>,
}

impl CertRecorder {
    fn push(&mut self, parent: Option<usize>, step: Option<BranchStep>) -> usize {
        self.nodes.push(CertNode {
            parent,
            step,
            outcome: NodeOutcome::Open,
        });
        self.nodes.len() - 1
    }

    fn set_outcome(&mut self, id: usize, outcome: NodeOutcome) {
        if let Some(n) = self.nodes.get_mut(id) {
            n.outcome = outcome;
        }
    }
}

struct Node {
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// LP bound inherited from the parent (for pruning before solving).
    parent_bound: f64,
    depth: usize,
    /// Index of this node in the certificate recorder ([`NO_CERT`] when
    /// recording is disabled).
    cert_id: usize,
}

/// Branch-and-bound engine. Most callers should use [`solve`]; the struct
/// form exists so long-running callers can inspect statistics.
pub struct Solver<'a> {
    model: &'a Model,
    params: SolveParams,
    int_vars: Vec<VarId>,
    incumbent: Option<Vec<f64>>,
    incumbent_obj: f64,
    best_bound: f64,
    nodes: usize,
    nodes_pruned: usize,
    lp_solves: usize,
    pivots: u64,
    cert: Option<CertRecorder>,
}

impl<'a> Solver<'a> {
    /// Creates a solver for `model` with the given limits.
    pub fn new(model: &'a Model, params: SolveParams) -> Solver<'a> {
        Solver {
            model,
            params,
            int_vars: model.integer_vars(),
            incumbent: None,
            incumbent_obj: f64::INFINITY,
            best_bound: f64::NEG_INFINITY,
            nodes: 0,
            nodes_pruned: 0,
            lp_solves: 0,
            pivots: 0,
            cert: None,
        }
    }

    /// Runs branch and bound to completion or to a limit.
    pub fn run(mut self) -> MilpSolution {
        self.run_inner()
    }

    fn run_inner(&mut self) -> MilpSolution {
        let start = Stopwatch::start();

        if let Some(ws) = self.params.warm_start.take() {
            if self.model.is_feasible(&ws, FEASIBILITY_TOL) {
                self.incumbent_obj = self.model.objective_value(&ws);
                self.incumbent = Some(ws);
            }
        }

        // Root presolve: tightened bounds + early infeasibility.
        let pre = presolve(self.model);
        let pre_tightenings = pre.tightenings;
        let pre_redundant = pre.redundant.iter().filter(|&&r| r).count();
        if pre.infeasible {
            if let Some(rec) = &mut self.cert {
                // Record a lone root whose infeasibility the checker
                // re-derives from its own exact presolve replay.
                rec.root_lb = pre.lb.clone();
                rec.root_ub = pre.ub.clone();
                let id = rec.push(None, None);
                rec.set_outcome(id, NodeOutcome::Infeasible { farkas: Vec::new() });
            }
            self.emit_metrics(pre_tightenings, pre_redundant);
            return MilpSolution {
                // A feasible warm start contradicts presolve-infeasible;
                // presolve only proves infeasibility from valid bound
                // arithmetic, so trust the incumbent if one exists.
                status: if self.incumbent.is_some() {
                    Status::Feasible
                } else {
                    Status::Infeasible
                },
                objective: self.incumbent_obj,
                values: self.incumbent.take().unwrap_or_default(),
                best_bound: f64::INFINITY,
                nodes: 0,
                nodes_pruned: 0,
                lp_solves: 0,
                pivots: 0,
            };
        }
        let root_lb: Vec<f64> = pre.lb;
        let root_ub: Vec<f64> = pre.ub;
        let root_cert = match &mut self.cert {
            Some(rec) => {
                rec.root_lb = root_lb.clone();
                rec.root_ub = root_ub.clone();
                rec.push(None, None)
            }
            None => NO_CERT,
        };
        let mut stack = vec![Node {
            lb: root_lb,
            ub: root_ub,
            parent_bound: f64::NEG_INFINITY,
            depth: 0,
            cert_id: root_cert,
        }];
        // Tracks the minimum LP bound over open nodes for `best_bound`.
        let mut saw_limit = false;
        let mut root_status: Option<Status> = None;

        while let Some(node) = stack.pop() {
            if self.nodes >= self.params.max_nodes
                || start.elapsed_ms() >= self.params.time_limit_ms
            {
                saw_limit = true;
                break;
            }
            if node.parent_bound >= self.incumbent_obj - self.params.abs_gap {
                self.nodes_pruned += 1;
                continue;
            }
            self.nodes += 1;

            let mut lp = self.solve_node_lp(&node.lb, &node.ub);
            match lp.status {
                LpStatus::Infeasible => {
                    if node.depth == 0 {
                        root_status = Some(Status::Infeasible);
                    }
                    if let Some(rec) = &mut self.cert {
                        rec.set_outcome(
                            node.cert_id,
                            NodeOutcome::Infeasible {
                                farkas: std::mem::take(&mut lp.farkas),
                            },
                        );
                    }
                    self.nodes_pruned += 1;
                    continue;
                }
                LpStatus::Unbounded => {
                    if node.depth == 0 {
                        root_status = Some(Status::Unbounded);
                    }
                    // Unbounded below a node with an incumbent cannot happen
                    // for bounded-variable models; treat as prune otherwise.
                    self.nodes_pruned += 1;
                    continue;
                }
                LpStatus::IterLimit => {
                    saw_limit = true;
                    continue;
                }
                LpStatus::Optimal => {
                    if let Some(rec) = &mut self.cert {
                        rec.set_outcome(
                            node.cert_id,
                            NodeOutcome::Bounded {
                                duals: std::mem::take(&mut lp.duals),
                            },
                        );
                    }
                }
            }
            if node.depth == 0 {
                self.best_bound = lp.objective;
            }
            if lp.objective >= self.incumbent_obj - self.params.abs_gap {
                self.nodes_pruned += 1;
                continue;
            }

            // Integer feasible?
            let frac_var = self.most_fractional(&lp.values);
            match frac_var {
                None => {
                    // LP point is integral: new incumbent.
                    if lp.objective < self.incumbent_obj {
                        self.incumbent_obj = lp.objective;
                        self.incumbent = Some(lp.values);
                    }
                    continue;
                }
                Some((var, _)) => {
                    // Try rounding heuristic for an early incumbent.
                    if self.incumbent.is_none() {
                        self.try_rounding(&lp.values, &node.lb, &node.ub);
                    }
                    self.branch(node, var, &lp.values, lp.objective, &mut stack);
                }
            }
        }

        let status = if let Some(s) = root_status {
            s
        } else if self.incumbent.is_some() {
            if saw_limit || !stack.is_empty() {
                Status::Feasible
            } else {
                Status::Optimal
            }
        } else if saw_limit || !stack.is_empty() {
            Status::Unknown
        } else {
            Status::Infeasible
        };

        self.emit_metrics(pre_tightenings, pre_redundant);
        MilpSolution {
            status,
            objective: self.incumbent_obj,
            values: self.incumbent.take().unwrap_or_default(),
            best_bound: if status == Status::Optimal {
                self.incumbent_obj
            } else {
                self.best_bound
            },
            nodes: self.nodes,
            nodes_pruned: self.nodes_pruned,
            lp_solves: self.lp_solves,
            pivots: self.pivots,
        }
    }

    /// Solves one LP relaxation, accumulating the solve and pivot counts.
    fn solve_node_lp(&mut self, lb: &[f64], ub: &[f64]) -> crate::lp::LpResult {
        let lp = solve_lp(self.model, Some((lb, ub)));
        self.lp_solves += 1;
        self.pivots += lp.pivots;
        lp
    }

    /// Reports the accumulated counters to the caller's metrics sinks.
    fn emit_metrics(&self, tightenings: usize, redundant: usize) {
        let metrics = &self.params.metrics;
        if !metrics.is_enabled() {
            return;
        }
        metrics.add(Counter::BbNodes, self.nodes as u64);
        metrics.add(Counter::BbNodesPruned, self.nodes_pruned as u64);
        metrics.add(Counter::LpSolves, self.lp_solves as u64);
        metrics.add(Counter::SimplexPivots, self.pivots);
        metrics.add(Counter::PresolveTightenings, tightenings as u64);
        metrics.add(Counter::PresolveRedundantRows, redundant as u64);
    }

    /// Most fractional integer variable at the LP point, if any.
    fn most_fractional(&self, values: &[f64]) -> Option<(VarId, f64)> {
        let mut best: Option<(VarId, f64)> = None;
        for &v in &self.int_vars {
            let x = values[v.index()];
            let frac = (x - x.round()).abs();
            if frac > INT_TOL {
                let score = (x - x.floor() - 0.5).abs(); // smaller = more fractional
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((v, score));
                }
            }
        }
        best
    }

    /// Rounds the LP point (SOS1 groups to their heaviest member, remaining
    /// integers to nearest) and accepts the result if feasible.
    fn try_rounding(&mut self, values: &[f64], lb: &[f64], ub: &[f64]) {
        let mut rounded = values.to_vec();
        for group in &self.model.sos1 {
            // Heaviest member that is still allowed at this node wins.
            let winner = group.iter().filter(|v| ub[v.index()] > 0.5).max_by(|a, b| {
                values[a.index()]
                    .partial_cmp(&values[b.index()])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let Some(&winner) = winner else { return };
            for &v in group {
                rounded[v.index()] = if v == winner { 1.0 } else { 0.0 };
            }
        }
        for &v in &self.int_vars {
            let x = rounded[v.index()].round();
            rounded[v.index()] = x.clamp(lb[v.index()], ub[v.index()]);
        }
        // Re-optimize continuous variables with the integers fixed.
        let mut flb = lb.to_vec();
        let mut fub = ub.to_vec();
        for &v in &self.int_vars {
            flb[v.index()] = rounded[v.index()];
            fub[v.index()] = rounded[v.index()];
        }
        let lp = self.solve_node_lp(&flb, &fub);
        if lp.status == LpStatus::Optimal
            && self.model.is_feasible(&lp.values, FEASIBILITY_TOL)
            && lp.objective < self.incumbent_obj
        {
            self.incumbent_obj = lp.objective;
            self.incumbent = Some(lp.values);
        }
    }

    /// Records a child node in the certificate (no-op when recording is
    /// disabled) and returns its certificate index.
    fn cert_child(&mut self, parent: usize, step: BranchStep) -> usize {
        match &mut self.cert {
            Some(rec) => rec.push(Some(parent), Some(step)),
            None => NO_CERT,
        }
    }

    fn branch(
        &mut self,
        node: Node,
        frac_var: VarId,
        values: &[f64],
        bound: f64,
        stack: &mut Vec<Node>,
    ) {
        // SOS1 branching: if the fractional variable belongs to a group with
        // several active members, split the group by LP weight.
        if let Some((gi, group)) = self
            .model
            .sos1
            .iter()
            .enumerate()
            .find(|(_, g)| g.contains(&frac_var))
        {
            let mut active: Vec<VarId> = group
                .iter()
                .copied()
                .filter(|v| node.ub[v.index()] > 0.5)
                .collect();
            if active.len() >= 2 {
                active.sort_by(|a, b| {
                    values[b.index()]
                        .partial_cmp(&values[a.index()])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let half = active.len().div_ceil(2);
                let (heavy, light) = active.split_at(half);
                let forbid_light: Vec<usize> = light.iter().map(|v| v.index()).collect();
                let forbid_heavy: Vec<usize> = heavy.iter().map(|v| v.index()).collect();

                let mut child_a = Node {
                    lb: node.lb.clone(),
                    ub: node.ub.clone(),
                    parent_bound: bound,
                    depth: node.depth + 1,
                    cert_id: self.cert_child(
                        node.cert_id,
                        BranchStep::ForbidSet {
                            group: gi,
                            vars: forbid_light.clone(),
                        },
                    ),
                };
                for v in &forbid_light {
                    child_a.ub[*v] = 0.0;
                }
                let mut child_b = Node {
                    lb: node.lb,
                    ub: node.ub,
                    parent_bound: bound,
                    depth: node.depth + 1,
                    cert_id: self.cert_child(
                        node.cert_id,
                        BranchStep::ForbidSet {
                            group: gi,
                            vars: forbid_heavy.clone(),
                        },
                    ),
                };
                for v in &forbid_heavy {
                    child_b.ub[*v] = 0.0;
                }
                // DFS explores the heavy half first (pushed last).
                stack.push(child_b);
                stack.push(child_a);
                return;
            }
        }

        // Plain floor/ceil branching.
        let x = values[frac_var.index()];
        let mut down = Node {
            lb: node.lb.clone(),
            ub: node.ub.clone(),
            parent_bound: bound,
            depth: node.depth + 1,
            cert_id: self.cert_child(
                node.cert_id,
                BranchStep::SetUb {
                    var: frac_var.index(),
                    ub: x.floor(),
                },
            ),
        };
        down.ub[frac_var.index()] = x.floor();
        let mut up = Node {
            lb: node.lb,
            ub: node.ub,
            parent_bound: bound,
            depth: node.depth + 1,
            cert_id: self.cert_child(
                node.cert_id,
                BranchStep::SetLb {
                    var: frac_var.index(),
                    lb: x.ceil(),
                },
            ),
        };
        up.lb[frac_var.index()] = x.ceil();
        // Explore the side closer to the LP value first.
        if x - x.floor() > 0.5 {
            stack.push(down);
            stack.push(up);
        } else {
            stack.push(up);
            stack.push(down);
        }
    }
}

// Ensure VarKind is referenced (integer_vars filters on it).
const _: fn() = || {
    let _ = VarKind::Continuous;
};

#[cfg(test)]
#[expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the matrix formulations"
)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn assert_close(a: f64, b: f64) {
        // Relative comparison: window objectives reach 1e9, where an
        // absolute 1e-5 test would be meaninglessly strict.
        assert!(crate::tol::approx_eq_rel(a, b, 1e-6), "{a} != {b}");
    }

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c + 4d st 3a+4b+2c+d <= 7
        let mut m = Model::new();
        let vars: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| m.add_binary(n))
            .collect();
        let weights = [3.0, 4.0, 2.0, 1.0];
        let values = [10.0, 13.0, 7.0, 4.0];
        m.add_le(
            vars.iter()
                .zip(&weights)
                .map(|(&v, &w)| (v, w))
                .collect::<Vec<_>>(),
            7.0,
        );
        m.set_objective(
            vars.iter()
                .zip(&values)
                .map(|(&v, &p)| (v, -p))
                .collect::<Vec<_>>(),
        );
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Optimal);
        // best: b + c + d = 13+7+4 = 24 (weight 7)
        assert_close(sol.objective, -24.0);
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix with known optimum 1+2+3 = 6 on the diagonal.
        let cost = [[1.0, 9.0, 9.0], [9.0, 2.0, 9.0], [9.0, 9.0, 3.0]];
        let mut m = Model::new();
        let mut x = vec![vec![]; 3];
        for i in 0..3 {
            for j in 0..3 {
                x[i].push(m.add_binary(&format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            m.add_eq(x[i].iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), 1.0);
            m.add_eq((0..3).map(|r| (x[r][i], 1.0)).collect::<Vec<_>>(), 1.0);
            m.add_sos1(x[i].clone());
        }
        let mut obj = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.push((x[i][j], cost[i][j]));
            }
        }
        m.set_objective(obj);
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 6.0);
        assert_close(sol.value(x[0][0]), 1.0);
        assert_close(sol.value(x[1][1]), 1.0);
        assert_close(sol.value(x[2][2]), 1.0);
    }

    #[test]
    fn big_m_indicator() {
        // Classic indicator: x <= 10*d, maximize x - 3*d with x in [0, 7].
        // d=1,x=7 gives 4; d=0,x=0 gives 0. Optimal -4 in min form.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 7.0);
        let d = m.add_binary("d");
        m.add_le([(x, 1.0), (d, -10.0)], 0.0);
        m.set_objective([(x, -1.0), (d, 3.0)]);
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, -4.0);
        assert_close(sol.value(d), 1.0);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_ge([(a, 1.0), (b, 1.0)], 3.0);
        m.set_objective([(a, 1.0)]);
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Infeasible);
        assert!(!sol.has_solution());
    }

    #[test]
    fn integer_variable_branching() {
        // min -k st 3k <= 10, k integer in [0, 10] => k = 3.
        let mut m = Model::new();
        let k = m.add_integer("k", 0, 10);
        m.add_le([(k, 3.0)], 10.0);
        m.set_objective([(k, -1.0)]);
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.value(k), 3.0);
    }

    #[test]
    fn warm_start_is_used_as_incumbent() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_le([(a, 1.0), (b, 1.0)], 1.0);
        m.set_objective([(a, -2.0), (b, -1.0)]);
        let params = SolveParams {
            warm_start: Some(vec![0.0, 1.0]),
            max_nodes: 0, // no search at all: only the warm start survives
            ..SolveParams::default()
        };
        let sol = solve(&m, &params);
        assert_eq!(sol.status, Status::Feasible);
        assert_close(sol.objective, -1.0);
    }

    #[test]
    fn node_limit_reports_feasible_not_optimal() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|i| m.add_binary(&format!("v{i}"))).collect();
        let w: Vec<f64> = (0..12).map(|i| ((i * 7) % 5 + 1) as f64).collect();
        m.add_le(
            vars.iter()
                .zip(&w)
                .map(|(&v, &wi)| (v, wi))
                .collect::<Vec<_>>(),
            17.0,
        );
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, -((i % 4 + 1) as f64)))
                .collect::<Vec<_>>(),
        );
        let params = SolveParams {
            max_nodes: 3,
            ..SolveParams::default()
        };
        let sol = solve(&m, &params);
        // With only 3 nodes the rounding heuristic should still find something.
        assert!(matches!(
            sol.status,
            Status::Feasible | Status::Unknown | Status::Optimal
        ));
    }

    #[test]
    fn sos1_model_solves_exactly() {
        // Pick one "position" per "cell" from 3 candidates each; forbid
        // conflicting pairs; minimize candidate costs. Brute-force verified.
        let costs = [[3.0, 1.0, 2.0], [2.0, 2.5, 0.5]];
        // conflict: cell0-cand1 conflicts with cell1-cand2
        let mut m = Model::new();
        let mut lam = vec![vec![]; 2];
        for c in 0..2 {
            for k in 0..3 {
                lam[c].push(m.add_binary(&format!("l{c}{k}")));
            }
            m.add_eq(lam[c].iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), 1.0);
            m.add_sos1(lam[c].clone());
        }
        m.add_le([(lam[0][1], 1.0), (lam[1][2], 1.0)], 1.0);
        let mut obj = Vec::new();
        for c in 0..2 {
            for k in 0..3 {
                obj.push((lam[c][k], costs[c][k]));
            }
        }
        m.set_objective(obj);
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Optimal);

        // Brute force.
        let mut best = f64::INFINITY;
        for a in 0..3 {
            for b in 0..3 {
                if a == 1 && b == 2 {
                    continue;
                }
                best = best.min(costs[0][a] + costs[1][b]);
            }
        }
        assert_close(sol.objective, best);
    }

    #[test]
    fn solve_stats_are_populated_and_reported() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;

        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|i| m.add_binary(&format!("v{i}"))).collect();
        let w: Vec<f64> = (0..8).map(|i| ((i * 3) % 5 + 1) as f64).collect();
        m.add_le(
            vars.iter()
                .zip(&w)
                .map(|(&v, &wi)| (v, wi))
                .collect::<Vec<_>>(),
            9.0,
        );
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, -((i % 3 + 1) as f64)))
                .collect::<Vec<_>>(),
        );
        let sink = Arc::new(Telemetry::new());
        let params = SolveParams {
            metrics: MetricsHandle::of(sink.clone()),
            ..SolveParams::default()
        };
        let sol = solve(&m, &params);
        assert_eq!(sol.status, Status::Optimal);
        assert!(sol.nodes >= 1);
        assert!(sol.lp_solves >= sol.nodes);
        assert!(sol.pivots >= 1);
        // The metrics sink saw exactly the returned statistics.
        let r = sink.report();
        assert_eq!(r.counter(Counter::BbNodes), sol.nodes as u64);
        assert_eq!(r.counter(Counter::BbNodesPruned), sol.nodes_pruned as u64);
        assert_eq!(r.counter(Counter::LpSolves), sol.lp_solves as u64);
        assert_eq!(r.counter(Counter::SimplexPivots), sol.pivots);
    }

    #[test]
    fn equality_only_binary_system() {
        // a + b == 1, b + c == 1, minimize a + c. Optimal: b=1, a=c=0.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_eq([(a, 1.0), (b, 1.0)], 1.0);
        m.add_eq([(b, 1.0), (c, 1.0)], 1.0);
        m.set_objective([(a, 1.0), (c, 1.0)]);
        let sol = solve(&m, &SolveParams::default());
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 0.0);
        assert_close(sol.value(b), 1.0);
    }
}
