//! Linear-programming relaxation solver: a dense, two-phase,
//! bounded-variable primal simplex with an explicitly maintained basis
//! inverse.
//!
//! The solver requires every structural variable to have a finite lower
//! bound (upper bounds may be infinite), which the workspace's placement
//! formulations always satisfy. Constraints of any sense are normalized to
//! equalities with slack variables; infeasible starting rows receive
//! artificial variables that phase 1 drives to zero.

//
// The simplex kernel walks parallel dense arrays (x, basis, binv, w) by
// row index; zipped iterators would obscure the linear algebra.
#![expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the tableau formulation"
)]
use crate::model::{ConstraintSense, Model};
use crate::tol::{
    COST_TOL, FEAS_TOL, PHASE1_INFEAS_TOL, PIVOT_MIN, PIVOT_SKIP_TOL, RATIO_TIE_TOL,
    STALL_IMPROVE_TOL,
};

/// Outcome class of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimum found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration limit hit before convergence (treat as failure).
    IterLimit,
}

/// Result of [`solve_lp`].
#[derive(Clone, Debug)]
pub struct LpResult {
    /// Outcome class.
    pub status: LpStatus,
    /// Objective value (meaningful only when `status` is `Optimal`).
    pub objective: f64,
    /// Values of the model's structural variables (empty unless `Optimal`).
    pub values: Vec<f64>,
    /// Row duals at the optimal basis, one per original model constraint
    /// (empty unless `Optimal`). Sign convention of the original row
    /// orientation: `<= 0` on `Le` rows, `>= 0` on `Ge` rows, free on `Eq`
    /// rows (up to [`crate::tol::COST_TOL`] drift). Any such vector is a
    /// weak-duality witness: `y·b + Σ_j min(d_j·l_j, d_j·u_j)` with reduced
    /// costs `d = c − yᵀA` lower-bounds the LP optimum.
    pub duals: Vec<f64>,
    /// Farkas-style infeasibility witness, one entry per original model
    /// constraint (empty unless `Infeasible` was proven by phase 1). Same
    /// sign convention as `duals`; evaluating the weak-duality bound with a
    /// zero objective yields a strictly positive value, contradicting
    /// feasibility.
    pub farkas: Vec<f64>,
    /// Simplex pivots performed over both phases (basis changes and bound
    /// flips).
    pub pivots: u64,
}

impl LpResult {
    fn of(status: LpStatus, objective: f64, pivots: u64) -> LpResult {
        LpResult {
            status,
            objective,
            values: Vec::new(),
            duals: Vec::new(),
            farkas: Vec::new(),
            pivots,
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped).
///
/// `bounds` optionally overrides the per-variable `(lower, upper)` bounds —
/// this is how branch-and-bound fixes and tightens variables without
/// rebuilding the model.
///
/// # Panics
///
/// Panics if `bounds` arrays do not match the variable count or contain a
/// non-finite lower bound.
#[must_use]
pub fn solve_lp(model: &Model, bounds: Option<(&[f64], &[f64])>) -> LpResult {
    let n_struct = model.num_vars();
    let (lb_s, ub_s): (Vec<f64>, Vec<f64>) = match bounds {
        Some((lb, ub)) => {
            assert_eq!(lb.len(), n_struct, "bounds arity mismatch");
            assert_eq!(ub.len(), n_struct, "bounds arity mismatch");
            (lb.to_vec(), ub.to_vec())
        }
        None => (
            model.vars.iter().map(|v| v.lb).collect(),
            model.vars.iter().map(|v| v.ub).collect(),
        ),
    };
    for (i, &l) in lb_s.iter().enumerate() {
        assert!(l.is_finite(), "variable {i} has non-finite lower bound");
        if l > ub_s[i] + FEAS_TOL {
            // Bound contradiction: infeasible with no Farkas row witness
            // (the certificate checker validates this case from the bound
            // vectors directly).
            return LpResult::of(LpStatus::Infeasible, f64::INFINITY, 0);
        }
    }

    let mut sx = Simplex::build(model, &lb_s, &ub_s);
    sx.run()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

struct Simplex {
    m: usize,
    n: usize, // total columns: structural + slacks + artificials
    n_struct: usize,
    cols: Vec<Vec<(usize, f64)>>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    x: Vec<f64>,
    stat: Vec<VStat>,
    basis: Vec<usize>,
    binv: Vec<Vec<f64>>,
    cost: Vec<f64>, // phase-2 (real) cost
    /// Per-row orientation applied during normalization (−1 where a `Ge`
    /// row was negated to `Le`); maps duals back to the original rows.
    flip: Vec<f64>,
    n_artificial: usize,
    pivots: u64,
}

impl Simplex {
    fn build(model: &Model, lb_s: &[f64], ub_s: &[f64]) -> Simplex {
        let m = model.num_constraints();
        let n_struct = model.num_vars();

        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_struct];
        let mut lb = lb_s.to_vec();
        let mut ub = ub_s.to_vec();
        let mut cost = model.objective.clone();
        let mut rhs = vec![0.0; m];
        let mut flips = vec![1.0; m];

        for (i, con) in model.constraints.iter().enumerate() {
            // Normalize Ge to Le by negation so every slack is >= 0.
            let flip = if con.sense == ConstraintSense::Ge {
                -1.0
            } else {
                1.0
            };
            flips[i] = flip;
            rhs[i] = con.rhs * flip;
            // Merge duplicate terms while scattering into columns.
            for &(v, c) in &con.expr.terms {
                let col = &mut cols[v.0];
                if let Some(last) = col.last_mut() {
                    if last.0 == i {
                        last.1 += c * flip;
                        continue;
                    }
                }
                col.push((i, c * flip));
            }
        }

        // Slack per row.
        let slack0 = n_struct;
        for i in 0..m {
            cols.push(vec![(i, 1.0)]);
            let eq = model.constraints[i].sense == ConstraintSense::Eq;
            lb.push(0.0);
            ub.push(if eq { 0.0 } else { f64::INFINITY });
            cost.push(0.0);
        }

        // Initial nonbasic values: bound nearest zero.
        let mut x = vec![0.0; slack0 + m];
        let mut stat = vec![VStat::AtLower; slack0 + m];
        for j in 0..n_struct {
            if ub[j].is_finite() && ub[j].abs() < lb[j].abs() {
                x[j] = ub[j];
                stat[j] = VStat::AtUpper;
            } else {
                x[j] = lb[j];
                stat[j] = VStat::AtLower;
            }
        }

        // Row residuals with all structural vars at their initial bounds.
        let mut resid = rhs.clone();
        for j in 0..n_struct {
            if x[j] != 0.0 {
                for &(i, a) in &cols[j] {
                    resid[i] -= a * x[j];
                }
            }
        }

        let mut basis = vec![usize::MAX; m];
        let mut binv: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                let mut row = vec![0.0; m];
                row[i] = 1.0;
                row
            })
            .collect();
        let mut n_artificial = 0;

        for i in 0..m {
            let s = slack0 + i;
            let s_val = resid[i].clamp(lb[s], ub[s]);
            if (s_val - resid[i]).abs() <= FEAS_TOL {
                // Slack can absorb the residual: make it basic.
                basis[i] = s;
                x[s] = resid[i];
                stat[s] = VStat::Basic;
            } else {
                // Row infeasible at the initial point: slack nonbasic at its
                // clamped bound, artificial basic with the leftover.
                x[s] = s_val;
                stat[s] = if s_val <= lb[s] + FEAS_TOL {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                };
                let leftover = resid[i] - s_val;
                let sigma = if leftover >= 0.0 { 1.0 } else { -1.0 };
                let a = cols.len();
                cols.push(vec![(i, sigma)]);
                lb.push(0.0);
                ub.push(f64::INFINITY);
                cost.push(0.0);
                x.push(leftover.abs());
                stat.push(VStat::Basic);
                basis[i] = a;
                // Basis column is sigma * e_i, so its inverse row is sigma * e_i.
                binv[i][i] = sigma;
                n_artificial += 1;
            }
        }

        Simplex {
            m,
            n: cols.len(),
            n_struct,
            cols,
            lb,
            ub,
            x,
            stat,
            basis,
            binv,
            cost,
            flip: flips,
            n_artificial,
            pivots: 0,
        }
    }

    /// Row duals `y = c_B' B^{-1}` of the current basis under `cost`,
    /// mapped back to the original row orientation.
    fn row_duals(&self, cost: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for (k, &bvar) in self.basis.iter().enumerate() {
            let cb = cost[bvar];
            if cb != 0.0 {
                let row = &self.binv[k];
                for i in 0..self.m {
                    y[i] += cb * row[i];
                }
            }
        }
        for (i, v) in y.iter_mut().enumerate() {
            *v *= self.flip[i];
        }
        y
    }

    fn run(&mut self) -> LpResult {
        if self.n_artificial > 0 {
            // Phase 1: minimize the sum of artificials.
            let mut c1 = vec![0.0; self.n];
            for j in (self.n - self.n_artificial)..self.n {
                c1[j] = 1.0;
            }
            match self.optimize(&c1) {
                InnerStatus::Optimal => {}
                InnerStatus::Unbounded => unreachable!("phase-1 objective is bounded below by 0"),
                InnerStatus::IterLimit => {
                    return LpResult::of(LpStatus::IterLimit, f64::NAN, self.pivots);
                }
            }
            let infeas: f64 = ((self.n - self.n_artificial)..self.n)
                .map(|j| self.x[j])
                .sum();
            if infeas > PHASE1_INFEAS_TOL {
                // The phase-1 dual at its optimum is a Farkas witness for
                // the original rows: with a zero objective its weak-duality
                // bound equals the (positive) residual infeasibility.
                let mut out = LpResult::of(LpStatus::Infeasible, f64::INFINITY, self.pivots);
                out.farkas = self.row_duals(&c1);
                return out;
            }
            // Pin artificials to zero for phase 2.
            for j in (self.n - self.n_artificial)..self.n {
                self.ub[j] = 0.0;
                if self.stat[j] != VStat::Basic {
                    self.x[j] = 0.0;
                    self.stat[j] = VStat::AtLower;
                }
            }
        }

        let c2 = self.cost.clone();
        let status = match self.optimize(&c2) {
            InnerStatus::Optimal => LpStatus::Optimal,
            InnerStatus::Unbounded => LpStatus::Unbounded,
            InnerStatus::IterLimit => LpStatus::IterLimit,
        };
        if status != LpStatus::Optimal {
            let objective = if status == LpStatus::Unbounded {
                f64::NEG_INFINITY
            } else {
                f64::NAN
            };
            return LpResult::of(status, objective, self.pivots);
        }
        let values: Vec<f64> = self.x[..self.n_struct].to_vec();
        let objective = values
            .iter()
            .zip(&self.cost[..self.n_struct])
            .map(|(x, c)| x * c)
            .sum();
        let mut out = LpResult::of(LpStatus::Optimal, objective, self.pivots);
        out.values = values;
        out.duals = self.row_duals(&c2);
        out
    }

    /// Primal simplex inner loop for a given cost vector.
    fn optimize(&mut self, cost: &[f64]) -> InnerStatus {
        let iter_limit = 200 * (self.m + self.n) + 2000;
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;

        for _ in 0..iter_limit {
            // y = c_B' B^{-1}
            let mut y = vec![0.0; self.m];
            for (k, &bvar) in self.basis.iter().enumerate() {
                let cb = cost[bvar];
                if cb != 0.0 {
                    let row = &self.binv[k];
                    for i in 0..self.m {
                        y[i] += cb * row[i];
                    }
                }
            }

            // Pricing.
            let mut enter: Option<(usize, f64, f64)> = None; // (var, |d|, dir)
            for j in 0..self.n {
                match self.stat[j] {
                    VStat::Basic => continue,
                    VStat::AtLower | VStat::AtUpper => {}
                }
                // Fixed variables can never move.
                if self.ub[j] - self.lb[j] <= FEAS_TOL {
                    continue;
                }
                let mut d = cost[j];
                for &(i, a) in &self.cols[j] {
                    d -= y[i] * a;
                }
                let (favorable, dir) = match self.stat[j] {
                    VStat::AtLower => (d < -COST_TOL, 1.0),
                    VStat::AtUpper => (d > COST_TOL, -1.0),
                    VStat::Basic => unreachable!(),
                };
                if favorable {
                    if bland {
                        enter = Some((j, d.abs(), dir));
                        break;
                    }
                    if enter.is_none_or(|(_, mag, _)| d.abs() > mag) {
                        enter = Some((j, d.abs(), dir));
                    }
                }
            }

            let Some((j, _, dir)) = enter else {
                return InnerStatus::Optimal;
            };

            // Direction w = B^{-1} A_j.
            let mut w = vec![0.0; self.m];
            for &(i, a) in &self.cols[j] {
                for k in 0..self.m {
                    w[k] += self.binv[k][i] * a;
                }
            }

            // Ratio test: x_B(k) changes at rate g_k = -dir * w_k per unit t.
            let mut t_best = if self.ub[j].is_finite() {
                self.ub[j] - self.lb[j]
            } else {
                f64::INFINITY
            };
            let mut leave: Option<(usize, VStat)> = None; // (row, bound hit)
            let mut leave_g = 0.0f64; // |g| of the current leaving candidate
            for k in 0..self.m {
                let g = -dir * w[k];
                let bvar = self.basis[k];
                let (t, hit) = if g > FEAS_TOL {
                    if !self.ub[bvar].is_finite() {
                        continue;
                    }
                    ((self.ub[bvar] - self.x[bvar]) / g, VStat::AtUpper)
                } else if g < -FEAS_TOL {
                    ((self.x[bvar] - self.lb[bvar]) / (-g), VStat::AtLower)
                } else {
                    continue;
                };
                // Strictly smaller ratio wins; on ties prefer the larger
                // |pivot| for numerical stability.
                if t < t_best - RATIO_TIE_TOL || (t < t_best + RATIO_TIE_TOL && g.abs() > leave_g) {
                    t_best = t.max(0.0);
                    leave = Some((k, hit));
                    leave_g = g.abs();
                }
            }

            if t_best.is_infinite() {
                return InnerStatus::Unbounded;
            }

            // Apply the move (each applied move — basis change or bound
            // flip — counts as one pivot).
            self.pivots += 1;
            for k in 0..self.m {
                let g = -dir * w[k];
                let bvar = self.basis[k];
                self.x[bvar] += g * t_best;
            }
            self.x[j] += dir * t_best;

            match leave {
                None => {
                    // Bound flip of the entering variable.
                    self.stat[j] = if dir > 0.0 {
                        VStat::AtUpper
                    } else {
                        VStat::AtLower
                    };
                    self.x[j] = if dir > 0.0 { self.ub[j] } else { self.lb[j] };
                }
                Some((r, hit)) => {
                    let old = self.basis[r];
                    self.stat[old] = hit;
                    self.x[old] = match hit {
                        VStat::AtLower => self.lb[old],
                        VStat::AtUpper => self.ub[old],
                        VStat::Basic => unreachable!(),
                    };
                    self.basis[r] = j;
                    self.stat[j] = VStat::Basic;
                    // Pivot the inverse on w_r.
                    let piv = w[r];
                    debug_assert!(piv.abs() > PIVOT_MIN, "pivot too small: {piv}");
                    let inv_piv = 1.0 / piv;
                    for i in 0..self.m {
                        self.binv[r][i] *= inv_piv;
                    }
                    for k in 0..self.m {
                        if k != r && w[k].abs() > PIVOT_SKIP_TOL {
                            let f = w[k];
                            for i in 0..self.m {
                                self.binv[k][i] -= f * self.binv[r][i];
                            }
                        }
                    }
                }
            }

            // Cycling watchdog: if the objective stops improving, switch to
            // Bland's rule, which guarantees termination.
            let obj: f64 = (0..self.n).map(|v| cost[v] * self.x[v]).sum();
            if obj < last_obj - STALL_IMPROVE_TOL {
                stall = 0;
                bland = false;
            } else {
                stall += 1;
                if stall > 2 * self.m + 20 {
                    bland = true;
                }
            }
            last_obj = obj;
        }
        InnerStatus::IterLimit
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InnerStatus {
    Optimal,
    Unbounded,
    IterLimit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_2d_lp() {
        // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_le([(x, 1.0), (y, 1.0)], 4.0);
        m.set_objective([(x, -1.0), (y, -2.0)]);
        let r = solve_lp(&m, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -6.0);
        assert_close(r.values[0], 2.0);
        assert_close(r.values[1], 2.0);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min x + y  s.t. x + y >= 3, x - y == 1, 0 <= x,y <= 10
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 3.0);
        m.add_eq([(x, 1.0), (y, -1.0)], 1.0);
        m.set_objective([(x, 1.0), (y, 1.0)]);
        let r = solve_lp(&m, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 3.0);
        assert_close(r.values[0], 2.0);
        assert_close(r.values[1], 1.0);
    }

    #[test]
    fn infeasible_lp() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_ge([(x, 1.0)], 2.0);
        m.set_objective([(x, 1.0)]);
        assert_eq!(solve_lp(&m, None).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_lp() {
        // min -s where s is a <=-slack-like free growth: x <= inf upper bound.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective([(x, -1.0)]);
        assert_eq!(solve_lp(&m, None).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_bounds() {
        // min x  with -5 <= x <= -1
        let mut m = Model::new();
        let x = m.add_continuous("x", -5.0, -1.0);
        m.set_objective([(x, 1.0)]);
        let r = solve_lp(&m, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.values[0], -5.0);
    }

    #[test]
    fn equality_system() {
        // x + y == 5, x - y == 1  =>  x=3, y=2 (only feasible point matters)
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_eq([(x, 1.0), (y, 1.0)], 5.0);
        m.add_eq([(x, 1.0), (y, -1.0)], 1.0);
        m.set_objective([(x, 1.0)]);
        let r = solve_lp(&m, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.values[0], 3.0);
        assert_close(r.values[1], 2.0);
    }

    #[test]
    fn bound_override_tightens() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        m.set_objective([(x, -1.0)]);
        let r = solve_lp(&m, None);
        assert_close(r.values[0], 10.0);
        let lb = [0.0];
        let ub = [4.0];
        let r2 = solve_lp(&m, Some((&lb, &ub)));
        assert_close(r2.values[0], 4.0);
    }

    #[test]
    fn bound_override_infeasible() {
        let mut m = Model::new();
        let _ = m.add_continuous("x", 0.0, 10.0);
        m.set_objective([]);
        let lb = [5.0];
        let ub = [4.0];
        assert_eq!(solve_lp(&m, Some((&lb, &ub))).status, LpStatus::Infeasible);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        // (x + x) <= 4  =>  x <= 2
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_le([(x, 1.0), (x, 1.0)], 4.0);
        m.set_objective([(x, -1.0)]);
        let r = solve_lp(&m, None);
        assert_close(r.values[0], 2.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        for k in 1..8 {
            m.add_le([(x, 1.0), (y, k as f64)], 4.0);
        }
        m.set_objective([(x, -1.0), (y, -1.0)]);
        let r = solve_lp(&m, None);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -4.0);
    }

    #[test]
    fn bigger_random_like_lp() {
        // Diet-style problem: min cost subject to coverage rows.
        let mut m = Model::new();
        let foods: Vec<_> = (0..6)
            .map(|i| m.add_continuous(&format!("f{i}"), 0.0, 100.0))
            .collect();
        let costs = [2.0, 3.0, 1.5, 4.0, 2.5, 1.0];
        let nutrients = [
            [1.0, 0.0, 2.0, 1.0, 0.5, 0.2],
            [0.5, 1.0, 0.0, 2.0, 1.0, 0.1],
            [0.2, 0.8, 1.0, 0.0, 1.5, 0.3],
        ];
        for row in &nutrients {
            let expr: Vec<_> = foods.iter().zip(row).map(|(&f, &a)| (f, a)).collect();
            m.add_ge(expr, 10.0);
        }
        let obj: Vec<_> = foods.iter().zip(&costs).map(|(&f, &c)| (f, c)).collect();
        m.set_objective(obj);
        let r = solve_lp(&m, None);
        assert_eq!(r.status, LpStatus::Optimal);
        // Verify primal feasibility of the reported point.
        for row in &nutrients {
            let v: f64 = r.values.iter().zip(row).map(|(x, a)| x * a).sum();
            assert!(v >= 10.0 - 1e-6);
        }
        assert!(r.objective > 0.0);
    }
}
