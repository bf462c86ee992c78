use std::num::NonZeroUsize;
use std::sync::Arc;
use vm1_geom::Dbu;
use vm1_netlist::NetId;

/// One parameter set `u` of the paper's optimization sequence `U`:
/// window size and perturbation range (Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamSet {
    /// Window width in µm (`b_w`; windows are square like the paper's,
    /// `b_h = b_w`, unless changed).
    pub bw_um: f64,
    /// Window height in µm (`b_h`).
    pub bh_um: f64,
    /// Maximum x displacement in sites (`l_x`).
    pub lx: i64,
    /// Maximum y displacement in rows (`l_y`).
    pub ly: i64,
}

impl ParamSet {
    /// Square window of `b` µm with perturbation `(lx, ly)` — the triple
    /// notation `(b, lx, ly)` of ExptA-3.
    #[must_use]
    pub fn new(b_um: f64, lx: i64, ly: i64) -> ParamSet {
        ParamSet {
            bw_um: b_um,
            bh_um: b_um,
            lx,
            ly,
        }
    }
}

/// Which engine solves each window subproblem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverKind {
    /// Exact DFS branch-and-bound over SCP candidates (default: same
    /// optimum as the MILP, far faster at window scale).
    #[default]
    Dfs,
    /// The faithful MILP formulation solved by `vm1-milp` (the paper's
    /// CPLEX stand-in).
    Milp,
    /// Greedy one-cell-at-a-time improvement (baseline/ablation).
    Greedy,
}

/// Configuration of the vertical-M1 detailed placement optimization.
#[derive(Clone, Debug)]
pub struct Vm1Config {
    /// Weight of one vertical pin alignment, in nm of HPWL (the paper's α;
    /// 1200 for ClosedM1, 1000 for OpenM1).
    pub alpha: f64,
    /// HPWL weight per net (the paper's β; its experiments use β = 1).
    pub beta: f64,
    /// Weight per nm of pin overlap beyond δ (the paper's ε; OpenM1 only).
    pub epsilon: f64,
    /// Maximum dM1 span in rows (γ; the paper uses 3).
    pub gamma: i64,
    /// Minimum required overlap for OpenM1 (δ).
    pub delta: Dbu,
    /// Convergence threshold θ of Algorithm 1 (relative objective
    /// improvement; the paper uses 1 %).
    pub theta: f64,
    /// Parameter-set queue `U` (Algorithm 1). The default is the paper's
    /// preferred single set `(20, 4, 1)` — scaled down to the workspace's
    /// design sizes as `(5, 4, 1)`; see DESIGN.md §5.
    pub sequence: Vec<ParamSet>,
    /// Nets with more pins than this are skipped for pairing (keeps the
    /// pair count quadratic-free; clock nets are never paired).
    pub max_net_pins: usize,
    /// Maximum movable cells per exact solve; windows with more cells are
    /// optimized in batches of this size (see DESIGN.md §5).
    pub max_cells_per_milp: usize,
    /// Window solver engine.
    pub solver: SolverKind,
    /// Node budget for the exact solvers, one per window batch: the DFS
    /// engine's searches of a batch's independent components share it,
    /// each starting with what the earlier ones left. A solve that
    /// reaches it is cut short and counted (`dfs_budget_exhausted`,
    /// `milp_limit_hit`). The MILP engine takes at most
    /// [`crate::solver::MILP_MAX_NODES`].
    pub max_nodes: usize,
    /// Safety cap on Algorithm 1 inner iterations per parameter set.
    pub max_inner_iters: usize,
    /// Number of worker threads for parallel window optimization
    /// (default: the host's available parallelism). Placements and
    /// counters are invariant under it; only wall-clock and the
    /// scheduler gauges differ.
    pub threads: usize,
    /// Optional per-net weight multipliers (β_n = β · weight). The paper
    /// lists timing-criticality-aware objectives as future work (§6 item
    /// ii); the `net_criticality_weights` helper in `vm1-flow` produces
    /// these from STA slacks.
    pub net_weights: Option<Arc<Vec<f64>>>,
    /// Proof-carrying solves: when the MILP engine is selected, record an
    /// optimality certificate for every window solve and verify it with
    /// the exact-arithmetic checker (`vm1-certify`) before committing the
    /// assignment. Rejected solves fall back to the input placement and
    /// are counted under `cert_rejected`. No effect on the DFS/greedy
    /// engines (see DESIGN.md §9).
    pub certify: bool,
}

impl Vm1Config {
    /// Paper configuration for ClosedM1 designs (α = 1200).
    #[must_use]
    pub fn closedm1() -> Vm1Config {
        Vm1Config {
            alpha: 1200.0,
            beta: 1.0,
            epsilon: 0.0,
            gamma: 3,
            delta: Dbu(24),
            theta: 0.01,
            sequence: vec![ParamSet::new(5.0, 4, 1)],
            max_net_pins: 12,
            max_cells_per_milp: 8,
            solver: SolverKind::Dfs,
            max_nodes: 300_000,
            max_inner_iters: 8,
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            net_weights: None,
            certify: false,
        }
    }

    /// Paper configuration for OpenM1 designs (α = 1000, overlap term on).
    #[must_use]
    pub fn openm1() -> Vm1Config {
        Vm1Config {
            alpha: 1000.0,
            epsilon: 0.1,
            ..Vm1Config::closedm1()
        }
    }

    /// Replaces the optimization sequence `U`.
    #[must_use]
    pub fn with_sequence(mut self, sequence: Vec<ParamSet>) -> Vm1Config {
        assert!(!sequence.is_empty(), "sequence must not be empty");
        self.sequence = sequence;
        self
    }

    /// Replaces α.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Vm1Config {
        self.alpha = alpha;
        self
    }

    /// Replaces the window solver.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverKind) -> Vm1Config {
        self.solver = solver;
        self
    }

    /// Enables or disables certified MILP solves (see [`Vm1Config::certify`]).
    #[must_use]
    pub fn with_certify(mut self, certify: bool) -> Vm1Config {
        self.certify = certify;
        self
    }

    /// Replaces the number of window worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Vm1Config {
        assert!(threads > 0, "threads must be positive");
        self.threads = threads;
        self
    }

    /// Installs per-net weight multipliers (one entry per net of the
    /// design this config will be used with).
    #[must_use]
    pub fn with_net_weights(mut self, weights: Vec<f64>) -> Vm1Config {
        self.net_weights = Some(Arc::new(weights));
        self
    }

    /// The effective HPWL weight β_n of a net.
    #[must_use]
    pub fn net_weight(&self, net: NetId) -> f64 {
        self.beta
            * self
                .net_weights
                .as_ref()
                .and_then(|w| w.get(net.0).copied())
                .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = Vm1Config::closedm1();
        assert_eq!(c.alpha, 1200.0);
        assert_eq!(c.beta, 1.0);
        assert_eq!(c.gamma, 3);
        assert_eq!(c.theta, 0.01);
        let o = Vm1Config::openm1();
        assert_eq!(o.alpha, 1000.0);
        assert!(o.epsilon > 0.0);
    }

    #[test]
    fn builders() {
        let c = Vm1Config::closedm1()
            .with_alpha(500.0)
            .with_solver(SolverKind::Milp)
            .with_certify(true)
            .with_sequence(vec![ParamSet::new(10.0, 3, 1), ParamSet::new(20.0, 3, 0)]);
        assert_eq!(c.alpha, 500.0);
        assert!(c.certify);
        assert!(!Vm1Config::closedm1().certify);
        assert_eq!(c.solver, SolverKind::Milp);
        assert_eq!(c.sequence.len(), 2);
        assert_eq!(c.sequence[1].lx, 3);
        assert_eq!(c.sequence[1].ly, 0);
        assert_eq!(c.with_threads(2).threads, 2);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Vm1Config::closedm1().threads, cores);
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn zero_threads_rejected() {
        let _ = Vm1Config::closedm1().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "sequence")]
    fn empty_sequence_rejected() {
        let _ = Vm1Config::closedm1().with_sequence(vec![]);
    }
}
