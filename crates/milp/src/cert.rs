//! Optimality/infeasibility certificates recorded by branch-and-bound.
//!
//! [`crate::solve_certified`] returns, next to the usual
//! [`crate::MilpSolution`], a [`Certificate`]: a replayable trace of the
//! search sufficient for an *independent* checker to confirm the claimed
//! outcome without trusting the solver —
//!
//! * the root domain branch and bound actually searched (presolve-tightened
//!   bounds),
//! * the branching tree, each node identified by the bound change that
//!   created it ([`BranchStep`]), so node domains can be reconstructed
//!   exactly,
//! * a weak-duality witness per solved node ([`NodeOutcome::Bounded`]):
//!   the LP row duals, from which any verifier can recompute a lower bound
//!   on that subtree's optimum,
//! * a Farkas-style witness per LP-infeasible node
//!   ([`NodeOutcome::Infeasible`]),
//! * the final incumbent with integer coordinates rounded to exact
//!   integers.
//!
//! The certificate deliberately records *witnesses*, not conclusions: the
//! checker in the `vm1-certify` crate recomputes every bound from the
//! witnesses in exact rational arithmetic and accepts a claimed
//! [`Status::Optimal`] only when the incumbent's exact objective is
//! sandwiched by the recomputed tree bound.

use crate::branch::Status;

/// The bound change that created a branch-and-bound child node, relative
/// to its parent's domain.
#[derive(Clone, Debug, PartialEq)]
pub enum BranchStep {
    /// `var <= ub` (the "down" side of a floor/ceil split; `ub` is an
    /// exact integer for integer-kind variables).
    SetUb {
        /// Index of the branched variable.
        var: usize,
        /// New upper bound.
        ub: f64,
    },
    /// `var >= lb` (the "up" side of a floor/ceil split).
    SetLb {
        /// Index of the branched variable.
        var: usize,
        /// New lower bound.
        lb: f64,
    },
    /// SOS1 branching: every listed member of SOS1 group `group` is fixed
    /// to zero (`ub := 0`). Sound only because the group carries a
    /// `sum == 1` convexity row; the checker re-validates that row before
    /// trusting the split.
    ForbidSet {
        /// Index into the model's SOS1 group list.
        group: usize,
        /// Variable indices forced to zero in this child.
        vars: Vec<usize>,
    },
}

/// What the search concluded at one node.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeOutcome {
    /// The node was never solved: pruned by its parent's bound, dropped at
    /// an iteration/node limit, or still on the stack when the search
    /// stopped. Its subtree is covered by the nearest ancestor's dual
    /// bound.
    Open,
    /// The node's LP relaxation is infeasible. `farkas` holds the phase-1
    /// dual witness (one entry per model row); it is empty when
    /// infeasibility came from a direct bound contradiction (`lb > ub`)
    /// or from root presolve, both of which the checker re-derives
    /// without a witness.
    Infeasible {
        /// Farkas-style row multipliers (possibly empty, see above).
        farkas: Vec<f64>,
    },
    /// The node's LP relaxation solved to optimality. `duals` holds the
    /// row duals at the optimal basis (one entry per model row), a
    /// weak-duality witness for a lower bound on the node's subdomain.
    Bounded {
        /// LP row duals in the original row orientation.
        duals: Vec<f64>,
    },
}

/// One node of the recorded branching tree. Nodes appear in creation
/// order, so a parent's index is always smaller than its children's.
#[derive(Clone, Debug, PartialEq)]
pub struct CertNode {
    /// Index of the parent node (`None` for the root, index 0).
    pub parent: Option<usize>,
    /// The bound change that created this node (`None` for the root).
    pub step: Option<BranchStep>,
    /// What the search concluded here.
    pub outcome: NodeOutcome,
}

/// A replayable record of one branch-and-bound solve (see the module
/// docs for the exact semantics of each part).
#[derive(Clone, Debug)]
#[must_use = "a certificate is only useful if it is checked"]
pub struct Certificate {
    /// The status the solver claims.
    pub status: Status,
    /// The incumbent objective the solver claims (`+∞` when none).
    pub objective: f64,
    /// The best lower bound the solver claims.
    pub best_bound: f64,
    /// The absolute optimality gap the solve was run with: `Optimal`
    /// claims mean "within `abs_gap` of the true optimum".
    pub abs_gap: f64,
    /// The best integer-feasible assignment found, with integer-kind
    /// coordinates rounded to exact integers (`None` when no solution was
    /// found).
    pub incumbent: Option<Vec<f64>>,
    /// Root-domain lower bounds (after presolve tightening).
    pub root_lb: Vec<f64>,
    /// Root-domain upper bounds (after presolve tightening).
    pub root_ub: Vec<f64>,
    /// The branching tree in creation order (empty only when the search
    /// never constructed a root, e.g. a presolve-infeasible model records
    /// a single root node instead).
    pub nodes: Vec<CertNode>,
}

impl Certificate {
    /// Number of leaf nodes (nodes without children) in the recorded tree.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        let mut has_child = vec![false; self.nodes.len()];
        for node in &self.nodes {
            if let Some(p) = node.parent {
                has_child[p] = true;
            }
        }
        has_child.iter().filter(|&&c| !c).count()
    }

    /// One-line human summary (status, node/leaf counts, claimed values).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{:?}: {} nodes ({} leaves), claimed objective {:.6}, claimed bound {:.6}, gap {:.2e}",
            self.status,
            self.nodes.len(),
            self.num_leaves(),
            self.objective,
            self.best_bound,
            self.abs_gap,
        )
    }
}
