//! Certificate checks on degenerate and hard-case LPs: redundant
//! rows (degenerate duals), infeasibility that per-row presolve cannot
//! detect (a genuine Farkas witness), the warm-started zero-gap early
//! exit, and mutation tests on solver-produced certificates.

use vm1_milp::{solve_certified, Model, NodeOutcome, SolveParams, Status};

/// Redundant rows make the LP basis degenerate and the dual solution
/// non-unique; whichever duals the solver reports must still verify.
#[test]
fn redundant_rows_certificate_accepted() {
    let mut m = Model::new();
    let x = m.add_binary("x");
    let y = m.add_binary("y");
    let z = m.add_binary("z");
    m.set_objective([(x, -3.0), (y, -2.0), (z, -1.0)]);
    // The same knapsack row three times, plus a strictly looser copy.
    for _ in 0..3 {
        m.add_le([(x, 2.0), (y, 1.0), (z, 1.0)], 2.0);
    }
    m.add_le([(x, 2.0), (y, 1.0), (z, 1.0)], 5.0);
    let certified = solve_certified(&m, &SolveParams::default());
    assert_eq!(certified.solution.status, Status::Optimal);
    let report = vm1_certify::check(&m, &certified.certificate);
    assert!(report.accepted, "{}", report.summary());
}

/// An infeasible model whose infeasibility no single row reveals:
/// pairwise-sum lower bounds force `x+y+z >= 1.8` while the last row
/// caps the sum at 1.7, but per-row bound propagation reaches a
/// fixpoint with every variable in `[0.2, 1]`. Only the LP's phase-1
/// Farkas witness (a combination of all four rows) proves it.
#[test]
fn presolve_resistant_infeasibility_certified() {
    let mut m = Model::new();
    let x = m.add_continuous("x", 0.0, 1.0);
    let y = m.add_continuous("y", 0.0, 1.0);
    let z = m.add_continuous("z", 0.0, 1.0);
    m.set_objective([(x, 1.0)]);
    m.add_ge([(x, 1.0), (y, 1.0)], 1.2);
    m.add_ge([(x, 1.0), (z, 1.0)], 1.2);
    m.add_ge([(y, 1.0), (z, 1.0)], 1.2);
    m.add_le([(x, 1.0), (y, 1.0), (z, 1.0)], 1.7);
    let certified = solve_certified(&m, &SolveParams::default());
    assert_eq!(certified.solution.status, Status::Infeasible);
    // The root must carry a nonempty Farkas witness: this infeasibility
    // is not a bound contradiction the presolve could have found.
    let has_farkas =
        certified.certificate.nodes.iter().any(
            |n| matches!(&n.outcome, NodeOutcome::Infeasible { farkas } if !farkas.is_empty()),
        );
    assert!(has_farkas, "expected an LP-derived Farkas witness");
    let report = vm1_certify::check(&m, &certified.certificate);
    assert!(report.accepted, "{}", report.summary());
}

/// A warm-start incumbent that already matches the LP relaxation bound
/// lets branch-and-bound exit at the root with zero gap; the resulting
/// one-node certificate must still carry everything the checker needs.
#[test]
fn zero_gap_warm_start_certified() {
    let mut m = Model::new();
    let x = m.add_binary("x");
    let y = m.add_binary("y");
    m.set_objective([(x, -1.0), (y, -2.0)]);
    m.add_le([(x, 1.0), (y, 1.0)], 1.0);
    // LP optimum is the integral point (0, 1) with objective -2; warm
    // starting there means incumbent == relaxation bound at the root.
    let params = SolveParams {
        warm_start: Some(vec![0.0, 1.0]),
        ..SolveParams::default()
    };
    let certified = solve_certified(&m, &params);
    assert_eq!(certified.solution.status, Status::Optimal);
    assert!((certified.solution.objective + 2.0).abs() < 1e-9);
    let report = vm1_certify::check(&m, &certified.certificate);
    assert!(report.accepted, "{}", report.summary());
}

/// Mutating one incumbent coordinate of a genuine solver certificate
/// must be caught by the exact integrality/feasibility replay.
#[test]
fn mutated_incumbent_coordinate_rejected() {
    let mut m = Model::new();
    let x = m.add_binary("x");
    let y = m.add_binary("y");
    m.set_objective([(x, -3.0), (y, -2.0)]);
    m.add_le([(x, 1.0), (y, 1.0)], 1.0);
    let mut certified = solve_certified(&m, &SolveParams::default());
    assert_eq!(certified.solution.status, Status::Optimal);
    let inc = certified
        .certificate
        .incumbent
        .as_mut()
        .expect("optimal solve has an incumbent");
    inc[0] = 0.5; // fractional: no longer a valid integral point
    let report = vm1_certify::check(&m, &certified.certificate);
    assert!(!report.accepted, "mutated incumbent must be rejected");
}

/// Zeroing the dual witnesses of a genuine certificate collapses every
/// leaf bound; the claimed optimum is then no longer sandwiched.
#[test]
fn mutated_dual_values_rejected() {
    let mut m = Model::new();
    let x = m.add_binary("x");
    let y = m.add_binary("y");
    let z = m.add_binary("z");
    m.set_objective([(x, -5.0), (y, -4.0), (z, -3.0)]);
    m.add_le([(x, 2.0), (y, 3.0), (z, 1.0)], 3.0);
    let mut certified = solve_certified(&m, &SolveParams::default());
    assert_eq!(certified.solution.status, Status::Optimal);
    let mut tampered = 0usize;
    for node in &mut certified.certificate.nodes {
        if let NodeOutcome::Bounded { duals } = &mut node.outcome {
            for d in duals.iter_mut() {
                *d = 0.0;
            }
            tampered += 1;
        }
    }
    assert!(tampered > 0, "expected at least one bounded node");
    let report = vm1_certify::check(&m, &certified.certificate);
    assert!(!report.accepted, "mutated duals must be rejected");
}
