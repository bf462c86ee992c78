//! Placement invariant verifier.
//!
//! [`verify_placement`] checks the geometric invariants every stage of
//! the flow must preserve and — unlike
//! `Design::validate_placement`, which stops at the first defect —
//! collects *every* violation, so a corrupted placement produces a full
//! diagnosis instead of a single error.
//!
//! Invariants checked:
//!
//! * **in-core** — every instance lies inside the core (site and row
//!   ranges; site-grid and row alignment are structural in this data
//!   model, where positions are integer site/row indices);
//! * **no overlap** — no two instances share a site of a row;
//! * **fixed cells unmoved** — against a [`PlacementSnapshot`] captured
//!   before an optimization pass, every `fixed` instance retains its
//!   exact site, row, and orientation;
//! * **per-window displacement bounds** — against the same snapshot, no
//!   movable instance moved farther than the pass's local-search radius
//!   ([`DisplacementBounds`]; e.g. `lx` sites / `ly` rows for a perturb
//!   pass, 0/0 for a flip pass, which only changes orientation).
//!
//! Verification is read-only and allocation-light; `core` invokes it
//! behind `debug_assert!` checkpoints at every stage boundary and from
//! the `vm1dp --audit` entry point.

use vm1_geom::Orient;
use vm1_netlist::{Design, InstId};
use vm1_obs::{Counter, MetricsHandle, Stage};

/// Maximum allowed movement of a movable instance between a snapshot
/// and the placement under verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DisplacementBounds {
    /// Maximum |Δsite| of the cell origin.
    pub dx_sites: i64,
    /// Maximum |Δrow|.
    pub dy_rows: i64,
}

/// One invariant violation found by the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementViolation {
    /// Two instances occupy at least one common site.
    Overlap {
        /// First instance (lower site).
        a: InstId,
        /// Second instance.
        b: InstId,
    },
    /// An instance extends beyond the core's site/row ranges.
    OutOfCore {
        /// The offending instance.
        inst: InstId,
    },
    /// A `fixed` instance changed site, row, or orientation.
    FixedMoved {
        /// The offending instance.
        inst: InstId,
    },
    /// A movable instance moved farther than the pass allows.
    DisplacementExceeded {
        /// The offending instance.
        inst: InstId,
        /// Observed |Δsite|.
        dx_sites: i64,
        /// Observed |Δrow|.
        dy_rows: i64,
    },
    /// The design gained or lost instances since the snapshot.
    InstanceCountChanged {
        /// Instances at capture time.
        before: usize,
        /// Instances now.
        after: usize,
    },
}

impl std::fmt::Display for PlacementViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementViolation::Overlap { a, b } => {
                write!(f, "instances #{} and #{} overlap", a.0, b.0)
            }
            PlacementViolation::OutOfCore { inst } => {
                write!(f, "instance #{} lies outside the core", inst.0)
            }
            PlacementViolation::FixedMoved { inst } => {
                write!(f, "fixed instance #{} was moved", inst.0)
            }
            PlacementViolation::DisplacementExceeded {
                inst,
                dx_sites,
                dy_rows,
            } => write!(
                f,
                "instance #{} moved {dx_sites} sites / {dy_rows} rows, beyond the pass bounds",
                inst.0
            ),
            PlacementViolation::InstanceCountChanged { before, after } => {
                write!(f, "instance count changed from {before} to {after}")
            }
        }
    }
}

/// The placement state of one instance at capture time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SnapCell {
    site: i64,
    row: i64,
    orient: Orient,
    fixed: bool,
}

/// An immutable capture of every instance's position, taken before an
/// optimization pass so [`verify_placement`] can check what the pass was
/// allowed to change.
#[derive(Clone, Debug)]
pub struct PlacementSnapshot {
    cells: Vec<SnapCell>,
}

impl PlacementSnapshot {
    /// Captures the current position of every instance of `design`.
    #[must_use]
    pub fn capture(design: &Design) -> PlacementSnapshot {
        PlacementSnapshot {
            cells: design
                .insts()
                .map(|(_, inst)| SnapCell {
                    site: inst.site,
                    row: inst.row,
                    orient: inst.orient,
                    fixed: inst.fixed,
                })
                .collect(),
        }
    }

    /// Number of instances captured.
    #[must_use]
    pub fn num_insts(&self) -> usize {
        self.cells.len()
    }
}

/// Result of a placement verification: every violation found, plus how
/// many invariant checks ran.
#[derive(Clone, Debug, Default)]
#[must_use = "a verify report is only useful if its violations are inspected"]
pub struct VerifyReport {
    violations: Vec<PlacementViolation>,
    checks: usize,
}

impl VerifyReport {
    /// Every violation found, in discovery order.
    #[must_use]
    pub fn violations(&self) -> &[PlacementViolation] {
        &self.violations
    }

    /// Number of individual invariant checks performed.
    #[must_use]
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Whether the placement satisfied every checked invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One line per violation (empty string when clean).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// Verifies the standalone invariants (in-core, no overlap) and, given a
/// `snapshot`, the snapshot-relative ones: fixed instances unmoved,
/// movable instances within `bounds` (when given; `None` skips the
/// displacement check, e.g. between whole parameter sets where only
/// legality and fixedness are invariant). Charges wall-clock to
/// [`Stage::Audit`] and reports check/violation counts through
/// [`Counter::AuditPlacementChecks`] /
/// [`Counter::AuditPlacementViolations`].
pub fn verify_placement(
    design: &Design,
    snapshot: Option<&PlacementSnapshot>,
    bounds: Option<DisplacementBounds>,
    metrics: &MetricsHandle,
) -> VerifyReport {
    let report = metrics.timed(Stage::Audit, || run_checks(design, snapshot, bounds));
    metrics.add(Counter::AuditPlacementChecks, report.checks as u64);
    metrics.add(
        Counter::AuditPlacementViolations,
        report.violations.len() as u64,
    );
    report
}

fn run_checks(
    design: &Design,
    snapshot: Option<&PlacementSnapshot>,
    bounds: Option<DisplacementBounds>,
) -> VerifyReport {
    let mut violations = Vec::new();
    let mut checks = 0usize;

    // In-core ranges, and row spans for the overlap scan.
    let mut rows: Vec<(i64, i64, i64, InstId)> = Vec::with_capacity(design.num_insts());
    for (id, inst) in design.insts() {
        let w = design.library().cell(inst.cell).width_sites;
        // Saturating: a site read from a file may be near `i64::MAX`.
        let end = inst.site.saturating_add(w);
        checks += 1;
        if inst.row < 0
            || inst.row >= design.num_rows
            || inst.site < 0
            || end > design.sites_per_row
        {
            violations.push(PlacementViolation::OutOfCore { inst: id });
        }
        rows.push((inst.row, inst.site, end, id));
    }

    // Overlaps: sort by (row, site) and compare neighbours. Unlike
    // `validate_placement` this reports every overlapping pair of
    // neighbours, not just the first.
    rows.sort_unstable();
    for w in rows.windows(2) {
        let (row_a, _, end_a, a) = w[0];
        let (row_b, start_b, _, b) = w[1];
        if row_a == row_b {
            checks += 1;
            if end_a > start_b {
                violations.push(PlacementViolation::Overlap { a, b });
            }
        }
    }

    if let Some(snap) = snapshot {
        if snap.cells.len() == design.num_insts() {
            for (id, inst) in design.insts() {
                let before = snap.cells[id.0];
                if before.fixed || inst.fixed {
                    checks += 1;
                    if (inst.site, inst.row, inst.orient)
                        != (before.site, before.row, before.orient)
                    {
                        violations.push(PlacementViolation::FixedMoved { inst: id });
                    }
                } else if let Some(b) = bounds {
                    checks += 1;
                    let dx = (inst.site - before.site).abs();
                    let dy = (inst.row - before.row).abs();
                    if dx > b.dx_sites || dy > b.dy_rows {
                        violations.push(PlacementViolation::DisplacementExceeded {
                            inst: id,
                            dx_sites: dx,
                            dy_rows: dy,
                        });
                    }
                }
            }
        } else {
            checks += 1;
            violations.push(PlacementViolation::InstanceCountChanged {
                before: snap.cells.len(),
                after: design.num_insts(),
            });
        }
    }

    VerifyReport { violations, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::{CellArch, Library};

    fn small_design() -> Design {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(60)
            .generate(&lib, 7);
        crate::place(&mut d, &crate::PlaceConfig::default(), 7);
        d
    }

    #[test]
    fn legal_placement_is_clean() {
        let d = small_design();
        let r = verify_placement(&d, None, None, &MetricsHandle::disabled());
        assert!(r.is_clean(), "{}", r.summary());
        assert!(r.checks() >= d.num_insts());
    }

    #[test]
    fn detects_overlap() {
        let mut d = small_design();
        // Move instance 1 exactly onto instance 0.
        let (site, row, orient) = {
            let i = d.inst(InstId(0));
            (i.site, i.row, i.orient)
        };
        d.move_inst(InstId(1), site, row, orient);
        let r = verify_placement(&d, None, None, &MetricsHandle::disabled());
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, PlacementViolation::Overlap { .. })));
    }

    #[test]
    fn detects_out_of_core() {
        let mut d = small_design();
        let orient = d.inst(InstId(0)).orient;
        d.move_inst(InstId(0), -3, 0, orient);
        d.move_inst(InstId(1), 0, d.num_rows + 5, orient);
        d.move_inst(InstId(2), i64::MAX, 0, orient);
        let r = verify_placement(&d, None, None, &MetricsHandle::disabled());
        let oob = r
            .violations()
            .iter()
            .filter(|v| matches!(v, PlacementViolation::OutOfCore { .. }))
            .count();
        assert_eq!(oob, 3, "{}", r.summary());
    }

    #[test]
    fn detects_fixed_moved() {
        let mut d = small_design();
        d.inst_mut(InstId(0)).fixed = true;
        let snap = PlacementSnapshot::capture(&d);
        let inst = d.inst(InstId(0));
        let (site, row, orient) = (inst.site, inst.row, inst.orient);
        d.move_inst(InstId(0), site, row, orient.flipped());
        let r = verify_placement(&d, Some(&snap), None, &MetricsHandle::disabled());
        assert!(
            r.violations()
                .iter()
                .any(|v| matches!(v, PlacementViolation::FixedMoved { inst } if inst.0 == 0)),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn detects_displacement_beyond_bounds() {
        let mut d = small_design();
        let snap = PlacementSnapshot::capture(&d);
        let inst = d.inst(InstId(2));
        let (site, row, orient) = (inst.site, inst.row, inst.orient);
        d.move_inst(InstId(2), site + 4, row, orient);
        let tight = DisplacementBounds {
            dx_sites: 2,
            dy_rows: 1,
        };
        let r = verify_placement(&d, Some(&snap), Some(tight), &MetricsHandle::disabled());
        assert!(r.violations().iter().any(
            |v| matches!(v, PlacementViolation::DisplacementExceeded { inst, .. } if inst.0 == 2)
        ));
        // The same move within generous bounds is fine (overlap aside).
        let loose = DisplacementBounds {
            dx_sites: 50,
            dy_rows: 50,
        };
        let r = verify_placement(&d, Some(&snap), Some(loose), &MetricsHandle::disabled());
        assert!(!r
            .violations()
            .iter()
            .any(|v| matches!(v, PlacementViolation::DisplacementExceeded { .. })));
    }

    #[test]
    fn flip_is_free_under_zero_bounds() {
        let mut d = small_design();
        let snap = PlacementSnapshot::capture(&d);
        let inst = d.inst(InstId(3));
        let (site, row, orient) = (inst.site, inst.row, inst.orient);
        d.move_inst(InstId(3), site, row, orient.flipped());
        let r = verify_placement(
            &d,
            Some(&snap),
            Some(DisplacementBounds {
                dx_sites: 0,
                dy_rows: 0,
            }),
            &MetricsHandle::disabled(),
        );
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn detects_instance_count_change() {
        let mut d = small_design();
        let snap = PlacementSnapshot::capture(&d);
        let inv = d.library().cell_index("INV_X1").unwrap();
        d.add_inst("late", inv);
        let r = verify_placement(&d, Some(&snap), None, &MetricsHandle::disabled());
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, PlacementViolation::InstanceCountChanged { .. })));
    }

    #[test]
    fn metrics_record_checks_and_violations() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;
        let mut d = small_design();
        let orient = d.inst(InstId(0)).orient;
        d.move_inst(InstId(0), -1, 0, orient);
        let sink = Arc::new(Telemetry::new());
        let metrics = MetricsHandle::of(sink.clone());
        let r = verify_placement(&d, None, None, &metrics);
        assert_eq!(
            sink.counter(Counter::AuditPlacementChecks),
            r.checks() as u64
        );
        assert_eq!(
            sink.counter(Counter::AuditPlacementViolations),
            r.violations().len() as u64
        );
    }
}
