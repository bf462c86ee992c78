//! Abacus-style legalization: row-local optimal cell packing.
//!
//! The classic Abacus algorithm (Spindler et al., ISPD'08) legalizes cells
//! one row at a time: cells assigned to a row are processed in x order and
//! merged into *clusters*; each cluster's position is the weighted mean of
//! its members' desired positions, clamped to the row, and clusters that
//! collide are merged recursively. Within a row this minimizes total
//! squared displacement — a stronger guarantee than the Tetris scan of
//! [`crate::legalize`], at the cost of fixing the row assignment first.
//!
//! Here rows are chosen greedily by nearest-row-with-capacity, then each
//! row is packed optimally.

use vm1_netlist::{Design, DesignError, InstId};

/// Legalizes the design with row-local optimal packing.
///
/// Fixed instances are immovable; if a fixed cell splits a row the packing
/// falls back to the nearest free span for the affected cluster members.
///
/// # Errors
///
/// Returns [`DesignError`] when some row assignment cannot fit (core
/// overfull).
pub fn legalize_abacus(design: &mut Design) -> Result<(), DesignError> {
    let num_rows = design.num_rows;
    let sites = design.sites_per_row;

    // Capacity per row after fixed cells.
    let mut row_free = vec![sites; num_rows as usize];
    for (_, inst) in design.insts() {
        if inst.fixed {
            let w = design.library().cell(inst.cell).width_sites;
            if (0..num_rows).contains(&inst.row) {
                row_free[inst.row as usize] -= w;
            }
        }
    }

    // Assign movable cells to rows: nearest row with remaining capacity.
    let mut movable: Vec<InstId> = design
        .insts()
        .filter(|(_, i)| !i.fixed)
        .map(|(id, _)| id)
        .collect();
    // Deterministic, displacement-friendly order: by |x| then row.
    movable.sort_by_key(|&id| (design.inst(id).site, design.inst(id).row));
    let mut rows: Vec<Vec<InstId>> = vec![Vec::new(); num_rows as usize];
    for &id in &movable {
        let want = design.inst(id).row.clamp(0, num_rows - 1);
        let w = design.library().cell(design.inst(id).cell).width_sites;
        let mut chosen = None;
        for dr in 0..num_rows {
            for r in [want - dr, want + dr] {
                if (0..num_rows).contains(&r) && row_free[r as usize] >= w {
                    chosen = Some(r);
                    break;
                }
            }
            if chosen.is_some() {
                break;
            }
        }
        let Some(r) = chosen else {
            return Err(DesignError::OutOfCore(design.inst(id).name.clone()));
        };
        row_free[r as usize] -= w;
        rows[r as usize].push(id);
    }

    // Pack each row with the Abacus cluster recurrence.
    for (r, members) in rows.iter_mut().enumerate() {
        if members.is_empty() {
            continue;
        }
        members.sort_by_key(|&id| design.inst(id).site);
        let packed = pack_row(design, members, sites)?;
        for (&id, &site) in members.iter().zip(&packed) {
            let orient = design.inst(id).orient;
            design.move_inst(id, site, r as i64, orient);
        }
    }

    // Fixed cells may still collide with packed rows when they fragment a
    // row; resolve residual overlaps with the Tetris fallback.
    if design.validate_placement().is_err() {
        crate::legalize(design)?;
    }
    design.validate_placement()
}

/// Cluster record of the Abacus recurrence.
struct Cluster {
    /// First member index in the row order.
    first: usize,
    /// Total width.
    width: i64,
    /// Σ(desired − offset) over members (uniform weights).
    q: i64,
    /// Member count.
    n: i64,
    /// Resolved position (left edge).
    x: i64,
}

/// Optimal left-edge positions for `members` (sorted by desired x) in a
/// row of `sites` sites, minimizing total squared displacement.
fn pack_row(design: &Design, members: &[InstId], sites: i64) -> Result<Vec<i64>, DesignError> {
    let desired: Vec<i64> = members.iter().map(|&id| design.inst(id).site).collect();
    let widths: Vec<i64> = members
        .iter()
        .map(|&id| design.library().cell(design.inst(id).cell).width_sites)
        .collect();
    let total: i64 = widths.iter().sum();
    if total > sites {
        return Err(DesignError::OutOfCore(design.inst(members[0]).name.clone()));
    }

    let mut clusters: Vec<Cluster> = Vec::new();
    for i in 0..members.len() {
        let mut c = Cluster {
            first: i,
            width: widths[i],
            q: desired[i],
            n: 1,
            x: 0,
        };
        c.x = place_cluster(&c, sites);
        // Merge while overlapping the previous cluster.
        while let Some(prev) = clusters.pop() {
            if prev.x + prev.width > c.x {
                // Merging shifts c's members' offsets by prev.width.
                c = Cluster {
                    first: prev.first,
                    q: prev.q + (c.q - c.n * prev.width),
                    width: prev.width + c.width,
                    n: prev.n + c.n,
                    x: 0,
                };
                c.x = place_cluster(&c, sites);
            } else {
                clusters.push(prev);
                break;
            }
        }
        clusters.push(c);
    }

    let mut out = vec![0i64; members.len()];
    for (k, c) in clusters.iter().enumerate() {
        let end = clusters.get(k + 1).map_or(members.len(), |nxt| nxt.first);
        let mut x = c.x;
        for i in c.first..end {
            out[i] = x;
            x += widths[i];
        }
    }
    Ok(out)
}

/// Optimal (clamped mean) position of a cluster.
fn place_cluster(c: &Cluster, sites: i64) -> i64 {
    let mean = c.q / c.n; // floor of the mean desired position
    mean.clamp(0, sites - c.width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::{CellArch, Library};

    fn design(sites: i64, rows: i64) -> Design {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        Design::new("t", lib, rows, sites)
    }

    #[test]
    fn packs_overlapping_cells_in_one_row() {
        let mut d = design(40, 1);
        let inv = d.library().cell_index("INV_X1").unwrap(); // w=4
        for i in 0..4 {
            let id = d.add_inst(&format!("u{i}"), inv);
            d.move_inst(id, 10, 0, Orient::North); // all want site 10
        }
        legalize_abacus(&mut d).unwrap();
        d.validate_placement().unwrap();
        // Cells pack contiguously around the common desired position.
        let mut sits: Vec<i64> = d.insts().map(|(_, i)| i.site).collect();
        sits.sort_unstable();
        assert_eq!(sits[3] - sits[0], 12, "contiguous 4x4-site pack");
        assert!(sits[0] <= 10 && sits[3] >= 10, "centred near desired x");
    }

    #[test]
    fn minimizes_displacement_vs_naive_shift() {
        // Two cells wanting the same spot: Abacus shifts both by half a
        // cell instead of pushing one cell a full width away.
        let mut d = design(40, 1);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        d.move_inst(a, 12, 0, Orient::North);
        d.move_inst(b, 12, 0, Orient::North);
        legalize_abacus(&mut d).unwrap();
        let sa = d.inst(a).site;
        let sb = d.inst(b).site;
        let disp = (sa - 12).abs() + (sb - 12).abs();
        assert!(disp <= 4, "balanced split, displacement {disp}");
    }

    #[test]
    fn spills_to_adjacent_row_when_full() {
        let mut d = design(9, 2); // room for 2 INVs per row
        let inv = d.library().cell_index("INV_X1").unwrap();
        for i in 0..3 {
            let id = d.add_inst(&format!("u{i}"), inv);
            d.move_inst(id, 0, 0, Orient::North);
        }
        legalize_abacus(&mut d).unwrap();
        d.validate_placement().unwrap();
        let rows_used: std::collections::BTreeSet<i64> = d.insts().map(|(_, i)| i.row).collect();
        assert_eq!(rows_used.len(), 2, "third cell spills to row 1");
    }

    #[test]
    fn random_designs_legal_and_low_displacement() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(200)
            .generate(&lib, 5);
        crate::place(&mut d, &crate::PlaceConfig::default(), 5);
        // Perturb into mild illegality.
        let ids: Vec<InstId> = d.insts().map(|(id, _)| id).collect();
        for (k, id) in ids.iter().enumerate() {
            let i = d.inst(*id);
            let s = (i.site + (k as i64 % 3) - 1).max(0);
            let r = i.row;
            d.move_inst(*id, s, r, i.orient);
        }
        let before: Vec<(i64, i64)> = d.insts().map(|(_, i)| (i.site, i.row)).collect();
        legalize_abacus(&mut d).unwrap();
        d.validate_placement().unwrap();
        // Average displacement should be small (row-local packing).
        let total_disp: i64 = d
            .insts()
            .zip(&before)
            .map(|((_, i), &(s, r))| (i.site - s).abs() + 8 * (i.row - r).abs())
            .sum();
        let avg = total_disp as f64 / d.num_insts() as f64;
        assert!(avg < 6.0, "avg displacement {avg}");
    }

    #[test]
    fn respects_fixed_cells() {
        let mut d = design(40, 2);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let f = d.add_inst("fix", inv);
        d.move_inst(f, 10, 0, Orient::North);
        d.inst_mut(f).fixed = true;
        let m = d.add_inst("mov", inv);
        d.move_inst(m, 11, 0, Orient::North);
        legalize_abacus(&mut d).unwrap();
        d.validate_placement().unwrap();
        assert_eq!((d.inst(f).site, d.inst(f).row), (10, 0));
    }

    #[test]
    fn overfull_core_errors() {
        let mut d = design(7, 1);
        let inv = d.library().cell_index("INV_X1").unwrap();
        for i in 0..2 {
            let id = d.add_inst(&format!("u{i}"), inv);
            d.move_inst(id, 0, 0, Orient::North);
        }
        assert!(legalize_abacus(&mut d).is_err());
    }
}
