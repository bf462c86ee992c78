use vm1_netlist::{Design, InstId};

/// One committed positional move, as needed to patch a [`RowMap`]
/// incrementally: the instance, the row it came from and the span it now
/// occupies. Orientation-only changes (flips) never alter a cell's span
/// and must not be turned into `SpanMove`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanMove {
    /// The moved instance.
    pub inst: InstId,
    /// Row the instance occupied before the move.
    pub old_row: i64,
    /// Row the instance occupies now.
    pub new_row: i64,
    /// First occupied site after the move.
    pub new_start: i64,
    /// One past the last occupied site after the move.
    pub new_end: i64,
}

/// Per-row occupancy index over placement sites.
///
/// Maintains, for every row, the sorted list of occupied `[start, end)`
/// site spans with their owning instances. Used by the refinement pass
/// and the window optimizer to answer "is this span free?" and to move
/// cells while keeping the index consistent.
///
/// # Examples
///
/// ```
/// use vm1_netlist::Design;
/// use vm1_place::RowMap;
/// use vm1_tech::{CellArch, Library};
///
/// let lib = Library::synthetic_7nm(CellArch::ClosedM1);
/// let mut d = Design::new("t", lib, 2, 40);
/// let inv = d.library().cell_index("INV_X1").unwrap();
/// let u = d.add_inst("u0", inv);
/// let map = RowMap::build(&d);
/// assert!(!map.is_free(0, 0, 4, None)); // occupied by u0
/// assert!(map.is_free(0, 0, 4, Some(u))); // …unless u0 is excluded
/// assert!(map.is_free(0, 4, 8, None));
/// ```
#[derive(Clone, Debug)]
pub struct RowMap {
    /// Per row: sorted `(start, end, inst)` spans.
    rows: Vec<Vec<(i64, i64, InstId)>>,
    sites_per_row: i64,
}

impl RowMap {
    /// Builds the occupancy index from the current placement.
    #[must_use]
    pub fn build(design: &Design) -> RowMap {
        let mut rows: Vec<Vec<(i64, i64, InstId)>> =
            vec![Vec::new(); design.num_rows.max(0) as usize];
        for (id, inst) in design.insts() {
            let w = design.library().cell(inst.cell).width_sites;
            if inst.row >= 0 && (inst.row as usize) < rows.len() {
                rows[inst.row as usize].push((inst.site, inst.site + w, id));
            }
        }
        for r in &mut rows {
            r.sort_unstable_by_key(|s| s.0);
        }
        RowMap {
            rows,
            sites_per_row: design.sites_per_row,
        }
    }

    /// Whether the site span `[start, end)` of `row` is inside the core and
    /// free of instances (ignoring `exclude`, typically the moving cell
    /// itself).
    #[must_use]
    pub fn is_free(&self, row: i64, start: i64, end: i64, exclude: Option<InstId>) -> bool {
        if row < 0 || row as usize >= self.rows.len() || start < 0 || end > self.sites_per_row {
            return false;
        }
        self.rows[row as usize]
            .iter()
            .filter(|&&(_, _, id)| Some(id) != exclude)
            .all(|&(s, e, _)| e <= start || s >= end)
    }

    /// Clears `out` and fills it with the instances whose spans intersect
    /// `[start, end)` of `row`. Lets hot callers (window-problem
    /// construction) reuse one buffer across windows.
    pub fn occupants_into(&self, row: i64, start: i64, end: i64, out: &mut Vec<InstId>) {
        out.clear();
        if row < 0 || row as usize >= self.rows.len() {
            return;
        }
        out.extend(
            self.rows[row as usize]
                .iter()
                .filter(|&&(s, e, _)| e > start && s < end)
                .map(|&(_, _, id)| id),
        );
    }

    /// Removes an instance's span from the index.
    pub fn remove(&mut self, row: i64, inst: InstId) {
        if row >= 0 && (row as usize) < self.rows.len() {
            self.rows[row as usize].retain(|&(_, _, id)| id != inst);
        }
    }

    /// Inserts an instance span (caller must have checked freeness).
    pub fn insert(&mut self, row: i64, start: i64, end: i64, inst: InstId) {
        let r = &mut self.rows[row as usize];
        let pos = r.partition_point(|s| s.0 < start);
        r.insert(pos, (start, end, inst));
    }

    /// Moves an instance from `(old_row)` to `(row, start..end)`.
    pub fn relocate(&mut self, inst: InstId, old_row: i64, row: i64, start: i64, end: i64) {
        self.remove(old_row, inst);
        self.insert(row, start, end, inst);
    }

    /// Applies a batch of committed positional moves to the index instead
    /// of rebuilding it from the whole design. Returns the number of
    /// *distinct* rows touched (the incremental work done, surfaced as the
    /// `rowmap_rows_patched` counter).
    ///
    /// The moves must be exactly the positional changes committed since
    /// the index was last consistent — recording unchanged cells or flips
    /// as moves would double-count rows, which is why the commit loop
    /// skips them.
    pub fn patch_moves(&mut self, moves: &[SpanMove]) -> usize {
        let mut touched: Vec<i64> = Vec::with_capacity(moves.len() * 2);
        for m in moves {
            self.relocate(m.inst, m.old_row, m.new_row, m.new_start, m.new_end);
            touched.push(m.old_row);
            touched.push(m.new_row);
        }
        touched.sort_unstable();
        touched.dedup();
        touched.len()
    }

    /// Whether the index matches the design's current placement exactly
    /// (same spans, same order). Intended for `debug_assert!` checks after
    /// incremental patching.
    #[must_use]
    pub fn consistent_with(&self, design: &Design) -> bool {
        let fresh = RowMap::build(design);
        self.sites_per_row == fresh.sites_per_row && self.rows == fresh.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_tech::{CellArch, Library};

    fn design_with(placements: &[(i64, i64)]) -> Design {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 3, 40);
        let inv = d.library().cell_index("INV_X1").unwrap(); // width 4
        for (i, &(site, row)) in placements.iter().enumerate() {
            let id = d.add_inst(&format!("u{i}"), inv);
            d.move_inst(id, site, row, vm1_geom::Orient::North);
        }
        d
    }

    #[test]
    fn build_and_query() {
        let d = design_with(&[(0, 0), (10, 0), (0, 1)]);
        let m = RowMap::build(&d);
        assert!(!m.is_free(0, 0, 4, None));
        assert!(!m.is_free(0, 3, 5, None), "partial overlap");
        assert!(m.is_free(0, 4, 10, None));
        assert!(m.is_free(2, 0, 40, None));
        assert!(!m.is_free(0, 38, 42, None), "outside core");
        assert!(!m.is_free(-1, 0, 4, None));
        assert!(!m.is_free(3, 0, 4, None));
    }

    #[test]
    fn exclude_self() {
        let d = design_with(&[(0, 0)]);
        let m = RowMap::build(&d);
        assert!(m.is_free(0, 0, 4, Some(InstId(0))));
        assert!(m.is_free(0, 2, 6, Some(InstId(0))), "sliding over itself");
    }

    #[test]
    fn relocate_keeps_index_consistent() {
        let d = design_with(&[(0, 0), (10, 0)]);
        let mut m = RowMap::build(&d);
        m.relocate(InstId(0), 0, 1, 5, 9);
        assert!(m.is_free(0, 0, 4, None));
        assert!(!m.is_free(1, 5, 9, None));
    }

    #[test]
    fn occupants_into_reuses_buffer() {
        let d = design_with(&[(0, 0), (10, 0)]);
        let m = RowMap::build(&d);
        let mut buf = vec![InstId(99)]; // stale content must be cleared
        m.occupants_into(0, 2, 11, &mut buf);
        assert_eq!(buf, vec![InstId(0), InstId(1)]);
        m.occupants_into(0, 4, 10, &mut buf);
        assert!(buf.is_empty());
        m.occupants_into(-1, 0, 40, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn patch_moves_matches_full_rebuild() {
        let mut d = design_with(&[(0, 0), (10, 0), (0, 1)]);
        let mut m = RowMap::build(&d);
        assert!(m.consistent_with(&d));
        // Commit two moves on the design and patch the index with them.
        d.move_inst(InstId(0), 20, 2, vm1_geom::Orient::North);
        d.move_inst(InstId(2), 6, 1, vm1_geom::Orient::FlippedNorth);
        let rows = m.patch_moves(&[
            SpanMove {
                inst: InstId(0),
                old_row: 0,
                new_row: 2,
                new_start: 20,
                new_end: 24,
            },
            SpanMove {
                inst: InstId(2),
                old_row: 1,
                new_row: 1,
                new_start: 6,
                new_end: 10,
            },
        ]);
        assert_eq!(rows, 3, "distinct rows 0, 1, 2");
        assert!(m.consistent_with(&d));
        // A flip does not change any span: nothing to patch.
        d.move_inst(InstId(1), 10, 0, vm1_geom::Orient::FlippedNorth);
        assert!(m.consistent_with(&d));
    }

    #[test]
    fn consistent_with_detects_drift() {
        let d = design_with(&[(0, 0)]);
        let mut m = RowMap::build(&d);
        m.relocate(InstId(0), 0, 1, 0, 4);
        assert!(!m.consistent_with(&d));
    }
}
