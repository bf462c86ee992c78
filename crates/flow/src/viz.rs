//! ASCII visualization of placements and vertical M1 alignments.
//!
//! Renders the core as one text row per placement row (top row printed
//! first, like a layout viewer): `.` free site, `#` occupied site, `|`
//! an M1 track column used by an alignable pin pair (a potential dM1).
//! Wide designs are column-compressed to `max_width` characters.

use vm1_core::{alignable_pairs, Vm1Config};
use vm1_netlist::Design;

/// Renders the design as ASCII art, at most `max_width` characters wide.
///
/// # Panics
///
/// Panics if `max_width < 8`.
#[must_use]
pub fn render_placement(design: &Design, cfg: &Vm1Config, max_width: usize) -> String {
    assert!(max_width >= 8, "max_width too small");
    let sites = design.sites_per_row as usize;
    let rows = design.num_rows as usize;
    let scale = sites.div_ceil(max_width).max(1);
    let width = sites.div_ceil(scale);

    // Occupancy per (row, site).
    let mut occ = vec![vec![false; sites]; rows];
    for (_, inst) in design.insts() {
        let w = design.library().cell(inst.cell).width_sites;
        if inst.row < 0 || inst.row as usize >= rows {
            continue;
        }
        for s in inst.site..(inst.site + w).min(design.sites_per_row) {
            if s >= 0 {
                occ[inst.row as usize][s as usize] = true;
            }
        }
    }

    // Columns carrying an aligned pair (ClosedM1 semantics; for OpenM1 we
    // mark the overlap mid-column).
    let tech = design.library().tech();
    let mut aligned_cols: Vec<Vec<bool>> = vec![vec![false; sites]; rows];
    for &(a, b, _) in &alignable_pairs(design, cfg) {
        if let Some(_ov) = vm1_core::pair_aligned(design, a, b) {
            let pa = design.pin_position(a);
            let pb = design.pin_position(b);
            let col = tech
                .x_to_site((pa.x + pb.x) / 2)
                .clamp(0, design.sites_per_row - 1);
            let (r0, r1) = (
                tech.y_to_row(pa.y.min(pb.y)).clamp(0, design.num_rows - 1),
                tech.y_to_row(pa.y.max(pb.y)).clamp(0, design.num_rows - 1),
            );
            for r in r0..=r1 {
                aligned_cols[r as usize][col as usize] = true;
            }
        }
    }

    let mut out = String::with_capacity((width + 1) * rows);
    for r in (0..rows).rev() {
        for c0 in 0..width {
            let lo = c0 * scale;
            let hi = ((c0 + 1) * scale).min(sites);
            let any_aligned = (lo..hi).any(|s| aligned_cols[r][s]);
            let any_occ = (lo..hi).any(|s| occ[r][s]);
            out.push(if any_aligned {
                '|'
            } else if any_occ {
                '#'
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;
    use vm1_tech::{CellArch, Library};

    fn demo() -> (Design, Vm1Config) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 3, 20);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 6, 1, Orient::North); // aligned
        (d, Vm1Config::closedm1())
    }

    #[test]
    fn renders_rows_and_occupancy() {
        let (d, cfg) = demo();
        let art = render_placement(&d, &cfg, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), 20);
        // Top line is row 2 (empty), bottom is row 0 (cell a).
        assert!(lines[0].chars().all(|c| c == '.'));
        assert!(lines[2].contains('#'));
    }

    #[test]
    fn marks_aligned_columns() {
        let (d, cfg) = demo();
        let art = render_placement(&d, &cfg, 40);
        assert!(art.contains('|'), "aligned pair must be marked:\n{art}");
    }

    #[test]
    fn compresses_wide_designs() {
        let (d, cfg) = demo();
        let art = render_placement(&d, &cfg, 10);
        for line in art.lines() {
            assert!(line.len() <= 10);
        }
    }

    #[test]
    #[should_panic(expected = "max_width")]
    fn tiny_width_panics() {
        let (d, cfg) = demo();
        let _ = render_placement(&d, &cfg, 4);
    }
}
