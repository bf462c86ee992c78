use crate::{
    CellArch, CellTiming, Function, Layer, MacroCell, MacroPin, PinDir, PinShape, Technology,
};
use vm1_geom::{Point, Rect};

/// A standard-cell library: a [`Technology`] plus the set of
/// [`MacroCell`]s generated for one [`CellArch`].
///
/// # Examples
///
/// ```
/// use vm1_tech::{CellArch, Library};
///
/// let lib = Library::synthetic_7nm(CellArch::OpenM1);
/// assert!(lib.cells().len() >= 12);
/// let dff = lib.cell_by_name("DFF_X1").unwrap();
/// assert!(dff.function.is_sequential());
/// ```
#[derive(Clone, Debug)]
pub struct Library {
    tech: Technology,
    cells: Vec<MacroCell>,
}

/// `(function, drive, width_sites)` for every generated cell.
const CELL_SPECS: &[(Function, u8, i64)] = &[
    (Function::Inv, 1, 4),
    (Function::Inv, 2, 5),
    (Function::Buf, 1, 5),
    (Function::Buf, 2, 6),
    (Function::Nand2, 1, 5),
    (Function::Nor2, 1, 5),
    (Function::And2, 1, 6),
    (Function::Or2, 1, 6),
    (Function::Aoi21, 1, 6),
    (Function::Oai21, 1, 6),
    (Function::Xor2, 1, 7),
    (Function::Xnor2, 1, 7),
    (Function::Mux2, 1, 7),
    (Function::Dff, 1, 10),
];

impl Library {
    /// Generates the synthetic 7 nm-class library for `arch`.
    ///
    /// The generated cells reproduce the architecture properties of the
    /// paper's Figure 1; see the crate docs for the mapping.
    #[must_use]
    pub fn synthetic_7nm(arch: CellArch) -> Library {
        let tech = Technology::for_arch(arch);
        let cells = CELL_SPECS
            .iter()
            .map(|&(function, drive, width_sites)| build_cell(&tech, function, drive, width_sites))
            .collect();
        Library { tech, cells }
    }

    /// The library's technology.
    #[must_use]
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The cell architecture of the library.
    #[must_use]
    pub fn arch(&self) -> CellArch {
        self.tech.arch
    }

    /// All cells.
    #[must_use]
    pub fn cells(&self) -> &[MacroCell] {
        &self.cells
    }

    /// Looks up a cell by name.
    #[must_use]
    pub fn cell_by_name(&self, name: &str) -> Option<&MacroCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Index of a cell by name.
    #[must_use]
    pub fn cell_index(&self, name: &str) -> Option<usize> {
        self.cells.iter().position(|c| c.name == name)
    }

    /// Cell at `index`.
    #[must_use]
    pub fn cell(&self, index: usize) -> &MacroCell {
        &self.cells[index]
    }

    /// Indices of sequential cells.
    #[must_use]
    pub fn sequential(&self) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.function.is_sequential())
            .map(|(i, _)| i)
            .collect()
    }
}

fn timing_for(function: Function, drive: u8, width_sites: i64) -> CellTiming {
    let (res, intrinsic) = match function {
        Function::Inv => (6.0, 4.0),
        Function::Buf => (5.0, 7.0),
        Function::Nand2 => (7.0, 6.0),
        Function::Nor2 => (7.0, 7.0),
        Function::And2 => (7.5, 8.0),
        Function::Or2 => (7.5, 8.0),
        Function::Aoi21 => (8.0, 9.0),
        Function::Oai21 => (8.0, 9.0),
        Function::Xor2 => (8.5, 12.0),
        Function::Xnor2 => (8.5, 12.0),
        Function::Mux2 => (8.0, 11.0),
        Function::Dff => (6.0, 25.0),
    };
    let scale = match drive {
        1 => 1.0,
        2 => 1.7,
        d => 1.0 + 0.7 * f64::from(d - 1),
    };
    CellTiming {
        drive_res: res / scale,
        intrinsic_ps: intrinsic * (1.0 - 0.1 * (scale - 1.0)).max(0.6),
        leakage_nw: width_sites as f64 * 1.5 * scale,
        internal_fj: width_sites as f64 * 0.4 * scale,
        setup_ps: if function.is_sequential() { 15.0 } else { 0.0 },
    }
}

fn cell_name(function: Function, drive: u8) -> String {
    format!("{function}_X{drive}")
}

/// Vertical M1 pin bar centred in site column `col` of the cell.
fn m1_pin_rect(tech: &Technology, col: i64, full_height: bool) -> Rect {
    let sw = tech.site_width.nm();
    let x0 = col * sw + sw / 2 - 6;
    let x1 = col * sw + sw / 2 + 6;
    let (y0, y1) = if full_height {
        (0, tech.row_height.nm())
    } else {
        (60, tech.row_height.nm() - 60)
    };
    Rect::from_nm(x0, y0, x1, y1)
}

/// Horizontal M0 pin segment spanning site columns `[c0, c1)`.
fn m0_pin_rect(tech: &Technology, c0: i64, c1: i64, band: i64) -> Rect {
    let sw = tech.site_width.nm();
    let x0 = c0 * sw + 8;
    let x1 = c1 * sw - 8;
    let y0 = 100 + band * 56;
    Rect::from_nm(x0, y0, x1, y0 + 14)
}

fn build_cell(tech: &Technology, function: Function, drive: u8, width_sites: i64) -> MacroCell {
    let width = tech.site_width * width_sites;
    let height = tech.row_height;
    let base_cap = 0.6
        * match drive {
            1 => 1.0,
            2 => 1.4,
            d => 1.0 + 0.4 * f64::from(d - 1),
        };

    let inputs = function.input_names();
    let out = function.output_name();
    let mut pins: Vec<MacroPin> = Vec::new();
    let mut m1_blockages: Vec<Rect> = Vec::new();

    match tech.arch {
        CellArch::ClosedM1 => {
            // Boundary VDD/VSS vertical M1 pins (full height, site columns
            // 0 and width-1), connected to M2 rails via V12 (paper Fig. 1b).
            pins.push(power_pin("VDD", Layer::M1, m1_pin_rect(tech, 0, true)));
            pins.push(power_pin(
                "VSS",
                Layer::M1,
                m1_pin_rect(tech, width_sites - 1, true),
            ));
            // Inputs occupy interior columns from the left; output sits at
            // the right interior column.
            for (i, name) in inputs.iter().enumerate() {
                let col = 1 + i as i64;
                pins.push(signal_pin(
                    name,
                    PinDir::In,
                    Layer::M1,
                    m1_pin_rect(tech, col, false),
                    pin_cap(name, base_cap),
                ));
            }
            pins.push(signal_pin(
                out,
                PinDir::Out,
                Layer::M1,
                m1_pin_rect(tech, width_sites - 2, false),
                0.0,
            ));
        }
        CellArch::OpenM1 => {
            // Pins are horizontal M0 segments (paper Fig. 1c); no M1 power
            // pins — the PDN staples are modeled at the technology level.
            for (i, name) in inputs.iter().enumerate() {
                let c0 = i as i64;
                let rect = m0_pin_rect(tech, c0, c0 + 2, (i % 2) as i64);
                pins.push(signal_pin(
                    name,
                    PinDir::In,
                    Layer::M0,
                    rect,
                    pin_cap(name, base_cap),
                ));
            }
            let rect = m0_pin_rect(tech, width_sites - 3, width_sites - 1, 2);
            pins.push(signal_pin(out, PinDir::Out, Layer::M0, rect, 0.0));
            // Complex cells carry an internal M1 strap like the ZN
            // connection in Fig. 1(c); it blocks one M1 track.
            if matches!(
                function,
                Function::Xor2 | Function::Xnor2 | Function::Mux2 | Function::Dff
            ) {
                m1_blockages.push(m1_pin_rect(tech, width_sites / 2, false));
            }
        }
        CellArch::Conv12T => {
            // Signal pins on M1, horizontal M1 PG rails across the full cell
            // width at top and bottom (paper Fig. 1a) — these block every
            // vertical M1 track through the row.
            for (i, name) in inputs.iter().enumerate() {
                let col = 1 + i as i64;
                pins.push(signal_pin(
                    name,
                    PinDir::In,
                    Layer::M1,
                    m1_pin_rect(tech, col, false),
                    pin_cap(name, base_cap),
                ));
            }
            pins.push(signal_pin(
                out,
                PinDir::Out,
                Layer::M1,
                m1_pin_rect(tech, width_sites - 2, false),
                0.0,
            ));
            let h = tech.row_height.nm();
            m1_blockages.push(Rect::from_nm(0, 0, width.nm(), 30));
            m1_blockages.push(Rect::from_nm(0, h - 30, width.nm(), h));
        }
    }

    MacroCell {
        name: cell_name(function, drive),
        function,
        drive,
        width_sites,
        width,
        height,
        pins,
        m1_blockages,
        timing: timing_for(function, drive, width_sites),
    }
}

fn pin_cap(name: &str, base: f64) -> f64 {
    if name == "CK" {
        base * 0.7
    } else {
        base
    }
}

fn signal_pin(name: &str, dir: PinDir, layer: Layer, rect: Rect, cap_ff: f64) -> MacroPin {
    MacroPin {
        name: name.to_owned(),
        dir,
        shape: PinShape { layer, rect },
        cap_ff,
    }
}

fn power_pin(name: &str, layer: Layer, rect: Rect) -> MacroPin {
    MacroPin {
        name: name.to_owned(),
        dir: PinDir::Power,
        shape: PinShape { layer, rect },
        cap_ff: 0.0,
    }
}

// Quiet the unused import when building without tests.
const _: fn() -> Point = || Point::ORIGIN;

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;

    #[test]
    fn every_arch_builds_full_library() {
        for arch in CellArch::ALL {
            let lib = Library::synthetic_7nm(arch);
            assert_eq!(lib.cells().len(), CELL_SPECS.len());
            assert_eq!(lib.arch(), arch);
            for cell in lib.cells() {
                assert!(cell.width_sites >= 4);
                assert_eq!(cell.width, lib.tech().site_width * cell.width_sites);
                assert_eq!(cell.height, lib.tech().row_height);
                // One output pin, the right number of inputs.
                assert_eq!(cell.pins.iter().filter(|p| p.dir == PinDir::Out).count(), 1);
                assert_eq!(
                    cell.pins.iter().filter(|p| p.dir == PinDir::In).count(),
                    cell.function.num_inputs()
                );
            }
        }
    }

    #[test]
    fn closedm1_pins_are_vertical_m1_on_site_pitch() {
        // Reproduces the Figure 1(b) properties.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let tech = lib.tech();
        for cell in lib.cells() {
            for pin in cell.signal_pins() {
                assert_eq!(pin.shape.layer, Layer::M1);
                let r = pin.shape.rect;
                assert!(r.width() < r.height(), "1-D vertical shape");
                // Pin centre sits on a track centre (site pitch).
                let cx = pin.x_center(Orient::North, cell.width);
                let col = tech.x_to_site(cx);
                assert_eq!(cx, tech.track_center_x(col));
            }
            // Boundary power pins exist and sit at columns 0 and w-1.
            let vdd = cell.pin("VDD").unwrap();
            let vss = cell.pin("VSS").unwrap();
            assert_eq!(vdd.dir, PinDir::Power);
            assert_eq!(tech.x_to_site(vdd.x_center(Orient::North, cell.width)), 0);
            assert_eq!(
                tech.x_to_site(vss.x_center(Orient::North, cell.width)),
                cell.width_sites - 1
            );
        }
    }

    #[test]
    fn openm1_pins_are_horizontal_m0() {
        // Reproduces the Figure 1(c) properties.
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        for cell in lib.cells() {
            for pin in cell.signal_pins() {
                assert_eq!(pin.shape.layer, Layer::M0);
                let r = pin.shape.rect;
                assert!(r.width() > r.height(), "horizontal M0 segment");
            }
            // No M1 power pins.
            assert!(cell.pin("VDD").is_none());
        }
        // PDN staples are declared at technology level.
        assert_eq!(lib.tech().pdn_staple_pitch_sites, Some(16));
    }

    #[test]
    fn conv12t_blocks_every_m1_track() {
        // Reproduces the Figure 1(a) property: M1 PG rails prevent inter-row
        // vertical M1 everywhere.
        let lib = Library::synthetic_7nm(CellArch::Conv12T);
        let sw = lib.tech().site_width;
        for cell in lib.cells() {
            let blocked = cell.m1_blocked_cols(Orient::North, sw);
            let all: Vec<i64> = (0..cell.width_sites).collect();
            assert_eq!(blocked, all, "{} must block all cols", cell.name);
        }
    }

    #[test]
    fn closedm1_leaves_some_tracks_open() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let sw = lib.tech().site_width;
        // DFF is the widest cell; it must have free interior tracks.
        let dff = lib.cell_by_name("DFF_X1").unwrap();
        let blocked = dff.m1_blocked_cols(Orient::North, sw);
        assert!(blocked.len() < dff.width_sites as usize);
    }

    #[test]
    fn openm1_input_spans_overlap_across_cells() {
        // Input A of one cell and output of another must be able to overlap
        // horizontally when placed appropriately — sanity for dM1.
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        let inv = lib.cell_by_name("INV_X1").unwrap();
        let a = inv.pin("A").unwrap().x_range(Orient::North, inv.width);
        let zn = inv.pin("ZN").unwrap().x_range(Orient::North, inv.width);
        assert!(a.len() >= lib.tech().delta);
        assert!(zn.len() >= lib.tech().delta);
    }

    #[test]
    fn drive_strength_scales_timing() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let x1 = lib.cell_by_name("INV_X1").unwrap();
        let x2 = lib.cell_by_name("INV_X2").unwrap();
        assert!(x2.timing.drive_res < x1.timing.drive_res);
        assert!(x2.timing.leakage_nw > x1.timing.leakage_nw);
        let a1 = x1.pin("A").unwrap().cap_ff;
        let a2 = x2.pin("A").unwrap().cap_ff;
        assert!(a2 > a1);
    }

    #[test]
    fn lookup_helpers() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        assert!(lib.cell_by_name("NAND2_X1").is_some());
        assert!(lib.cell_by_name("missing").is_none());
        assert_eq!(lib.sequential().len(), 1);
    }

    #[test]
    fn dff_clock_pin_has_reduced_cap() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let dff = lib.cell_by_name("DFF_X1").unwrap();
        let d = dff.pin("D").unwrap().cap_ff;
        let ck = dff.pin("CK").unwrap().cap_ff;
        assert!(ck < d);
        assert!(dff.timing.setup_ps > 0.0);
    }
}
