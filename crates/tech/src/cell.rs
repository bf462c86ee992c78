use crate::Layer;
use std::fmt;
use vm1_geom::{Dbu, Interval, Orient, Rect};

/// Logical function of a standard cell, used by the netlist generator and
/// the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Function {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// AND-OR-invert 21.
    Aoi21,
    /// OR-AND-invert 21.
    Oai21,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer.
    Mux2,
    /// D flip-flop.
    Dff,
}

impl Function {
    /// Whether the cell is a sequential element.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, Function::Dff)
    }

    /// Names of the input pins, in canonical order.
    #[must_use]
    pub fn input_names(self) -> &'static [&'static str] {
        match self {
            Function::Inv | Function::Buf => &["A"],
            Function::Nand2
            | Function::Nor2
            | Function::And2
            | Function::Or2
            | Function::Xor2
            | Function::Xnor2 => &["A", "B"],
            Function::Aoi21 | Function::Oai21 => &["A", "B", "C"],
            Function::Mux2 => &["A", "B", "S"],
            Function::Dff => &["D", "CK"],
        }
    }

    /// Name of the output pin.
    #[must_use]
    pub fn output_name(self) -> &'static str {
        if self.is_sequential() {
            "Q"
        } else {
            "ZN"
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Function::Inv => "INV",
            Function::Buf => "BUF",
            Function::Nand2 => "NAND2",
            Function::Nor2 => "NOR2",
            Function::And2 => "AND2",
            Function::Or2 => "OR2",
            Function::Aoi21 => "AOI21",
            Function::Oai21 => "OAI21",
            Function::Xor2 => "XOR2",
            Function::Xnor2 => "XNOR2",
            Function::Mux2 => "MUX2",
            Function::Dff => "DFF",
        };
        write!(f, "{s}")
    }
}

/// Direction of a cell pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// Signal input.
    In,
    /// Signal output.
    Out,
    /// Power/ground pin (blocks routing resources; carries no signal net).
    Power,
}

/// A single rectangular pin geometry, relative to the cell origin in the
/// un-flipped ([`Orient::North`]) orientation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinShape {
    /// Layer the shape lives on (M1 for ClosedM1/conventional pins, M0 for
    /// OpenM1 pins).
    pub layer: Layer,
    /// Shape extent relative to the cell's lower-left corner.
    pub rect: Rect,
}

/// A pin of a [`MacroCell`].
#[derive(Clone, Debug)]
pub struct MacroPin {
    /// Pin name ("A", "ZN", "VDD", …).
    pub name: String,
    /// Signal direction.
    pub dir: PinDir,
    /// Physical shape of the pin.
    pub shape: PinShape,
    /// Input capacitance presented to the driving net (fF); zero for
    /// outputs and power pins.
    pub cap_ff: f64,
}

impl MacroPin {
    /// Cell-relative x-extent of the pin under `orient` for a cell of the
    /// given `width`.
    #[must_use]
    pub fn x_range(&self, orient: Orient, width: Dbu) -> Interval {
        let (lo, hi) = orient.apply_x_range(self.shape.rect.lo().x, self.shape.rect.hi().x, width);
        Interval::new(lo, hi)
    }

    /// Cell-relative x of the pin's access-point centre under `orient`.
    #[must_use]
    pub fn x_center(&self, orient: Orient, width: Dbu) -> Dbu {
        let r = self.x_range(orient, width);
        (r.lo() + r.hi()) / 2
    }

    /// Cell-relative y of the pin's access-point centre (flips do not move
    /// y).
    #[must_use]
    pub fn y_center(&self) -> Dbu {
        self.shape.rect.center().y
    }
}

/// Per-cell timing and power characterization (single-arc lumped model).
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// Output drive resistance (kΩ).
    pub drive_res: f64,
    /// Intrinsic (unloaded) delay (ps); clk→q delay for flops.
    pub intrinsic_ps: f64,
    /// Leakage power (nW).
    pub leakage_nw: f64,
    /// Internal energy per output toggle (fJ).
    pub internal_fj: f64,
    /// Setup time for sequential cells (ps); zero otherwise.
    pub setup_ps: f64,
}

/// A standard-cell template ("macro" in LEF terminology).
#[derive(Clone, Debug)]
pub struct MacroCell {
    /// Cell name, e.g. `NAND2_X1`.
    pub name: String,
    /// Logical function.
    pub function: Function,
    /// Drive-strength index (1, 2, …).
    pub drive: u8,
    /// Width in placement sites.
    pub width_sites: i64,
    /// Width in nanometres (width_sites · site width).
    pub width: Dbu,
    /// Row height in nanometres.
    pub height: Dbu,
    /// All pins (signal + power).
    pub pins: Vec<MacroPin>,
    /// Additional M1 shapes that block routing but are not pins (e.g.
    /// internal straps in OpenM1 cells, PG rails in conventional cells).
    pub m1_blockages: Vec<Rect>,
    /// Timing/power data.
    pub timing: CellTiming,
}

impl MacroCell {
    /// Signal pins only (inputs and the output).
    pub fn signal_pins(&self) -> impl Iterator<Item = &MacroPin> {
        self.pins.iter().filter(|p| p.dir != PinDir::Power)
    }

    /// Looks up a pin by name.
    #[must_use]
    pub fn pin(&self, name: &str) -> Option<&MacroPin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Index of a signal pin by name within `pins`.
    #[must_use]
    pub fn pin_index(&self, name: &str) -> Option<usize> {
        self.pins.iter().position(|p| p.name == name)
    }

    /// Site columns (0-based, cell-relative) whose M1 track is blocked by
    /// this cell under `orient` — by M1 pins, M1 power pins, or M1
    /// blockages. The router cannot run inter-row vertical M1 through these
    /// columns, except at a pin column when connecting to that very pin.
    #[must_use]
    pub fn m1_blocked_cols(&self, orient: Orient, site_width: Dbu) -> Vec<i64> {
        let mut cols = Vec::new();
        let mut push_range = |lo: Dbu, hi: Dbu| {
            let c0 = lo.nm().div_euclid(site_width.nm());
            // hi is exclusive.
            let c1 = (hi.nm() - 1).div_euclid(site_width.nm());
            for c in c0..=c1.min(self.width_sites - 1) {
                if c >= 0 && !cols.contains(&c) {
                    cols.push(c);
                }
            }
        };
        for pin in &self.pins {
            if pin.shape.layer == Layer::M1 {
                let (lo, hi) =
                    orient.apply_x_range(pin.shape.rect.lo().x, pin.shape.rect.hi().x, self.width);
                push_range(lo, hi);
            }
        }
        for blk in &self.m1_blockages {
            let (lo, hi) = orient.apply_x_range(blk.lo().x, blk.hi().x, self.width);
            push_range(lo, hi);
        }
        cols.sort_unstable();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Point;

    fn pin(name: &str, dir: PinDir, layer: Layer, x0: i64, x1: i64) -> MacroPin {
        MacroPin {
            name: name.to_owned(),
            dir,
            shape: PinShape {
                layer,
                rect: Rect::new(Point::new(Dbu(x0), Dbu(60)), Point::new(Dbu(x1), Dbu(300))),
            },
            cap_ff: 0.6,
        }
    }

    fn test_cell() -> MacroCell {
        MacroCell {
            name: "T".into(),
            function: Function::Nand2,
            drive: 1,
            width_sites: 4,
            width: Dbu(192),
            height: Dbu(360),
            pins: vec![
                pin("A", PinDir::In, Layer::M1, 66, 78),      // col 1
                pin("B", PinDir::In, Layer::M1, 114, 126),    // col 2
                pin("ZN", PinDir::Out, Layer::M1, 162, 174),  // col 3
                pin("VDD", PinDir::Power, Layer::M1, 18, 30), // col 0
            ],
            m1_blockages: vec![],
            timing: CellTiming {
                drive_res: 7.0,
                intrinsic_ps: 6.0,
                leakage_nw: 5.0,
                internal_fj: 1.5,
                setup_ps: 0.0,
            },
        }
    }

    #[test]
    fn function_metadata() {
        assert_eq!(Function::Dff.input_names(), &["D", "CK"]);
        assert_eq!(Function::Dff.output_name(), "Q");
        assert_eq!(Function::Inv.output_name(), "ZN");
        assert!(Function::Dff.is_sequential());
        assert!(!Function::Xor2.is_sequential());
    }

    #[test]
    fn signal_pins_exclude_power() {
        let c = test_cell();
        let names: Vec<_> = c.signal_pins().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "ZN"]);
    }

    #[test]
    fn pin_lookup() {
        let c = test_cell();
        assert!(c.pin("B").is_some());
        assert!(c.pin("nope").is_none());
        assert_eq!(c.pin_index("ZN"), Some(2));
    }

    #[test]
    fn pin_x_center_flips() {
        let c = test_cell();
        let a = c.pin("A").unwrap();
        assert_eq!(a.x_center(Orient::North, c.width), Dbu(72));
        // Flipped: 192 - 72 = 120.
        assert_eq!(a.x_center(Orient::FlippedNorth, c.width), Dbu(120));
        assert_eq!(a.y_center(), Dbu(180));
    }

    #[test]
    fn m1_blocked_cols_include_power_and_flip() {
        let c = test_cell();
        let sw = Dbu(48);
        assert_eq!(c.m1_blocked_cols(Orient::North, sw), vec![0, 1, 2, 3]);
        // Under flip, col k becomes width_sites-1-k, same set here (symmetric).
        assert_eq!(
            c.m1_blocked_cols(Orient::FlippedNorth, sw),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn m1_blockage_rects_block() {
        let mut c = test_cell();
        c.pins.truncate(1); // only pin A at col 1
        c.m1_blockages.push(Rect::from_nm(150, 0, 160, 360)); // col 3
        let cols = c.m1_blocked_cols(Orient::North, Dbu(48));
        assert_eq!(cols, vec![1, 3]);
    }
}
