use std::error::Error;
use std::fmt;
use vm1_geom::{Dbu, Interval, Orient, Point, Rect};
use vm1_tech::{Library, MacroPin, PinDir};

/// Handle to an instance of a [`Design`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub usize);

/// Handle to a net of a [`Design`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub usize);

/// Handle to a top-level port of a [`Design`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// A specific pin occurrence: pin `pin` (index into the macro's pin list)
/// of instance `inst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PinRef {
    /// Owning instance.
    pub inst: InstId,
    /// Index into the instance's macro `pins` array.
    pub pin: usize,
}

/// One connection point of a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetPin {
    /// An instance pin.
    Inst(PinRef),
    /// A top-level port.
    Port(PortId),
}

/// A placed standard-cell instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Instance name (unique in the design).
    pub name: String,
    /// Index of the macro in the design's library.
    pub cell: usize,
    /// X position of the left cell edge, in sites.
    pub site: i64,
    /// Placement row index.
    pub row: i64,
    /// Orientation.
    pub orient: Orient,
    /// Fixed instances may not be moved by any optimization.
    pub fixed: bool,
    /// Net connected to each macro pin (parallel to the macro's `pins`).
    pub pin_nets: Vec<Option<NetId>>,
}

/// A top-level design port with a fixed location on the die boundary.
#[derive(Clone, Debug)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Absolute location.
    pub position: Point,
    /// Direction as seen from outside (an input port drives a net).
    pub dir: PinDir,
    /// Connected net.
    pub net: Option<NetId>,
}

/// A signal net.
#[derive(Clone, Debug, Default)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Connection points. By convention the driver (cell output pin or
    /// input port) is listed first when known.
    pub pins: Vec<NetPin>,
}

/// Error raised by [`Design`] validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DesignError {
    /// Two instances occupy a common site.
    Overlap(String, String),
    /// An instance lies outside the core area.
    OutOfCore(String),
    /// A net has no driver or multiple drivers.
    BadDriver(String),
    /// A pin references a missing net or vice versa.
    Dangling(String),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::Overlap(a, b) => write!(f, "instances {a} and {b} overlap"),
            DesignError::OutOfCore(a) => write!(f, "instance {a} outside core area"),
            DesignError::BadDriver(n) => write!(f, "net {n} has no unique driver"),
            DesignError::Dangling(s) => write!(f, "dangling connection: {s}"),
        }
    }
}

impl Error for DesignError {}

/// A complete design: library reference, netlist, and placement state.
///
/// # Examples
///
/// ```
/// use vm1_netlist::Design;
/// use vm1_tech::{CellArch, Library};
///
/// let lib = Library::synthetic_7nm(CellArch::ClosedM1);
/// let mut d = Design::new("demo", lib, 4, 100);
/// let inv = d.library().cell_index("INV_X1").unwrap();
/// let a = d.add_inst("u1", inv);
/// let b = d.add_inst("u2", inv);
/// let n = d.add_net("n1");
/// d.connect(a, "ZN", n);
/// d.connect(b, "A", n);
/// assert_eq!(d.net(n).pins.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Design {
    name: String,
    library: Library,
    insts: Vec<Instance>,
    nets: Vec<Net>,
    ports: Vec<Port>,
    /// Number of placement rows in the core.
    pub num_rows: i64,
    /// Number of sites per row.
    pub sites_per_row: i64,
}

impl Design {
    /// Creates an empty design with a core of `num_rows` × `sites_per_row`.
    #[must_use]
    pub fn new(name: &str, library: Library, num_rows: i64, sites_per_row: i64) -> Design {
        Design {
            name: name.to_owned(),
            library,
            insts: Vec::new(),
            nets: Vec::new(),
            ports: Vec::new(),
            num_rows,
            sites_per_row,
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The standard-cell library this design is mapped to.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Core area rectangle in nanometres.
    #[must_use]
    pub fn core_area(&self) -> Rect {
        let t = self.library.tech();
        Rect::new(
            Point::ORIGIN,
            Point::new(t.site_to_x(self.sites_per_row), t.row_to_y(self.num_rows)),
        )
    }

    /// Adds an unplaced instance of library cell `cell`; returns its id.
    pub fn add_inst(&mut self, name: &str, cell: usize) -> InstId {
        let n_pins = self.library.cell(cell).pins.len();
        let id = InstId(self.insts.len());
        self.insts.push(Instance {
            name: name.to_owned(),
            cell,
            site: 0,
            row: 0,
            orient: Orient::North,
            fixed: false,
            pin_nets: vec![None; n_pins],
        });
        id
    }

    /// Adds an empty net; returns its id.
    pub fn add_net(&mut self, name: &str) -> NetId {
        let id = NetId(self.nets.len());
        self.nets.push(Net {
            name: name.to_owned(),
            pins: Vec::new(),
        });
        id
    }

    /// Adds a port at `position`.
    pub fn add_port(&mut self, name: &str, position: Point, dir: PinDir) -> PortId {
        let id = PortId(self.ports.len());
        self.ports.push(Port {
            name: name.to_owned(),
            position,
            dir,
            net: None,
        });
        id
    }

    /// Connects instance pin `pin_name` of `inst` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if the pin name does not exist on the instance's macro or the
    /// pin is already connected.
    #[expect(clippy::panic, reason = "documented # Panics contract")]
    pub fn connect(&mut self, inst: InstId, pin_name: &str, net: NetId) {
        let cell = self.insts[inst.0].cell;
        let pin = self
            .library
            .cell(cell)
            .pin_index(pin_name)
            .unwrap_or_else(|| panic!("no pin {pin_name} on {}", self.library.cell(cell).name));
        assert!(
            self.insts[inst.0].pin_nets[pin].is_none(),
            "pin {pin_name} of {} already connected",
            self.insts[inst.0].name
        );
        self.insts[inst.0].pin_nets[pin] = Some(net);
        self.nets[net.0]
            .pins
            .push(NetPin::Inst(PinRef { inst, pin }));
    }

    /// Connects a port to a net.
    ///
    /// # Panics
    ///
    /// Panics if the port is already connected.
    pub fn connect_port(&mut self, port: PortId, net: NetId) {
        assert!(
            self.ports[port.0].net.is_none(),
            "port {} already connected",
            self.ports[port.0].name
        );
        self.ports[port.0].net = Some(net);
        self.nets[net.0].pins.push(NetPin::Port(port));
    }

    /// Number of instances.
    #[must_use]
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Instance by id.
    #[must_use]
    pub fn inst(&self, id: InstId) -> &Instance {
        &self.insts[id.0]
    }

    /// Mutable instance by id.
    #[must_use]
    pub fn inst_mut(&mut self, id: InstId) -> &mut Instance {
        &mut self.insts[id.0]
    }

    /// Net by id.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// Port by id.
    #[must_use]
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.0]
    }

    /// Iterator over `(InstId, &Instance)`.
    pub fn insts(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId(i), inst))
    }

    /// Iterator over `(NetId, &Net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i), n))
    }

    /// Iterator over `(PortId, &Port)`.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports.iter().enumerate().map(|(i, p)| (PortId(i), p))
    }

    /// The macro pin behind a [`PinRef`].
    #[must_use]
    pub fn macro_pin(&self, pr: PinRef) -> &MacroPin {
        let inst = &self.insts[pr.inst.0];
        &self.library.cell(inst.cell).pins[pr.pin]
    }

    /// Moves an instance (no legality check; use [`Design::validate_placement`]).
    pub fn move_inst(&mut self, id: InstId, site: i64, row: i64, orient: Orient) {
        let inst = &mut self.insts[id.0];
        inst.site = site;
        inst.row = row;
        inst.orient = orient;
    }

    /// Absolute lower-left corner of an instance, in nanometres.
    #[must_use]
    pub fn inst_origin(&self, id: InstId) -> Point {
        let t = self.library.tech();
        let inst = &self.insts[id.0];
        Point::new(t.site_to_x(inst.site), t.row_to_y(inst.row))
    }

    /// Absolute centre position of a pin (the MILP's `(x_c + x_p, y_c + y_p)`).
    #[must_use]
    pub fn pin_position(&self, pr: PinRef) -> Point {
        let inst = &self.insts[pr.inst.0];
        let cell = self.library.cell(inst.cell);
        let pin = &cell.pins[pr.pin];
        let origin = self.inst_origin(pr.inst);
        Point::new(
            origin.x + pin.x_center(inst.orient, cell.width),
            origin.y + pin.y_center(),
        )
    }

    /// Absolute x-extent of a pin shape (the MILP's
    /// `[x_c + x_min,p, x_c + x_max,p]` used for OpenM1 overlap).
    #[must_use]
    pub fn pin_x_range(&self, pr: PinRef) -> Interval {
        let inst = &self.insts[pr.inst.0];
        let cell = self.library.cell(inst.cell);
        let pin = &cell.pins[pr.pin];
        let origin = self.inst_origin(pr.inst);
        pin.x_range(inst.orient, cell.width).shifted(origin.x)
    }

    /// Absolute position of any net connection point.
    #[must_use]
    pub fn net_pin_position(&self, np: NetPin) -> Point {
        match np {
            NetPin::Inst(pr) => self.pin_position(pr),
            NetPin::Port(p) => self.ports[p.0].position,
        }
    }

    /// Half-perimeter wirelength of one net (constraint (2) of the paper).
    #[must_use]
    pub fn net_hpwl(&self, id: NetId) -> Dbu {
        let positions = self.nets[id.0]
            .pins
            .iter()
            .map(|&p| self.net_pin_position(p));
        Rect::bounding_box(positions).map_or(Dbu::ZERO, Rect::half_perimeter)
    }

    /// Total HPWL over all nets (β = 1 for every net, as in the paper's
    /// experiments).
    #[must_use]
    pub fn total_hpwl(&self) -> Dbu {
        (0..self.nets.len()).map(|i| self.net_hpwl(NetId(i))).sum()
    }

    /// Core utilization: occupied sites / available sites.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let used: i64 = self
            .insts
            .iter()
            .map(|i| self.library.cell(i.cell).width_sites)
            .sum();
        used as f64 / (self.num_rows * self.sites_per_row) as f64
    }

    /// The driver connection of a net, if exactly one exists.
    #[must_use]
    pub fn net_driver(&self, id: NetId) -> Option<NetPin> {
        let mut driver = None;
        for &np in &self.nets[id.0].pins {
            let is_driver = match np {
                NetPin::Inst(pr) => self.macro_pin(pr).dir == PinDir::Out,
                NetPin::Port(p) => self.ports[p.0].dir == PinDir::In,
            };
            if is_driver {
                if driver.is_some() {
                    return None;
                }
                driver = Some(np);
            }
        }
        driver
    }

    /// Checks structural netlist invariants (unique drivers, no dangling
    /// references).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_connectivity(&self) -> Result<(), DesignError> {
        for (i, net) in self.nets.iter().enumerate() {
            if net.pins.is_empty() {
                return Err(DesignError::Dangling(format!("net {} empty", net.name)));
            }
            if self.net_driver(NetId(i)).is_none() {
                return Err(DesignError::BadDriver(net.name.clone()));
            }
        }
        for inst in &self.insts {
            let cell = self.library.cell(inst.cell);
            for (p, net) in inst.pin_nets.iter().enumerate() {
                if cell.pins[p].dir == PinDir::Power {
                    continue;
                }
                if let Some(n) = net {
                    if n.0 >= self.nets.len() {
                        return Err(DesignError::Dangling(format!(
                            "{}/{} -> missing net",
                            inst.name, cell.pins[p].name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks placement legality: instances inside the core, site-aligned
    /// by construction, and no two instances sharing a site.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_placement(&self) -> Result<(), DesignError> {
        // Ordered by row so "the first violated invariant" is the same
        // violation on every run (a hash map here made the reported
        // overlap hash-order-dependent).
        let mut rows: std::collections::BTreeMap<i64, Vec<(i64, i64, usize)>> =
            std::collections::BTreeMap::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let w = self.library.cell(inst.cell).width_sites;
            if inst.row < 0
                || inst.row >= self.num_rows
                || inst.site < 0
                || inst.site + w > self.sites_per_row
            {
                return Err(DesignError::OutOfCore(inst.name.clone()));
            }
            rows.entry(inst.row)
                .or_default()
                .push((inst.site, inst.site + w, i));
        }
        for spans in rows.values_mut() {
            spans.sort_unstable();
            for w in spans.windows(2) {
                if w[0].1 > w[1].0 {
                    return Err(DesignError::Overlap(
                        self.insts[w[0].2].name.clone(),
                        self.insts[w[1].2].name.clone(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// All nets that touch instance `id`.
    #[must_use]
    pub fn inst_nets(&self, id: InstId) -> Vec<NetId> {
        let mut out: Vec<NetId> = self.insts[id.0]
            .pin_nets
            .iter()
            .filter_map(|n| *n)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_tech::CellArch;

    fn small_design() -> Design {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 4, 60);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let nand = d.library().cell_index("NAND2_X1").unwrap();
        let u1 = d.add_inst("u1", inv);
        let u2 = d.add_inst("u2", nand);
        let u3 = d.add_inst("u3", inv);
        let pi = d.add_port("in1", Point::new(Dbu(0), Dbu(0)), PinDir::In);
        let po = d.add_port("out1", Point::new(Dbu(2880), Dbu(1440)), PinDir::Out);
        let n0 = d.add_net("n0");
        d.connect_port(pi, n0);
        d.connect(u1, "A", n0);
        let n1 = d.add_net("n1");
        d.connect(u1, "ZN", n1);
        d.connect(u2, "A", n1);
        let n2 = d.add_net("n2");
        d.connect(u2, "ZN", n2);
        d.connect(u3, "A", n2);
        d.connect(u2, "B", n0);
        let n3 = d.add_net("n3");
        d.connect(u3, "ZN", n3);
        d.connect_port(po, n3);
        d.move_inst(u1, 0, 0, Orient::North);
        d.move_inst(u2, 10, 1, Orient::North);
        d.move_inst(u3, 20, 2, Orient::FlippedNorth);
        d
    }

    #[test]
    fn construction_and_queries() {
        let d = small_design();
        assert_eq!(d.num_insts(), 3);
        assert_eq!(d.num_nets(), 4);
        assert!(d.validate_connectivity().is_ok());
        assert!(d.validate_placement().is_ok());
        assert!(d.utilization() > 0.0 && d.utilization() < 1.0);
    }

    #[test]
    fn pin_positions_respect_placement_and_flip() {
        let d = small_design();
        let u1 = InstId(0);
        let inv = d.library().cell(d.inst(u1).cell);
        let a_idx = inv.pin_index("A").unwrap();
        let p = d.pin_position(PinRef {
            inst: u1,
            pin: a_idx,
        });
        // u1 at site 0 row 0: pin A at col 1 centre = 72.
        assert_eq!(p.x, Dbu(72));
        // u3 flipped at site 20: A col 1 -> flipped to width-72 = 192-72=120.
        let u3 = InstId(2);
        let p3 = d.pin_position(PinRef {
            inst: u3,
            pin: a_idx,
        });
        assert_eq!(p3.x, Dbu(20 * 48 + 120));
        assert_eq!(p3.y, d.library().tech().row_to_y(2) + Dbu(180));
    }

    #[test]
    fn hpwl_matches_hand_computation() {
        let d = small_design();
        // n1: u1.ZN (site 0, col 2 => x=120, y=180) to u2.A (site 10 col 1 => 480+72=552, y=360+180=540)
        let n1 = NetId(2 - 1);
        let hpwl = d.net_hpwl(n1);
        assert_eq!(hpwl, Dbu((552 - 120) + (540 - 180)));
        assert_eq!(
            d.total_hpwl(),
            (0..d.num_nets()).map(|i| d.net_hpwl(NetId(i))).sum()
        );
    }

    #[test]
    fn overlap_detection() {
        let mut d = small_design();
        d.move_inst(InstId(1), 2, 0, Orient::North); // INV_X1 at 0 is 4 sites wide
        assert!(matches!(
            d.validate_placement(),
            Err(DesignError::Overlap(_, _))
        ));
        d.move_inst(InstId(1), 4, 0, Orient::North); // abutment is legal
        assert!(d.validate_placement().is_ok());
    }

    /// Regression for determinism rule D1: with overlaps in several rows,
    /// `validate_placement` must always report the lowest-row, lowest-site
    /// violation. The old `HashMap` grouping reported whichever row the
    /// hasher visited first.
    #[test]
    fn overlap_report_is_lowest_row_first() {
        let mut d = small_design();
        // Overlap in row 2 (u3 on itself is impossible; pile u2 onto u3)...
        d.move_inst(InstId(1), 20, 2, Orient::North);
        // ...and another overlap in row 0 (u1 sits at site 0, width 4).
        let inv = d.library().cell_index("INV_X1").unwrap();
        let u4 = d.add_inst("u4", inv);
        d.move_inst(u4, 2, 0, Orient::North);
        for _ in 0..4 {
            match d.validate_placement() {
                Err(DesignError::Overlap(a, b)) => {
                    assert_eq!((a.as_str(), b.as_str()), ("u1", "u4"));
                }
                other => panic!("expected overlap, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_core_detection() {
        let mut d = small_design();
        d.move_inst(InstId(0), 58, 0, Orient::North); // width 4 > 60-58
        assert!(matches!(
            d.validate_placement(),
            Err(DesignError::OutOfCore(_))
        ));
        d.move_inst(InstId(0), 0, -1, Orient::North);
        assert!(matches!(
            d.validate_placement(),
            Err(DesignError::OutOfCore(_))
        ));
    }

    #[test]
    fn driver_identification() {
        let d = small_design();
        // n0 is driven by the input port.
        assert!(matches!(d.net_driver(NetId(0)), Some(NetPin::Port(_))));
        // n1 is driven by u1.ZN.
        match d.net_driver(NetId(1)) {
            Some(NetPin::Inst(pr)) => {
                assert_eq!(pr.inst, InstId(0));
                assert_eq!(d.macro_pin(pr).name, "ZN");
            }
            other => panic!("unexpected driver {other:?}"),
        }
    }

    #[test]
    fn bad_driver_detected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("bad", lib, 2, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let u1 = d.add_inst("u1", inv);
        let n = d.add_net("floating");
        d.connect(u1, "A", n); // no driver
        assert!(matches!(
            d.validate_connectivity(),
            Err(DesignError::BadDriver(_))
        ));
    }

    #[test]
    fn inst_nets_dedups() {
        let d = small_design();
        let nets = d.inst_nets(InstId(1)); // u2: A->n1, B->n0, ZN->n2
        assert_eq!(nets, vec![NetId(0), NetId(1), NetId(2)]);
    }

    #[test]
    fn pin_x_range_shifts_with_instance() {
        let d = small_design();
        let u1 = InstId(0);
        let inv = d.library().cell(d.inst(u1).cell);
        let zn = inv.pin_index("ZN").unwrap();
        let r0 = d.pin_x_range(PinRef { inst: u1, pin: zn });
        let mut d2 = d.clone();
        d2.move_inst(u1, 5, 0, Orient::North);
        let r1 = d2.pin_x_range(PinRef { inst: u1, pin: zn });
        assert_eq!(r1.lo() - r0.lo(), Dbu(5 * 48));
        assert_eq!(r1.len(), r0.len());
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("x", lib, 2, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let u1 = d.add_inst("u1", inv);
        let n1 = d.add_net("n1");
        let n2 = d.add_net("n2");
        d.connect(u1, "A", n1);
        d.connect(u1, "A", n2);
    }
}
