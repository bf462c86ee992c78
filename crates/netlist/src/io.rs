//! A compact DEF-like text format for [`Design`] round-tripping.
//!
//! The paper's implementation consumes LEF/DEF via OpenAccess; the rest of
//! this workspace is in-memory, but experiments still need to snapshot and
//! reload placements (e.g. to compare optimizer variants on the identical
//! input). The format is line-oriented:
//!
//! ```text
//! VM1DEF 1
//! DESIGN aes_like
//! ARCH ClosedM1
//! CORE <num_rows> <sites_per_row>
//! PORT <name> <x_nm> <y_nm> <IN|OUT>
//! INST <name> <cell> <site> <row> <N|FN> <PLACED|FIXED>
//! NET <name> <conn> <conn> ...      # conn = P:<port> | I:<inst>:<pin>
//! END
//! ```

use crate::{Design, DesignError, NetPin};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use vm1_geom::{Dbu, Orient, Point};
use vm1_tech::{Library, PinDir};

/// Most rows [`read_def`] accepts in a `CORE` line. The largest design
/// the generator makes, vga at the paper's size (`--scale 1`, 68,606
/// instances), has 271 rows (ClosedM1); this is 240 times that.
pub const MAX_CORE_ROWS: i64 = 1 << 16;

/// Most sites per row [`read_def`] accepts in a `CORE` line: 100 times
/// the 2,569 of the widest generated core (vga, Conv12T, `--scale 1`).
pub const MAX_CORE_SITES: i64 = 1 << 18;

/// Most sites in all (rows × sites per row) [`read_def`] accepts: 61
/// times the 549,859 of the largest generated core (vga, `--scale 1`).
/// The occupancy index and the window grid allocate per row and per
/// window, so an absurd `CORE` line is refused before anything is
/// allocated for it.
pub const MAX_CORE_AREA: i64 = 1 << 25;

/// Error from [`read_def`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadDefError {
    /// Line did not match the expected grammar.
    Syntax(usize, String),
    /// A `CORE` dimension is not positive, or the rows, the sites per
    /// row or their product exceed [`MAX_CORE_ROWS`], [`MAX_CORE_SITES`]
    /// or [`MAX_CORE_AREA`].
    CoreSize {
        /// 1-based line of the `CORE` statement.
        line: usize,
        /// Rows as written.
        rows: i64,
        /// Sites per row as written.
        sites: i64,
    },
    /// Reference to an unknown cell/pin/port/instance.
    Unknown(usize, String),
    /// The library's architecture does not match the file.
    ArchMismatch(String),
    /// The reconstructed design failed validation.
    Invalid(DesignError),
}

impl fmt::Display for ReadDefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadDefError::Syntax(line, msg) => write!(f, "line {line}: syntax error: {msg}"),
            ReadDefError::CoreSize { line, rows, sites } => write!(
                f,
                "line {line}: core of {rows} rows x {sites} sites is out of range \
                 (1..={MAX_CORE_ROWS} rows, 1..={MAX_CORE_SITES} sites per row, \
                 at most {MAX_CORE_AREA} sites in all)"
            ),
            ReadDefError::Unknown(line, what) => write!(f, "line {line}: unknown {what}"),
            ReadDefError::ArchMismatch(a) => {
                write!(f, "library architecture mismatch: file has {a}")
            }
            ReadDefError::Invalid(e) => write!(f, "invalid design: {e}"),
        }
    }
}

impl Error for ReadDefError {}

/// Serializes a design to the VM1DEF text format.
#[must_use]
pub fn write_def(design: &Design) -> String {
    let mut out = String::with_capacity(64 * design.num_insts());
    out.push_str("VM1DEF 1\n");
    out.push_str(&format!("DESIGN {}\n", design.name()));
    out.push_str(&format!("ARCH {}\n", design.library().arch()));
    out.push_str(&format!(
        "CORE {} {}\n",
        design.num_rows, design.sites_per_row
    ));
    for (_, p) in design.ports() {
        let dir = if p.dir == PinDir::In { "IN" } else { "OUT" };
        out.push_str(&format!(
            "PORT {} {} {} {}\n",
            p.name, p.position.x, p.position.y, dir
        ));
    }
    for (_, i) in design.insts() {
        let cell = design.library().cell(i.cell);
        out.push_str(&format!(
            "INST {} {} {} {} {} {}\n",
            i.name,
            cell.name,
            i.site,
            i.row,
            i.orient,
            if i.fixed { "FIXED" } else { "PLACED" }
        ));
    }
    for (_, n) in design.nets() {
        out.push_str(&format!("NET {}", n.name));
        for &pin in &n.pins {
            match pin {
                NetPin::Port(p) => {
                    out.push_str(&format!(" P:{}", design.port(p).name));
                }
                NetPin::Inst(pr) => {
                    let inst = design.inst(pr.inst);
                    let pin_name = &design.library().cell(inst.cell).pins[pr.pin].name;
                    out.push_str(&format!(" I:{}:{}", inst.name, pin_name));
                }
            }
        }
        out.push('\n');
    }
    out.push_str("END\n");
    out
}

/// Parses a VM1DEF file back into a [`Design`] mapped onto `library`.
///
/// # Errors
///
/// Returns [`ReadDefError`] on grammar violations, unknown references, or
/// architecture mismatch, when the `CORE` size is out of range (see
/// [`MAX_CORE_AREA`]), and when a net names a pin its cell lacks or
/// connects a pin or port that is already connected. Connectivity is
/// re-validated after parsing.
pub fn read_def(text: &str, library: &Library) -> Result<Design, ReadDefError> {
    let mut design: Option<Design> = None;
    let mut name = String::from("unnamed");
    let mut port_ids: BTreeMap<String, crate::PortId> = BTreeMap::new();
    let mut inst_ids: BTreeMap<String, crate::InstId> = BTreeMap::new();

    let syntax = |ln: usize, m: &str| ReadDefError::Syntax(ln + 1, m.to_owned());

    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let kw = tok.next().unwrap_or_default();
        match kw {
            "VM1DEF" | "END" => {}
            "DESIGN" => {
                name = tok
                    .next()
                    .ok_or_else(|| syntax(ln, "DESIGN needs a name"))?
                    .to_owned();
            }
            "ARCH" => {
                let a = tok.next().ok_or_else(|| syntax(ln, "ARCH needs a value"))?;
                if a != library.arch().to_string() {
                    return Err(ReadDefError::ArchMismatch(a.to_owned()));
                }
            }
            "CORE" => {
                if design.is_some() {
                    return Err(syntax(ln, "second CORE"));
                }
                let rows: i64 = parse_tok(&mut tok, ln, "rows")?;
                let sites: i64 = parse_tok(&mut tok, ln, "sites")?;
                let in_range = (1..=MAX_CORE_ROWS).contains(&rows)
                    && (1..=MAX_CORE_SITES).contains(&sites)
                    && rows.checked_mul(sites).is_some_and(|a| a <= MAX_CORE_AREA);
                if !in_range {
                    return Err(ReadDefError::CoreSize {
                        line: ln + 1,
                        rows,
                        sites,
                    });
                }
                design = Some(Design::new(&name, library.clone(), rows, sites));
            }
            "PORT" => {
                let d = design
                    .as_mut()
                    .ok_or_else(|| syntax(ln, "PORT before CORE"))?;
                let pname = tok.next().ok_or_else(|| syntax(ln, "PORT name"))?;
                let x: i64 = parse_tok(&mut tok, ln, "x")?;
                let y: i64 = parse_tok(&mut tok, ln, "y")?;
                let dir = match tok.next() {
                    Some("IN") => PinDir::In,
                    Some("OUT") => PinDir::Out,
                    _ => return Err(syntax(ln, "PORT dir must be IN|OUT")),
                };
                let id = d.add_port(pname, Point::new(Dbu(x), Dbu(y)), dir);
                port_ids.insert(pname.to_owned(), id);
            }
            "INST" => {
                let d = design
                    .as_mut()
                    .ok_or_else(|| syntax(ln, "INST before CORE"))?;
                let iname = tok.next().ok_or_else(|| syntax(ln, "INST name"))?;
                let cname = tok.next().ok_or_else(|| syntax(ln, "INST cell"))?;
                let cell = library
                    .cell_index(cname)
                    .ok_or_else(|| ReadDefError::Unknown(ln + 1, format!("cell {cname}")))?;
                let site: i64 = parse_tok(&mut tok, ln, "site")?;
                let row: i64 = parse_tok(&mut tok, ln, "row")?;
                let orient = match tok.next() {
                    Some("N") => Orient::North,
                    Some("FN") => Orient::FlippedNorth,
                    _ => return Err(syntax(ln, "INST orient must be N|FN")),
                };
                let fixed = match tok.next() {
                    Some("FIXED") => true,
                    Some("PLACED") | None => false,
                    _ => return Err(syntax(ln, "INST status must be PLACED|FIXED")),
                };
                let id = d.add_inst(iname, cell);
                d.move_inst(id, site, row, orient);
                d.inst_mut(id).fixed = fixed;
                inst_ids.insert(iname.to_owned(), id);
            }
            "NET" => {
                let d = design
                    .as_mut()
                    .ok_or_else(|| syntax(ln, "NET before CORE"))?;
                let nname = tok.next().ok_or_else(|| syntax(ln, "NET name"))?;
                let net = d.add_net(nname);
                for conn in tok {
                    if let Some(pname) = conn.strip_prefix("P:") {
                        let &pid = port_ids.get(pname).ok_or_else(|| {
                            ReadDefError::Unknown(ln + 1, format!("port {pname}"))
                        })?;
                        if d.port(pid).net.is_some() {
                            return Err(syntax(ln, &format!("port {pname} connected twice")));
                        }
                        d.connect_port(pid, net);
                    } else if let Some(rest) = conn.strip_prefix("I:") {
                        let (iname, pin) = rest
                            .split_once(':')
                            .ok_or_else(|| syntax(ln, "conn must be I:<inst>:<pin>"))?;
                        let &iid = inst_ids.get(iname).ok_or_else(|| {
                            ReadDefError::Unknown(ln + 1, format!("inst {iname}"))
                        })?;
                        let inst = d.inst(iid);
                        let idx = library.cell(inst.cell).pin_index(pin).ok_or_else(|| {
                            ReadDefError::Unknown(ln + 1, format!("pin {iname}:{pin}"))
                        })?;
                        if inst.pin_nets[idx].is_some() {
                            return Err(syntax(ln, &format!("pin {iname}:{pin} connected twice")));
                        }
                        d.connect(iid, pin, net);
                    } else {
                        return Err(syntax(ln, "conn must start with P: or I:"));
                    }
                }
            }
            other => return Err(syntax(ln, &format!("unknown keyword {other}"))),
        }
    }

    let d = design.ok_or_else(|| syntax(0, "missing CORE section"))?;
    d.validate_connectivity().map_err(ReadDefError::Invalid)?;
    Ok(d)
}

fn parse_tok<'a, T: std::str::FromStr>(
    tok: &mut impl Iterator<Item = &'a str>,
    ln: usize,
    what: &str,
) -> Result<T, ReadDefError> {
    tok.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ReadDefError::Syntax(ln + 1, format!("expected {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::CellArch;

    fn sample() -> (Design, Library) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(120)
            .generate(&lib, 3);
        (d, lib)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (d, lib) = sample();
        let text = write_def(&d);
        let d2 = read_def(&text, &lib).expect("parse back");
        assert_eq!(d.name(), d2.name());
        assert_eq!(d.num_insts(), d2.num_insts());
        assert_eq!(d.num_nets(), d2.num_nets());
        assert_eq!(d.num_rows, d2.num_rows);
        assert_eq!(d.sites_per_row, d2.sites_per_row);
        for ((_, a), (_, b)) in d.insts().zip(d2.insts()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.site, b.site);
            assert_eq!(a.row, b.row);
            assert_eq!(a.orient, b.orient);
        }
        assert_eq!(d.total_hpwl(), d2.total_hpwl());
    }

    #[test]
    fn round_trip_preserves_placement_after_moves() {
        let (mut d, lib) = sample();
        d.move_inst(crate::InstId(0), 7, 1, Orient::FlippedNorth);
        d.inst_mut(crate::InstId(1)).fixed = true;
        let d2 = read_def(&write_def(&d), &lib).unwrap();
        assert_eq!(d2.inst(crate::InstId(0)).site, 7);
        assert_eq!(d2.inst(crate::InstId(0)).orient, Orient::FlippedNorth);
        assert!(d2.inst(crate::InstId(1)).fixed);
    }

    #[test]
    fn arch_mismatch_detected() {
        let (d, _) = sample();
        let open = Library::synthetic_7nm(CellArch::OpenM1);
        assert!(matches!(
            read_def(&write_def(&d), &open),
            Err(ReadDefError::ArchMismatch(_))
        ));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nFROB\n";
        match read_def(bad, &lib) {
            Err(ReadDefError::Syntax(5, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_cell_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nINST u0 NOCELL 0 0 N PLACED\n";
        assert!(matches!(
            read_def(bad, &lib),
            Err(ReadDefError::Unknown(5, _))
        ));
    }

    #[test]
    fn core_size_out_of_range_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let def = |core: &str| format!("VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE {core}\nEND\n");
        for (core, rows, sites) in [
            ("4000000000000 100", 4_000_000_000_000, 100),
            ("0 20", 0, 20),
            ("2 -1", 2, -1),
            ("65537 2", MAX_CORE_ROWS + 1, 2),
            ("2 262145", 2, MAX_CORE_SITES + 1),
            ("65536 1024", MAX_CORE_ROWS, 1024),
        ] {
            assert_eq!(
                read_def(&def(core), &lib).err(),
                Some(ReadDefError::CoreSize {
                    line: 4,
                    rows,
                    sites
                }),
                "CORE {core}"
            );
        }
        let d = read_def(&def("65536 512"), &lib).unwrap();
        assert_eq!(d.num_rows * d.sites_per_row, MAX_CORE_AREA);
    }

    const ONE_INV: &str = "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE 2 20\n\
                            PORT a 0 0 IN\nINST u0 INV_X1 0 0 N PLACED\n";

    #[test]
    fn unknown_pin_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = format!("{ONE_INV}NET n0 P:a I:u0:BOGUS\n");
        assert_eq!(
            read_def(&bad, &lib).err(),
            Some(ReadDefError::Unknown(7, "pin u0:BOGUS".into()))
        );
    }

    #[test]
    fn pin_connected_twice_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = format!("{ONE_INV}NET n0 P:a I:u0:A\nNET n1 I:u0:A\n");
        assert!(matches!(
            read_def(&bad, &lib),
            Err(ReadDefError::Syntax(8, msg)) if msg.contains("u0:A connected twice")
        ));
    }

    #[test]
    fn port_connected_twice_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = format!("{ONE_INV}NET n0 P:a I:u0:A\nNET n1 P:a\n");
        assert!(matches!(
            read_def(&bad, &lib),
            Err(ReadDefError::Syntax(8, msg)) if msg.contains("port a connected twice")
        ));
    }

    #[test]
    fn second_core_rejected() {
        // A second CORE used to start a new design while the instance
        // names still pointed into the first one, so the NET line below
        // indexed past the new design's instances and panicked.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = format!("{ONE_INV}CORE 2 20\nNET n0 P:a I:u0:A\n");
        assert!(matches!(
            read_def(&bad, &lib),
            Err(ReadDefError::Syntax(7, msg)) if msg.contains("second CORE")
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let txt = "VM1DEF 1\n# comment\n\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nEND\n";
        let d = read_def(txt, &lib).unwrap();
        assert_eq!(d.name(), "x");
        assert_eq!(d.num_insts(), 0);
    }
}
