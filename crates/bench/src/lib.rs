//! CLI parsing shared by the experiment binaries.
//!
//! The experiment binaries regenerate the paper's artifacts:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `expt_a1` | Figure 5 — RWL/runtime vs window size & perturbation |
//! | `expt_a2` | Figure 6 — RWL and #dM1 vs α |
//! | `expt_a3` | Figure 7 — the five optimization sequences |
//! | `expt_b` | Table 2 — ClosedM1 and OpenM1 designs |
//! | `expt_fig8` | Figure 8 — DRVs vs utilization |
//!
//! All binaries accept `--scale smoke|reduced` (default `reduced`)
//! and, where applicable, `--arch closedm1|openm1|both`.

#![warn(missing_docs)]

use vm1_flow::experiments::ExperimentScale;
use vm1_tech::CellArch;

/// Parsed command-line options of the experiment binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Run scale.
    pub scale: ExperimentScale,
    /// Architectures to run.
    pub archs: ArchSel,
}

/// Architecture selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchSel {
    /// ClosedM1 only.
    ClosedM1,
    /// OpenM1 only.
    OpenM1,
    /// Both architectures.
    Both,
}

impl ArchSel {
    /// The selected architectures in run order.
    #[must_use]
    pub fn list(self) -> Vec<CellArch> {
        match self {
            ArchSel::ClosedM1 => vec![CellArch::ClosedM1],
            ArchSel::OpenM1 => vec![CellArch::OpenM1],
            ArchSel::Both => vec![CellArch::ClosedM1, CellArch::OpenM1],
        }
    }
}

/// Parses binary arguments. Unknown arguments abort with a usage message.
///
/// # Panics
///
/// Exits the process (after printing usage) on invalid arguments.
#[must_use]
pub fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        scale: ExperimentScale::Reduced,
        archs: ArchSel::Both,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                cli.scale = match it.next().map(String::as_str) {
                    Some("smoke") => ExperimentScale::Smoke,
                    Some("reduced") => ExperimentScale::Reduced,
                    other => usage(&format!("bad --scale {other:?}")),
                };
            }
            "--arch" => {
                cli.archs = match it.next().map(String::as_str) {
                    Some("closedm1") => ArchSel::ClosedM1,
                    Some("openm1") => ArchSel::OpenM1,
                    Some("both") => ArchSel::Both,
                    other => usage(&format!("bad --arch {other:?}")),
                };
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    cli
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <binary> [--scale smoke|reduced] [--arch closedm1|openm1|both]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Parses `std::env::args` (minus the binary name) with [`parse_cli`].
#[must_use]
pub fn env_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_cli(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn defaults() {
        let cli = parse_cli(&[]);
        assert_eq!(cli.scale, ExperimentScale::Reduced);
        assert_eq!(cli.archs, ArchSel::Both);
    }

    #[test]
    fn parses_scale_and_arch() {
        let cli = parse_cli(&s(&["--scale", "smoke", "--arch", "openm1"]));
        assert_eq!(cli.scale, ExperimentScale::Smoke);
        assert_eq!(cli.archs, ArchSel::OpenM1);
        assert_eq!(cli.archs.list(), vec![CellArch::OpenM1]);
    }

    #[test]
    fn both_lists_two() {
        assert_eq!(ArchSel::Both.list().len(), 2);
    }
}
