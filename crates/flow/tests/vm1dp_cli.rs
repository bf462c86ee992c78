//! `vm1dp opt` fails closed: an illegal input placement exits 3 before
//! anything is optimized, an out-of-range core exits 1 before anything
//! is allocated for it, and a closed standard output neither panics nor
//! stops the command from writing its files. `vm1dp audit` exits 0 on a
//! legal design and 3 on an overlapping one. A usage error exits 2.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use vm1_netlist::io::read_def;
use vm1_tech::{CellArch, Library};

fn vm1dp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vm1dp"))
}

/// An empty directory of its own for one test.
fn scratch_dir(test: &str) -> io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a small legal design (~50 instances) to `dir/in.def`.
fn generate(dir: &Path) -> io::Result<PathBuf> {
    let path = dir.join("in.def");
    let status = vm1dp()
        .args([
            "gen",
            "--profile",
            "m0",
            "--scale",
            "0.005",
            "--seed",
            "3",
            "-o",
        ])
        .arg(&path)
        .stdout(Stdio::null())
        .status()?;
    assert!(status.success(), "vm1dp gen failed: {status}");
    Ok(path)
}

/// Writes `dir/bad.def`: a generated design with its second instance
/// moved onto the first one's site and row.
fn generate_overlapping(dir: &Path) -> io::Result<PathBuf> {
    let text = std::fs::read_to_string(generate(dir)?)?;
    let mut insts = text.lines().filter(|l| l.starts_with("INST "));
    let (Some(first), Some(second)) = (insts.next(), insts.next()) else {
        return Err(io::Error::other(
            "generated design has fewer than two instances",
        ));
    };
    let first: Vec<&str> = first.split_whitespace().collect();
    let mut moved: Vec<&str> = second.split_whitespace().collect();
    moved[3] = first[3];
    moved[4] = first[4];
    let bad = dir.join("bad.def");
    std::fs::write(&bad, text.replacen(second, &moved.join(" "), 1))?;
    Ok(bad)
}

#[test]
fn opt_rejects_an_overlapping_placement_with_exit_3() {
    let dir = scratch_dir("opt_rejects_overlap").unwrap();
    let bad = generate_overlapping(&dir).unwrap();

    let out_def = dir.join("out.def");
    let out = vm1dp()
        .args(["opt", "-i"])
        .arg(&bad)
        .arg("-o")
        .arg(&out_def)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("illegal input placement"),
        "stderr: {stderr}"
    );
    assert!(!out_def.exists(), "an illegal input is not optimized");
}

#[test]
fn opt_with_closed_stdout_writes_complete_files() {
    let dir = scratch_dir("opt_closed_stdout").unwrap();
    let input = generate(&dir).unwrap();
    let (reader, writer) = std::io::pipe().unwrap();
    // With the read end gone, every write to the child's stdout fails
    // with a broken pipe, as under `vm1dp opt … | head -0`.
    drop(reader);
    let out_def = dir.join("out.def");
    let metrics = dir.join("metrics.json");
    let out = vm1dp()
        .args(["opt", "--threads", "1", "-i"])
        .arg(&input)
        .arg("-o")
        .arg(&out_def)
        .arg("--metrics-out")
        .arg(&metrics)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let original = read_def(&std::fs::read_to_string(&input).unwrap(), &lib).unwrap();
    let text = std::fs::read_to_string(&out_def).unwrap();
    assert!(text.ends_with("END\n"), "output DEF cut short");
    let optimized = read_def(&text, &lib).expect("output DEF parses");
    assert_eq!(optimized.num_insts(), original.num_insts());
    optimized.validate_placement().unwrap();
    let metrics = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics.contains("\"cells_changed\""),
        "metrics file incomplete"
    );
}

#[test]
fn opt_rejects_an_oversized_core_with_exit_1() {
    let dir = scratch_dir("opt_rejects_oversized_core").unwrap();
    let huge = dir.join("huge.def");
    std::fs::write(
        &huge,
        "VM1DEF 1\nDESIGN huge\nARCH ClosedM1\nCORE 4000000000000 100\nEND\n",
    )
    .unwrap();
    let out_def = dir.join("out.def");
    let out = vm1dp()
        .args(["opt", "-i"])
        .arg(&huge)
        .arg("-o")
        .arg(&out_def)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("line 4: core of 4000000000000 rows x 100 sites is out of range"),
        "stderr: {stderr}"
    );
    assert!(!out_def.exists());
}

#[test]
fn audit_of_a_legal_design_exits_0() {
    let dir = scratch_dir("audit_legal").unwrap();
    let input = generate(&dir).unwrap();
    let out = vm1dp().args(["audit", "-i"]).arg(&input).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("audit clean"), "stdout: {stdout}");
}

#[test]
fn audit_of_an_overlapping_placement_exits_3() {
    let dir = scratch_dir("audit_overlap").unwrap();
    let bad = generate_overlapping(&dir).unwrap();
    let out = vm1dp().args(["audit", "-i"]).arg(&bad).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "stdout: {stdout}");
    assert!(!stdout.contains("audit clean"), "stdout: {stdout}");
}

#[test]
fn usage_errors_exit_2() {
    for (args, error) in [
        (&["opt", "--solver", "greedy"][..], "unknown solver greedy"),
        (&["opt", "--threads", "0"], "--threads must be positive"),
        (&["gen", "--scale", "x"], "bad --scale"),
        (&["frobnicate"], "unknown subcommand frobnicate"),
    ] {
        let out = vm1dp().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l == format!("error: {error}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
