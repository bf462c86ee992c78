//! The parts of determinism rule D5 (DESIGN.md §10) that clippy cannot
//! express, checked on the workspace sources as plain text:
//!
//! * every member crate inherits `[workspace.lints]` and the root
//!   forbids `unsafe_code`;
//! * solver and session result types carry a struct-level `#[must_use]`;
//! * milp/certify library code holds no raw negative-exponent float
//!   literal and no `==` against a float literal (named tolerances live
//!   in `crates/milp/src/tol.rs`; clippy's `float_cmp` does not flag
//!   `x == 0.0`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result types that must carry a struct-level `#[must_use]`.
const MUST_USE_TYPES: &[(&str, &str)] = &[
    ("crates/core/src/session.rs", "OptStats"),
    ("crates/core/src/objective.rs", "Objective"),
    ("crates/core/src/audit.rs", "DesignAuditReport"),
    ("crates/place/src/refine.rs", "RefineStats"),
    ("crates/place/src/verify.rs", "VerifyReport"),
    ("crates/milp/src/branch.rs", "MilpSolution"),
    ("crates/milp/src/branch.rs", "CertifiedSolution"),
    ("crates/milp/src/cert.rs", "Certificate"),
    ("crates/certify/src/check.rs", "CheckReport"),
    ("crates/obs/src/lib.rs", "MetricsReport"),
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> io::Result<String> {
    fs::read_to_string(root().join(rel))
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut v = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?;
    v.sort();
    Ok(v)
}

#[test]
fn every_crate_inherits_workspace_lints_and_unsafe_is_forbidden() {
    assert!(
        read("Cargo.toml")
            .expect("read root Cargo.toml")
            .lines()
            .any(|l| l.trim().replace(' ', "") == "unsafe_code=\"forbid\""),
        "root Cargo.toml must keep unsafe_code = \"forbid\" under [workspace.lints.rust]"
    );
    let mut missing = Vec::new();
    for krate in sorted_entries(&root().join("crates")).expect("list crates/") {
        let Ok(manifest) = fs::read_to_string(krate.join("Cargo.toml")) else {
            continue;
        };
        let mut section = "";
        let inherits = manifest.lines().map(str::trim).any(|l| {
            if l.starts_with('[') {
                section = l;
            }
            section == "[lints]" && l.replace(' ', "") == "workspace=true"
        });
        if !inherits {
            missing.push(
                krate
                    .strip_prefix(root())
                    .unwrap_or(&krate)
                    .display()
                    .to_string(),
            );
        }
    }
    assert!(
        missing.is_empty(),
        "no `[lints] workspace = true` in {missing:?}"
    );
}

#[test]
fn result_types_are_must_use() {
    for (file, ty) in MUST_USE_TYPES {
        let src = read(file).unwrap_or_else(|e| panic!("read {file}: {e}"));
        let lines: Vec<&str> = src.lines().collect();
        let decl = format!("pub struct {ty}");
        let at = lines
            .iter()
            .position(|l| {
                l.strip_prefix(&decl).is_some_and(|rest| {
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            })
            .unwrap_or_else(|| panic!("{file}: no `{decl}` (update MUST_USE_TYPES)"));
        // The attribute block directly above the declaration.
        let mut attrs = lines[..at]
            .iter()
            .rev()
            .take_while(|l| l.starts_with("#[") || l.starts_with("///"));
        assert!(
            attrs.any(|l| l.starts_with("#[must_use")),
            "{file}:{}: `{decl}` lacks a struct-level #[must_use]",
            at + 1
        );
    }
}

/// Library source of milp and certify: every `src/**/*.rs` file except
/// `tol.rs`, cut at the `#[cfg(test)]` module that ends a file.
fn tolerance_scope() -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for krate in ["crates/milp/src", "crates/certify/src"] {
        for file in sorted_entries(&root().join(krate))? {
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.ends_with(".rs") || name == "tol.rs" {
                continue;
            }
            let src = fs::read_to_string(&file)?;
            let lib = src.split("#[cfg(test)]").next().unwrap_or("").to_string();
            out.push((format!("{krate}/{name}"), lib));
        }
    }
    Ok(out)
}

/// True for a numeric literal with a fraction or exponent (`0.0`, `1e-9`).
fn is_float_literal(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_ascii_digit())
        && tok
            .trim_end_matches("f64")
            .trim_end_matches("f32")
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '_' | '.' | 'e' | 'E' | '-' | '+'))
        && tok.contains(['.', 'e', 'E'])
}

/// Splits one line of code into words (runs of `[A-Za-z0-9_.]`, with
/// the sign of a float exponent such as `1e-9` kept inside) and single
/// punctuation characters.
fn tokens(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in code.char_indices() {
        let exponent_sign = matches!(c, '-' | '+')
            && code[..i].ends_with(['e', 'E'])
            && start.is_some_and(|s| code[s..].starts_with(|d: char| d.is_ascii_digit()));
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' || exponent_sign {
            start.get_or_insert(i);
            continue;
        }
        if let Some(s) = start.take() {
            out.push(&code[s..i]);
        }
        if !c.is_whitespace() {
            out.push(&code[i..i + c.len_utf8()]);
        }
    }
    if let Some(s) = start {
        out.push(&code[s..]);
    }
    out
}

/// Findings of the float-tolerance check on one line of code.
fn float_findings(code: &str) -> Vec<String> {
    let t = tokens(code);
    let mut out = Vec::new();
    for (i, &tok) in t.iter().enumerate() {
        if is_float_literal(tok) && (tok.contains("e-") || tok.contains("E-")) {
            out.push(format!("raw float tolerance literal `{tok}`"));
        }
        let is_eq = tok == "="
            && t.get(i + 1) == Some(&"=")
            && t.get(i + 2) != Some(&"=")
            && !(i > 0 && ["!", "<", ">", "="].contains(&t[i - 1]));
        if !is_eq {
            continue;
        }
        let lhs = if i > 0 { t[i - 1] } else { "" };
        let rhs = match t.get(i + 2) {
            Some(&"-") => t.get(i + 3),
            other => other,
        };
        if is_float_literal(lhs) || rhs.is_some_and(|r| is_float_literal(r)) {
            out.push("`==` against a float literal".to_string());
        }
    }
    out
}

#[test]
fn solver_code_names_its_float_tolerances() {
    let mut findings = Vec::new();
    for (file, src) in tolerance_scope().expect("read milp/certify sources") {
        for (n, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            for f in float_findings(code) {
                findings.push(format!("{file}:{}: {f}", n + 1));
            }
        }
    }
    assert!(
        findings.is_empty(),
        "name tolerances in crates/milp/src/tol.rs and compare floats through them:\n{}",
        findings.join("\n")
    );
}

#[test]
fn float_check_catches_literals_and_equality() {
    assert_eq!(float_findings("let t = 1e-9;").len(), 1);
    assert_eq!(float_findings("if x == 0.0 {").len(), 1);
    assert_eq!(float_findings("if -1.5 == x {").len(), 1);
    assert_eq!(float_findings("if x == -2.5e-3 {").len(), 2);
    assert!(float_findings("if x != 0.0 && y <= 1.0 && a.0 == b.0 && n == 3 {").is_empty());
    assert!(float_findings("let big = 1e9; let v = x1e-3;").is_empty());
}
