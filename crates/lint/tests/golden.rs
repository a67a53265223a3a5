//! Golden tests for `avq-lint`: each rule fixture must produce exactly
//! its pinned JSON findings and a non-zero exit status, and the real
//! workspace must lint clean.

use std::path::{Path, PathBuf};
use std::process::Command;

fn lint(root: &Path, json: bool) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_avq-lint"));
    cmd.arg("check").arg("--root").arg(root);
    if json {
        cmd.arg("--format").arg("json");
    }
    let out = cmd.output().expect("run avq-lint");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.code().unwrap_or(-1),
    )
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_golden(name: &str) {
    let dir = fixture(name);
    let (stdout, stderr, code) = lint(&dir, true);
    let expected = std::fs::read_to_string(dir.join("expected.json")).expect("expected.json");
    assert_eq!(
        stdout, expected,
        "fixture {name} drifted from its golden output"
    );
    assert_eq!(
        code, 1,
        "fixture {name} must exit 1 on findings (stderr: {stderr})"
    );
}

#[test]
fn l002_bounded_capacity_fixture() {
    assert_golden("l002");
}

#[test]
fn l004_metric_names_fixture() {
    assert_golden("l004");
}

#[test]
fn waiver_hygiene_fixture() {
    assert_golden("waiver");
}

/// The real workspace lints clean: zero findings, exit 0, and every
/// waiver in effect carries a written reason.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let (stdout, stderr, code) = lint(&root, false);
    assert_eq!(
        code, 0,
        "workspace must lint clean; output:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("avq-lint: clean — 0 findings"), "{stdout}");
}

/// `--explain` prints the rule's long-form help and exits 0; for a rule
/// that moved onto the toolchain it names the replacement. An unknown
/// rule id — the retired AVQ-L007 … L010 included — is a usage error.
#[test]
fn explain_prints_rule_help() {
    for (id, says) in [
        ("AVQ-L002", "bounded"),
        ("AVQ-L001", "clippy::{unwrap_used"),
        ("AVQ-L003", "[workspace.lints.rust]"),
        ("AVQ-L005", "clippy.toml"),
        ("AVQ-L006", "avq_codec::Section"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_avq-lint"))
            .arg("--explain")
            .arg(id)
            .output()
            .expect("run avq-lint");
        assert_eq!(out.status.code(), Some(0), "{id}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(stdout.contains(id), "{stdout}");
        assert!(stdout.contains(says), "{stdout}");
    }

    for unknown in ["AVQ-L999", "AVQ-L007", "AVQ-L008", "AVQ-L009", "AVQ-L010"] {
        let bad = Command::new(env!("CARGO_BIN_EXE_avq-lint"))
            .arg("--explain")
            .arg(unknown)
            .output()
            .expect("run avq-lint");
        assert_eq!(bad.status.code(), Some(2), "{unknown}");
    }
}

/// Human output for a failing fixture names the rule and the file:line.
#[test]
fn human_format_carries_locations() {
    let (stdout, _, code) = lint(&fixture("l002"), false);
    assert_eq!(code, 1);
    assert!(
        stdout.contains("crates/codec/src/bad.rs:5: AVQ-L002"),
        "{stdout}"
    );
    assert!(stdout.contains("avq-lint: FAIL"), "{stdout}");
}

/// Usage errors are distinct from findings: exit 2.
#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_avq-lint"))
        .arg("frobnicate")
        .output()
        .expect("run avq-lint");
    assert_eq!(out.status.code(), Some(2));
}
