//! `avq-lint` — project-native static analysis for the AVQ workspace.
//!
//! Run as `cargo run -p avq-lint -- check` from anywhere inside the
//! workspace. Two token rules (see DESIGN.md §12) enforce what no rustc
//! or clippy lint can: allocations in decode paths are never sized by an
//! unvalidated length (AVQ-L002), and metric names are declared once
//! (AVQ-L004). The linter reads Rust sources, nothing else. Any finding
//! exits non-zero.

mod config;
mod docs;
mod lexer;
mod out;
mod rules;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: avq-lint check [--root <dir>] [--format human|json]
       avq-lint --explain AVQ-LNNN

Scans the workspace's production sources and reports violations of the
project's AVQ-L002 and AVQ-L004 invariants (DESIGN.md §12). Exit status:
0 when clean, 1 when there are findings, 2 on usage or I/O errors.

  --explain AVQ-LNNN print the long help for one rule (or, for AVQ-L001,
                     L003, L005 and L006, where it is enforced now) and exit";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("avq-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parse arguments, run the engine, print the report. Returns whether
/// the run was clean.
fn run(args: &[String]) -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut format = "human".to_string();
    let mut command: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" if command.is_none() => command = Some("check"),
            "--root" => {
                root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                ));
            }
            "--format" => {
                format = it.next().ok_or("--format needs `human` or `json`")?.clone();
                if format != "human" && format != "json" {
                    return Err(format!(
                        "unknown format `{format}` (expected human or json)"
                    ));
                }
            }
            "--explain" => {
                let id = it.next().ok_or("--explain needs a rule id (AVQ-LNNN)")?;
                let help = docs::explain(id)
                    .ok_or_else(|| format!("unknown rule `{id}` (see DESIGN.md §12)"))?;
                println!("{help}");
                return Ok(true);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if command != Some("check") {
        return Err(format!("missing `check` subcommand\n{USAGE}"));
    }
    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    let mut ws = workspace::Workspace::load(&root)
        .map_err(|e| format!("failed to scan {}: {e}", root.display()))?;
    let report = rules::run(&mut ws);
    let rendered = match format.as_str() {
        "json" => out::json(&report),
        _ => out::human(&report),
    };
    print!("{rendered}");
    Ok(report.findings.is_empty())
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory (pass --root)".into());
        }
    }
}
