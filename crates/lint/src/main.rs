//! `avq-lint` — project-native static analysis for the AVQ workspace.
//!
//! Run as `cargo run -p avq-lint -- check` from anywhere inside the
//! workspace. Nine rules (see DESIGN.md §12 and §17) enforce the
//! decode-path panic-freedom, bounded-allocation, crate-hygiene,
//! metric-naming, virtual-clock, and `Corrupt`-section invariants, plus
//! the call-graph-aware taint, lock-discipline, and atomics-audit rules.
//! Any finding exits non-zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod callgraph;
mod config;
mod dataflow;
mod docs;
mod lexer;
mod out;
mod rules;
mod symbols;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: avq-lint check [--root <dir>] [--format human|json]
                     [--rule AVQ-LNNN] [--emit <callgraph.json>]
       avq-lint --explain AVQ-LNNN

Scans the workspace's production sources and reports violations of the
project's AVQ-L001..L010 invariants (DESIGN.md §12, §17; L008 is
retired). Exit status: 0 when clean, 1 when there are findings, 2 on
usage or I/O errors.

  --rule AVQ-LNNN    run only the named rule (waiver hygiene is skipped)
  --emit <path>      also write the approximate call graph as JSON
  --explain AVQ-LNNN print the long help for one rule and exit";

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
    let mut rule: Option<String> = None;
    let mut emit: Option<PathBuf> = None;
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
            "--rule" => {
                let id = it
                    .next()
                    .ok_or("--rule needs a rule id (AVQ-LNNN)")?
                    .clone();
                if docs::doc(&id).is_none() {
                    return Err(format!(
                        "unknown rule `{id}` (try --explain, or see DESIGN.md §12/§17)"
                    ));
                }
                rule = Some(id);
            }
            "--explain" => {
                let id = it.next().ok_or("--explain needs a rule id (AVQ-LNNN)")?;
                let doc = docs::doc(id)
                    .ok_or_else(|| format!("unknown rule `{id}` (see DESIGN.md §12/§17)"))?;
                println!("{}", doc.help);
                return Ok(true);
            }
            "--emit" => {
                emit = Some(PathBuf::from(
                    it.next().ok_or("--emit needs an output path")?,
                ));
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
    if let Some(path) = &emit {
        let syms = symbols::Symbols::build(&ws);
        let cg = callgraph::CallGraph::build(&ws, &syms);
        std::fs::write(path, cg.to_json(&syms))
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    }
    let report = rules::run_filtered(&mut ws, rule.as_deref());
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
