//! Workspace discovery: find every production `.rs` file under
//! `crates/*/src`, scan each one, and parse the `names.rs` constants the
//! metric-name rule needs. Rust sources are the only files the linter
//! reads.

use crate::lexer::{self, Kind, Scan};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One scanned source file.
pub struct SourceFile {
    /// `/`-separated path relative to the workspace root.
    pub rel: String,
    /// Token stream and directives.
    pub scan: Scan,
}

/// The scanned workspace.
pub struct Workspace {
    /// Every `crates/*/src/**/*.rs` file, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Scan everything under `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs = Vec::new();
        collect_crate_dirs(&crates_dir, &mut crate_dirs)?;
        crate_dirs.sort();
        for dir in &crate_dirs {
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let mut rs_files = Vec::new();
            collect_rs_files(&src, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                let text = fs::read_to_string(&path)?;
                let rel = relative(root, &path);
                files.push(SourceFile {
                    rel,
                    scan: lexer::scan(&text),
                });
            }
        }
        Ok(Workspace { files })
    }

    /// The scan for an exact relative path, if that file was loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Crate directories are `crates/<name>` plus nested `crates/shims/<name>`:
/// any directory under `crates/` that contains a `Cargo.toml`.
fn collect_crate_dirs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_dir() {
            continue;
        }
        if path.join("Cargo.toml").is_file() {
            out.push(path);
        } else {
            collect_crate_dirs(&path, out)?;
        }
    }
    Ok(())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Path of `p` relative to `root`, `/`-separated.
fn relative(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// A metric-name constant parsed from `names.rs`.
pub struct MetricConst {
    /// Constant identifier (`CODEC_ENCODE_BLOCKS`).
    pub ident: String,
    /// The metric name it holds (`avq.codec.encode.blocks`).
    pub value: String,
    /// Declaration line.
    pub line: u32,
}

/// Parse every `pub const IDENT: &str = "…";` declaration, in order, out
/// of the scanned `names.rs` token stream.
pub fn parse_metric_consts(scan: &Scan) -> Vec<MetricConst> {
    let mut consts = Vec::new();
    let t = &scan.tokens;
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_ident("const") && i + 1 < t.len() && t[i + 1].kind == Kind::Ident {
            let ident = t[i + 1].text.clone();
            // Find the `=` then the value, stopping at `;`.
            let mut j = i + 2;
            while j < t.len() && !t[j].is_punct('=') && !t[j].is_punct(';') {
                j += 1;
            }
            if j < t.len() && t[j].is_punct('=') {
                if let Some(v) = t.get(j + 1).filter(|v| v.kind == Kind::Str) {
                    consts.push(MetricConst {
                        ident,
                        value: v.text.clone(),
                        line: v.line,
                    });
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    consts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_const_parsing() {
        let scan = lexer::scan(
            "/// Doc.\npub const A: &str = \"avq.a\";\npub const B: &str = \"avq.b\";\npub const LIST: &[&str] = &[A, B];\npub const ATTR_K: &str = \"rows\";\npub fn prom(n: &str) -> String { n.into() }",
        );
        let consts = parse_metric_consts(&scan);
        assert_eq!(consts.len(), 3);
        assert_eq!(consts[0].ident, "A");
        assert_eq!(consts[0].value, "avq.a");
        assert_eq!(consts[2].ident, "ATTR_K");
    }
}
