//! Project-specific lint policy: which paths each rule covers.
//!
//! The policy is code, not a config file, on purpose: the linter is
//! project-native and the scopes *are* invariants the workspace claims
//! (DESIGN.md §12 documents them for humans). Fixture trees under
//! `crates/lint/tests/fixtures/` mirror the same layout, so the same
//! scopes apply unchanged there.

/// Paths (relative, `/`-separated prefixes or exact files) whose
/// non-test code consumes untrusted bytes: AVQ-L002 applies here, and
/// each one's crate root or module top denies clippy's panic family.
/// These are the decode surfaces hardened in DESIGN.md §11 — the codec,
/// the `.avq` container parser, the WAL read path, and the SQL
/// lexer/parser (which consume arbitrary user statements).
pub const DECODE_PATHS: &[&str] = &[
    "crates/codec/src/",
    "crates/file/src/",
    "crates/wal/src/reader.rs",
    "crates/wal/src/record.rs",
    "crates/sql/src/lexer.rs",
    "crates/sql/src/parser.rs",
];

/// Files allowed to spell metric names as string literals (AVQ-L004):
/// the single source of truth itself.
pub const METRIC_NAME_HOME: &str = "crates/obs/src/names.rs";

/// True when `rel` (a `/`-separated path relative to the workspace
/// root) falls under any of the given prefixes or exact files.
pub fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| {
        if s.ends_with('/') {
            rel.starts_with(s)
        } else {
            rel == *s
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{balanced, scan};

    #[test]
    fn scope_matching() {
        assert!(in_scope("crates/codec/src/block.rs", DECODE_PATHS));
        assert!(in_scope("crates/wal/src/reader.rs", DECODE_PATHS));
        assert!(in_scope("crates/sql/src/parser.rs", DECODE_PATHS));
        assert!(!in_scope("crates/wal/src/writer.rs", DECODE_PATHS));
        assert!(!in_scope("crates/db/src/query.rs", DECODE_PATHS));
        assert!(!in_scope("crates/sql/src/exec.rs", DECODE_PATHS));
    }

    /// AVQ-L002 and clippy's panic family cover the same files: every
    /// decode path's crate root (for a directory) or module top (for a
    /// file) denies all of these.
    #[test]
    fn every_decode_path_denies_the_panic_family() {
        const DENIED: &[&str] = &[
            "unwrap_used",
            "expect_used",
            "panic",
            "unreachable",
            "todo",
            "unimplemented",
            "indexing_slicing",
            "allow_attributes_without_reason",
        ];
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        for path in DECODE_PATHS {
            let file = match path.strip_suffix('/') {
                Some(src) => format!("{src}/lib.rs"),
                None => path.to_string(),
            };
            let text = std::fs::read_to_string(root.join(&file)).expect(&file);
            let t = scan(&text).tokens;
            let denied: Vec<&str> = (0..t.len())
                .filter(|&i| {
                    t[i].is_punct('#')
                        && t.get(i + 1).is_some_and(|n| n.is_punct('!'))
                        && t.get(i + 3).is_some_and(|n| n.is_ident("deny"))
                })
                .filter_map(|i| Some((i + 4, balanced(&t, i + 4, '(', ')')?)))
                .flat_map(|(open, close)| &t[open..close])
                .map(|tok| tok.text.as_str())
                .collect();
            for lint in DENIED {
                assert!(
                    denied.contains(lint),
                    "{file} must carry #![deny(clippy::{lint}, …)]"
                );
            }
        }
    }
}
