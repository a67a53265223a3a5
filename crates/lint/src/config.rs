//! Project-specific lint policy: which paths each rule covers, which
//! crates are exempt, and the documented `Corrupt` section vocabulary.
//!
//! The policy is code, not a config file, on purpose: the linter is
//! project-native and the scopes *are* invariants the workspace claims
//! (DESIGN.md §12 documents them for humans). Fixture trees under
//! `crates/lint/tests/fixtures/` mirror the same layout, so the same
//! scopes apply unchanged there.

/// Paths (relative, `/`-separated prefixes or exact files) whose
/// non-test code must be panic-free: AVQ-L001 and AVQ-L002 apply here.
/// These are the untrusted-byte decode surfaces hardened in DESIGN.md
/// §11 — the codec, the `.avq` container parser, the WAL read path, and
/// the SQL lexer/parser (which consume arbitrary user statements).
pub const DECODE_PATHS: &[&str] = &[
    "crates/codec/src/",
    "crates/file/src/",
    "crates/wal/src/reader.rs",
    "crates/wal/src/record.rs",
    "crates/sql/src/lexer.rs",
    "crates/sql/src/parser.rs",
];

/// Crate directories exempt from AVQ-L003 (crate-root hygiene
/// attributes): the vendored registry shims are third-party
/// stand-ins, not project code.
pub const L003_EXEMPT: &[&str] = &["crates/shims/"];

/// Crate directories allowed to read the real clock (AVQ-L005).
/// `avq-obs` owns `Stopwatch` (the one sanctioned wrapper), the bench
/// harness measures wall time by design, and the shims are third-party
/// stand-ins.
pub const CLOCK_EXEMPT: &[&str] = &["crates/obs/", "crates/bench/", "crates/shims/"];

/// Files allowed to spell metric names as string literals (AVQ-L004):
/// the single source of truth itself.
pub const METRIC_NAME_HOME: &str = "crates/obs/src/names.rs";

/// The documented `Corrupt { section: … }` vocabulary (AVQ-L006): each
/// section string paired with the crate directory allowed to produce it.
/// The `file.` prefix keeps the container parser's vocabulary disjoint
/// from the codec's; `order` (the φ-order walk) and `bookkeeping` (a
/// decoded block that disagrees with its recorded count, min or max) are
/// the db layer's read-path checks reporting through `CodecError`.
pub const CORRUPT_SECTIONS: &[(&str, &str)] = &[
    ("header", "crates/codec/"),
    ("representative", "crates/codec/"),
    ("body", "crates/codec/"),
    ("entries", "crates/codec/"),
    ("order", "crates/db/"),
    ("bookkeeping", "crates/db/"),
    ("file.header", "crates/file/"),
    ("file.schema", "crates/file/"),
    ("file.blocks", "crates/file/"),
    ("file.trailer", "crates/file/"),
];

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

    #[test]
    fn scope_matching() {
        assert!(in_scope("crates/codec/src/block.rs", DECODE_PATHS));
        assert!(in_scope("crates/wal/src/reader.rs", DECODE_PATHS));
        assert!(in_scope("crates/sql/src/parser.rs", DECODE_PATHS));
        assert!(!in_scope("crates/wal/src/writer.rs", DECODE_PATHS));
        assert!(!in_scope("crates/db/src/query.rs", DECODE_PATHS));
        assert!(!in_scope("crates/sql/src/exec.rs", DECODE_PATHS));
    }

    #[test]
    fn section_vocabulary_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (section, _) in CORRUPT_SECTIONS {
            assert!(seen.insert(*section), "duplicate section {section}");
        }
    }
}
