//! The rule registry: one entry per rule id with a one-line summary
//! (the `explain` field of JSON findings) and the long help text behind
//! `avq-lint --explain AVQ-LNNN`.

/// Documentation for one rule.
pub struct RuleDoc {
    /// Rule id (`AVQ-L002`, `AVQ-L004`, `AVQ-WAIVER`).
    pub id: &'static str,
    /// One-line summary, embedded in JSON findings.
    pub summary: &'static str,
    /// Long help: what the rule proves, why, and how to fix or waive a
    /// finding.
    pub help: &'static str,
}

/// Every rule, in id order.
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "AVQ-L002",
        summary:
            "allocations in decode paths sized by untrusted input need a bounded(<why>) waiver",
        help: "AVQ-L002 · bounded allocations in decode paths

`Vec::with_capacity(n)` / `vec![_; n]` with a non-literal length in a
decode path can be attacker-sized. Every such site must either use a
literal bound or carry `// lint: bounded(<why>)` stating why the length
is validated.",
    },
    RuleDoc {
        id: "AVQ-L004",
        summary: "metric names and trace-attr keys live in avq_obs::names",
        help: "AVQ-L004 · metric names

Metric names (`avq.x.y`, dot-namespaced lowercase) and trace-attribute
keys (`ATTR_*` constants, bare lowercase words) are declared exactly
once in `crates/obs/src/names.rs`, unique, and referenced through the
constants (never string literals), with one instrument kind per name.
The constants' doc comments are the inventory (`cargo doc`).",
    },
    RuleDoc {
        id: "AVQ-WAIVER",
        summary: "waiver hygiene: every // lint: directive must parse and must suppress a finding",
        help: "AVQ-WAIVER · waiver hygiene

`// lint:` directives must parse (`bounded(<why>)`, with a reason) and
must actually suppress a finding on their line (or the line below, for
comment-only lines). Malformed and unused waivers are findings, so a
stale waiver can never silently hide a future regression.",
    },
];

/// Rules whose guarantee moved onto a check the toolchain runs, with
/// where each is enforced now. Their ids are never reused.
pub const RETIRED: &[(&str, &str)] = &[
    (
        "AVQ-L001",
        "AVQ-L001 (panic freedom in decode paths) is retired: every DECODE_PATHS crate root or \
module top denies clippy::{unwrap_used, expect_used, panic, unreachable, todo, unimplemented, \
indexing_slicing, allow_attributes_without_reason}; a waiver is #[expect(…, reason = \"…\")].",
    ),
    (
        "AVQ-L003",
        "AVQ-L003 (crate-root hygiene) is retired: the root Cargo.toml's [workspace.lints.rust] \
denies unsafe_code and warns on missing_docs, and every member inherits it through \
`[lints] workspace = true` (a CI step checks each manifest).",
    ),
    (
        "AVQ-L005",
        "AVQ-L005 (virtual clock) is retired: clippy.toml disallows std::time::Instant::now and \
std::time::SystemTime; avq-obs and avq-bench allow clippy::disallowed_methods at their roots.",
    ),
    (
        "AVQ-L006",
        "AVQ-L006 (Corrupt-section vocabulary) is retired: Corrupt { section } is typed, \
avq_codec::Section for blocks and avq_file::Section for the container, so an unknown or \
another layer's section does not compile.",
    ),
];

/// Look up a rule id.
pub fn doc(id: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.id == id)
}

/// What `--explain` prints for `id`: a rule's long help, or where a
/// retired rule is enforced now.
pub fn explain(id: &str) -> Option<&'static str> {
    doc(id)
        .map(|r| r.help)
        .or_else(|| RETIRED.iter().find(|(r, _)| *r == id).map(|(_, to)| *to))
}

/// The one-line summary for a rule id (empty for unknown ids).
pub fn summary(id: &str) -> &'static str {
    doc(id).map(|r| r.summary).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_complete() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        for n in 1..=10 {
            // L002 and L004 run; L001, L003, L005 and L006 moved onto the
            // toolchain; L007 … L010 are retired and stay unknown.
            let id = format!("AVQ-L{n:03}");
            assert_eq!(doc(&id).is_some(), matches!(n, 2 | 4), "{id}");
            assert_eq!(explain(&id).is_some(), n <= 6, "{id}");
        }
        assert!(doc("AVQ-WAIVER").is_some());
    }
}
