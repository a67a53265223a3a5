//! The rule registry: one entry per rule id with a one-line summary
//! (the `explain` field of JSON findings) and the long help text behind
//! `avq-lint --explain AVQ-LNNN`.

/// Documentation for one rule.
pub struct RuleDoc {
    /// Rule id (`AVQ-L001` … `AVQ-L006`, `AVQ-WAIVER`).
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
        id: "AVQ-L001",
        summary: "untrusted decode paths must be panic-free (no unwrap/expect/panic!/direct indexing)",
        help: "AVQ-L001 · panic freedom in decode paths

Files under the configured DECODE_PATHS consume untrusted bytes (coded
blocks, .avq containers, WAL frames, SQL text). A panic there turns a
corrupt input into a crash, so `.unwrap()`, `.expect()`, `panic!`,
`unreachable!`, `todo!`, `unimplemented!` and direct `[…]` indexing are
forbidden; return `Corrupt { section, … }` instead, and use `get`/slice
patterns for access. Assert-family macros are allowed (deliberate
invariant checks). Waive a deliberate exception with
`// lint: allow(AVQ-L001, <reason>)`.",
    },
    RuleDoc {
        id: "AVQ-L002",
        summary: "allocations in decode paths sized by untrusted input need a bounded(<why>) waiver",
        help: "AVQ-L002 · bounded allocations in decode paths

`Vec::with_capacity(n)` / `vec![_; n]` with a non-literal length in a
decode path can be attacker-sized. Every such site must either use a
literal bound or carry `// lint: bounded(<why>)` stating why the length
is validated.",
    },
    RuleDoc {
        id: "AVQ-L003",
        summary: "crate roots must carry #![forbid(unsafe_code)] and #![warn(missing_docs)]",
        help: "AVQ-L003 · crate-root hygiene

Every workspace member's root (lib.rs / main.rs / src/bin/*.rs) must
declare `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`. Vendored
shims are exempt via config.",
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
        id: "AVQ-L005",
        summary: "only avq-obs/bench may read the real clock; use avq_obs::Stopwatch",
        help: "AVQ-L005 · virtual clock discipline

Deterministic replay and tests require that production code charges the
virtual clock. `Instant::now()` / `SystemTime` are allowed only in
`crates/obs` (which owns `Stopwatch`), the bench harness, and shims.",
    },
    RuleDoc {
        id: "AVQ-L006",
        summary: "Corrupt { section } strings come from the documented vocabulary, from their owner crate",
        help: "AVQ-L006 · corruption vocabulary

`Corrupt { section: \"…\" }` strings must come from the vocabulary in
the linter's config (CORRUPT_SECTIONS; DESIGN.md §12 describes it), and
each section may only be produced by the crate that owns it (so a
corruption report names its layer).",
    },
    RuleDoc {
        id: "AVQ-WAIVER",
        summary: "waiver hygiene: every // lint: directive must parse and must suppress a finding",
        help: "AVQ-WAIVER · waiver hygiene

`// lint:` directives must parse (`allow(AVQ-LNNN, <reason>)` or
`bounded(<why>)`) and must actually suppress a finding on their line
(or the line below, for comment-only lines).
Malformed and unused waivers are findings, so a stale waiver can never
silently hide a future regression.",
    },
];

/// Look up a rule id.
pub fn doc(id: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.id == id)
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
            // AVQ-L007 … L010 are retired and must stay unknown rules.
            assert_eq!(
                doc(&format!("AVQ-L{n:03}")).is_some(),
                n <= 6,
                "AVQ-L{n:03}"
            );
        }
        assert!(doc("AVQ-WAIVER").is_some());
    }
}
