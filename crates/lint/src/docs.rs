//! The rule registry: one entry per rule id with a one-line summary
//! (the `explain` field of JSON findings) and the long help text behind
//! `avq-lint --explain AVQ-LNNN`.

/// Documentation for one rule.
pub struct RuleDoc {
    /// Rule id (`AVQ-L001` … `AVQ-L010` without the retired `AVQ-L008`,
    /// `AVQ-WAIVER`).
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
is validated. The same waiver also satisfies AVQ-L007 on that line.",
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
        summary: "metric names and trace-attr keys live in avq_obs::names, documented in DESIGN.md",
        help: "AVQ-L004 · metric-name inventory

Metric names (`avq.x.y`) and trace-attribute keys are declared exactly
once in `crates/obs/src/names.rs`, listed in `ALL`/`TRACE_ATTRS`,
documented two-way against the DESIGN.md §10/§15 inventory tables, and
referenced through the constants (never string literals), with one
instrument kind per name.",
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

`Corrupt { section: \"…\" }` strings must come from the vocabulary
documented in DESIGN.md §12, and each section may only be produced by
the crate that owns it (so a corruption report names its layer).",
    },
    RuleDoc {
        id: "AVQ-L007",
        summary: "untrusted byte-source values must pass a validator before allocation-size/index sinks",
        help: "AVQ-L007 · taint tracking on untrusted bytes

Values returned by registered byte sources (block headers, bit/RLE
readers, container/WAL frame readers) are tainted. A tainted value must
flow through a registered validator (or an explicit clamp like
`.min(…)`) before it reaches an allocation-size sink (`with_capacity`,
`reserve`, `vec![_; n]`) or a slice-index sink. Flows are traced through
`let` chains and interprocedurally through resolved calls to a bounded
depth; the engine is flow-insensitive and conservative (documented
false-negative posture, DESIGN.md §17). When the validation is real but
invisible to the engine, waive the sink or call line with
`// lint: sanitized(<why>)` — an existing `// lint: bounded(<why>)` on
the same line also counts.",
    },
    RuleDoc {
        id: "AVQ-L009",
        summary: "lock acquisitions follow the declared hierarchy; no decode/IO/fsync or condvar waits under a guard",
        help: "AVQ-L009 · lock discipline

Every Mutex/RwLock field is listed in the lock-hierarchy inventory
(config LOCKS + DESIGN.md §17 table, two-way checked) with a rank;
nested acquisitions must strictly increase in rank. While a guard bound
with `let g = ….lock().expect(…);` is held, calls into decode, physical
IO, or fsync are flagged, as is any `Condvar` field or wait: production
code has none. Guard tracking is per-function and
syntactic (documented false-negative posture). Waive a deliberate hold
with `// lint: allow(AVQ-L009, <reason>)`.",
    },
    RuleDoc {
        id: "AVQ-L010",
        summary: "every Ordering:: literal matches the per-site atomics inventory",
        help: "AVQ-L010 · atomics audit

Every `Ordering::Relaxed/Acquire/Release/AcqRel/SeqCst` literal in
production code must match a row of the atomics inventory (config
ATOMICS + DESIGN.md §17 table, two-way checked), keyed by file,
enclosing fn, and ordering. Counter traffic may be Relaxed; anything
stronger, and every CAS, is documented with a why. Unused inventory rows
are findings, so the inventory cannot rot.",
    },
    RuleDoc {
        id: "AVQ-WAIVER",
        summary: "waiver hygiene: every // lint: directive must parse and must suppress a finding",
        help: "AVQ-WAIVER · waiver hygiene

`// lint:` directives must parse (`allow(AVQ-LNNN, <reason>)`,
`bounded(<why>)`, `sanitized(<why>)`) and must actually suppress a
finding on their line (or the line below, for comment-only lines).
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
            // AVQ-L008 is retired and must stay an unknown rule.
            assert_eq!(
                doc(&format!("AVQ-L{n:03}")).is_some(),
                n != 8,
                "AVQ-L{n:03}"
            );
        }
        assert!(doc("AVQ-WAIVER").is_some());
    }
}
