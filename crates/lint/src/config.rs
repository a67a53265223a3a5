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
/// from the codec's; `order` is the db layer's φ-order check reporting
/// through `CodecError`.
pub const CORRUPT_SECTIONS: &[(&str, &str)] = &[
    ("header", "crates/codec/"),
    ("representative", "crates/codec/"),
    ("body", "crates/codec/"),
    ("entries", "crates/codec/"),
    ("order", "crates/db/"),
    ("file.header", "crates/file/"),
    ("file.schema", "crates/file/"),
    ("file.blocks", "crates/file/"),
    ("file.trailer", "crates/file/"),
];

// ---------------------------------------------------------------------
// AVQ-L007 · taint tracking
// ---------------------------------------------------------------------

/// Functions whose *return value* is an untrusted integer parsed from
/// raw bytes: block headers, bit/gamma readers, RLE entry readers, and
/// the `.avq` container cursor's little-endian field readers. Calls to
/// these seed taint. Raw byte *buffers* (device reads, WAL frames) are
/// deliberately not sources — their parsed-integer offspring are, which
/// is where allocation sizes and indices come from (documented
/// false-negative posture, DESIGN.md §17).
pub const TAINT_SOURCES: &[&str] = &[
    // codec block headers and bit readers
    "read_header",
    "tuple_count",
    "read_bit",
    "read_bits_u64",
    "read_bits_big",
    "read_gamma",
    // codec RLE readers
    "load_be",
    "read_entry_append",
    "read_entry_append_swar",
    "skip_entry",
    // .avq container cursor field readers
    "u8",
    "u16",
    "u32",
    "u64",
    "i64",
];

/// Methods that fill their *receiver* from untrusted bytes.
pub const TAINT_FILL_SOURCES: &[&str] = &["set_from_bytes_be"];

/// Validation/clamping calls: a value passing through one of these (as
/// an argument or receiver) counts as sanitized.
pub const TAINT_VALIDATORS: &[&str] = &[
    "check_count",
    "check_input",
    "check_phi_order",
    "validate",
    "validate_tuple",
    "validate_tuple_range",
    "min",
    "clamp",
];

/// Calls whose arguments are allocation-size sinks.
pub const TAINT_SINK_CALLS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "resize"];

// ---------------------------------------------------------------------
// AVQ-L009 · lock discipline
// ---------------------------------------------------------------------

/// One lock in the declared hierarchy. Ranks must strictly increase
/// along any nested-acquisition chain (outermost lock = lowest rank).
/// The same rows are documented in the DESIGN.md §17 table, two-way
/// checked.
pub struct LockRow {
    /// File that owns the lock field.
    pub file: &'static str,
    /// Field name of the Mutex/RwLock.
    pub field: &'static str,
    /// Hierarchy rank (acquire in increasing order).
    pub rank: u32,
    /// What the lock protects.
    pub label: &'static str,
}

/// The lock-hierarchy inventory: every Mutex/RwLock field in production
/// code. An unlisted lock field is a finding.
pub const LOCKS: &[LockRow] = &[
    LockRow {
        file: "crates/db/src/relation_store.rs",
        field: "quarantined",
        rank: 30,
        label: "quarantined-block set",
    },
    LockRow {
        file: "crates/storage/src/buffer.rs",
        field: "inner",
        rank: 40,
        label: "buffer-pool frame table",
    },
    LockRow {
        file: "crates/storage/src/decoded.rs",
        field: "inner",
        rank: 50,
        label: "decoded-block cache map",
    },
    LockRow {
        file: "crates/storage/src/device.rs",
        field: "free_list",
        rank: 60,
        label: "device free block list",
    },
    LockRow {
        file: "crates/storage/src/device.rs",
        field: "slots",
        rank: 70,
        label: "device block slots",
    },
    LockRow {
        file: "crates/storage/src/device.rs",
        field: "faults",
        rank: 80,
        label: "fault-injection plan",
    },
    LockRow {
        file: "crates/storage/src/fault.rs",
        field: "attempts",
        rank: 90,
        label: "fault-plan attempt log",
    },
    LockRow {
        file: "crates/obs/src/trace.rs",
        field: "state",
        rank: 100,
        label: "trace collector state",
    },
    LockRow {
        file: "crates/obs/src/trace.rs",
        field: "slots",
        rank: 110,
        label: "trace ring-buffer slots",
    },
    LockRow {
        file: "crates/obs/src/trace.rs",
        field: "slow",
        rank: 120,
        label: "slow-query capture queue",
    },
    LockRow {
        file: "crates/obs/src/registry.rs",
        field: "counters",
        rank: 130,
        label: "metric registry: counters",
    },
    LockRow {
        file: "crates/obs/src/registry.rs",
        field: "gauges",
        rank: 140,
        label: "metric registry: gauges",
    },
    LockRow {
        file: "crates/obs/src/registry.rs",
        field: "histograms",
        rank: 150,
        label: "metric registry: histograms",
    },
];

/// Calls that must never run under a held guard: fsync/physical IO,
/// decode kernels, and retry loops around either.
pub const BLOCKING_CALLS: &[&str] = &[
    "sync_data",
    "sync_all",
    "write_all",
    "read_exact",
    "read_to_end",
    "decode_batch_into",
    "decode_into_scratch",
    "decode_rows",
    "read_with_retry",
    "retry_with_backoff",
];

// ---------------------------------------------------------------------
// AVQ-L010 · atomics audit
// ---------------------------------------------------------------------

/// One atomics-inventory row: the `Ordering::` variants a function is
/// allowed to use. Documented with a why in the DESIGN.md §17 table,
/// two-way checked.
pub struct AtomicsRow {
    /// File containing the sites.
    pub file: &'static str,
    /// Enclosing function name (`<static>` for file-scope initializers).
    pub func: &'static str,
    /// Permitted `Ordering::` variant names, sorted.
    pub orderings: &'static [&'static str],
}

/// The per-site atomics inventory. Populated from the audit of every
/// `Ordering::` literal in production code; an unlisted site and an
/// unused row are both findings.
pub const ATOMICS: &[AtomicsRow] = &[
    AtomicsRow {
        file: "crates/cli/src/commands.rs",
        func: "exercise_builtin",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/codec/src/parallel.rs",
        func: "decode_blocks_parallel",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "cancel",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "charge_decoded",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "charge_mem",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "finish",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "is_cancelled",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "poll",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "release_mem",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "trip_once",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/gov.rs",
        func: "usage",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "add",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "count",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "get",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "record",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "reset",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "set",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/metric.rs",
        func: "snapshot",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/span.rs",
        func: "set_span_observer",
        orderings: &["SeqCst"],
    },
    AtomicsRow {
        file: "crates/obs/src/trace.rs",
        func: "add_span_sink",
        orderings: &["Release"],
    },
    AtomicsRow {
        file: "crates/obs/src/trace.rs",
        func: "begin",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/trace.rs",
        func: "emit_enter",
        orderings: &["Acquire"],
    },
    AtomicsRow {
        file: "crates/obs/src/trace.rs",
        func: "emit_exit",
        orderings: &["Acquire"],
    },
    AtomicsRow {
        file: "crates/obs/src/trace.rs",
        func: "finish",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/obs/src/trace.rs",
        func: "set_slow_budget",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/buffer.rs",
        func: "install",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/buffer.rs",
        func: "read",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/buffer.rs",
        func: "reset_stats",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/buffer.rs",
        func: "stats",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/clock.rs",
        func: "advance_ms",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/clock.rs",
        func: "now_ms",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/clock.rs",
        func: "reset",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/decoded.rs",
        func: "get",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/decoded.rs",
        func: "insert",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/decoded.rs",
        func: "reset_stats",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/decoded.rs",
        func: "stats",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/device.rs",
        func: "io_stats",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/device.rs",
        func: "read",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/device.rs",
        func: "reset_stats",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/device.rs",
        func: "write",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/fault.rs",
        func: "faults_fired",
        orderings: &["Relaxed"],
    },
    AtomicsRow {
        file: "crates/storage/src/fault.rs",
        func: "fire",
        orderings: &["Relaxed"],
    },
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
