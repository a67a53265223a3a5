//! Canonical metric names — the single source of truth for every
//! instrument the workspace registers.
//!
//! Production code must name metrics through these constants rather than
//! repeating string literals at call sites; `avq-lint` rule **AVQ-L004**
//! enforces this and cross-checks the constants against the metric
//! inventory table in `DESIGN.md` §10. Names are dot-namespaced
//! (`avq.codec.decode.blocks`); [`prom`] maps them onto the Prometheus
//! charset (`avq_codec_decode_blocks`). Span constants name the span
//! itself — the backing histogram is `<span>.ns`.

// --- counters: codec --------------------------------------------------------

/// Blocks encoded (all coding modes).
pub const CODEC_ENCODE_BLOCKS: &str = "avq.codec.encode.blocks";
/// Tuples encoded across all blocks.
pub const CODEC_ENCODE_TUPLES: &str = "avq.codec.encode.tuples";
/// Coded bytes produced by the encoder.
pub const CODEC_ENCODE_BYTES_OUT: &str = "avq.codec.encode.bytes_out";
/// Blocks that chose the field-wise fallback mode.
pub const CODEC_ENCODE_MODE_FIELDWISE: &str = "avq.codec.encode.mode.fieldwise";
/// Blocks that chose plain AVQ difference coding.
pub const CODEC_ENCODE_MODE_AVQ: &str = "avq.codec.encode.mode.avq";
/// Blocks that chose chained (gap-to-previous) difference coding.
pub const CODEC_ENCODE_MODE_AVQ_CHAINED: &str = "avq.codec.encode.mode.avq_chained";
/// Blocks that chose chained coding with the fixed-width bit packer.
pub const CODEC_ENCODE_MODE_AVQ_CHAINED_BITS: &str = "avq.codec.encode.mode.avq_chained_bits";
/// Blocks decoded.
pub const CODEC_DECODE_BLOCKS: &str = "avq.codec.decode.blocks";
/// Tuples reconstructed by the decoder.
pub const CODEC_DECODE_TUPLES: &str = "avq.codec.decode.tuples";
/// Coded bytes consumed by the decoder.
pub const CODEC_DECODE_BYTES_IN: &str = "avq.codec.decode.bytes_in";
/// Blocks decoded through the scalar (byte-at-a-time) reference kernel.
pub const CODEC_DECODE_KERNEL_SCALAR: &str = "avq.codec.decode.kernel.scalar";
/// Blocks decoded through the SWAR (word-at-a-time) kernel.
pub const CODEC_DECODE_KERNEL_SWAR: &str = "avq.codec.decode.kernel.swar";
/// Whole relations compressed end to end.
pub const CODEC_COMPRESS_RELATIONS: &str = "avq.codec.compress.relations";

// --- counters: storage ------------------------------------------------------

/// Buffer-pool page requests served without device I/O.
pub const STORAGE_POOL_HITS: &str = "avq.storage.pool.hits";
/// Buffer-pool page requests that went to the device.
pub const STORAGE_POOL_MISSES: &str = "avq.storage.pool.misses";
/// Frames evicted from the buffer pool.
pub const STORAGE_POOL_EVICTIONS: &str = "avq.storage.pool.evictions";
/// Decoded-block cache hits (block reads served without re-decoding).
pub const STORAGE_CACHE_HITS: &str = "avq.storage.cache.hits";
/// Decoded-block cache misses.
pub const STORAGE_CACHE_MISSES: &str = "avq.storage.cache.misses";
/// Entries evicted from the decoded-block cache.
pub const STORAGE_CACHE_EVICTIONS: &str = "avq.storage.cache.evictions";
/// Device reads retried after an injected/transient I/O fault.
pub const IO_RETRIES_TOTAL: &str = "avq.io_retries.total";

// --- counters: wal ----------------------------------------------------------

/// Records appended to the write-ahead log.
pub const WAL_RECORDS: &str = "avq.wal.records";
/// Bytes written to the write-ahead log.
pub const WAL_BYTES: &str = "avq.wal.bytes";
/// Durable sync operations issued by the WAL writer.
pub const WAL_SYNCS: &str = "avq.wal.syncs";

// --- counters: db -----------------------------------------------------------

/// Selections executed.
pub const DB_QUERIES: &str = "avq.db.queries";
/// Equijoins executed.
pub const DB_JOINS: &str = "avq.db.joins";
/// Aggregates executed.
pub const DB_AGGREGATES: &str = "avq.db.aggregates";
/// Checkpoints taken.
pub const DB_CHECKPOINTS: &str = "avq.db.checkpoints";
/// Blocks whose decode failed verification and were skipped or repaired.
pub const CORRUPT_BLOCKS_TOTAL: &str = "avq.corrupt_blocks.total";

// --- counters: governance ---------------------------------------------------

/// Governed queries that tripped their virtual-clock deadline.
pub const GOV_TIMEOUTS: &str = "avq.gov.timeouts";
/// Governed queries cancelled through a `GovCtx` handle.
pub const GOV_CANCELLED: &str = "avq.gov.cancelled";
/// Governed queries that tripped a decoded-bytes / rows / memory quota.
pub const GOV_QUOTA_EXCEEDED: &str = "avq.gov.quota_exceeded";

// --- counters: trace --------------------------------------------------------

/// Traces begun by a `TraceCollector`.
pub const TRACE_STARTED: &str = "avq.trace.started";
/// Finished traces the sampling policy kept in the ring buffer.
pub const TRACE_SAMPLED: &str = "avq.trace.sampled";
/// Finished traces the sampling policy discarded.
pub const TRACE_DROPPED: &str = "avq.trace.dropped";
/// Traces promoted to the slow-query log (root span over budget).
pub const TRACE_SLOW: &str = "avq.trace.slow_queries";

// --- histograms -------------------------------------------------------------

/// Records per WAL group-commit batch.
pub const WAL_GROUP_COMMIT_BATCH_SIZE: &str = "avq.wal.group_commit.batch_size";
/// Coded bytes a governed query had decoded when it finished or tripped.
pub const GOV_BUDGET_DECODED_BYTES: &str = "avq.gov.budget.decoded_bytes";
/// Tuples a governed query had examined when it finished or tripped.
pub const GOV_BUDGET_ROWS: &str = "avq.gov.budget.rows";

// --- spans (each backs the histogram `<span>.ns`) ---------------------------

/// Span around encoding one block.
pub const SPAN_CODEC_ENCODE_BLOCK: &str = "avq.codec.encode_block";
/// Span around decoding one block.
pub const SPAN_CODEC_DECODE_BLOCK: &str = "avq.codec.decode_block";
/// Span around splicing one tuple into or out of a coded block.
pub const SPAN_CODEC_SPLICE_BLOCK: &str = "avq.codec.splice_block";
/// Span around compressing a whole relation.
pub const SPAN_CODEC_COMPRESS: &str = "avq.codec.compress";
/// Span around one WAL append.
pub const SPAN_WAL_APPEND: &str = "avq.wal.append";
/// Span around one WAL group commit.
pub const SPAN_WAL_GROUP_COMMIT: &str = "avq.wal.group_commit";
/// Span around one WAL durable sync.
pub const SPAN_WAL_FSYNC: &str = "avq.wal.fsync";
/// Span around one selection.
pub const SPAN_DB_SELECT: &str = "avq.db.select";
/// Span around one equijoin.
pub const SPAN_DB_JOIN: &str = "avq.db.join";
/// Span around one aggregate.
pub const SPAN_DB_AGGREGATE: &str = "avq.db.aggregate";
/// Span around one checkpoint.
pub const SPAN_DB_CHECKPOINT: &str = "avq.db.checkpoint";

// ---- sql --------------------------------------------------------------

/// SQL statements accepted by the front end.
pub const SQL_STATEMENTS: &str = "avq.sql.statements";
/// Plan alternatives fully costed by the SQL planner.
pub const SQL_PLANS_CONSIDERED: &str = "avq.sql.plans_considered";
/// Span around lexing + parsing one SQL statement.
pub const SPAN_SQL_PARSE: &str = "avq.sql.parse";
/// Span around binding + planning one SQL statement.
pub const SPAN_SQL_PLAN: &str = "avq.sql.plan";
/// Span around executing one planned SQL statement.
pub const SPAN_SQL_EXEC: &str = "avq.sql.exec";
/// Trace root span covering one whole SQL statement.
pub const SPAN_SQL_QUERY: &str = "avq.sql.query";
/// Trace span around one executor plan stage (scan, join, aggregate…).
pub const SPAN_SQL_STAGE: &str = "avq.sql.stage";
/// Trace span around fetching + decoding one stored block.
pub const SPAN_DB_BLOCK_READ: &str = "avq.db.block_read";

/// Maps a dot-namespaced metric name onto the Prometheus charset
/// (`avq.wal.fsync.ns` → `avq_wal_fsync_ns`).
pub fn prom(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Every metric name declared above, for exhaustive checks (tests, the CLI
/// stats exercise, and `avq-lint`'s two-way DESIGN.md consistency pass).
pub const ALL: &[&str] = &[
    CODEC_ENCODE_BLOCKS,
    CODEC_ENCODE_TUPLES,
    CODEC_ENCODE_BYTES_OUT,
    CODEC_ENCODE_MODE_FIELDWISE,
    CODEC_ENCODE_MODE_AVQ,
    CODEC_ENCODE_MODE_AVQ_CHAINED,
    CODEC_ENCODE_MODE_AVQ_CHAINED_BITS,
    CODEC_DECODE_BLOCKS,
    CODEC_DECODE_TUPLES,
    CODEC_DECODE_BYTES_IN,
    CODEC_DECODE_KERNEL_SCALAR,
    CODEC_DECODE_KERNEL_SWAR,
    CODEC_COMPRESS_RELATIONS,
    STORAGE_POOL_HITS,
    STORAGE_POOL_MISSES,
    STORAGE_POOL_EVICTIONS,
    STORAGE_CACHE_HITS,
    STORAGE_CACHE_MISSES,
    STORAGE_CACHE_EVICTIONS,
    IO_RETRIES_TOTAL,
    WAL_RECORDS,
    WAL_BYTES,
    WAL_SYNCS,
    DB_QUERIES,
    DB_JOINS,
    DB_AGGREGATES,
    DB_CHECKPOINTS,
    CORRUPT_BLOCKS_TOTAL,
    GOV_TIMEOUTS,
    GOV_CANCELLED,
    GOV_QUOTA_EXCEEDED,
    WAL_GROUP_COMMIT_BATCH_SIZE,
    GOV_BUDGET_DECODED_BYTES,
    GOV_BUDGET_ROWS,
    SPAN_CODEC_ENCODE_BLOCK,
    SPAN_CODEC_DECODE_BLOCK,
    SPAN_CODEC_SPLICE_BLOCK,
    SPAN_CODEC_COMPRESS,
    SPAN_WAL_APPEND,
    SPAN_WAL_GROUP_COMMIT,
    SPAN_WAL_FSYNC,
    SPAN_DB_SELECT,
    SPAN_DB_JOIN,
    SPAN_DB_AGGREGATE,
    SPAN_DB_CHECKPOINT,
    SQL_STATEMENTS,
    SQL_PLANS_CONSIDERED,
    SPAN_SQL_PARSE,
    SPAN_SQL_PLAN,
    SPAN_SQL_EXEC,
    SPAN_SQL_QUERY,
    SPAN_SQL_STAGE,
    SPAN_DB_BLOCK_READ,
    TRACE_STARTED,
    TRACE_SAMPLED,
    TRACE_DROPPED,
    TRACE_SLOW,
];

// --- trace attribute keys ---------------------------------------------------
//
// Bare (non-dot-namespaced) keys for `TraceSpanGuard::attr`. They live in
// `TRACE_ATTRS`, not `ALL`: attribute keys are span-local, so they are
// deliberately outside the `avq.` metric namespace. AVQ-L004 validates
// this slice separately and cross-checks it against the DESIGN.md §15
// attribute inventory.

/// Executor stage kind on an `avq.sql.stage` span (`scan`, `join`, …).
pub const ATTR_STAGE: &str = "stage";
/// Rows a span produced.
pub const ATTR_ROWS: &str = "rows";
/// Blocks fetched during a span.
pub const ATTR_BLOCKS_READ: &str = "blocks_read";
/// Decoded-cache + buffer-pool hits attributed to a span.
pub const ATTR_CACHE_HITS: &str = "cache_hits";
/// Whether one block read was served from the decoded cache.
pub const ATTR_CACHE_HIT: &str = "cache_hit";
/// Whether one block read was served from the buffer pool.
pub const ATTR_POOL_HIT: &str = "pool_hit";
/// Decode kernel that ran (`scalar` / `swar`).
pub const ATTR_KERNEL: &str = "kernel";
/// Block id a span touched.
pub const ATTR_BLOCK: &str = "block";
/// Tuples a span decoded.
pub const ATTR_TUPLES: &str = "tuples";
/// Coded bytes a span consumed.
pub const ATTR_BYTES: &str = "bytes";
/// One-line physical-plan summary on the root SQL span.
pub const ATTR_PLAN_SUMMARY: &str = "plan_summary";
/// SQL statement text on the root SQL span.
pub const ATTR_STATEMENT: &str = "statement";
/// Plan alternatives the planner costed for this statement.
pub const ATTR_PLANS_CONSIDERED: &str = "plans_considered";

/// Every trace attribute key declared above, for exhaustive checks (tests
/// and `avq-lint`'s two-way DESIGN.md §15 consistency pass).
pub const TRACE_ATTRS: &[&str] = &[
    ATTR_STAGE,
    ATTR_ROWS,
    ATTR_BLOCKS_READ,
    ATTR_CACHE_HITS,
    ATTR_CACHE_HIT,
    ATTR_POOL_HIT,
    ATTR_KERNEL,
    ATTR_BLOCK,
    ATTR_TUPLES,
    ATTR_BYTES,
    ATTR_PLAN_SUMMARY,
    ATTR_STATEMENT,
    ATTR_PLANS_CONSIDERED,
];

#[cfg(test)]
mod tests {
    /// Every constant in this module must be dot-namespaced under `avq.`
    /// with lowercase path segments, and no two constants may share a name.
    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in super::ALL {
            assert!(
                name.starts_with("avq.") || name.starts_with("avq_"),
                "{name} must live in the avq namespace"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name} has characters outside [a-z0-9._]"
            );
            assert!(seen.insert(*name), "duplicate metric name {name}");
        }
    }

    /// Attribute keys are bare lowercase words: no dots (they are not
    /// metric names), no `avq.` prefix, and no duplicates — including
    /// against the metric namespace.
    #[test]
    fn trace_attrs_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for key in super::TRACE_ATTRS {
            assert!(!key.is_empty(), "empty attribute key");
            assert!(
                key.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{key} has characters outside [a-z0-9_]"
            );
            assert!(seen.insert(*key), "duplicate attribute key {key}");
            assert!(
                !super::ALL.contains(key),
                "{key} is both a metric name and an attribute key"
            );
        }
    }

    #[test]
    fn prom_mapping_rewrites_dots() {
        assert_eq!(super::prom("avq.wal.fsync.ns"), "avq_wal_fsync_ns");
        assert_eq!(
            super::prom(super::CORRUPT_BLOCKS_TOTAL),
            "avq_corrupt_blocks_total"
        );
    }
}
