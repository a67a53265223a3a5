//! Canonical metric names — the single source of truth for every
//! instrument the workspace registers.
//!
//! Production code must name metrics through these constants rather than
//! repeating string literals at call sites; `avq-lint` rule **AVQ-L004**
//! enforces this, and that each name is well-formed and declared once.
//! This module's rustdoc *is* the metric and attribute inventory: a new
//! instrument is a new documented constant here and nothing else.
//! Names are dot-namespaced (`avq.codec.decode.blocks`); [`prom`] maps
//! them onto the Prometheus charset (`avq_codec_decode_blocks`). A
//! constant is a counter unless its doc says histogram; `SPAN_*`
//! constants name the span itself — the backing histogram is
//! `<span>.ns`; `ATTR_*` constants are trace-attribute keys.

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
/// Inline secondary-index postings a block split re-pointed in the tree's
/// batch pass.
pub const DB_SPLIT_POSTINGS: &str = "avq.db.split.postings";
/// Secondary-index leaves a block split's batch pass wrote.
pub const DB_SPLIT_LEAF_WRITES: &str = "avq.db.split.leaf_writes";
/// Blocks a cold read answered from their synopsis without decoding.
pub const DB_SYNOPSIS_BLOCKS: &str = "avq.db.synopsis.blocks";
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

/// Histogram: records per WAL group-commit batch.
pub const WAL_GROUP_COMMIT_BATCH_SIZE: &str = "avq.wal.group_commit.batch_size";
/// Histogram: coded bytes a governed query had decoded when it finished or
/// tripped.
pub const GOV_BUDGET_DECODED_BYTES: &str = "avq.gov.budget.decoded_bytes";
/// Histogram: tuples a governed query had examined when it finished or
/// tripped.
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
/// Span around one checkpoint; attributes [`ATTR_BLOCKS`] and
/// [`ATTR_BYTES`], the coded blocks and bytes it copied.
pub const SPAN_DB_CHECKPOINT: &str = "avq.db.checkpoint";
/// Span around one block split: re-pack, re-code, primary-index re-keying
/// and secondary postings; attributes [`ATTR_POSTINGS`] and
/// [`ATTR_LEAF_WRITES`].
pub const SPAN_DB_SPLIT: &str = "avq.db.split";

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

// --- trace attribute keys ---------------------------------------------------
//
// Bare (non-dot-namespaced) keys for `TraceSpanGuard::attr`: attribute keys
// are span-local, so they are deliberately outside the `avq.` metric
// namespace. AVQ-L004 takes the `ATTR_` prefix as the mark of a key.

/// `u64` on `avq.db.checkpoint`: coded blocks copied.
pub const ATTR_BLOCKS: &str = "blocks";
/// `u64` on `avq.db.split`: inline postings re-pointed by the batch pass.
pub const ATTR_POSTINGS: &str = "postings";
/// `u64` on `avq.db.split`: secondary-index leaves the batch pass wrote.
pub const ATTR_LEAF_WRITES: &str = "leaf_writes";
/// `str` on `avq.sql.stage`: executor stage kind (`scan`, `synopsis`,
/// `filter`, `join`, `aggregate`, `sort`, `limit`, `project`, `index-probe`,
/// `scan-inner`).
pub const ATTR_STAGE: &str = "stage";
/// `u64` on `avq.sql.stage`: rows the stage produced.
pub const ATTR_ROWS: &str = "rows";
/// `u64` on `avq.sql.stage`: blocks fetched during the stage.
pub const ATTR_BLOCKS_READ: &str = "blocks_read";
/// `u64` on `avq.sql.stage`: decoded-cache + buffer-pool hits attributed to
/// the stage.
pub const ATTR_CACHE_HITS: &str = "cache_hits";
/// `bool` on `avq.db.block_read`: the block was served from the decoded
/// cache.
pub const ATTR_CACHE_HIT: &str = "cache_hit";
/// `bool` on `avq.db.block_read`: the block's bytes were served from the
/// buffer pool.
pub const ATTR_POOL_HIT: &str = "pool_hit";
/// `bool` on `avq.db.block_read`: the block was answered from its synopsis,
/// not decoded.
pub const ATTR_SYNOPSIS: &str = "synopsis";
/// `str` on `avq.codec.decode_block`: decode kernel that ran (`scalar` /
/// `swar`).
pub const ATTR_KERNEL: &str = "kernel";
/// `u64` on `avq.db.block_read`: block id.
pub const ATTR_BLOCK: &str = "block";
/// `u64` on `avq.codec.decode_block`: tuples decoded.
pub const ATTR_TUPLES: &str = "tuples";
/// `u64` on `avq.codec.decode_block`: coded bytes consumed.
pub const ATTR_BYTES: &str = "bytes";
/// `str` on `avq.sql.query`: one-line physical-plan summary.
pub const ATTR_PLAN_SUMMARY: &str = "plan_summary";
/// `str` on `avq.sql.query`: SQL statement text.
pub const ATTR_STATEMENT: &str = "statement";
/// `u64` on `avq.sql.query`: plan alternatives the planner costed.
pub const ATTR_PLANS_CONSIDERED: &str = "plans_considered";

#[cfg(test)]
mod tests {
    #[test]
    fn prom_mapping_rewrites_dots() {
        assert_eq!(super::prom("avq.wal.fsync.ns"), "avq_wal_fsync_ns");
        assert_eq!(
            super::prom(super::CORRUPT_BLOCKS_TOTAL),
            "avq_corrupt_blocks_total"
        );
    }
}
