//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names in the same order
//! (`tests/selfcheck.rs` holds the two together); `README.md` says which
//! end-to-end metric each per-layer metric is expected to move.

use std::collections::BTreeMap;

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        lower_is_better: true,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        lower_is_better: false,
        bound: None,
    }
}

impl Def {
    const fn bound(mut self, bound: f64) -> Def {
        self.bound = Some(bound);
        self
    }
}

/// What `--trace 0` reports: defined, and never zero, on every workload.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s").bound(0.25),
    higher("ops_per_s", "1/s").bound(0.25),
    lower("op_p50_ms", "ms").bound(0.25),
    lower("op_p95_ms", "ms").bound(0.25),
    lower("space_ratio", "bytes/byte").bound(0.25),
    lower("peak_rss_mb", "MiB").bound(0.05),
];

/// What `--trace 1` reports, grouped by layer (= crate). A metric reads 0
/// on a workload that never exercises it.
pub const PER_LAYER: &[Def] = &[
    // sql
    lower("sql.parse_us", "us"),
    lower("sql.plan_us", "us"),
    lower("sql.exec_us", "us"),
    lower("sql.full_scan_plan_share", "ratio"),
    higher("sql.index_plan_share", "ratio"),
    higher("sql.clustered_plan_share", "ratio"),
    lower("sql.rows_examined_per_row", "ratio"),
    // db
    lower("db.block_hit_ns_per_tuple", "ns"),
    lower("db.block_miss_ns_per_tuple", "ns"),
    lower("db.select_range_us", "us"),
    lower("db.contains_us", "us"),
    lower("db.insert_us", "us"),
    lower("db.delete_us", "us"),
    lower("db.update_us", "us"),
    lower("db.checkpoint_ms", "ms"),
    lower("db.recovery_s", "s"),
    higher("db.replay_records_per_s", "1/s"),
    lower("db.splits_per_kop", "1/kop"),
    lower("db.blocks_end", "blocks"),
    lower("db.join_ms", "ms"),
    lower("db.aggregate_ms", "ms"),
    // codec
    lower("codec.decode_ns_per_tuple.field-wise", "ns"),
    lower("codec.decode_ns_per_tuple.avq", "ns"),
    lower("codec.decode_ns_per_tuple.avq-chained", "ns"),
    lower("codec.decode_ns_per_tuple.avq-chained-bits", "ns"),
    lower("codec.decode_ns_per_tuple.avq-chained.scalar", "ns"),
    lower("codec.encode_ns_per_tuple", "ns"),
    lower("codec.block_insert_us", "us"),
    lower("codec.block_delete_us", "us"),
    lower("codec.bits_per_tuple", "bits"),
    lower("codec.decode_allocs_per_tuple", "count"),
    higher("codec.parallel_decode_speedup_2t", "ratio"),
    lower("codec.decodes_per_op", "blocks"),
    // storage
    higher("storage.pool_hit_rate", "ratio"),
    higher("storage.decoded_hit_rate", "ratio"),
    lower("storage.decoded_evictions_per_op", "blocks"),
    lower("storage.device_reads_per_op", "blocks"),
    lower("storage.device_writes_per_op", "blocks"),
    lower("storage.write_amp", "bytes/byte"),
    lower("storage.pool_read_hit_ns", "ns"),
    lower("storage.pool_read_miss_us", "us"),
    lower("storage.decoded_get_ns", "ns"),
    lower("storage.model_ms_per_op", "ms"),
    // index
    lower("index.build_s.unique", "s"),
    lower("index.build_s.lowcard", "s"),
    lower("index.get_us", "us"),
    lower("index.insert_us", "us"),
    lower("index.delete_us", "us"),
    lower("index.posting_add_us", "us"),
    lower("index.nodes_read_per_lookup", "blocks"),
    // wal
    lower("wal.append_us", "us"),
    lower("wal.fsync_us", "us"),
    lower("wal.bytes_per_record", "bytes"),
    lower("wal.fsyncs_per_op", "count"),
    higher("wal.scan_records_per_s", "1/s"),
    // file
    higher("file.save_mb_per_s", "MB/s"),
    higher("file.load_mb_per_s", "MB/s"),
    lower("file.snapshot_bytes", "bytes"),
    // num
    lower("num.rank_ns", "ns"),
    lower("num.unrank_ns", "ns"),
    lower("num.unrank_u64_batch_ns_per_value", "ns"),
    // schema
    lower("schema.tuple_clone_ns", "ns"),
    lower("schema.encode_row_ns", "ns"),
    // obs
    lower("obs.span_ns", "ns"),
    higher("obs.trace_overhead_ratio", "ratio"),
    // all layers: self time per layer ÷ Σ op wall in the traced replay
    lower("share.sql", "ratio"),
    lower("share.db", "ratio"),
    lower("share.codec", "ratio"),
    lower("share.storage_index", "ratio"),
    lower("share.wal", "ratio"),
    lower("share.file", "ratio"),
    lower("share.unaccounted", "ratio"),
    lower("allocs_per_op", "count"),
];

/// Measured values by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` for exactly the metrics of
    /// `defs`, in their order. A missing, surplus or non-finite value is a
    /// bug in the benchmark and is reported as an error, never printed.
    pub fn to_json(&self, defs: &[Def]) -> Result<String, String> {
        if let Some(extra) = self.0.keys().find(|k| defs.iter().all(|d| d.name != **k)) {
            return Err(format!("metric `{extra}` is not in the catalogue"));
        }
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite", d.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}
