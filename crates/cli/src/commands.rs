//! The `avqtool` commands as library functions (so they are unit-testable
//! without spawning processes). Each returns its human-readable output.

use crate::csv;
use crate::spec;
use avq_codec::{compress, CodecOptions, CodingMode, RepChoice};
use avq_db::{Database, DbConfig, DurableDatabase, RecoveryReport, SyncPolicy};
use avq_schema::{Relation, Value};
use std::path::Path;

/// A boxed error for the CLI layer.
pub type CliError = Box<dyn std::error::Error>;

fn parse_mode(s: &str) -> Result<CodingMode, CliError> {
    match s {
        "fieldwise" | "field-wise" => Ok(CodingMode::FieldWise),
        "avq" => Ok(CodingMode::Avq),
        "chained" | "avq-chained" => Ok(CodingMode::AvqChained),
        "bits" | "avq-chained-bits" => Ok(CodingMode::AvqChainedBits),
        other => Err(format!("unknown mode {other:?} (fieldwise|avq|chained|bits)").into()),
    }
}

/// `avqtool create <schema.spec> <data.csv> <out.avq> [mode] [block_bytes]`
///
/// Reads the schema spec and the CSV (no header row), compresses, writes the
/// `.avq` file, and reports the stats line.
pub fn create(
    spec_path: &Path,
    csv_path: &Path,
    out_path: &Path,
    mode: Option<&str>,
    block_capacity: Option<usize>,
) -> Result<String, CliError> {
    let schema = spec::parse_schema_spec(&std::fs::read_to_string(spec_path)?)?;
    let records = csv::parse(&std::fs::read_to_string(csv_path)?)?;

    let mut relation = Relation::new(schema.clone());
    for (i, record) in records.iter().enumerate() {
        let row =
            record_to_row(&schema, record).map_err(|e| format!("csv record {}: {e}", i + 1))?;
        relation.push_row(&row)?;
    }

    let options = CodecOptions {
        mode: mode.map(parse_mode).transpose()?.unwrap_or_default(),
        rep: RepChoice::Median,
        block_capacity: block_capacity.unwrap_or(8192),
        ..Default::default()
    };
    let coded = compress(&relation, options)?;
    avq_file::save(out_path, &coded)?;
    let st = coded.stats();
    Ok(format!("wrote {}: {st}\n", out_path.display()))
}

fn record_to_row(schema: &avq_schema::Schema, record: &[String]) -> Result<Vec<Value>, CliError> {
    if record.len() != schema.arity() {
        return Err(format!("expected {} fields, got {}", schema.arity(), record.len()).into());
    }
    let mut row = Vec::with_capacity(record.len());
    for (field, attr) in record.iter().zip(schema.attributes()) {
        let v = match attr.domain() {
            avq_schema::Domain::Uint { .. } => Value::Uint(
                field
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad uint {field:?} for {}", attr.name()))?,
            ),
            avq_schema::Domain::IntRange { .. } => Value::Int(
                field
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad int {field:?} for {}", attr.name()))?,
            ),
            avq_schema::Domain::Enumerated { .. } => Value::from(field.as_str()),
        };
        row.push(v);
    }
    Ok(row)
}

/// `avqtool info <file.avq | db-dir>` — for an `.avq` file: schema,
/// options, and compression stats; for a durable database directory:
/// recovery summary, relations, and decoded-cache counters.
pub fn info(path: &Path) -> Result<String, CliError> {
    if path.is_dir() {
        return open(path);
    }
    let coded = avq_file::load(path)?;
    let st = coded.stats();
    let opts = coded.options();
    let mut out = String::new();
    out.push_str(&format!("file:      {}\n", path.display()));
    out.push_str(&format!(
        "coding:    {} ({} representative), {}-byte blocks\n",
        opts.mode, opts.rep, opts.block_capacity
    ));
    out.push_str(&format!(
        "tuples:    {} in {} blocks ({:.1} bytes/tuple coded)\n",
        st.tuple_count,
        st.coded_blocks,
        st.bytes_per_tuple()
    ));
    out.push_str(&format!(
        "reduction: {:.1}% on blocks, {:.1}% on payload vs {}-byte fixed-width tuples\n",
        st.block_reduction_percent(),
        st.payload_reduction_percent(),
        st.tuple_bytes
    ));
    out.push_str("schema:\n");
    for line in spec::render_schema_spec(coded.schema()).lines() {
        out.push_str(&format!("  {line}\n"));
    }
    Ok(out)
}

/// Renders the post-recovery state of an opened durable database: what the
/// recovery did, what relations exist, and how the decoded-block cache
/// behaved while replaying. The format is pinned by tests — keep it stable.
fn render_database(db: &DurableDatabase, report: &RecoveryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("directory:  {}\n", db.dir().display()));
    out.push_str(&format!(
        "checkpoint: lsn {}, {} snapshot(s) loaded\n",
        report.checkpoint_lsn, report.snapshots_loaded
    ));
    out.push_str(&format!(
        "replayed:   {} record(s) ({} skipped, {} failed), last lsn {}\n",
        report.replayed, report.skipped, report.failed, report.last_lsn
    ));
    match &report.torn_reason {
        Some(reason) => out.push_str(&format!(
            "torn tail:  {} byte(s) truncated ({reason})\n",
            report.torn_bytes
        )),
        None => out.push_str("torn tail:  none\n"),
    }
    out.push_str("relations:\n");
    for name in db.database().relation_names() {
        let rel = db.database().relation(name).expect("listed relation");
        let secondary = rel.secondary_attrs();
        out.push_str(&format!(
            "  {name}: {} tuples in {} blocks, secondary on {secondary:?}\n",
            rel.tuple_count(),
            rel.blocks().len()
        ));
    }
    out.push_str(&format!(
        "decoded cache: {}\n",
        db.database().decoded_stats()
    ));
    out
}

/// `avqtool open <dir>` — opens (recovering if needed) a durable database
/// directory and reports its state.
pub fn open(dir: &Path) -> Result<String, CliError> {
    let (db, report) = DurableDatabase::open(dir, DbConfig::default(), SyncPolicy::Manual)?;
    Ok(render_database(&db, &report))
}

/// `avqtool checkpoint <dir>` — opens a durable database, writes fresh
/// snapshots, and truncates the log.
pub fn checkpoint(dir: &Path) -> Result<String, CliError> {
    let (mut db, report) = DurableDatabase::open(dir, DbConfig::default(), SyncPolicy::Manual)?;
    let ck = db.checkpoint()?;
    let mut out = render_database(&db, &report);
    out.push_str(&format!(
        "checkpoint: lsn {} written, {} relation(s), {} snapshot byte(s)\n",
        ck.checkpoint_lsn, ck.relations, ck.snapshot_bytes
    ));
    Ok(out)
}

/// `avqtool recover-info <dir>` — read-only inspection of a durable
/// directory: manifest contents plus a WAL scan (no state is modified and
/// no torn tail is truncated).
pub fn recover_info(dir: &Path) -> Result<String, CliError> {
    let mut out = String::new();
    match avq_wal::Manifest::read_dir(dir)? {
        Some(m) => {
            out.push_str(&format!(
                "manifest:   checkpoint lsn {}, {} relation(s)\n",
                m.checkpoint_lsn,
                m.relations.len()
            ));
            for entry in &m.relations {
                out.push_str(&format!(
                    "  {} <- {} (secondary on {:?})\n",
                    entry.name, entry.snapshot, entry.secondary_attrs
                ));
            }
        }
        None => out.push_str("manifest:   none (no checkpoint yet)\n"),
    }
    let scan = avq_wal::scan(dir.join(avq_wal::WAL_FILE))?;
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    for (_, rec) in &scan.records {
        let kind = rec.kind();
        match kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => kinds.push((kind, 1)),
        }
    }
    let breakdown: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    out.push_str(&format!(
        "wal:        {} record(s) in {} byte(s){}{}\n",
        scan.records.len(),
        scan.valid_bytes,
        if breakdown.is_empty() { "" } else { ": " },
        breakdown.join(" ")
    ));
    out.push_str(&format!("last lsn:   {}\n", scan.last_lsn()));
    match &scan.torn_reason {
        Some(reason) => out.push_str(&format!(
            "torn tail:  {} byte(s) ({reason})\n",
            scan.torn_bytes
        )),
        None => out.push_str("torn tail:  none\n"),
    }
    Ok(out)
}

/// `avqtool dump <file.avq>` — decompress to CSV (φ order).
pub fn dump(path: &Path) -> Result<String, CliError> {
    let coded = avq_file::load(path)?;
    let schema = coded.schema().clone();
    let mut out = String::new();
    for i in 0..coded.block_count() {
        for tuple in coded.decode_block(i)? {
            let row = schema.decode_row(&tuple)?;
            let fields: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&csv::write_record(&fields));
            out.push('\n');
        }
    }
    Ok(out)
}

/// `avqtool verify <file.avq> [--deep]` — checksum, structure, and order
/// check; `--deep` additionally re-verifies every block against its
/// metadata and its own re-encoding.
pub fn verify(path: &Path, deep: bool) -> Result<String, CliError> {
    let coded = avq_file::load(path)?; // checksum + structural checks happen here
    let tuples = check_coded_relation(&coded, deep)?;
    let mut out = format!(
        "ok: {} tuples in {} blocks, checksum valid, φ order intact",
        tuples,
        coded.block_count()
    );
    if deep {
        out.push_str(&format!(
            ", deep: {} blocks match metadata and re-encode byte-identically",
            coded.block_count()
        ));
    }
    Ok(out)
}

/// Decodes every block of `coded` in order, checking global φ order and the
/// header tuple count; with `deep`, each block must also be non-empty,
/// internally φ-sorted, agree with its [`avq_codec::BlockMeta`], and
/// re-encode to exactly its stored bytes. Returns the decoded tuple count.
fn check_coded_relation(coded: &avq_codec::CodedRelation, deep: bool) -> Result<usize, CliError> {
    let codec = coded.codec();
    let mut prev: Option<avq_schema::Tuple> = None;
    let mut tuples = 0usize;
    for i in 0..coded.block_count() {
        let run = coded.decode_block(i)?;
        for t in &run {
            if let Some(p) = &prev {
                if *t < *p {
                    return Err(format!("φ order violated in block {i}").into());
                }
            }
            prev = Some(t.clone());
            tuples += 1;
        }
        if !deep {
            continue;
        }
        let meta = coded.meta(i);
        let Some(last) = run.last() else {
            return Err(format!("block {i}: decodes to zero tuples").into());
        };
        if meta.tuple_count != run.len() || meta.min != run[0] || meta.max != *last {
            return Err(format!("block {i}: metadata disagrees with decoded contents").into());
        }
        let reencoded = codec.encode(&run)?;
        if reencoded != coded.block(i) {
            return Err(format!("block {i}: re-encode differs from stored bytes").into());
        }
    }
    if tuples != coded.tuple_count() {
        return Err(format!(
            "header claims {} tuples, decoded {tuples}",
            coded.tuple_count()
        )
        .into());
    }
    Ok(tuples)
}

/// `avqtool scrub <file.avq | db-dir> [--repair]` — verifies all CRCs and
/// structure, lists damage, and (for a database directory, with `--repair`)
/// truncates the torn log tail and rewrites the snapshot generation.
/// Returns `Err` (carrying the full report) whenever damage remains, so the
/// process exit code reflects the file's health.
pub fn scrub(path: &Path, repair: bool) -> Result<String, CliError> {
    if path.is_dir() {
        scrub_dir(path, repair)
    } else {
        scrub_file(path)
    }
}

/// Scrubs a bare `.avq` file. There is no log to replay, so damage is
/// always unrepairable — report it and point at the durable path.
fn scrub_file(path: &Path) -> Result<String, CliError> {
    let mut out = format!("scrub:     {}\n", path.display());
    match avq_file::load(path).map_err(CliError::from).and_then(|c| {
        let n = check_coded_relation(&c, true)?;
        Ok((n, c.block_count()))
    }) {
        Ok((tuples, blocks)) => {
            out.push_str(&format!(
                "container: ok ({tuples} tuples in {blocks} blocks)\nresult:    clean\n"
            ));
            Ok(out)
        }
        Err(e) => {
            out.push_str(&format!(
                "container: CORRUPT ({e})\nresult:    damaged — a bare .avq file has no log to \
                 repair from; restore it from a checkpointed database directory\n"
            ));
            Err(out.into())
        }
    }
}

/// Scrubs a durable database directory: manifest, every snapshot named by
/// it (deep-verified), the write-ahead log, and leftover temp files.
fn scrub_dir(dir: &Path, repair: bool) -> Result<String, CliError> {
    let mut out = format!("scrub:     {}\n", dir.display());
    // Damage that repair cannot undo: data before the checkpoint exists
    // only in the snapshots, and a manifest names the only valid generation.
    let mut fatal: Vec<String> = Vec::new();
    // Damage the WAL discipline repairs: torn tails and stale temp files.
    let mut fixable: Vec<String> = Vec::new();

    match avq_wal::Manifest::read_dir(dir) {
        Ok(None) => out.push_str("manifest:  none (no checkpoint yet)\n"),
        Ok(Some(m)) => {
            out.push_str(&format!(
                "manifest:  checkpoint lsn {}, {} relation(s)\n",
                m.checkpoint_lsn,
                m.relations.len()
            ));
            for entry in &m.relations {
                let snap = dir.join(&entry.snapshot);
                match avq_file::load(&snap)
                    .map_err(CliError::from)
                    .and_then(|c| check_coded_relation(&c, true))
                {
                    Ok(tuples) => out.push_str(&format!(
                        "  {} ({}): ok, {tuples} tuples\n",
                        entry.snapshot, entry.name
                    )),
                    Err(e) => {
                        out.push_str(&format!(
                            "  {} ({}): CORRUPT ({e})\n",
                            entry.snapshot, entry.name
                        ));
                        fatal.push(format!("snapshot {} is damaged", entry.snapshot));
                    }
                }
            }
        }
        Err(e) => fatal.push(format!("manifest unreadable: {e}")),
    }

    match avq_wal::scan(dir.join(avq_wal::WAL_FILE)) {
        Ok(scan) => {
            out.push_str(&format!(
                "wal:       {} record(s), last lsn {}\n",
                scan.records.len(),
                scan.last_lsn()
            ));
            if scan.torn_bytes > 0 {
                let reason = scan.torn_reason.as_deref().unwrap_or("unknown");
                fixable.push(format!(
                    "torn log tail: {} byte(s) ({reason})",
                    scan.torn_bytes
                ));
            }
        }
        Err(e) => fatal.push(format!("wal unreadable: {e}")),
    }

    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(name) = entry.file_name().to_str() {
                if name.ends_with(".tmp") {
                    fixable.push(format!("leftover temp file {name}"));
                }
            }
        }
    }

    for d in &fatal {
        out.push_str(&format!(
            "damage:    {d} (unrepairable: the data it holds lives nowhere else)\n"
        ));
    }
    for d in &fixable {
        out.push_str(&format!("damage:    {d}\n"));
    }
    if !fatal.is_empty() {
        out.push_str("result:    damaged beyond repair\n");
        return Err(out.into());
    }
    if fixable.is_empty() {
        out.push_str("result:    clean\n");
        return Ok(out);
    }
    if !repair {
        out.push_str("result:    damaged (re-run with --repair)\n");
        return Err(out.into());
    }

    // Repair: the ordinary recovery path truncates the torn tail and
    // replays the surviving records; a fresh checkpoint then rewrites the
    // snapshot generation and clears stale temp files.
    let (mut db, report) = DurableDatabase::open(dir, DbConfig::default(), SyncPolicy::Manual)?;
    let ck = db.checkpoint()?;
    out.push_str(&format!(
        "repair:    truncated {} torn byte(s), replayed {} record(s), \
         new checkpoint at lsn {} ({} relation(s))\n",
        report.torn_bytes, report.replayed, ck.checkpoint_lsn, ck.relations
    ));
    drop(db);
    // Re-verify the repaired generation end to end.
    let manifest = avq_wal::Manifest::read_dir(dir)?.ok_or("repair left no manifest")?;
    for entry in &manifest.relations {
        let coded = avq_file::load(dir.join(&entry.snapshot))?;
        check_coded_relation(&coded, true)
            .map_err(|e| format!("post-repair snapshot {} fails: {e}", entry.snapshot))?;
    }
    out.push_str("result:    repaired and re-verified\n");
    Ok(out)
}

/// `avqtool inject <file> <seed> <k>` — flips `k` seeded bits of any file
/// in place (the scrub/repair drill: damage a copy, watch scrub find it).
pub fn inject(path: &Path, seed: u64, k: usize) -> Result<String, CliError> {
    let offsets = avq_storage::corrupt_file_in_place(path, seed, k)?;
    let rendered: Vec<String> = offsets.iter().map(|o| o.to_string()).collect();
    Ok(format!(
        "injected {} bit flip(s) into {} (seed {seed}) at byte offset(s): {}\n",
        offsets.len(),
        path.display(),
        rendered.join(", ")
    ))
}

/// `avqtool query <file.avq> <attr> <lo> <hi>` — the rows of
/// `select * from <file> where <attr> between <lo> and <hi>` as CSV, in φ
/// order, then a `# N of M blocks decoded` line: `N` is the blocks the
/// statement's scan read, `M` the relation's. The bounds must lie in the
/// attribute's domain.
pub fn query(path: &Path, attr: &str, lo: &str, hi: &str) -> Result<String, CliError> {
    let (db, name) = database_from_avq(path)?;
    let schema = db.relation(&name)?.schema();
    let domain = schema.attribute(schema.index_of(attr)?).domain();
    for bound in [lo, hi] {
        domain.encode(&parse_value(domain, bound)?)?;
    }
    let stmt = range_select_sql(&db, &name, attr, lo, hi)?;
    let avq_sql::Statement::Select(stmt) = avq_sql::parse(&stmt)? else {
        return Err("not a select statement".into());
    };
    let bound = avq_sql::bind(&db, &stmt)?;
    let plan = avq_sql::plan::plan(&db, &bound)?;
    let exec = avq_sql::exec::execute(&db, &bound, &plan, &avq_obs::QueryCtx::default())?;

    let mut out = String::new();
    for row in &exec.result.rows {
        let fields: Vec<String> = row.iter().map(|cell| cell.to_string()).collect();
        out.push_str(&csv::write_record(&fields));
        out.push('\n');
    }
    let decoded: u64 = (exec.stages.iter())
        .filter(|s| s.stage == "scan")
        .map(|s| s.blocks)
        .sum();
    let blocks = db.relation(&name)?.block_count();
    out.push_str(&format!("# {decoded} of {blocks} blocks decoded\n"));
    Ok(out)
}

fn parse_value(domain: &avq_schema::Domain, s: &str) -> Result<Value, CliError> {
    Ok(match domain {
        avq_schema::Domain::Uint { .. } => Value::Uint(s.parse()?),
        avq_schema::Domain::IntRange { .. } => Value::Int(s.parse()?),
        avq_schema::Domain::Enumerated { .. } => Value::from(s),
    })
}

/// `avqtool convert <in.avq> <out.avq> <mode> [block_bytes]` — re-encode an
/// existing file under a different coding mode and/or block size.
pub fn convert(
    in_path: &Path,
    out_path: &Path,
    mode: &str,
    block_capacity: Option<usize>,
) -> Result<String, CliError> {
    let coded = avq_file::load(in_path)?;
    let old = coded.stats();
    let relation = coded.decompress()?;
    let options = CodecOptions {
        mode: parse_mode(mode)?,
        rep: RepChoice::Median,
        block_capacity: block_capacity.unwrap_or(coded.options().block_capacity),
        ..Default::default()
    };
    let recoded = compress(&relation, options)?;
    avq_file::save(out_path, &recoded)?;
    let new = recoded.stats();
    Ok(format!(
        "converted {} ({}, {} blocks) -> {} ({}, {} blocks)
",
        in_path.display(),
        coded.options().mode,
        old.coded_blocks,
        out_path.display(),
        options.mode,
        new.coded_blocks
    ))
}

/// Loads an `.avq` file into an in-memory [`Database`] holding one relation
/// named after the file stem. Lets `explain`/`explain-join` run against
/// plain files, not only durable directories.
fn database_from_avq(path: &Path) -> Result<(Database, String), CliError> {
    let coded = avq_file::load(path)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_owned();
    let config = DbConfig {
        codec: coded.options(),
        ..Default::default()
    };
    let mut db = Database::new(config);
    db.create_relation_from_coded(&name, &coded)?;
    Ok((db, name))
}

/// A SQL target: either a durable database directory or an `.avq` file
/// loaded into a single-relation in-memory database.
enum SqlTarget {
    Durable(Box<DurableDatabase>),
    Memory(Database),
}

impl SqlTarget {
    fn open(path: &Path) -> Result<(Self, String), CliError> {
        if path.is_dir() {
            let (db, _) = DurableDatabase::open(path, DbConfig::default(), SyncPolicy::Manual)?;
            let names = db.database().relation_names().join(", ");
            Ok((SqlTarget::Durable(Box::new(db)), names))
        } else {
            let (db, name) = database_from_avq(path)?;
            Ok((SqlTarget::Memory(db), name))
        }
    }

    fn db(&self) -> &Database {
        match self {
            SqlTarget::Durable(d) => d.database(),
            SqlTarget::Memory(d) => d,
        }
    }
}

/// Resource-governance flags shared by the one-shot and interactive `sql`
/// forms: `--timeout-ms`, `--max-decoded-mb`, and `--max-rows`.
#[derive(Debug, Default, Clone, Copy)]
pub struct BudgetFlags {
    /// `--timeout-ms <n>`: deadline on the simulated disk's virtual clock.
    pub timeout_ms: Option<u64>,
    /// `--max-decoded-mb <n>`: coded-bytes decode quota, in MiB.
    pub max_decoded_mb: Option<u64>,
    /// `--max-rows <n>`: rows-examined quota.
    pub max_rows: Option<u64>,
}

impl BudgetFlags {
    fn is_empty(&self) -> bool {
        self.timeout_ms.is_none() && self.max_decoded_mb.is_none() && self.max_rows.is_none()
    }

    /// The [`avq_db::QueryBudget`] these flags describe.
    fn budget(&self) -> avq_db::QueryBudget {
        let mut b = avq_db::QueryBudget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout_ms(ms as f64);
        }
        if let Some(mb) = self.max_decoded_mb {
            b = b.with_max_decoded_bytes(mb << 20);
        }
        if let Some(n) = self.max_rows {
            b = b.with_max_rows(n);
        }
        b
    }

    /// A governance context for one statement against `db` — disabled
    /// (zero-overhead) when no flag was given.
    fn gov_for(&self, db: &Database) -> avq_db::GovCtx {
        if self.is_empty() {
            avq_db::GovCtx::unlimited()
        } else {
            avq_db::GovCtx::new(self.budget(), db.clock().clone())
        }
    }
}

/// `avqtool sql <file.avq | db-dir> <statement>` — parse, plan, and run one
/// SQL statement (see `avq_sql` for the dialect) under the governance
/// budget described by `flags`.
pub fn sql(path: &Path, stmt: &str, flags: &BudgetFlags) -> Result<String, CliError> {
    let (target, _) = SqlTarget::open(path)?;
    let ctx = avq_obs::QueryCtx::from(flags.gov_for(target.db()));
    let outcome = avq_sql::run_with(target.db(), stmt, &ctx)?;
    Ok(format!("{}\n", outcome.render()))
}

/// A single-query collector honouring `--sample` / `--budget-ms`.
fn trace_collector(sample: Option<u64>, budget_ms: Option<u64>) -> avq_obs::TraceCollector {
    let policy = match sample {
        None | Some(0) | Some(1) => avq_obs::SamplingPolicy::Always,
        Some(n) => avq_obs::SamplingPolicy::OneIn(n),
    };
    let collector = avq_obs::TraceCollector::new(8, policy);
    if let Some(ms) = budget_ms {
        collector.set_slow_budget(std::time::Duration::from_millis(ms));
    }
    collector
}

/// Runs `stmt` under a fresh trace, returning the statement outcome, the
/// sampled trace (if kept), and the collector (for the slow-query log).
/// The statement starts cold: what opening the target left resident —
/// recovery writes replayed blocks through the decoded cache, an index
/// rebuild scans every block — is dropped first, so a one-shot trace shows
/// the whole read path down to the block decodes.
fn run_one_with_trace(
    path: &Path,
    stmt: &str,
    collector: avq_obs::TraceCollector,
    flags: &BudgetFlags,
) -> Result<
    (
        avq_sql::SqlOutcome,
        Option<std::sync::Arc<avq_obs::TraceData>>,
        avq_obs::TraceCollector,
    ),
    CliError,
> {
    let (target, _) = SqlTarget::open(path)?;
    target.db().drop_caches();
    let ctx = avq_obs::QueryCtx {
        trace: collector.begin(),
        gov: flags.gov_for(target.db()),
    };
    let result = avq_sql::run_with(target.db(), stmt, &ctx);
    let data = collector.finish(ctx.trace);
    Ok((result?, data, collector))
}

/// `avqtool sql <target> "<statement>" --trace [--sample n] [--budget-ms n]`
/// — run one statement and print its span tree (plus the slow-query report
/// when the statement blew the budget).
pub fn sql_with_trace(
    path: &Path,
    stmt: &str,
    sample: Option<u64>,
    budget_ms: Option<u64>,
    flags: &BudgetFlags,
) -> Result<String, CliError> {
    let (outcome, data, collector) =
        run_one_with_trace(path, stmt, trace_collector(sample, budget_ms), flags)?;
    let mut out = format!("{}\n", outcome.render());
    match data {
        Some(d) => {
            out.push('\n');
            out.push_str(&d.render_text(false));
        }
        None => out.push_str("\n(trace sampled out)\n"),
    }
    for d in collector.slow_queries() {
        out.push('\n');
        out.push_str(&d.render_slow(false));
    }
    Ok(out)
}

/// `avqtool trace export <target> "<statement>" [--format chrome|jsonl|text]`
/// — run one statement fully traced and emit the trace in the requested
/// format (default: Chrome trace-event JSON for `chrome://tracing`).
pub fn trace_export(path: &Path, stmt: &str, format: &str) -> Result<String, CliError> {
    let collector = trace_collector(None, None);
    let (_, data, _) = run_one_with_trace(path, stmt, collector, &BudgetFlags::default())?;
    let d = data.ok_or("trace was not captured")?;
    match format {
        "chrome" => Ok(format!("{}\n", d.render_chrome())),
        "jsonl" => Ok(d.render_jsonl()),
        "text" => Ok(d.render_text(false)),
        other => Err(format!("unknown trace format {other:?} (chrome|jsonl|text)").into()),
    }
}

/// `avqtool trace slow <target> "<statement>" [--budget-ms n]` — run one
/// statement with the slow-query log armed (default budget: 0 ms, so the
/// statement always qualifies) and print the slow-query report.
pub fn trace_slow(path: &Path, stmt: &str, budget_ms: Option<u64>) -> Result<String, CliError> {
    let collector = trace_collector(None, Some(budget_ms.unwrap_or(0)));
    let (_, _, collector) = run_one_with_trace(path, stmt, collector, &BudgetFlags::default())?;
    let slow = collector.slow_queries();
    if slow.is_empty() {
        return Ok("no slow queries (root span under budget)\n".to_owned());
    }
    Ok(slow
        .iter()
        .map(|d| d.render_slow(false))
        .collect::<Vec<_>>()
        .join("\n"))
}

/// The interactive loop behind `avqtool sql <target>`, split out over
/// generic reader/writer so tests can drive it without a terminal.
/// Statements run one per line under the governance budget in `flags`;
/// `\cancel` arms cooperative cancellation for the next statement (it
/// starts executing and trips at its first poll point), and `\q`, `quit`,
/// or `exit` leaves.
pub fn sql_shell<R, W>(
    path: &Path,
    input: R,
    mut output: W,
    flags: &BudgetFlags,
) -> Result<(), CliError>
where
    R: std::io::BufRead,
    W: std::io::Write,
{
    let (target, names) = SqlTarget::open(path)?;
    writeln!(output, "avq-sql — relations: {names} (\\q to quit)")?;
    write!(output, "avq> ")?;
    output.flush()?;
    let mut pending_cancel = false;
    for line in input.lines() {
        let line = line?;
        let stmt = line.trim();
        if matches!(stmt, "\\q" | "quit" | "exit") {
            break;
        }
        if stmt == "\\cancel" {
            pending_cancel = true;
            writeln!(output, "cancel armed: the next statement will be cancelled")?;
        } else if !stmt.is_empty() {
            // A pending cancel needs an *enabled* context even when no
            // budget flag was given — a disabled one has nothing to trip.
            let gov = if pending_cancel {
                avq_db::GovCtx::new(flags.budget(), target.db().clock().clone())
            } else {
                flags.gov_for(target.db())
            };
            if pending_cancel {
                gov.cancel();
                pending_cancel = false;
            }
            match avq_sql::run_with(target.db(), stmt, &avq_obs::QueryCtx::from(gov)) {
                Ok(outcome) => writeln!(output, "{}", outcome.render())?,
                Err(e) => writeln!(output, "error: {e}")?,
            }
        }
        write!(output, "avq> ")?;
        output.flush()?;
    }
    writeln!(output)?;
    Ok(())
}

/// `avqtool sql <target>` with no statement: a REPL on stdin/stdout.
pub fn sql_repl(path: &Path, flags: &BudgetFlags) -> Result<String, CliError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    sql_shell(path, stdin.lock(), stdout.lock(), flags)?;
    Ok(String::new())
}

/// Quotes `raw` as a SQL literal for `domain`: enumerated members are
/// single-quoted, numbers pass through.
fn sql_literal(domain: &avq_schema::Domain, raw: &str) -> String {
    match domain {
        avq_schema::Domain::Enumerated { .. } => format!("'{raw}'"),
        _ => raw.to_owned(),
    }
}

/// `select * from <name> where <attr> between <lo> and <hi>`.
fn range_select_sql(
    db: &Database,
    name: &str,
    attr: &str,
    lo: &str,
    hi: &str,
) -> Result<String, CliError> {
    let rel = db.relation(name)?;
    let idx = rel.schema().index_of(attr)?;
    let domain = rel.schema().attribute(idx).domain();
    Ok(format!(
        "select * from {name} where {attr} between {} and {}",
        sql_literal(domain, lo),
        sql_literal(domain, hi)
    ))
}

fn explain_select_sql(
    db: &Database,
    name: &str,
    attr: &str,
    lo: &str,
    hi: &str,
) -> Result<String, CliError> {
    let stmt = range_select_sql(db, name, attr, lo, hi)?;
    let plan = avq_sql::run(db, &format!("explain analyze {stmt}"))?;
    Ok(format!("{}\n", plan.render()))
}

/// `avqtool explain <file.avq> <attribute> <lo> <hi>` — alias for
/// `avqtool sql <file> "explain analyze select * …"` over the file's
/// relation.
pub fn explain_file(path: &Path, attr: &str, lo: &str, hi: &str) -> Result<String, CliError> {
    let (db, name) = database_from_avq(path)?;
    explain_select_sql(&db, &name, attr, lo, hi)
}

/// `avqtool explain <db-dir> <relation> <attribute> <lo> <hi>` — the same
/// against a relation of a durable database directory.
pub fn explain_dir(
    dir: &Path,
    relation: &str,
    attr: &str,
    lo: &str,
    hi: &str,
) -> Result<String, CliError> {
    let (db, _) = DurableDatabase::open(dir, DbConfig::default(), SyncPolicy::Manual)?;
    explain_select_sql(db.database(), relation, attr, lo, hi)
}

fn explain_join_sql(
    db: &Database,
    outer: &str,
    outer_attr: &str,
    inner: &str,
    inner_attr: &str,
) -> Result<String, CliError> {
    let stmt = if outer == inner {
        format!(
            "explain analyze select * from {outer} a join {inner} b on a.{outer_attr} = b.{inner_attr}"
        )
    } else {
        format!(
            "explain analyze select * from {outer} join {inner} \
             on {outer}.{outer_attr} = {inner}.{inner_attr}"
        )
    };
    Ok(format!("{}\n", avq_sql::run(db, &stmt)?.render()))
}

/// `avqtool explain-join <file.avq> <outer_attr> <inner_attr>` — alias for
/// an `EXPLAIN ANALYZE` self-equijoin through the SQL planner.
pub fn explain_join_file(
    path: &Path,
    outer_attr: &str,
    inner_attr: &str,
) -> Result<String, CliError> {
    let (db, name) = database_from_avq(path)?;
    explain_join_sql(&db, &name, outer_attr, &name, inner_attr)
}

/// `avqtool explain-join <db-dir> <outer> <outer_attr> <inner> <inner_attr>`
/// — the same for two relations of a durable database directory.
pub fn explain_join_dir(
    dir: &Path,
    outer: &str,
    outer_attr: &str,
    inner: &str,
    inner_attr: &str,
) -> Result<String, CliError> {
    let (db, _) = DurableDatabase::open(dir, DbConfig::default(), SyncPolicy::Manual)?;
    explain_join_sql(db.database(), outer, outer_attr, inner, inner_attr)
}

/// Distinguishes the temp directories of concurrent `stats` workloads
/// (test threads share a process id).
static STATS_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Runs a small end-to-end workload — bulk load (codec encode), WAL
/// commits with fsync, a secondary index, a selection, a self-join, an
/// aggregate, and a checkpoint — in a throwaway temp directory so every
/// `avq.*` metric family has live data in this process.
fn exercise_builtin() -> Result<(), CliError> {
    use avq_schema::{Domain, Schema};
    let run = STATS_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "avqtool-stats-workload-{}-{run}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let result = (|| -> Result<(), CliError> {
        let schema = Schema::from_pairs(vec![("k", Domain::uint(64)?), ("v", Domain::uint(256)?)])?;
        let relation = Relation::from_rows(
            schema,
            (0..512u64).map(|i| vec![Value::Uint(i % 64), Value::Uint((i * 7) % 256)]),
        )?;
        let (mut db, _) = DurableDatabase::open(&dir, DbConfig::default(), SyncPolicy::Always)?;
        db.create_relation("sample", &relation)?;
        db.create_secondary_index("sample", 1)?;
        db.insert_row("sample", &[Value::Uint(63), Value::Uint(255)])?;
        let _ = db
            .database()
            .select_range("sample", "v", &Value::Uint(10), &Value::Uint(40))?;
        let rel = db.database().relation("sample")?;
        let _ = avq_db::equijoin(rel, 1, rel, 1)?;
        let _ = rel.aggregate(avq_db::Aggregate::Count, &avq_db::Selection::all())?;
        // Drive the SQL path (parse/plan/exec span families) and one fully
        // traced statement so the `avq.sql.*` and `avq.trace.*` families
        // are live in every stats snapshot.
        let _ = avq_sql::run(
            db.database(),
            "select k, count(*) from sample where v between 10 and 40 group by k",
        )?;
        let collector = avq_obs::TraceCollector::new(1, avq_obs::SamplingPolicy::Always);
        let ctx = avq_obs::QueryCtx::from(collector.begin());
        let _ = avq_sql::run_with(
            db.database(),
            "select a.k from sample a join sample b on a.k = b.k limit 4",
            &ctx,
        )?;
        let _ = collector.finish(ctx.trace);
        db.checkpoint()?;
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// Renders the global metrics registry in the requested format.
fn render_metrics(format: &str) -> Result<String, CliError> {
    let snap = avq_obs::global().snapshot();
    match format {
        "prom" | "prometheus" => Ok(snap.render_prometheus()),
        "json" => Ok(snap.render_json()),
        other => Err(format!("unknown format {other:?} (prom|json)").into()),
    }
}

/// `avqtool stats [--format prom|json] [file.avq | db-dir]` — runs the
/// built-in exercise workload so every metric family is populated, also
/// exercises `path` when given (an `.avq` file is fully decoded; a
/// database directory is opened and recovered), then renders the global
/// metrics registry.
pub fn stats(path: Option<&Path>, format: &str) -> Result<String, CliError> {
    exercise_builtin()?;
    if let Some(p) = path {
        if p.is_dir() {
            let _ = open(p)?;
        } else {
            let coded = avq_file::load(p)?;
            for i in 0..coded.block_count() {
                let _ = coded.decode_block(i)?;
            }
        }
    }
    render_metrics(format)
}

/// Writes a snapshot of the global metrics registry to `path` (the
/// `--metrics-out` flag): Prometheus text for a `.prom`/`.txt` extension,
/// JSON otherwise.
pub fn write_metrics(path: &Path) -> Result<String, CliError> {
    let format = match path.extension().and_then(|e| e.to_str()) {
        Some("prom") | Some("txt") => "prom",
        _ => "json",
    };
    std::fs::write(path, render_metrics(format)?)?;
    Ok(format!("metrics written to {}\n", path.display()))
}

/// Usage text for `avqtool`.
pub const USAGE: &str = "\
avqtool — compressed relational tables (AVQ, ICDE 1995)

USAGE:
  avqtool create <schema.spec> <data.csv> <out.avq> [mode] [block_bytes]
  avqtool info   <file.avq | db-dir>
  avqtool dump   <file.avq>
  avqtool query  <file.avq> <attribute> <lo> <hi>
  avqtool convert <in.avq> <out.avq> <mode> [block_bytes]
  avqtool verify <file.avq> [--deep]
  avqtool scrub  <file.avq | db-dir> [--repair]
  avqtool inject <file> <seed> <k>
  avqtool open   <db-dir>
  avqtool checkpoint <db-dir>
  avqtool recover-info <db-dir>
  avqtool stats  [--format prom|json] [file.avq | db-dir]
  avqtool explain <file.avq> <attribute> <lo> <hi>
  avqtool explain <db-dir> <relation> <attribute> <lo> <hi>
  avqtool explain-join <file.avq> <outer_attr> <inner_attr>
  avqtool explain-join <db-dir> <outer> <outer_attr> <inner> <inner_attr>
  avqtool sql <file.avq | db-dir> \"<statement>\"
  avqtool sql <file.avq | db-dir>            (interactive shell; \\cancel
                                              arms cancellation of the
                                              next statement)
  avqtool sql <target> \"<statement>\" --trace [--sample n] [--budget-ms n]
  avqtool trace export <target> \"<statement>\" [--format chrome|jsonl|text]
  avqtool trace slow <target> \"<statement>\" [--budget-ms n]

FLAGS (any command):
  --metrics-out <path>   write a metrics snapshot after the command
                         (.prom/.txt -> Prometheus text, else JSON)
  --trace                print the span tree after `sql` (plus the
                         slow-query report when over --budget-ms)
  --sample <n>           keep one trace in n (default: every trace)
  --budget-ms <n>        slow-query latency budget in milliseconds
  --timeout-ms <n>       `sql` deadline on the virtual disk clock; a
                         statement over it fails with a governance error
  --max-decoded-mb <n>   `sql` quota on coded MiB decoded per statement
  --max-rows <n>         `sql` quota on rows examined per statement

MODES: fieldwise | avq | chained (default) | bits

schema.spec format, one attribute per line:
  name:uint:<size> | name:int:<min>:<max> | name:enum:<v1>,<v2>,…
";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("avqtool-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SPEC: &str = "dept:enum:eng,hr,ops\nyears:uint:50\nbonus:int:-5:5\n";

    fn sample_csv(rows: usize) -> String {
        let mut out = String::new();
        for i in 0..rows {
            out.push_str(&format!(
                "{},{},{}\n",
                ["eng", "hr", "ops"][i % 3],
                i % 50,
                (i % 11) as i64 - 5
            ));
        }
        out
    }

    fn setup(tag: &str, rows: usize) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = tmpdir(tag);
        let spec_path = dir.join("schema.spec");
        let csv_path = dir.join("data.csv");
        let avq_path = dir.join("data.avq");
        std::fs::write(&spec_path, SPEC).unwrap();
        std::fs::write(&csv_path, sample_csv(rows)).unwrap();
        let msg = create(&spec_path, &csv_path, &avq_path, Some("chained"), Some(512)).unwrap();
        assert!(msg.contains("wrote"));
        (dir, avq_path)
    }

    #[test]
    fn create_info_verify() {
        let (dir, avq_path) = setup("civ", 500);
        let info_out = info(&avq_path).unwrap();
        assert!(info_out.contains("500 in"));
        assert!(info_out.contains("dept:enum:eng,hr,ops"));
        let verify_out = verify(&avq_path, false).unwrap();
        assert!(verify_out.starts_with("ok: 500 tuples"));
        // Deep verification extends, never replaces, the pinned line.
        let deep_out = verify(&avq_path, true).unwrap();
        assert!(deep_out.starts_with(&verify_out), "{deep_out}");
        assert!(
            deep_out.contains("deep:") && deep_out.contains("re-encode byte-identically"),
            "{deep_out}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dump_roundtrips_rows() {
        let (dir, avq_path) = setup("dump", 200);
        let out = dump(&avq_path).unwrap();
        let records = csv::parse(&out).unwrap();
        assert_eq!(records.len(), 200);
        // Every dumped row re-encodes under the schema (losslessness at the
        // CLI boundary).
        let original = csv::parse(&sample_csv(200)).unwrap();
        let mut dumped = records.clone();
        dumped.sort();
        let mut orig_sorted = original.clone();
        orig_sorted.sort();
        assert_eq!(dumped, orig_sorted);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn query_filters_and_prunes() {
        let (dir, avq_path) = setup("query", 300);
        let out = query(&avq_path, "years", "10", "12").unwrap();
        let lines: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(!lines.is_empty());
        for l in &lines {
            let year: u64 = l.split(',').nth(1).unwrap().parse().unwrap();
            assert!((10..=12).contains(&year));
        }
        // Clustering-prefix query reports pruning.
        let out = query(&avq_path, "dept", "eng", "eng").unwrap();
        let note = out.lines().last().unwrap();
        assert!(note.starts_with("# "));
        std::fs::remove_dir_all(dir).ok();
    }

    /// `avqtool query`'s output on four cases, captured from the block
    /// loop the SQL statement replaced: an attribute-0 equality on an
    /// enumerated attribute, a non-prefix range, an empty range on the
    /// clustering attribute (`ops` sorts after `hr`) and an out-of-order
    /// non-prefix range. The rows are byte-identical. The footer counts
    /// the blocks the planner's path reads: `dept = hr` is priced as a
    /// full scan (2 blocks; the attribute-0 prune read 1), and neither
    /// empty range reads a block (the prune read the 1 block straddling
    /// `hr` and `ops`, and the out-of-order range was a full scan).
    #[test]
    fn query_golden_output() {
        const HR: &str = concat!(
            "hr,0,-4\nhr,0,3\nhr,1,-4\nhr,1,3\nhr,2,-1\nhr,2,3\n",
            "hr,3,-5\nhr,3,-1\nhr,4,-5\nhr,4,-1\nhr,5,-5\nhr,5,2\n",
            "hr,6,-2\nhr,6,2\nhr,7,-2\nhr,7,2\nhr,8,-2\nhr,8,5\n",
            "hr,9,1\nhr,9,5\nhr,10,1\nhr,10,5\nhr,11,-3\nhr,11,1\n",
            "hr,12,-3\nhr,12,4\nhr,13,-3\nhr,13,4\nhr,14,0\nhr,14,4\n",
            "hr,15,-4\nhr,15,0\nhr,16,-4\nhr,16,0\nhr,17,-4\nhr,17,3\n",
            "hr,18,-1\nhr,18,3\nhr,19,-1\nhr,19,3\nhr,20,-5\nhr,20,-1\n",
            "hr,21,-5\nhr,21,2\nhr,22,-5\nhr,22,2\nhr,23,-2\nhr,23,2\n",
            "hr,24,-2\nhr,24,5\nhr,25,-2\nhr,25,5\nhr,26,1\nhr,26,5\n",
            "hr,27,-3\nhr,27,1\nhr,28,-3\nhr,28,1\nhr,29,-3\nhr,29,4\n",
            "hr,30,0\nhr,30,4\nhr,31,0\nhr,31,4\nhr,32,-4\nhr,32,0\n",
            "hr,33,-4\nhr,33,3\nhr,34,-4\nhr,34,3\nhr,35,-1\nhr,35,3\n",
            "hr,36,-5\nhr,36,-1\nhr,37,-5\nhr,37,-1\nhr,38,-5\nhr,38,2\n",
            "hr,39,-2\nhr,39,2\nhr,40,-2\nhr,40,2\nhr,41,-2\nhr,41,5\n",
            "hr,42,1\nhr,42,5\nhr,43,1\nhr,43,5\nhr,44,-3\nhr,44,1\n",
            "hr,45,-3\nhr,45,4\nhr,46,-3\nhr,46,4\nhr,47,0\nhr,47,4\n",
            "hr,48,-4\nhr,48,0\nhr,49,-4\nhr,49,0\n",
        );
        const YEARS: &str = concat!(
            "eng,10,-4\neng,10,0\neng,11,-4\neng,11,3\neng,12,-4\neng,12,3\n",
            "hr,10,1\nhr,10,5\nhr,11,-3\nhr,11,1\nhr,12,-3\nhr,12,4\n",
            "ops,10,-5\nops,10,2\nops,11,-5\nops,11,2\nops,12,-2\nops,12,2\n",
        );
        let (dir, avq_path) = setup("query-golden", 300);
        for ((attr, lo, hi), expected) in [
            (
                ("dept", "hr", "hr"),
                format!("{HR}# 2 of 2 blocks decoded\n"),
            ),
            (
                ("years", "10", "12"),
                format!("{YEARS}# 2 of 2 blocks decoded\n"),
            ),
            (
                ("dept", "ops", "hr"),
                "# 0 of 2 blocks decoded\n".to_owned(),
            ),
            (
                ("years", "12", "10"),
                "# 0 of 2 blocks decoded\n".to_owned(),
            ),
        ] {
            let out = query(&avq_path, attr, lo, hi).unwrap();
            assert_eq!(out, expected, "{attr} {lo} {hi}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn create_rejects_bad_rows() {
        let dir = tmpdir("bad");
        let spec_path = dir.join("schema.spec");
        let csv_path = dir.join("data.csv");
        std::fs::write(&spec_path, SPEC).unwrap();
        std::fs::write(&csv_path, "eng,999,0\n").unwrap(); // years out of range
        let err = create(&spec_path, &csv_path, &dir.join("x.avq"), None, None).unwrap_err();
        assert!(err.to_string().contains("not in domain"));
        std::fs::write(&csv_path, "eng,1\n").unwrap(); // arity
        let err = create(&spec_path, &csv_path, &dir.join("x.avq"), None, None).unwrap_err();
        assert!(err.to_string().contains("expected 3 fields"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("bits").unwrap(), CodingMode::AvqChainedBits);
        assert_eq!(parse_mode("fieldwise").unwrap(), CodingMode::FieldWise);
        assert!(parse_mode("zstd").is_err());
    }

    #[test]
    fn convert_changes_mode() {
        let (dir, avq_path) = setup("convert", 400);
        let out = dir.join("bits.avq");
        let msg = convert(&avq_path, &out, "bits", None).unwrap();
        assert!(msg.contains("AVQ-chained-bits"));
        // Same logical contents under the new coding.
        assert_eq!(dump(&out).unwrap(), dump(&avq_path).unwrap());
        let info_out = info(&out).unwrap();
        assert!(info_out.contains("AVQ-chained-bits"));
        std::fs::remove_dir_all(dir).ok();
    }

    fn seeded_db_dir(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = tmpdir(tag);
        let db_dir = dir.join("db");
        let schema = avq_schema::Schema::from_pairs(vec![
            (
                "dept",
                avq_schema::Domain::enumerated(vec!["eng", "hr"]).unwrap(),
            ),
            ("id", avq_schema::Domain::uint(10_000).unwrap()),
        ])
        .unwrap();
        let relation = Relation::from_rows(
            schema,
            (0..100u64).map(|i| vec![Value::from(["eng", "hr"][(i % 2) as usize]), Value::Uint(i)]),
        )
        .unwrap();
        let (mut db, _) =
            DurableDatabase::open(&db_dir, DbConfig::default(), SyncPolicy::Always).unwrap();
        db.create_relation("people", &relation).unwrap();
        db.create_secondary_index("people", 1).unwrap();
        db.insert_row("people", &[Value::from("hr"), Value::Uint(9999)])
            .unwrap();
        (dir, db_dir)
    }

    #[test]
    fn open_pins_recovery_and_cache_stat_format() {
        let (dir, db_dir) = seeded_db_dir("open");
        let out = open(&db_dir).unwrap();
        assert!(
            out.contains("checkpoint: lsn 0, 0 snapshot(s) loaded"),
            "{out}"
        );
        assert!(
            out.contains("replayed:   3 record(s) (0 skipped, 0 failed), last lsn 3"),
            "{out}"
        );
        assert!(out.contains("torn tail:  none"), "{out}");
        assert!(
            out.contains("  people: 101 tuples in") && out.contains("secondary on [1]"),
            "{out}"
        );
        // The decoded-cache line is the operator-facing format; pin it.
        let cache_line = out
            .lines()
            .find(|l| l.starts_with("decoded cache: "))
            .expect("cache line present");
        for field in ["hits=", "misses=", "evictions=", "hit_rate="] {
            assert!(cache_line.contains(field), "{cache_line}");
        }
        assert!(cache_line.ends_with('%'), "{cache_line}");
        // `info` on a directory is the same report.
        assert_eq!(info(&db_dir).unwrap(), out);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_and_recover_info_pin_formats() {
        let (dir, db_dir) = seeded_db_dir("ckpt");
        // Before any checkpoint: no manifest, three live records.
        let ri = recover_info(&db_dir).unwrap();
        assert!(ri.contains("manifest:   none (no checkpoint yet)"), "{ri}");
        assert!(ri.contains("wal:        3 record(s)"), "{ri}");
        assert!(
            ri.contains("create-relation=1 create-secondary-index=1 insert=1"),
            "{ri}"
        );
        assert!(ri.contains("last lsn:   3"), "{ri}");

        let out = checkpoint(&db_dir).unwrap();
        assert!(
            out.contains("checkpoint: lsn 3 written, 1 relation(s)"),
            "{out}"
        );

        let ri = recover_info(&db_dir).unwrap();
        assert!(
            ri.contains("manifest:   checkpoint lsn 3, 1 relation(s)"),
            "{ri}"
        );
        assert!(
            ri.contains("  people <- snap-3-0.avq (secondary on [1])"),
            "{ri}"
        );
        assert!(
            ri.contains("wal:        1 record(s)") && ri.contains("checkpoint=1"),
            "{ri}"
        );
        assert!(ri.contains("torn tail:  none"), "{ri}");

        // Reopening after the checkpoint loads the snapshot and replays
        // nothing.
        let out = open(&db_dir).unwrap();
        assert!(
            out.contains("checkpoint: lsn 3, 1 snapshot(s) loaded"),
            "{out}"
        );
        // Only the checkpoint marker remains in the log; it is skipped.
        assert!(
            out.contains("replayed:   0 record(s) (1 skipped, 0 failed), last lsn 4"),
            "{out}"
        );
        assert!(out.contains("  people: 101 tuples in"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    /// Splits one explain table row into its five trimmed columns.
    fn explain_columns(line: &str) -> Vec<String> {
        line.split('|').map(|c| c.trim().to_owned()).collect()
    }

    // Satellite: golden test pinning the `EXPLAIN ANALYZE` output format
    // now produced by the SQL planner — header text, costed plan tree,
    // stage names, and a parseable total row.
    #[test]
    fn explain_select_golden_format() {
        let (dir, avq_path) = setup("explain", 600);
        let out = explain_file(&avq_path, "years", "5", "20").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "EXPLAIN ANALYZE: select * from data where years between 5 and 20"
        );
        assert_eq!(lines[1], "plan: full-scan");
        // Costed tree: project over the chosen scan, estimates paired with
        // actuals via the shared pre-order node numbering.
        assert!(
            lines[2].starts_with("-> project dept, years, bonus ("),
            "{out}"
        );
        assert!(
            lines[3]
                .trim_start()
                .starts_with("-> scan data via full-scan"),
            "{out}"
        );
        for line in &lines[2..4] {
            for field in ["est_rows=", "est_blocks=", "est_cost=", "actual_rows=192"] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
        }
        assert!(lines[4].starts_with("plans considered: "), "{out}");
        assert!(lines[4].contains(", estimated cost: "), "{out}");
        assert_eq!(
            lines[5],
            "stage         |       rows |   blocks | cache_hits |    elapsed"
        );
        assert!(
            lines[6].chars().all(|c| c == '-' || c == '+'),
            "{}",
            lines[6]
        );
        let stages: Vec<String> = lines[7..]
            .iter()
            .map(|l| explain_columns(l)[0].clone())
            .collect();
        assert_eq!(stages, ["scan", "filter", "project", "total"]);
        for line in &lines[7..] {
            let cols = explain_columns(line);
            assert_eq!(cols.len(), 5, "{line}");
            for col in &cols[1..4] {
                col.parse::<u64>()
                    .unwrap_or_else(|_| panic!("non-numeric {col:?} in {line}"));
            }
            assert!(cols[4].ends_with('s'), "elapsed column: {line}");
        }
        // The filter stage's row count is the result cardinality: years are
        // i % 50 over 600 rows, so 12 full cycles × 16 matching values.
        let filter = explain_columns(lines[8]);
        assert_eq!(filter[1], "192");
        let total = explain_columns(lines[10]);
        assert_eq!(total[1], "192");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn explain_join_golden_format_and_cache_hits() {
        let (dir, avq_path) = setup("xjoin", 300);
        let out = explain_join_file(&avq_path, "years", "years").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "EXPLAIN ANALYZE: select * from data a join data b on a.years = b.years"
        );
        // No secondary index in a bare .avq load, so the planner must pick
        // the block-nested-loop strategy.
        assert_eq!(lines[1], "plan: block-nested-loop");
        assert!(
            out.contains("block-nested-loop join b on a.years = b.years"),
            "{out}"
        );
        let header = lines
            .iter()
            .position(|l| l.starts_with("stage "))
            .expect("stage table present");
        let stages: Vec<String> = lines[header + 2..]
            .iter()
            .map(|l| explain_columns(l)[0].clone())
            .collect();
        assert_eq!(
            stages,
            ["scan", "filter", "scan-inner", "join", "project", "total"]
        );
        // The self-join re-reads blocks the outer scan already decoded, so
        // the inner scan must report cache hits.
        let inner = explain_columns(lines[header + 4]);
        assert_eq!(inner[0], "scan-inner");
        assert!(inner[3].parse::<u64>().unwrap() > 0, "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn explain_on_db_dir_uses_relation_name() {
        let (dir, db_dir) = seeded_db_dir("explain-dir");
        let out = explain_dir(&db_dir, "people", "id", "10", "30").unwrap();
        assert!(
            out.starts_with("EXPLAIN ANALYZE: select * from people where id between 10 and 30"),
            "{out}"
        );
        // The seeded relation is a single warm block, so the cost model
        // correctly prices the full scan below any index descent — unlike
        // the old operator, which always probed when an index existed.
        assert!(out.contains("plan: full-scan"), "{out}");
        assert!(out.contains("scan people via full-scan"), "{out}");
        let out = explain_join_dir(&db_dir, "people", "id", "people", "id").unwrap();
        assert!(out.contains("plan: block-nested-loop"), "{out}");
        assert!(out.contains("join b on a.id = b.id"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    // Tentpole wiring: the `sql` command against both target kinds.
    #[test]
    fn sql_one_shot_runs_the_full_dialect_on_a_db_dir() {
        let (dir, db_dir) = seeded_db_dir("sql-dir");
        // seeded people: dept = i % 2 over 100 rows plus one extra hr row.
        let out = sql(
            &db_dir,
            "select dept, count(*) from people group by dept order by dept limit 2",
            &BudgetFlags::default(),
        )
        .unwrap();
        assert!(out.contains("dept | count(*)"), "{out}");
        assert!(out.contains("(2 rows)"), "{out}");
        let out = sql(
            &db_dir,
            "select count(*) from people a join people b on a.dept = b.dept where a.id < 1",
            &BudgetFlags::default(),
        )
        .unwrap();
        // Person 0 is dept eng; 50 eng rows match on the inner side.
        assert!(out.contains("50"), "{out}");
        let out = sql(
            &db_dir,
            "explain select * from people where id = 7",
            &BudgetFlags::default(),
        )
        .unwrap();
        assert!(out.starts_with("EXPLAIN: "), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sql_one_shot_runs_against_an_avq_file() {
        let (dir, avq_path) = setup("sql-avq", 60);
        let out = sql(
            &avq_path,
            "select years from data where years = 7",
            &BudgetFlags::default(),
        )
        .unwrap();
        assert!(out.contains("years"), "{out}");
        // years = i % 50 over 60 rows: i = 7 and i = 57 both match.
        assert!(out.contains("(2 rows)"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sql_errors_are_reported_not_panicked() {
        let (dir, avq_path) = setup("sql-err", 10);
        let err = sql(&avq_path, "select * from nowhere", &BudgetFlags::default()).unwrap_err();
        assert!(err.to_string().contains("nowhere"), "{err}");
        let err = sql(&avq_path, "select * frum data", &BudgetFlags::default()).unwrap_err();
        assert!(!err.to_string().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sql_shell_executes_lines_and_quits() {
        let (dir, avq_path) = setup("sql-repl", 30);
        let input = b"select count(*) from data\n\nbad syntax here\n\\q\n" as &[u8];
        let mut output = Vec::new();
        sql_shell(&avq_path, input, &mut output, &BudgetFlags::default()).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.starts_with("avq-sql — relations: data"), "{text}");
        assert!(text.contains("count(*)"), "{text}");
        assert!(text.contains("30"), "{text}");
        assert!(text.contains("error: "), "{text}");
        // One prompt per input line processed, plus the initial one.
        assert_eq!(text.matches("avq> ").count(), 4, "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    // Pinned goldens for governance-error rendering: a trip surfaces in the
    // same `error: <SqlError>` style as every other statement failure, with
    // the stable GovernanceError message embedded.
    #[test]
    fn sql_governance_error_rendering_is_pinned() {
        let (dir, avq_path) = setup("sql-gov", 200);
        let flags = BudgetFlags {
            max_rows: Some(1),
            ..BudgetFlags::default()
        };
        let err = sql(&avq_path, "select count(*) from data", &flags).unwrap_err();
        assert_eq!(
            err.to_string(),
            "execution error: governance error: \
             rows-examined quota exceeded: used 200 of 1"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sql_shell_cancel_arms_cancellation_of_next_statement() {
        let (dir, avq_path) = setup("sql-cancel", 30);
        let input =
            b"\\cancel\nselect count(*) from data\nselect count(*) from data\n\\q\n" as &[u8];
        let mut output = Vec::new();
        sql_shell(&avq_path, input, &mut output, &BudgetFlags::default()).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(
            text.contains("cancel armed: the next statement will be cancelled"),
            "{text}"
        );
        // The cancelled statement trips cooperatively at its first poll
        // point; the one after runs clean.
        assert!(
            text.contains("error: execution error: governance error: query cancelled"),
            "{text}"
        );
        assert!(text.contains("30"), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sql_one_shot_decoded_quota_flag_counts_coded_bytes() {
        let (dir, avq_path) = setup("sql-decmb", 200);
        // A fully-cached scan re-decodes nothing, so a generous decode
        // quota passes while the rows quota (always charged) still guards.
        let flags = BudgetFlags {
            max_decoded_mb: Some(64),
            ..BudgetFlags::default()
        };
        let out = sql(&avq_path, "select count(*) from data", &flags).unwrap();
        assert!(out.contains("200"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    // Tentpole acceptance: a JOIN + GROUP BY under `--trace` produces a
    // span tree from the root SQL span down to individual block-decode
    // spans carrying cache-hit and kernel attributes.
    #[test]
    fn sql_traced_join_group_by_reaches_block_decodes() {
        use avq_obs::names;
        let (dir, db_dir) = seeded_db_dir("sql-trace");
        let out = sql_with_trace(
            &db_dir,
            "select a.dept, count(*) from people a join people b on a.id = b.id group by a.dept",
            None,
            None,
            &BudgetFlags::default(),
        )
        .unwrap();
        // The result table still comes first.
        assert!(out.contains("dept | count(*)"), "{out}");
        assert!(out.contains("(2 rows)"), "{out}");
        // Root span with statement + plan attributes.
        assert!(
            out.contains(&format!("-> {} (", names::SPAN_SQL_QUERY)),
            "{out}"
        );
        assert!(out.contains("statement=\"select a.dept"), "{out}");
        assert!(out.contains("plan_summary="), "{out}");
        assert!(out.contains("plans_considered="), "{out}");
        // Per-stage spans named as in the EXPLAIN ANALYZE stage table.
        assert!(out.contains("stage=\"scan\""), "{out}");
        assert!(out.contains("stage=\"aggregate\""), "{out}");
        // Block-level decode spans with storage + kernel attribution.
        assert!(
            out.contains(&format!("-> {} (", names::SPAN_DB_BLOCK_READ)),
            "{out}"
        );
        assert!(out.contains("cache_hit="), "{out}");
        assert!(
            out.contains(&format!("-> {} (", names::SPAN_CODEC_DECODE_BLOCK)),
            "{out}"
        );
        assert!(out.contains("kernel="), "{out}");
        assert!(out.contains("tuples="), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sql_traced_sampling_and_slow_report() {
        let (dir, db_dir) = seeded_db_dir("sql-trace-sample");
        // Budget 0 ms promotes the statement to the slow log, so `--trace
        // --budget-ms 0` appends the slow-query report after the tree.
        let out = sql_with_trace(
            &db_dir,
            "select count(*) from people",
            None,
            Some(0),
            &BudgetFlags::default(),
        )
        .unwrap();
        assert!(out.contains("slow query: trace 1"), "{out}");
        assert!(out.contains("sql: select count(*) from people"), "{out}");
        assert!(out.contains("est_rows  actual_rows"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_export_formats_round_trip() {
        let (dir, db_dir) = seeded_db_dir("trace-export");
        let stmt = "select dept, count(*) from people group by dept";
        let chrome = trace_export(&db_dir, stmt, "chrome").unwrap();
        // Loadable by chrome://tracing: one top-level object with a
        // traceEvents array of complete events.
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(
            chrome.trim_end().ends_with("\"displayTimeUnit\":\"ns\"}"),
            "{chrome}"
        );
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("avq.sql.query"), "{chrome}");
        assert!(chrome.contains("avq.codec.decode_block"), "{chrome}");
        assert_eq!(
            chrome.matches('{').count(),
            chrome.matches('}').count(),
            "unbalanced braces: {chrome}"
        );
        let jsonl = trace_export(&db_dir, stmt, "jsonl").unwrap();
        assert!(jsonl.lines().count() >= 4, "{jsonl}");
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"trace\":"), "{line}");
            assert!(line.ends_with("}}"), "{line}");
        }
        let text = trace_export(&db_dir, stmt, "text").unwrap();
        assert!(text.starts_with("trace "), "{text}");
        assert!(trace_export(&db_dir, stmt, "yaml").is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    // Satellite acceptance: the slow-query log captures SQL text, the
    // chosen plan, and per-node estimated-vs-actual rows for a query
    // forced over the latency budget.
    #[test]
    fn trace_slow_golden_capture() {
        let (dir, db_dir) = seeded_db_dir("trace-slow");
        let out = trace_slow(
            &db_dir,
            "select dept, count(*) from people where id < 50 group by dept",
            Some(0),
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("slow query: trace 1 (root "), "{out}");
        assert_eq!(
            lines[1],
            "sql: select dept, count(*) from people where id < 50 group by dept"
        );
        assert!(lines[2].starts_with("plan: "), "{out}");
        assert!(lines[3].ends_with("est_rows  actual_rows"), "{out}");
        assert!(lines[3].starts_with("node"), "{out}");
        // One table row per plan node, each ending in two integer columns.
        let tree_start = lines
            .iter()
            .position(|l| l.starts_with("trace "))
            .expect("span tree follows the table");
        for row in &lines[4..tree_start] {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let n = cols.len();
            assert!(cols[n - 1].parse::<u64>().is_ok(), "{row}");
            assert!(cols[n - 2].parse::<u64>().is_ok(), "{row}");
        }
        // The aggregate node produced exactly 2 groups.
        assert!(
            lines[4..tree_start]
                .iter()
                .any(|l| l.contains("aggregate group by") && l.trim_end().ends_with('2')),
            "{out}"
        );
        // Under budget: a large budget yields no slow queries.
        let quiet = trace_slow(&db_dir, "select count(*) from people", Some(3_600_000)).unwrap();
        assert_eq!(quiet, "no slow queries (root span under budget)\n");
        std::fs::remove_dir_all(dir).ok();
    }

    // Satellite: every metric namespace must be live in the Prometheus
    // export after the built-in stats workload (this is what CI greps).
    #[test]
    fn stats_prom_lists_every_namespace() {
        use avq_obs::names;
        let out = stats(None, "prom").unwrap();
        // Derive the expected families from the canonical name registry so
        // this test can never drift from the constants production code uses.
        let counters = [
            names::CODEC_ENCODE_BLOCKS,
            names::CODEC_DECODE_BLOCKS,
            names::STORAGE_POOL_HITS,
            names::STORAGE_CACHE_HITS,
            names::WAL_RECORDS,
            names::DB_QUERIES,
            names::DB_JOINS,
            names::DB_CHECKPOINTS,
            names::SQL_STATEMENTS,
            names::SQL_PLANS_CONSIDERED,
            names::TRACE_STARTED,
            names::TRACE_SAMPLED,
        ];
        let spans = [
            names::SPAN_CODEC_ENCODE_BLOCK,
            names::SPAN_WAL_FSYNC,
            names::SPAN_DB_SELECT,
            names::SPAN_SQL_PARSE,
            names::SPAN_SQL_PLAN,
            names::SPAN_SQL_EXEC,
        ];
        for family in counters
            .iter()
            .map(|n| names::prom(n))
            .chain(spans.iter().map(|n| names::prom(&format!("{n}.ns"))))
        {
            assert!(out.contains(&family), "missing family {family} in:\n{out}");
        }
        assert!(out.contains("# TYPE"), "{out}");
    }

    #[test]
    fn stats_json_and_file_target() {
        use avq_obs::names;
        let (dir, avq_path) = setup("stats", 200);
        let out = stats(Some(&avq_path), "json").unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        for key in [
            names::CODEC_DECODE_BLOCKS,
            names::DB_QUERIES,
            names::WAL_SYNCS,
        ] {
            assert!(
                out.contains(&format!("\"{key}\"")),
                "missing {key} in:\n{out}"
            );
        }
        assert!(stats(None, "yaml").is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn write_metrics_picks_format_by_extension() {
        let dir = tmpdir("metrics-out");
        // Populate the registry first; a test-ordering-dependent empty
        // snapshot would have no `# TYPE` lines.
        stats(None, "prom").unwrap();
        let prom = dir.join("m.prom");
        let json = dir.join("m.json");
        write_metrics(&prom).unwrap();
        write_metrics(&json).unwrap();
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        let json_text = std::fs::read_to_string(&json).unwrap();
        assert!(prom_text.contains("# TYPE"), "{prom_text}");
        assert!(json_text.trim_start().starts_with('{'), "{json_text}");
        std::fs::remove_dir_all(dir).ok();
    }

    // Satellite: the cold side of the `hit_rate` pin at the CLI boundary —
    // a fresh (empty) database has no cache traffic and must print `-`,
    // not a misleading `0.0%`.
    #[test]
    fn open_empty_dir_prints_dash_hit_rate() {
        let dir = tmpdir("cold-open");
        let out = open(&dir.join("db")).unwrap();
        assert!(
            out.contains("decoded cache: hits=0 misses=0 evictions=0 hit_rate=-"),
            "{out}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn verify_detects_corruption() {
        let (dir, avq_path) = setup("corrupt", 100);
        let mut bytes = std::fs::read(&avq_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&avq_path, &bytes).unwrap();
        assert!(verify(&avq_path, false).is_err());
        assert!(verify(&avq_path, true).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    // Tentpole: `inject` + `scrub` on a bare `.avq` file — seeded damage is
    // found, reported as unrepairable, and the offsets are reproducible.
    #[test]
    fn inject_then_scrub_file() {
        let (dir, avq_path) = setup("scrub-file", 300);
        let clean = scrub(&avq_path, false).unwrap();
        assert!(clean.contains("container: ok"), "{clean}");
        assert!(clean.contains("result:    clean"), "{clean}");

        let msg = inject(&avq_path, 0xFEED, 3).unwrap();
        assert!(msg.starts_with("injected 3 bit flip(s)"), "{msg}");
        let err = scrub(&avq_path, false).unwrap_err().to_string();
        assert!(err.contains("container: CORRUPT"), "{err}");
        assert!(
            err.contains("unrepairable") || err.contains("no log to"),
            "{err}"
        );
        // `--repair` cannot help a bare file either.
        assert!(scrub(&avq_path, true).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    // Tentpole acceptance: a durable dir with a checkpoint, post-checkpoint
    // mutations, and an injected torn tail. `scrub` reports the damage;
    // `scrub --repair` truncates the tail, replays the log, rewrites the
    // snapshots, and the repaired relation is byte-identical to what
    // recovery alone would produce — and passes `verify --deep`.
    #[test]
    fn scrub_repair_restores_durable_dir() {
        let (dir, db_dir) = seeded_db_dir("scrub-repair");
        {
            let (mut db, _) =
                DurableDatabase::open(&db_dir, DbConfig::default(), SyncPolicy::Always).unwrap();
            db.checkpoint().unwrap();
            // Post-checkpoint mutations live only in the log.
            db.insert_row("people", &[Value::from("eng"), Value::Uint(8888)])
                .unwrap();
            db.delete_row("people", &[Value::from("hr"), Value::Uint(9999)])
                .unwrap();
        }
        // The logical contents recovery alone would produce.
        let reference = {
            let (db, _) =
                DurableDatabase::open(&db_dir, DbConfig::default(), SyncPolicy::Manual).unwrap();
            db.database()
                .relation("people")
                .unwrap()
                .scan_all()
                .unwrap()
        };

        // Tear the log tail: append garbage that scan will reject.
        let wal_path = db_dir.join(avq_wal::WAL_FILE);
        let mut wal = std::fs::read(&wal_path).unwrap();
        wal.extend_from_slice(&[0xAB; 17]);
        std::fs::write(&wal_path, &wal).unwrap();

        let err = scrub(&db_dir, false).unwrap_err().to_string();
        assert!(err.contains("torn log tail: 17 byte(s)"), "{err}");
        assert!(
            err.contains("result:    damaged (re-run with --repair)"),
            "{err}"
        );

        let out = scrub(&db_dir, true).unwrap();
        assert!(out.contains("truncated 17 torn byte(s)"), "{out}");
        assert!(out.contains("result:    repaired and re-verified"), "{out}");

        // Clean after repair; snapshots pass deep verification.
        let clean = scrub(&db_dir, false).unwrap();
        assert!(clean.contains("result:    clean"), "{clean}");
        let manifest = avq_wal::Manifest::read_dir(&db_dir).unwrap().unwrap();
        for entry in &manifest.relations {
            let v = verify(&db_dir.join(&entry.snapshot), true).unwrap();
            assert!(v.contains("re-encode byte-identically"), "{v}");
        }

        // The repaired store holds exactly the pre-damage contents.
        let (db, report) =
            DurableDatabase::open(&db_dir, DbConfig::default(), SyncPolicy::Manual).unwrap();
        assert_eq!(report.torn_bytes, 0, "repair already truncated the tail");
        assert_eq!(
            db.database()
                .relation("people")
                .unwrap()
                .scan_all()
                .unwrap(),
            reference
        );
        std::fs::remove_dir_all(dir).ok();
    }

    // A checkpoint copies the coded blocks as the store holds them, so the
    // blocks splits and splices left behind must deep-verify (re-encode to
    // exactly their bytes) in every coding mode and under every
    // representative choice.
    #[test]
    fn checkpoint_after_splits_and_splices_scrubs_clean() {
        for mode in CodingMode::ALL {
            for rep in RepChoice::ALL {
                let dir = tmpdir(&format!("scrub-writes-{mode}-{rep}"));
                let db_dir = dir.join("db");
                let config = DbConfig {
                    codec: CodecOptions {
                        mode,
                        rep,
                        block_capacity: 256,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let schema = avq_schema::Schema::from_pairs(vec![
                    ("a", avq_schema::Domain::uint(16).unwrap()),
                    ("b", avq_schema::Domain::uint(1000).unwrap()),
                ])
                .unwrap();
                let rows = (0..600u64).map(|i| vec![Value::Uint(i % 16), Value::Uint(i % 997)]);
                let relation = Relation::from_rows(schema, rows).unwrap();
                let (mut db, _) =
                    DurableDatabase::open(&db_dir, config, SyncPolicy::Manual).unwrap();
                db.create_relation("t", &relation).unwrap();
                db.create_secondary_index("t", 1).unwrap();
                let blocks = db.database().relation("t").unwrap().block_count();
                for i in 0..300u64 {
                    // Clustered inserts split; deletes splice anywhere.
                    db.insert_row("t", &[Value::Uint(5), Value::Uint(i * 3 % 1000)])
                        .unwrap();
                    if i % 3 == 0 {
                        db.delete_row("t", &[Value::Uint(i % 16), Value::Uint(i % 997)])
                            .unwrap();
                    }
                }
                assert!(
                    db.database().relation("t").unwrap().block_count() > blocks,
                    "{mode} {rep}: no split"
                );
                db.checkpoint().unwrap();
                drop(db);
                let clean = scrub(&db_dir, false).unwrap();
                assert!(clean.contains("result:    clean"), "{mode} {rep}: {clean}");
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }

    // A damaged snapshot is beyond repair: its data exists nowhere else
    // once the checkpoint truncated the log. Scrub must say so and refuse.
    #[test]
    fn scrub_reports_corrupt_snapshot_as_unrepairable() {
        let (dir, db_dir) = seeded_db_dir("scrub-snap");
        {
            let (mut db, _) =
                DurableDatabase::open(&db_dir, DbConfig::default(), SyncPolicy::Always).unwrap();
            db.checkpoint().unwrap();
        }
        let manifest = avq_wal::Manifest::read_dir(&db_dir).unwrap().unwrap();
        let snap = db_dir.join(&manifest.relations[0].snapshot);
        inject(&snap, 77, 4).unwrap();

        let err = scrub(&db_dir, true).unwrap_err().to_string();
        assert!(err.contains("CORRUPT"), "{err}");
        assert!(err.contains("result:    damaged beyond repair"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    // Scrub on a fresh (never-checkpointed) dir is clean, not an error.
    #[test]
    fn scrub_fresh_dir_is_clean() {
        let (dir, db_dir) = seeded_db_dir("scrub-fresh");
        let out = scrub(&db_dir, false).unwrap();
        assert!(out.contains("manifest:  none (no checkpoint yet)"), "{out}");
        assert!(out.contains("result:    clean"), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }
}
