//! The traced run (`--trace 1`): the same op stream under spans, then the
//! layer probes.
//!
//! Spans are `(name, start, end, parent, op)` records kept in memory by one
//! [`Recorder`]. Three sources feed it:
//!
//! * the benchmark's own guards around each call it makes (`op:<kind>`
//!   around the whole op; `bench.sql.parse`, `bench.sql.plan`,
//!   `bench.sql.execute` around the SQL pipeline, which this file runs
//!   step by step);
//! * the engine's existing `span!` guards (`avq.wal.append`,
//!   `avq.wal.fsync`, `avq.codec.{encode,decode}_block`,
//!   `avq.codec.compress`, `avq.db.checkpoint`, …), through the public
//!   `avq_obs::add_span_sink` hook — these nest under whatever guard is
//!   open, which gives write ops their breakdown;
//! * the engine's existing request-scoped trace spans (`avq.sql.stage`,
//!   `avq.db.block_read`, `avq.codec.decode_block`), harvested from a
//!   recording `TraceCollector` after each statement. While a statement
//!   executes the sink is muted, so a decode is not recorded twice.
//!
//! A span's self time is its duration minus its children's, and goes to
//! the layer the span's name identifies ([`layer_of`]). The `bench.sql.*`
//! guards wrap `avq-sql` entry points, so their self time is `sql`'s. The
//! `op:*` root wraps a whole op; on the write path that is a facade call
//! spanning db, index, storage, wal and codec with no engine span between
//! the facade and the codec/wal guards, so its self time is claimed by no
//! layer: it is `share.unaccounted`, reported as large as it is. No span or
//! counter is added to any crate under `crates/`.

use crate::driver::{self, err, Output, Store};
use crate::layers::{self, sql::SqlStats};
use crate::metrics::{self, Metrics};
use crate::run::Phase;
use crate::stats::ratio;
use crate::workload::Op;
use crate::{alloc, finish, refclock, set_up, Args, Closing, Outcome, BLOCK_BYTES};
use avq_obs::{names, SamplingPolicy, SpanObserver, TraceCollector, TraceData};
use avq_schema::Schema;
use avq_sql::Statement;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};
use std::time::{Duration, Instant};

/// Ops whose spans go to the `--trace-out` file.
const TRACE_FILE_OPS: u32 = 2_000;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; engine stage spans carry their stage (`avq.sql.stage:scan`).
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for an op's root.
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
}

/// The layers self time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `avq-sql`: parse, bind, plan, operator stages.
    Sql,
    /// `avq-db`: block hand-off, select/join/aggregate operators.
    Db,
    /// `avq-codec`: block encode and decode.
    Codec,
    /// `avq-storage` + `avq-index`, seen through index-probe stages.
    StorageIndex,
    /// `avq-wal`: append and fsync.
    Wal,
    /// `avq-file`, seen through a checkpoint's own time (serialise, write,
    /// fsync, rename, manifest).
    File,
}

/// The `share.*` metric of each [`Layer`], in declaration order.
const SHARES: [&str; 6] = [
    "share.sql",
    "share.db",
    "share.codec",
    "share.storage_index",
    "share.wal",
    "share.file",
];

/// The layer a span's self time belongs to, from its name alone.
pub fn layer_of(name: &str) -> Option<Layer> {
    if name == "avq.sql.stage:index-probe" {
        Some(Layer::StorageIndex)
    } else if name == names::SPAN_DB_CHECKPOINT {
        Some(Layer::File)
    } else if name.starts_with("avq.sql.") || name.starts_with("bench.sql.") {
        Some(Layer::Sql)
    } else if name.starts_with("avq.db.") {
        Some(Layer::Db)
    } else if name.starts_with("avq.codec.") {
        Some(Layer::Codec)
    } else if name.starts_with("avq.wal.") {
        Some(Layer::Wal)
    } else {
        None
    }
}

/// The in-memory span store.
#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
/// True while the engine's `span!` events are recorded.
static SINK_ON: AtomicBool = AtomicBool::new(false);

fn recorder() -> MutexGuard<'static, Recorder> {
    RECORDER
        .get_or_init(|| {
            Mutex::new(Recorder {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            })
        })
        .lock()
        .expect("one thread records; a poisoned recorder means it already panicked")
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &str) -> u32 {
        let idx = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self) -> u64 {
        let now = self.now();
        let idx = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[idx as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Adds a finished engine trace under the span `parent`; `base_ns` is
    /// when the trace began on the recorder's clock.
    fn harvest(&mut self, data: &TraceData, base_ns: u64, parent: u32) {
        let first = self.spans.len() as u32;
        for s in &data.spans {
            let stage = s.attrs.iter().find(|(k, _)| *k == names::ATTR_STAGE);
            let name = match stage {
                Some((_, avq_obs::AttrValue::Str(stage))) => format!("{}:{stage}", s.name),
                _ => s.name.to_owned(),
            };
            self.spans.push(Span {
                name,
                start_ns: base_ns + s.start_ns,
                end_ns: base_ns + s.start_ns + s.elapsed_ns,
                parent: s.parent.map_or(parent, |p| first + p.0),
                op: self.op,
            });
        }
    }
}

/// Forwards the engine's `span!` events to the recorder.
struct Sink;

impl SpanObserver for Sink {
    fn enter(&self, name: &'static str) {
        if SINK_ON.load(Ordering::Relaxed) {
            recorder().enter(name);
        }
    }

    fn exit(&self, _name: &'static str, _elapsed_ns: u64) {
        if SINK_ON.load(Ordering::Relaxed) {
            recorder().exit();
        }
    }
}

/// One open benchmark span; [`Guard::close`] ends it and returns its
/// duration.
#[must_use = "an unclosed span corrupts the recorder's stack"]
struct Guard;

impl Guard {
    fn open(name: &str) -> Guard {
        recorder().enter(name);
        Guard
    }

    fn close(self) -> u64 {
        recorder().exit()
    }
}

/// Self time per layer and Σ op wall over the recorded spans.
fn shares(spans: &[Span]) -> ([u64; 6], u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer = [0u64; 6];
    let mut wall = 0u64;
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        if s.parent == NO_PARENT {
            wall += dur;
        }
        if let Some(layer) = layer_of(&s.name) {
            by_layer[layer as usize] += dur.saturating_sub(children);
        }
    }
    (by_layer, wall)
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the first
/// [`TRACE_FILE_OPS`] ops.
fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .filter(|s| s.op < TRACE_FILE_OPS)
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            )
        })
        .collect();
    format!("[{}]\n", events.join(",\n"))
}

/// Issues `op` under spans. SQL runs stepwise — `parse` → `bind` +
/// `plan::plan` → `exec::execute_traced` with a recording context — and
/// writes go through the same facade call as the untraced run.
fn execute_traced(
    store: &mut Store,
    schema: &Schema,
    op: &Op,
    collector: &TraceCollector,
    sql: &mut SqlStats,
) -> (u64, Result<Output, String>) {
    recorder().op += 1;
    let Op::Read(stmt) = op else {
        let call = match driver::prepare(store, schema, op) {
            Ok(call) => call,
            Err(e) => return (0, Err(e)),
        };
        return refclock::timed(|| {
            let root = Guard::open(&format!("op:{}", op.label()));
            SINK_ON.store(true, Ordering::Relaxed);
            let out = driver::issue(store, &call);
            SINK_ON.store(false, Ordering::Relaxed);
            root.close();
            out
        });
    };
    let db = store.db();
    let mut run = || -> Result<(Output, Arc<TraceData>, u64, u32), String> {
        let g = Guard::open("bench.sql.parse");
        let parsed = avq_sql::parse(&stmt.sql);
        sql.parse_ns.push(refclock::scale(g.close()));
        let Statement::Select(select) = parsed.map_err(err)? else {
            return Err("the pool holds plain selects only".to_owned());
        };
        let g = Guard::open("bench.sql.plan");
        let planned =
            avq_sql::bind(db, &select).and_then(|b| avq_sql::plan::plan(db, &b).map(|p| (b, p)));
        sql.plan_ns.push(refclock::scale(g.close()));
        let (bound, physical) = planned.map_err(err)?;
        sql.count_plan(&physical.summary());

        let ctx = collector.begin();
        let (base_ns, exec_span) = {
            let r = recorder();
            (r.now(), r.spans.len() as u32)
        };
        let g = Guard::open("bench.sql.execute");
        let out = avq_sql::exec::execute_traced(db, &bound, &physical, &ctx);
        sql.exec_ns.push(refclock::scale(g.close()));
        let data = collector
            .finish(ctx)
            .ok_or("the collector dropped an always-sampled trace")?;
        let out = out.map_err(err)?;
        sql.rows_examined += out
            .stages
            .iter()
            .filter(|s| matches!(s.stage, "scan" | "scan-inner"))
            .map(|s| s.rows)
            .sum::<u64>();
        sql.rows_returned += out.result.rows.len() as u64;
        Ok((Output::Table(out.result), data, base_ns, exec_span))
    };
    let (ns, out) = refclock::timed(|| {
        let root = Guard::open("op:read");
        let out = run();
        root.close();
        out
    });
    match out {
        Ok((table, data, base_ns, exec_span)) => {
            recorder().harvest(&data, base_ns, exec_span);
            (ns, Ok(table))
        }
        Err(e) => (ns, Err(e)),
    }
}

/// Engine counters at one instant; two of them bracket the replay.
struct Marks {
    io: avq_storage::IoStats,
    pool: avq_storage::PoolStats,
    decoded: avq_storage::PoolStats,
    decode_blocks: u64,
    model_ms: f64,
    wal: avq_wal::WalWriterStats,
    blocks: usize,
}

impl Marks {
    fn take(store: &Store) -> Result<Marks, String> {
        let db = store.db();
        Ok(Marks {
            io: db.io_stats(),
            pool: db.pool_stats(),
            decoded: db.decoded_stats(),
            decode_blocks: avq_obs::global().counter(names::CODEC_DECODE_BLOCKS).get(),
            model_ms: db.clock().now_ms(),
            wal: match store {
                Store::Durable(d, _) => d.wal_stats(),
                Store::Mem(_) => Default::default(),
            },
            blocks: store.size()?.1,
        })
    }
}

/// The traced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut loaded = set_up(args, &mut driver::execute)?;
    for (name, attr) in [("index.build_s.unique", 15), ("index.build_s.lowcard", 12)] {
        let built = loaded.index_builds.iter().find(|(a, _)| *a == attr);
        m.set(name, built.map_or(0.0, |(_, s)| *s));
    }

    // The op stream, alternating one round without tracing and one with,
    // so that both see the same drift of a relation that splits as it is
    // written to. The untraced rounds give `obs.trace_overhead_ratio` its
    // base and `allocs_per_op` a count free of the recorder's allocations.
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        avq_obs::add_span_sink(Box::new(Sink));
    });
    let collector = TraceCollector::new(1, SamplingPolicy::Always);
    let mut sql = SqlStats::default();
    let mut plain_allocs = 0u64;
    let (mut plain_phase, mut traced_phase) = (Phase::default(), Phase::default());
    let before = Marks::take(&loaded.store)?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        plain_phase.absorb(Phase::run_for(
            &mut loaded.store,
            &mut loaded.gen,
            Duration::ZERO,
            &mut |store: &mut Store, schema: &Schema, op: &Op| {
                let before = alloc::calls() - refclock::alloc_calls();
                let out = driver::execute(store, schema, op);
                plain_allocs += alloc::calls() - refclock::alloc_calls() - before;
                out
            },
        ));
        traced_phase.absorb(Phase::run_for(
            &mut loaded.store,
            &mut loaded.gen,
            Duration::ZERO,
            &mut |store: &mut Store, schema: &Schema, op: &Op| {
                execute_traced(store, schema, op, &collector, &mut sql)
            },
        ));
    }
    let allocs_per_op = ratio(plain_allocs as f64, plain_phase.ops() as f64);
    let after = Marks::take(&loaded.store)?;
    let spans = std::mem::take(&mut recorder().spans);
    if let Some(path) = &args.trace_out {
        std::fs::write(path, chrome_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let ops = (plain_phase.ops() + traced_phase.ops()) as f64;
    let mutated = (plain_phase.mutated_tuples + traced_phase.mutated_tuples) as f64;
    let snapshot_bytes = plain_phase.snapshot_bytes + traced_phase.snapshot_bytes;
    let checkpoint_ns: Vec<u64> = plain_phase
        .checkpoint_ns
        .iter()
        .chain(&traced_phase.checkpoint_ns)
        .copied()
        .collect();
    let tuple_bytes = loaded.gen.schema().tuple_bytes() as f64;

    let (by_layer, wall) = shares(&spans);
    let mut accounted = 0.0;
    for (name, ns) in SHARES.into_iter().zip(by_layer) {
        let share = ratio(ns as f64, wall as f64);
        accounted += share;
        m.set(name, share);
    }
    m.set("share.unaccounted", (1.0 - accounted).max(0.0));
    m.set("allocs_per_op", allocs_per_op);
    m.set(
        "obs.trace_overhead_ratio",
        ratio(traced_phase.ops_per_s(), plain_phase.ops_per_s()),
    );
    sql.report(&mut m);

    let io_reads = (after.io.reads - before.io.reads) as f64;
    let io_writes = (after.io.writes - before.io.writes) as f64;
    let pool = after.pool.since(&before.pool);
    let decoded = after.decoded.since(&before.decoded);
    m.set("storage.pool_hit_rate", pool.hit_rate());
    m.set("storage.decoded_hit_rate", decoded.hit_rate());
    m.set(
        "storage.decoded_evictions_per_op",
        ratio(decoded.evictions as f64, ops),
    );
    m.set("storage.device_reads_per_op", ratio(io_reads, ops));
    m.set("storage.device_writes_per_op", ratio(io_writes, ops));
    m.set(
        "storage.model_ms_per_op",
        ratio(after.model_ms - before.model_ms, ops),
    );
    let wal_bytes = (after.wal.bytes - before.wal.bytes) as f64;
    m.set(
        "storage.write_amp",
        ratio(
            wal_bytes + snapshot_bytes as f64 + io_writes * BLOCK_BYTES,
            mutated * tuple_bytes,
        ),
    );
    m.set(
        "wal.fsyncs_per_op",
        ratio((after.wal.syncs - before.wal.syncs) as f64, ops),
    );
    m.set(
        "codec.decodes_per_op",
        ratio((after.decode_blocks - before.decode_blocks) as f64, ops),
    );
    m.set(
        "db.checkpoint_ms",
        crate::stats::median(&checkpoint_ns) / 1e6,
    );
    m.set(
        "db.splits_per_kop",
        ratio(after.blocks.saturating_sub(before.blocks) as f64 * 1e3, ops),
    );
    m.set("db.blocks_end", after.blocks as f64);

    let Closing {
        tail,
        reopen_s,
        report,
        state_ok,
        store,
    } = finish(args, loaded, &mut driver::execute)?;
    m.set("db.recovery_s", reopen_s);
    m.set(
        "db.replay_records_per_s",
        ratio(report.replayed as f64, reopen_s),
    );

    layers::probe_all(args, &store, &mut m)?;

    let failed = plain_phase.failed + traced_phase.failed + tail.failed;
    Ok(Outcome {
        attempted: plain_phase.ops() + traced_phase.ops() + tail.ops(),
        failed,
        correct: failed == 0 && state_ok,
        metrics: m,
        defs: metrics::PER_LAYER,
    })
}
