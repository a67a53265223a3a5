//! `avq-benchmark` — the repository's benchmark.
//!
//! One command runs one workload from one seed. With `--trace 0` it drives
//! the engine through its facade only ([`driver`]), checks every result
//! against a model ([`model`]) and reports the end-to-end metrics; with
//! `--trace 1` it replays the same op stream under spans ([`trace`]), then
//! times each layer's public functions on the workload's data
//! ([`layers`]) and reports the per-layer metrics. `README.md` has the
//! workload, metric and interaction tables.

pub mod alloc;
pub mod driver;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod refclock;
pub mod rng;
pub mod run;
pub mod stats;
pub mod tmp;
pub mod trace;
pub mod workload;

use driver::Store;
use metrics::Metrics;
use run::Phase;
use std::path::PathBuf;
use std::time::Duration;
use workload::{Generator, Workload, RECOVERY_TAIL};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The engine's default block capacity, behind `space_ratio` and
/// `storage.write_amp`.
pub const BLOCK_BYTES: f64 = 8192.0;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the data, the statement constants and the op order.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Relation size relative to `BENCHMARK.json`'s (always 1.0 there).
    pub scale: f64,
    /// Where the traced run writes its Chrome trace-event file.
    pub trace_out: Option<PathBuf>,
    /// Self-check: spoil one expected checksum, so the run must fail.
    pub corrupt_oracle: bool,
}

/// What one invocation found.
#[derive(Debug)]
pub struct Outcome {
    /// Ops issued in the measured phase and after it.
    pub attempted: u64,
    /// Ops that errored or disagreed with the model.
    pub failed: u64,
    /// False when an op failed or the final state differs from the model.
    pub correct: bool,
    /// The measured values.
    pub metrics: Metrics,
    /// The catalogue this mode reports: end-to-end or per-layer.
    pub defs: &'static [metrics::Def],
}

impl Outcome {
    /// The process exit code: non-zero unless every result was right.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct)
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json(self.defs)?
        ))
    }
}

/// A loaded store, its op generator, and how long the index builds took.
pub struct Loaded {
    /// The system under test.
    pub store: Store,
    /// The op stream and the model.
    pub gen: Generator,
    /// Wall time of each secondary-index build, by attribute.
    pub index_builds: driver::IndexBuilds,
}

/// Set-up: generate, bulk-load, build indexes, build the model and the
/// statement pool, then one untimed round so caches fill and first-use
/// costs are paid before measurement. Workloads that fit the decoded cache
/// also get one full scan, which leaves every block resident.
pub fn set_up(args: &Args, execute: &mut run::Execute<'_>) -> Result<Loaded, String> {
    let data = workload::generate(args.workload, args.seed, args.scale);
    let (mut store, index_builds) = Store::load(args.workload, &data)?;
    let mut gen = Generator::new(args.workload, args.seed, &data);
    if args.corrupt_oracle {
        gen.corrupt_oracle();
    }
    drop(data);
    if args.workload != Workload::ScanCold {
        avq_sql::run(
            store.db(),
            &format!("select count(*) from {}", workload::REL),
        )
        .map_err(driver::err)?;
    }
    let warm = Phase::run_for(&mut store, &mut gen, Duration::ZERO, execute);
    if warm.failed > 0 && !args.corrupt_oracle {
        return Err(format!("{} warm-up ops failed", warm.failed));
    }
    Ok(Loaded {
        store,
        gen,
        index_builds,
    })
}

/// What [`finish`] found.
pub struct Closing {
    /// The ops issued between the last checkpoint and the reopen.
    pub tail: Phase,
    /// The reopen's time in reference seconds (0 for in-memory stores).
    pub reopen_s: f64,
    /// What the reopen replayed.
    pub report: avq_db::RecoveryReport,
    /// True when the final relation equals the model.
    pub state_ok: bool,
    /// The store, reopened.
    pub store: Store,
}

/// After the measured phase: `ingest_durable` checkpoints, issues exactly
/// [`RECOVERY_TAIL`] more ops, syncs, and reopens the directory; every
/// write workload then requires `scan_all()` to equal the model, the
/// read-only ones that the tuple count is unchanged.
pub fn finish(
    args: &Args,
    loaded: Loaded,
    execute: &mut run::Execute<'_>,
) -> Result<Closing, String> {
    let Loaded {
        mut store, mut gen, ..
    } = loaded;
    let mut tail = Phase::default();
    if args.workload == Workload::IngestDurable {
        let schema = gen.schema().clone();
        let (_, out) = execute(&mut store, &schema, &gen.checkpoint_now());
        out?;
        let ops = ((RECOVERY_TAIL as f64 * args.scale) as u64).max(50);
        tail = Phase::run_ops(&mut store, &mut gen, ops, execute);
    }
    let (store, reopen_s, report) = store.reopen()?;
    let (tuples, _) = store.size()?;
    let state_ok = tuples == gen.live_tuples()
        && (!args.workload.writes() || store.scan_all()?.iter().eq(gen.model().iter()));
    if !state_ok {
        eprintln!("final state differs from the model");
    }
    Ok(Closing {
        tail,
        reopen_s,
        report,
        state_ok,
        store,
    })
}

/// The end-to-end run (`--trace 0`).
pub fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    let execute = &mut driver::execute;
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPEATS {
        drop(loaded.take());
        let (ns, l) = refclock::timed_build(|| set_up(args, execute));
        loaded = Some(l?);
        setup_s.push(ns as f64 / 1e9);
    }
    let mut loaded = loaded.expect("SETUP_REPEATS > 0");
    let phase = Phase::run_for(
        &mut loaded.store,
        &mut loaded.gen,
        Duration::from_secs_f64(args.seconds),
        execute,
    );
    let Closing {
        tail,
        state_ok,
        store,
        ..
    } = finish(args, loaded, execute)?;

    let (tuples, blocks) = store.size()?;
    let tuple_bytes = store
        .db()
        .relation(workload::REL)
        .map_err(driver::err)?
        .schema()
        .tuple_bytes();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median_f64(&setup_s));
    metrics.set("ops_per_s", phase.ops_per_s());
    metrics.set("op_p50_ms", stats::median(&phase.lat_ns) / 1e6);
    metrics.set("op_p95_ms", stats::quantile(&phase.lat_ns, 0.95) / 1e6);
    metrics.set(
        "space_ratio",
        blocks as f64 * BLOCK_BYTES / (tuples * tuple_bytes) as f64,
    );
    metrics.set("peak_rss_mb", alloc::peak_rss_mib().unwrap_or(0.0));
    let failed = phase.failed + tail.failed;
    Ok(Outcome {
        attempted: phase.ops() + tail.ops(),
        failed,
        correct: failed == 0 && state_ok,
        metrics,
        defs: metrics::END_TO_END,
    })
}
pub use trace::run as run_traced;
