//! Experiment E14 — resource governance under load: shed rate and
//! queue-wait of the admission gate across an open/closed-loop mix of
//! short interactive probes and long background scans, plus how fast a
//! blown deadline is noticed (deadline-hit latency) and what an enabled
//! but unlimited governance context costs over the ungoverned path.
//!
//! Results are printed as tables and recorded as JSON in
//! `results/BENCH_governance.json` (override with the second argument).
//!
//! With `AVQ_PERF_SMOKE=1` the run additionally acts as a CI guard: it
//! exits nonzero if the under-provisioned phase shed anything or the
//! overloaded phase shed nothing.
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_governance [n] [json_path]`

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avq_bench::measure::avg_ms;
use avq_bench::report::Table;
use avq_db::{
    AdmissionConfig, AdmissionController, Database, DbConfig, GovCtx, GovernanceError, QueryBudget,
    QueryClass, QueryCtx,
};
use avq_schema::{Domain, Relation, Schema, Tuple};
use std::sync::atomic::{AtomicU64, Ordering};

/// `events(day < 365, user < 1000)` with a secondary index on `user`, so
/// the probe workload runs index-nested rather than scanning.
fn events_db(n: usize) -> Database {
    let mut config = DbConfig::default();
    config.codec.block_capacity = 256;
    let mut db = Database::new(config);
    let schema = Schema::from_pairs(vec![
        ("day", Domain::uint(365).unwrap()),
        ("user", Domain::uint(1000).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..n as u64)
        .map(|i| Tuple::from([i % 365, (i * 13) % 1000]))
        .collect();
    db.create_relation("events", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db.relation_mut("events")
        .unwrap()
        .create_secondary_index(1)
        .unwrap();
    db.drop_caches();
    db
}

/// Per-phase outcome tallies, shared across worker threads.
#[derive(Default)]
struct Tally {
    attempts: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    tripped: AtomicU64,
}

/// One closed-loop phase: `workers` threads each submit `iters` queries
/// through `gate`, alternating a short interactive probe with a long
/// background scan. Returns the tallies.
fn run_phase(
    db: &Database,
    gate: &AdmissionController,
    workers: usize,
    iters: usize,
    scan_timeout_ms: Option<f64>,
) -> Tally {
    let tally = Tally::default();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tally = &tally;
            scope.spawn(move || {
                for i in 0..iters {
                    let long = (w + i) % 2 == 1;
                    let (class, stmt) = if long {
                        (
                            QueryClass::Background,
                            "select count(*), min(user), max(user) from events".to_owned(),
                        )
                    } else {
                        (
                            QueryClass::Interactive,
                            format!("select * from events where user = {}", (w * 131 + i) % 1000),
                        )
                    };
                    let mut budget = QueryBudget::unlimited();
                    if long {
                        if let Some(ms) = scan_timeout_ms {
                            budget = budget.with_timeout_ms(ms);
                        }
                    }
                    let gov = GovCtx::new(budget, db.clock().clone());
                    tally.attempts.fetch_add(1, Ordering::Relaxed);
                    match gate.admit(class, &gov) {
                        Ok(_permit) => {
                            tally.admitted.fetch_add(1, Ordering::Relaxed);
                            let r = avq_sql::run_with(db, &stmt, &QueryCtx::from(gov));
                            if r.is_err() {
                                tally.tripped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(GovernanceError::Shed { .. }) => {
                            tally.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            tally.tripped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    tally
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let json_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "results/BENCH_governance.json".to_owned());

    let db = events_db(n);
    let blocks = db.relation("events").unwrap().block_count();
    println!("relation: {n} tuples -> {blocks} blocks\n");

    // Phase 1 — provisioned: more slots than workers, nothing queues for
    // long and nothing sheds.
    let low_gate = AdmissionController::new(
        AdmissionConfig {
            slots: 4,
            queue_limit: 8,
        },
        db.clock().clone(),
    );
    let low_before = avq_obs::global().snapshot();
    let low = run_phase(&db, &low_gate, 2, 20, None);
    let low_delta = avq_obs::global().snapshot().since(&low_before);

    // Phase 2 — overload: 12 workers fight for 2 slots behind a 3-deep
    // queue; the gate must shed (queue-full and deadline-unmeetable), not
    // queue unboundedly.
    let over_gate = AdmissionController::new(
        AdmissionConfig {
            slots: 2,
            queue_limit: 3,
        },
        db.clock().clone(),
    );
    let over_before = avq_obs::global().snapshot();
    let over = run_phase(&db, &over_gate, 12, 12, Some(500.0));
    let over_delta = avq_obs::global().snapshot().since(&over_before);

    let mut t = Table::new([
        "phase",
        "workers",
        "slots",
        "queue",
        "attempts",
        "admitted",
        "shed",
        "tripped",
        "shed rate",
    ]);
    let phase_row = |t: &mut Table, name: &str, workers: usize, cfg: AdmissionConfig, y: &Tally| {
        let attempts = y.attempts.load(Ordering::Relaxed);
        let shed = y.shed.load(Ordering::Relaxed);
        t.row([
            name.to_owned(),
            workers.to_string(),
            cfg.slots.to_string(),
            cfg.queue_limit.to_string(),
            attempts.to_string(),
            y.admitted.load(Ordering::Relaxed).to_string(),
            shed.to_string(),
            y.tripped.load(Ordering::Relaxed).to_string(),
            format!("{:.3}", shed as f64 / attempts.max(1) as f64),
        ]);
    };
    phase_row(&mut t, "provisioned", 2, low_gate.config(), &low);
    phase_row(&mut t, "overload", 12, over_gate.config(), &over);
    t.print();
    println!();

    // Deadline-hit latency: how much real time passes between submitting a
    // query whose virtual deadline is already unmeetable and getting its
    // typed timeout back. Cold caches force the scan onto the simulated
    // disk so the clock really advances.
    let mut hit_ms = Vec::new();
    for _ in 0..10 {
        db.drop_caches();
        let gov = GovCtx::new(
            QueryBudget::unlimited().with_timeout_ms(2.0),
            db.clock().clone(),
        );
        let sw = avq_obs::Stopwatch::start();
        let r = avq_sql::run_with(&db, "select count(*) from events", &QueryCtx::from(gov));
        assert!(r.is_err(), "a 2 virtual-ms scan of {blocks} blocks");
        hit_ms.push(sw.elapsed().as_secs_f64() * 1000.0);
    }
    let hit_avg = hit_ms.iter().sum::<f64>() / hit_ms.len() as f64;
    let hit_max = hit_ms.iter().cloned().fold(0.0f64, f64::max);

    // Governance overhead: the same warm scan ungoverned vs under an
    // enabled-but-unlimited budget. The delta is the per-block poll and
    // charge arithmetic.
    let stmt = "select count(*) from events";
    let _ = avq_sql::run(&db, stmt).unwrap();
    let plain_ms = avg_ms(2, 20, || {
        std::hint::black_box(avq_sql::run(&db, stmt).unwrap());
    });
    let wide = QueryCtx::from(GovCtx::new(
        QueryBudget::unlimited()
            .with_max_rows(u64::MAX)
            .with_max_decoded_bytes(u64::MAX),
        db.clock().clone(),
    ));
    let governed_ms = avg_ms(2, 20, || {
        std::hint::black_box(avq_sql::run_with(&db, stmt, &wide).unwrap());
    });
    let overhead = governed_ms / plain_ms;

    let mut t = Table::new(["measure", "value"]);
    t.row(["deadline-hit avg ms".to_owned(), format!("{hit_avg:.3}")]);
    t.row(["deadline-hit max ms".to_owned(), format!("{hit_max:.3}")]);
    t.row(["warm scan plain ms".to_owned(), format!("{plain_ms:.3}")]);
    t.row([
        "warm scan governed ms".to_owned(),
        format!("{governed_ms:.3}"),
    ]);
    t.row(["governed overhead ×".to_owned(), format!("{overhead:.3}")]);
    t.print();

    let gov_count = |d: &avq_obs::Snapshot, name: &str| d.counters.get(name).copied().unwrap_or(0);
    let low_shed = low.shed.load(Ordering::Relaxed);
    let over_shed = over.shed.load(Ordering::Relaxed);
    let queue_wait =
        avq_bench::report::latency_json(&over_delta, &[avq_obs::names::GOV_QUEUE_WAIT_NS]);
    let phase_json =
        |name: &str, workers: usize, cfg: AdmissionConfig, y: &Tally, d: &avq_obs::Snapshot| {
            format!(
                "{{\"phase\": \"{name}\", \"workers\": {workers}, \"slots\": {}, \
             \"queue_limit\": {}, \"attempts\": {}, \"admitted\": {}, \"shed\": {}, \
             \"tripped\": {}, \"gov_admitted_counter\": {}, \"gov_shed_counter\": {}, \
             \"gov_timeouts_counter\": {}}}",
                cfg.slots,
                cfg.queue_limit,
                y.attempts.load(Ordering::Relaxed),
                y.admitted.load(Ordering::Relaxed),
                y.shed.load(Ordering::Relaxed),
                y.tripped.load(Ordering::Relaxed),
                gov_count(d, avq_obs::names::GOV_ADMITTED),
                gov_count(d, avq_obs::names::GOV_SHED),
                gov_count(d, avq_obs::names::GOV_TIMEOUTS),
            )
        };
    let json = format!(
        "{{\n  \"experiment\": \"governance\",\n  \"tuples\": {n},\n  \"blocks\": {blocks},\n  \
         \"phases\": [{}, {}],\n  \
         \"queue_wait_ns\": {queue_wait},\n  \
         \"deadline_hit_avg_ms\": {hit_avg:.3},\n  \"deadline_hit_max_ms\": {hit_max:.3},\n  \
         \"warm_scan_plain_ms\": {plain_ms:.4},\n  \"warm_scan_governed_ms\": {governed_ms:.4},\n  \
         \"governed_overhead\": {overhead:.4}\n}}\n",
        phase_json("provisioned", 2, low_gate.config(), &low, &low_delta),
        phase_json("overload", 12, over_gate.config(), &over, &over_delta),
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap();
        }
    }
    std::fs::write(&json_path, json).unwrap();
    println!("\nwrote {json_path}");

    if std::env::var("AVQ_PERF_SMOKE").is_ok_and(|v| v == "1") {
        if low_shed > 0 {
            eprintln!("perf smoke FAILED: provisioned phase shed {low_shed} queries");
            std::process::exit(1);
        }
        if over_shed == 0 {
            eprintln!("perf smoke FAILED: overload phase shed nothing");
            std::process::exit(1);
        }
        println!("perf smoke ok: 0 sheds provisioned, {over_shed} sheds at overload");
    }
}
