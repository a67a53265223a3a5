//! A full-scan aggregate over more blocks than the decoded cache holds is
//! answered from the blocks' synopses, and says the same as one that
//! decodes.
//!
//! `t` spans several times an 8-block decoded cache; its twin's cache holds
//! the whole relation, so the twin decodes every block a statement reads.
//! Checked here:
//!
//! - `render()` output is byte-identical on both for `count`, `sum`,
//!   `avg`, `min` and `max`, for a group-by on a key constant in most
//!   blocks and on one constant in none, over `IntRange`, `Uint` and
//!   enumerated columns, and on an empty relation;
//! - per statement, blocks served = decoded hits + decoded misses +
//!   answered, and the `avq.codec.decode.blocks` delta equals the misses;
//! - an answered block keeps every fault and budget rule of a decoded one:
//!   a `ReadError` fails `FailFast` with `StorageError::Io`, is skipped and
//!   counted once under `SkipCorrupt`, a `TransientRead` is retried, and
//!   the rows quota and the virtual-clock deadline trip;
//! - `EXPLAIN ANALYZE` reports the answered blocks in a `synopsis` row;
//! - the synopses of the §5.2 relation at `scan_cold`'s size (539 blocks)
//!   take at most 3 % of its coded bytes.
//!
//! The metrics registry is process-wide, so every test here holds one lock.

use avq_db::{
    Database, DbConfig, DbError, GovCtx, GovernanceError, QueryBudget, QueryCtx, RetryPolicy,
    ScanPolicy, StoredRelation,
};
use avq_obs::names;
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::{run, run_with, Cell, SqlError, SqlOutcome};
use avq_storage::{BlockId, FaultKind, FaultPlan, StorageError};
use std::sync::{Mutex, MutexGuard, OnceLock};

const CACHE: usize = 8;
const ROWS: u64 = 6000;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn counter(name: &str) -> u64 {
    avq_obs::global().counter(name).get()
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs(vec![
        ("k", Domain::uint(4).unwrap()),
        ("g", Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap()),
        ("c", Domain::int_range(-50, 49).unwrap()),
        ("d", Domain::uint(1000).unwrap()),
    ])
    .unwrap()
}

/// `t`, and an empty `e`, on a database whose decoded cache holds
/// `cache_blocks` blocks.
fn database(cache_blocks: usize, config: DbConfig) -> Database {
    let tuples: Vec<Tuple> = (0..ROWS)
        .map(|i| Tuple::from([i % 4, (i / 4) % 3, (i * 13) % 100, (i * 7) % 1000]))
        .collect();
    let mut db = Database::new(
        config
            .with_block_capacity(256)
            .with_decoded_cache_blocks(cache_blocks),
    );
    db.create_relation("t", &Relation::from_tuples(schema(), tuples).unwrap())
        .unwrap();
    db.create_relation("e", &Relation::from_tuples(schema(), Vec::new()).unwrap())
        .unwrap();
    db
}

fn rel(db: &Database) -> &StoredRelation {
    db.relation("t").unwrap()
}

fn render(db: &Database, sql: &str) -> String {
    run(db, sql).unwrap().render()
}

const STATEMENTS: &[&str] = &[
    "select count(*) from t",
    "select count(*), sum(c), avg(c), min(c), max(c) from t",
    "select count(d), sum(d), avg(d), min(d), max(d) from t",
    "select min(g), max(g), min(k), max(k), avg(k) from t",
    "select k, count(*), sum(c), avg(d), min(d) from t group by k",
    "select g, count(*), max(c), sum(d) from t group by g",
    "select k, count(*), avg(c) from t group by k order by k desc",
    "select c, count(*), sum(d) from t group by c",
    "select d, count(*), min(g) from t group by d",
    "select count(*), sum(c), avg(c), min(c), max(g) from e",
    "select k, count(*), sum(d) from e group by k",
];

#[test]
fn answered_blocks_say_what_decoded_ones_say() {
    let _guard = lock();
    let small = database(CACHE, DbConfig::default());
    let twin = database(1024, DbConfig::default());
    let blocks = rel(&small).block_count() as u64;
    assert!(blocks > 3 * CACHE as u64, "{blocks} blocks");
    let mut answered_total = 0;
    for sql in STATEMENTS {
        for round in 0..2 {
            let (decoded, decodes, answered) = (
                rel(&small).decoded_stats(),
                counter(names::CODEC_DECODE_BLOCKS),
                counter(names::DB_SYNOPSIS_BLOCKS),
            );
            let got = render(&small, sql);
            let decoded = rel(&small).decoded_stats().since(&decoded);
            let decodes = counter(names::CODEC_DECODE_BLOCKS) - decodes;
            let answered = counter(names::DB_SYNOPSIS_BLOCKS) - answered;
            assert_eq!(got, render(&twin, sql), "{sql} (round {round})");
            if sql.ends_with(" e") || sql.contains(" e ") {
                continue;
            }
            assert_eq!(
                decoded.hits + decoded.misses + answered,
                blocks,
                "{sql}: every block served once"
            );
            assert_eq!(decodes, decoded.misses, "{sql}: a decode per miss");
            answered_total += answered;
        }
    }
    assert!(answered_total > 0);

    // Each statement shape answers what it covers whole, and nothing else.
    let answered = |sql: &str| {
        let before = counter(names::DB_SYNOPSIS_BLOCKS);
        render(&small, sql);
        counter(names::DB_SYNOPSIS_BLOCKS) - before
    };
    assert_eq!(answered("select count(*), sum(c), min(g) from t"), blocks);
    let constant_k = rel(&small).blocks().iter().filter(|b| b.is_constant(0));
    let constant_k = constant_k.count() as u64;
    assert!(constant_k > blocks / 2 && constant_k < blocks);
    assert_eq!(answered("select k, sum(d) from t group by k"), constant_k);
    assert_eq!(answered("select d, count(*) from t group by d"), 0);
    assert_eq!(answered("select count(*), sum(c) from t where d > 3"), 0);
    assert_eq!(answered("select c, d from t"), 0);
    // A read that fits the cache decodes: the twin answers nothing.
    let before = counter(names::DB_SYNOPSIS_BLOCKS);
    render(&twin, "select count(*), sum(c) from t");
    assert_eq!(counter(names::DB_SYNOPSIS_BLOCKS), before);
}

#[test]
fn explain_analyze_reports_a_synopsis_stage() {
    let _guard = lock();
    let db = database(CACHE, DbConfig::default());
    db.drop_caches();
    let blocks = rel(&db).block_count();
    let SqlOutcome::Plan(text) = run(
        &db,
        "explain analyze select count(*), min(c), max(c), avg(c) from t",
    )
    .unwrap() else {
        panic!("explain analyze returns a plan");
    };
    let row = |stage: &str| -> Vec<String> {
        let line = text
            .lines()
            .find(|l| l.split('|').next().is_some_and(|s| s.trim() == stage))
            .unwrap_or_else(|| panic!("no {stage} row in\n{text}"));
        line.split('|').map(|c| c.trim().to_owned()).collect()
    };
    let (scan, synopsis) = (row("scan"), row("synopsis"));
    assert_eq!(scan[1..3], ["0", "0"], "nothing decoded:\n{text}");
    assert_eq!(synopsis[1], ROWS.to_string(), "{text}");
    assert_eq!(synopsis[2], blocks.to_string(), "{text}");
}

/// Two blocks of `db`'s `t`, neither its first or last.
fn victims(db: &Database) -> Vec<BlockId> {
    let ids = rel(db).all_block_ids();
    vec![ids[3], ids[ids.len() / 2]]
}

/// `select count(*), sum(c)` over the blocks of `t` not in `bad`, computed
/// from a scan of the intact relation.
fn intact_answer(db: &Database, bad: &[BlockId]) -> Vec<Cell> {
    let all = rel(db).scan_all().unwrap();
    let (mut n, mut sum, mut at) = (0i128, 0i128, 0usize);
    for b in rel(db).blocks() {
        if !bad.contains(&b.id) {
            n += b.count as i128;
            let rows = &all[at..at + b.count];
            sum += rows
                .iter()
                .map(|t| t.digits()[2] as i128 - 50)
                .sum::<i128>();
        }
        at += b.count;
    }
    vec![Cell::Int(n), Cell::Int(sum)]
}

/// The one row `sql` returns.
fn one_row(db: &Database, sql: &str) -> Vec<Cell> {
    match run(db, sql).unwrap() {
        SqlOutcome::Table(t) => t.rows.into_iter().next().unwrap(),
        SqlOutcome::Plan(p) => panic!("{p}"),
    }
}

const FAULTED: &str = "select count(*), sum(c) from t";

#[test]
fn a_read_error_fails_fast_or_is_skipped_once() {
    let _guard = lock();
    let fail_fast = database(CACHE, DbConfig::default().with_retry(RetryPolicy::none()));
    let bad = victims(&fail_fast);
    fail_fast
        .device()
        .set_fault_plan(FaultPlan::new(7).with_fault_on(FaultKind::ReadError, bad.clone()));
    fail_fast.drop_caches();
    match run(&fail_fast, FAULTED) {
        Err(SqlError::Exec {
            source: DbError::Storage(StorageError::Io { .. }),
        }) => {}
        other => panic!("fail-fast: {other:?}"),
    }

    let config = DbConfig::default()
        .with_scan_policy(ScanPolicy::SkipCorrupt)
        .with_retry(RetryPolicy::none());
    let skip = database(CACHE, config);
    let want = intact_answer(&skip, &bad);
    skip.device()
        .set_fault_plan(FaultPlan::new(7).with_fault_on(FaultKind::ReadError, bad.clone()));
    skip.drop_caches();
    let (corrupt, answered) = (
        counter(names::CORRUPT_BLOCKS_TOTAL),
        counter(names::DB_SYNOPSIS_BLOCKS),
    );
    for _ in 0..2 {
        assert_eq!(one_row(&skip, FAULTED), want);
    }
    assert_eq!(counter(names::CORRUPT_BLOCKS_TOTAL) - corrupt, 2);
    let blocks = rel(&skip).block_count() as u64;
    assert_eq!(
        counter(names::DB_SYNOPSIS_BLOCKS) - answered,
        2 * (blocks - 2),
        "the damaged blocks are skipped, every other one answered"
    );
    let mut quarantined = rel(&skip).quarantined_blocks();
    quarantined.sort_unstable();
    let mut bad = bad;
    bad.sort_unstable();
    assert_eq!(quarantined, bad);
}

#[test]
fn a_transient_read_is_retried() {
    let _guard = lock();
    let retry = RetryPolicy {
        max_attempts: 3,
        backoff_ms: 1.0,
        ..RetryPolicy::default()
    };
    let db = database(CACHE, DbConfig::default().with_retry(retry));
    let want = render(&db, FAULTED);
    let victim = victims(&db)[0];
    db.device().set_fault_plan(
        FaultPlan::new(11).with_fault_on(FaultKind::TransientRead { failures: 2 }, [victim]),
    );
    db.drop_caches();
    let (retries, decodes) = (
        counter(names::IO_RETRIES_TOTAL),
        counter(names::CODEC_DECODE_BLOCKS),
    );
    assert_eq!(render(&db, FAULTED), want);
    assert_eq!(counter(names::IO_RETRIES_TOTAL) - retries, 2);
    assert_eq!(counter(names::CODEC_DECODE_BLOCKS), decodes, "answered");
    assert!(rel(&db).quarantined_blocks().is_empty());
}

#[test]
fn the_rows_quota_and_the_deadline_trip() {
    let _guard = lock();
    let db = database(CACHE, DbConfig::default());
    let governed = |budget: QueryBudget| {
        db.drop_caches();
        let gov = GovCtx::new(budget, db.clock().clone());
        let before = counter(names::DB_SYNOPSIS_BLOCKS);
        let err = run_with(&db, FAULTED, &QueryCtx::from(gov)).unwrap_err();
        assert!(counter(names::DB_SYNOPSIS_BLOCKS) > before, "answered");
        match err {
            SqlError::Exec {
                source: DbError::Governance(e),
            } => e,
            other => panic!("{other:?}"),
        }
    };
    let quota = governed(QueryBudget::unlimited().with_max_rows(ROWS / 2));
    assert!(
        matches!(quota, GovernanceError::QuotaExceeded { .. }),
        "{quota:?}"
    );
    // Each block costs a device read on the paper's 30 ms disk.
    let deadline = governed(QueryBudget::unlimited().with_timeout_ms(200.0));
    assert!(
        matches!(deadline, GovernanceError::Timeout { .. }),
        "{deadline:?}"
    );
}

#[test]
fn synopses_take_at_most_three_percent_of_the_coded_bytes() {
    let relation = avq_workload::SyntheticSpec::section_5_2(400_000).generate();
    let mut db = Database::new(DbConfig::default());
    db.create_relation("r", &relation).unwrap();
    let r = db.relation("r").unwrap();
    let (synopsis, coded) = (r.synopsis_bytes(), r.coded_payload_bytes());
    assert!(synopsis > 0);
    assert!(
        synopsis * 100 <= coded * 3,
        "{synopsis} synopsis bytes against {coded} coded"
    );
}
