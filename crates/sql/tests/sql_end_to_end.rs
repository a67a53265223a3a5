//! End-to-end correctness: every dialect feature executed through the full
//! lex → parse → bind → plan → exec pipeline and checked against brute
//! force over `scan_all`.

use avq_db::{Database, DbConfig};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::{run, Cell, SqlOutcome};

/// `people(dept enum{eng,hr,ops}, age ∈ [-10, 89], id < 1000)`, 300 rows,
/// plus `teams(dept, size)` with one row per department, and a secondary
/// index on `people.id`.
fn db() -> Database {
    let mut config = DbConfig::default();
    config.codec.block_capacity = 512;
    let mut db = Database::new(config);

    let people = Schema::from_pairs(vec![
        (
            "dept",
            Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap(),
        ),
        ("age", Domain::int_range(-10, 89).unwrap()),
        ("id", Domain::uint(1000).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..300u64)
        .map(|i| Tuple::from([i % 3, (i * 7) % 100, i]))
        .collect();
    db.create_relation("people", &Relation::from_tuples(people, tuples).unwrap())
        .unwrap();
    db.relation_mut("people")
        .unwrap()
        .create_secondary_index(2)
        .unwrap();

    let teams = Schema::from_pairs(vec![
        (
            "dept",
            Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap(),
        ),
        ("size", Domain::uint(500).unwrap()),
    ])
    .unwrap();
    let rows: Vec<Tuple> = vec![
        Tuple::from([0u64, 100]),
        Tuple::from([1u64, 40]),
        Tuple::from([2u64, 160]),
    ];
    db.create_relation("teams", &Relation::from_tuples(teams, rows).unwrap())
        .unwrap();
    db
}

fn table(db: &Database, sql: &str) -> avq_sql::QueryResult {
    match run(db, sql).unwrap() {
        SqlOutcome::Table(t) => t,
        SqlOutcome::Plan(p) => panic!("expected a table, got a plan:\n{p}"),
    }
}

fn plan_text(db: &Database, sql: &str) -> String {
    match run(db, sql).unwrap() {
        SqlOutcome::Plan(p) => p,
        SqlOutcome::Table(_) => panic!("expected a plan"),
    }
}

/// People rows as (dept ordinal, age ordinal, id) digit triples.
fn people_digits(db: &Database) -> Vec<Vec<u64>> {
    db.relation("people")
        .unwrap()
        .scan_all()
        .unwrap()
        .iter()
        .map(|t| t.digits().to_vec())
        .collect()
}

#[test]
fn where_conjunction_matches_brute_force() {
    let db = db();
    let got = table(&db, "select * from people where age >= 0 and id < 100");
    // age >= 0 is ordinal >= 10 in IntRange(-10, 89).
    let want = people_digits(&db)
        .iter()
        .filter(|d| d[1] >= 10 && d[2] < 100)
        .count();
    assert_eq!(got.rows.len(), want);
    assert_eq!(got.headers[..], ["dept", "age", "id"]);
}

#[test]
fn projection_decodes_domain_values() {
    let db = db();
    let got = table(&db, "select id, age, dept from people where id = 13");
    // Tuple 13: dept = 13 % 3 = 1 ("hr"), age ordinal = 91 % 100 = 91
    // which decodes to -10 + 91 = 81.
    assert_eq!(got.rows.len(), 1);
    assert_eq!(
        got.rows[0],
        vec![Cell::Int(13), Cell::Int(81), Cell::Str("hr".to_owned())]
    );
}

#[test]
fn order_by_and_limit() {
    let db = db();
    let got = table(
        &db,
        "select id from people where id < 10 order by id desc limit 3",
    );
    let ids: Vec<_> = got.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids, vec![Cell::Int(9), Cell::Int(8), Cell::Int(7)]);
}

#[test]
fn order_by_non_prefix_column_sorts_semantically() {
    let db = db();
    let got = table(&db, "select age from people where id < 5 order by age");
    let ages: Vec<i128> = got
        .rows
        .iter()
        .map(|r| match r[0] {
            Cell::Int(n) => n,
            ref c => panic!("unexpected cell {c:?}"),
        })
        .collect();
    let mut sorted = ages.clone();
    sorted.sort_unstable();
    assert_eq!(ages, sorted);
    assert_eq!(ages.len(), 5);
}

#[test]
fn group_by_counts_every_department() {
    let db = db();
    let got = table(&db, "select dept, count(*) from people group by dept");
    assert_eq!(got.headers[..], ["dept", "count(*)"]);
    assert_eq!(
        got.rows,
        vec![
            vec![Cell::Str("eng".to_owned()), Cell::Int(100)],
            vec![Cell::Str("hr".to_owned()), Cell::Int(100)],
            vec![Cell::Str("ops".to_owned()), Cell::Int(100)],
        ]
    );
}

#[test]
fn ungrouped_aggregates_match_brute_force() {
    let db = db();
    let got = table(
        &db,
        "select count(*), sum(id), min(age), max(age) from people",
    );
    let digits = people_digits(&db);
    let sum_id: i128 = digits.iter().map(|d| i128::from(d[2])).sum();
    let min_age = digits.iter().map(|d| d[1] as i128 - 10).min().unwrap();
    let max_age = digits.iter().map(|d| d[1] as i128 - 10).max().unwrap();
    assert_eq!(
        got.rows,
        vec![vec![
            Cell::Int(300),
            Cell::Int(sum_id),
            Cell::Int(min_age),
            Cell::Int(max_age),
        ]]
    );
}

#[test]
fn avg_is_float_and_empty_aggregates_are_null() {
    let db = db();
    let got = table(&db, "select avg(id) from people where id < 4");
    assert_eq!(got.rows, vec![vec![Cell::Float(1.5)]]);
    let got = table(
        &db,
        "select count(*), avg(id) from people where id = 999999999",
    );
    assert_eq!(got.rows, vec![vec![Cell::Int(0), Cell::Null]]);
}

#[test]
fn equijoin_matches_brute_force() {
    let db = db();
    let got = table(
        &db,
        "select people.id, teams.size from people join teams on people.dept = teams.dept \
         where people.id < 30",
    );
    // Every person matches exactly the one team of their department.
    assert_eq!(got.rows.len(), 30);
    // Person 4: dept = 4 % 3 = 1 ("hr") → team size 40.
    assert!(got
        .rows
        .iter()
        .any(|r| r == &vec![Cell::Int(4), Cell::Int(40)]));
}

#[test]
fn join_with_group_by_aggregates_join_output() {
    let db = db();
    let got = table(
        &db,
        "select teams.size, count(*) from people join teams on people.dept = teams.dept \
         group by teams.size",
    );
    // 100 people per department, keyed by that department's team size.
    assert_eq!(
        got.rows,
        vec![
            vec![Cell::Int(40), Cell::Int(100)],
            vec![Cell::Int(100), Cell::Int(100)],
            vec![Cell::Int(160), Cell::Int(100)],
        ]
    );
}

#[test]
fn provably_empty_predicate_returns_no_rows() {
    let db = db();
    let got = table(&db, "select * from people where age < -10");
    assert!(got.rows.is_empty());
    assert!(got.render().ends_with("(0 rows)"));
}

#[test]
fn explain_renders_costed_tree() {
    let db = db();
    let p = plan_text(&db, "explain select * from people where id = 7");
    assert!(p.starts_with("EXPLAIN: select * from people where id = 7\n"));
    assert!(p.contains("plan: "), "missing plan summary line:\n{p}");
    assert!(p.contains("est_rows="), "missing estimates:\n{p}");
    assert!(p.contains("plans considered:"), "missing footer:\n{p}");
    assert!(!p.contains("actual_rows"), "EXPLAIN must not execute:\n{p}");
}

#[test]
fn explain_analyze_pairs_estimates_with_actuals() {
    let db = db();
    let p = plan_text(&db, "explain analyze select * from people where id = 7");
    assert!(p.starts_with("EXPLAIN ANALYZE:"));
    assert!(p.contains("actual_rows="), "missing actuals:\n{p}");
    // The stage table rides along, same format as `avqtool explain`.
    assert!(p.contains("stage"), "missing stage table:\n{p}");
    assert!(p.contains("total"), "missing total row:\n{p}");
    // The probe for id = 7 finds exactly one row.
    assert!(
        p.contains("actual_rows=1"),
        "expected one matching row:\n{p}"
    );
}

#[test]
fn render_table_has_headers_separator_and_footer() {
    let db = db();
    let text = table(&db, "select dept, count(*) from people group by dept").render();
    let mut lines = text.lines();
    assert_eq!(lines.next().unwrap().trim_end(), "dept | count(*)");
    assert!(lines.next().unwrap().starts_with("-----+"));
    assert!(text.ends_with("(3 rows)"));
}

fn governed(
    db: &Database,
    sql: &str,
    gov: &avq_db::GovCtx,
) -> Result<SqlOutcome, avq_sql::SqlError> {
    avq_sql::run_with(db, sql, &avq_db::QueryCtx::from(gov.clone()))
}

/// Unwraps the governance trip inside a failed statement.
fn gov_error(r: Result<SqlOutcome, avq_sql::SqlError>) -> avq_db::GovernanceError {
    match r {
        Err(avq_sql::SqlError::Exec {
            source: avq_db::DbError::Governance(g),
        }) => g,
        other => panic!("expected a governance trip, got {other:?}"),
    }
}

#[test]
fn rows_quota_trips_with_typed_error() {
    let db = db();
    let gov = avq_db::GovCtx::new(
        avq_db::QueryBudget::unlimited().with_max_rows(10),
        db.clock().clone(),
    );
    let err = gov_error(governed(&db, "select count(*) from people", &gov));
    assert!(
        matches!(
            err,
            avq_db::GovernanceError::QuotaExceeded {
                kind: avq_db::QuotaKind::Rows,
                limit: 10,
                ..
            }
        ),
        "unexpected trip: {err}"
    );
    // Overshoot is bounded by one block: the quota is checked at block
    // boundaries, so usage never exceeds limit + block_capacity.
    assert!(gov.usage().rows <= 10 + 512);
}

#[test]
fn deadline_trips_on_virtual_disk_time() {
    let db = db();
    let gov = avq_db::GovCtx::new(
        avq_db::QueryBudget::unlimited().with_timeout_ms(5.0),
        db.clock().clone(),
    );
    // Deadlines are measured on the shared virtual clock: queue wait or
    // another query's disk transfers spend this query's budget too.
    db.clock().advance_ms(20.0);
    let err = gov_error(governed(&db, "select count(*) from people", &gov));
    assert!(
        matches!(err, avq_db::GovernanceError::Timeout { .. }),
        "unexpected trip: {err}"
    );
}

#[test]
fn cancelled_query_surfaces_cancelled() {
    let db = db();
    let gov = avq_db::GovCtx::new(avq_db::QueryBudget::unlimited(), db.clock().clone());
    gov.cancel();
    let err = gov_error(governed(&db, "select * from people", &gov));
    assert_eq!(err, avq_db::GovernanceError::Cancelled);
}

#[test]
fn memory_budget_trips_on_materialized_join() {
    let db = db();
    // 300 joined rows of 5 columns each cost well over 1 KiB under the
    // arity*8 + 32 model; a scan-only query of the small side fits.
    let gov = avq_db::GovCtx::new(
        avq_db::QueryBudget::unlimited().with_max_mem_bytes(1024),
        db.clock().clone(),
    );
    let err = gov_error(governed(
        &db,
        "select * from people join teams on people.dept = teams.dept",
        &gov,
    ));
    assert!(
        matches!(
            err,
            avq_db::GovernanceError::QuotaExceeded {
                kind: avq_db::QuotaKind::Memory,
                ..
            }
        ),
        "unexpected trip: {err}"
    );

    let small = avq_db::GovCtx::new(
        avq_db::QueryBudget::unlimited().with_max_mem_bytes(1 << 20),
        db.clock().clone(),
    );
    assert!(governed(&db, "select * from teams", &small).is_ok());
}

#[test]
fn unlimited_budget_matches_ungoverned_result() {
    let db = db();
    let gov = avq_db::GovCtx::unlimited();
    let got = match governed(&db, "select count(*) from people", &gov).unwrap() {
        SqlOutcome::Table(t) => t,
        SqlOutcome::Plan(p) => panic!("expected a table, got a plan:\n{p}"),
    };
    let want = table(&db, "select count(*) from people");
    assert_eq!(got.rows, want.rows);
}

#[test]
fn statement_metrics_are_recorded() {
    let db = db();
    // The registry is process-global and the other tests of this binary
    // run statements on parallel threads, so one of theirs can land in the
    // window: measure again until a window is quiet.
    let quiet_window = (0..100).any(|_| {
        let before = avq_obs::global().snapshot();
        let _ = table(&db, "select count(*) from people");
        let _ = plan_text(&db, "explain select * from people");
        let after = avq_obs::global().snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        assert!(delta(avq_obs::names::SQL_STATEMENTS) >= 2);
        assert!(delta(avq_obs::names::SQL_PLANS_CONSIDERED) >= 2);
        delta(avq_obs::names::SQL_STATEMENTS) == 2
    });
    assert!(quiet_window, "two statements must count as exactly two");
}

/// `t(a < 64, b < 64, c < 4096)`, 1500 rows in 128-byte blocks with a
/// secondary index on `b`, then `k` seeded blocks made unreadable and the
/// caches dropped. Returns the database and its block count.
fn damaged_db(policy: avq_db::ScanPolicy, k: usize) -> (Database, usize) {
    use avq_storage::{FaultKind, FaultPlan};
    let config = DbConfig::default()
        .with_block_capacity(128)
        .with_scan_policy(policy)
        .with_retry(avq_db::RetryPolicy::none());
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(64).unwrap()),
        ("c", Domain::uint(4096).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..1500u64)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 64, (i * 29) % 4096]))
        .collect();
    let mut db = Database::new(config);
    db.create_relation("t", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db.create_secondary_index("t", 1).unwrap();
    let ids = db.relation("t").unwrap().all_block_ids();
    let bad = FaultPlan::pick_blocks(0x5EED, &ids, k);
    db.device()
        .set_fault_plan(FaultPlan::new(0x5EED).with_fault_on(FaultKind::ReadError, bad));
    db.drop_caches();
    (db, ids.len())
}

/// The scan policy reaches SQL through the same block read as every
/// db-level operator: over a relation with `k` unreadable blocks a
/// statement returns what the db-level operator returns — the intact
/// blocks' rows — and the damaged blocks are counted once; under
/// `FailFast` the statement fails with the typed storage error.
#[test]
fn damaged_blocks_are_skipped_or_fail_typed_like_the_db_operators() {
    use avq_db::{equijoin, RangePredicate, ScanPolicy, Selection};
    let corrupt = || avq_obs::global().counter("avq.corrupt_blocks.total").get();
    let k = 4;
    let (db, blocks) = damaged_db(ScanPolicy::SkipCorrupt, k);
    assert!(blocks > 4 * k);
    let rel = db.relation("t").unwrap();
    let before = corrupt();
    let count = |sql: &str| match table(&db, sql).rows[..] {
        [ref row] => match row[..] {
            [Cell::Int(n)] => n as usize,
            ref other => panic!("expected one count, got {other:?}"),
        },
        ref other => panic!("expected one row, got {other:?}"),
    };

    let served = rel.scan_all().unwrap().len();
    assert!(served < 1500, "the damage must cost rows");
    assert_eq!(count("select count(*) from t"), served);

    let sel = Selection::all().and(RangePredicate {
        attr: 2,
        lo: 100,
        hi: 3000,
    });
    let (want, _, _) = rel.select(&sel).unwrap();
    let got = table(&db, "select a, b, c from t where c between 100 and 3000");
    let mut got: Vec<Vec<u64>> = got
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| match cell {
                    Cell::Int(n) => *n as u64,
                    other => panic!("expected an integer, got {other:?}"),
                })
                .collect()
        })
        .collect();
    got.sort_unstable();
    let mut want: Vec<Vec<u64>> = want.iter().map(|t| t.digits().to_vec()).collect();
    want.sort_unstable();
    assert_eq!(got, want);

    let (pairs, _, _) = equijoin(rel, 1, rel, 1).unwrap();
    assert_eq!(
        count("select count(*) from t x join t y on x.b = y.b"),
        pairs.len()
    );
    assert_eq!(corrupt() - before, k as u64, "each damaged block once");

    let (db, _) = damaged_db(ScanPolicy::FailFast, k);
    for sql in [
        "select count(*) from t",
        "select * from t where c between 100 and 3000",
        "select count(*) from t x join t y on x.b = y.b",
    ] {
        let err = run(&db, sql).unwrap_err();
        assert!(
            matches!(
                err,
                avq_sql::SqlError::Exec {
                    source: avq_db::DbError::Storage(avq_storage::StorageError::Io { .. })
                }
            ),
            "{sql}: {err}"
        );
    }
    assert_eq!(
        corrupt() - before,
        k as u64,
        "fail-fast quarantines nothing"
    );
}
