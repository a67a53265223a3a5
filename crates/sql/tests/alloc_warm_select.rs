//! Allocation accounting for a warm point select through the whole stack.
//!
//! `select * from t where k = <unique key>` with no index on `k` examines
//! every tuple of every block, and so does `… where b = x and c = y`. Once
//! the blocks are in the decoded cache each statement must allocate
//! O(blocks + rows returned): each block is handed over as the cached batch
//! and filtered a column at a time into one reused selection vector, so a
//! tuple that is examined and rejected costs nothing. A counting global
//! allocator pins that.

use avq_db::{Database, DbConfig, RangePredicate, Selection};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::SqlOutcome;

#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const N: u64 = 60_000;

#[test]
fn warm_point_select_allocates_per_block_not_per_tuple() {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(4096).unwrap()),
        ("c", Domain::uint(256).unwrap()),
        ("k", Domain::uint(1 << 20).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..N)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 4096, (i * 31) % 256, i]))
        .collect();
    let relation = Relation::from_tuples(schema, tuples).unwrap();
    let mut db = Database::new(DbConfig::default().with_block_capacity(1024));
    db.create_relation("t", &relation).unwrap();
    let rel = db.relation("t").unwrap();
    let blocks = rel.block_count() as u64;
    assert!(blocks > 100, "need many blocks, got {blocks}");
    assert!(blocks <= 256, "the relation must fit the decoded cache");

    // Warm the decoded cache, the metric handles and the planner's paths.
    let sql = "select * from t where k = 31337";
    let SqlOutcome::Table(warmup) = avq_sql::run(&db, sql).unwrap() else {
        panic!("a select returns a table");
    };
    assert_eq!(warmup.rows.len(), 1);
    rel.reset_decoded_stats();

    let before = counting_alloc::allocs();
    let outcome = avq_sql::run(&db, sql).unwrap();
    let sql_allocs = counting_alloc::allocs() - before;
    let SqlOutcome::Table(table) = outcome else {
        panic!("a select returns a table");
    };
    assert_eq!(table.rows.len(), 1);
    let stats = rel.decoded_stats();
    assert_eq!((stats.hits, stats.misses), (blocks, 0), "not a warm scan");

    // At most one allocation per block (none per tuple; today the hand-off
    // costs none at all) on top of the statement's own parse, bind, plan
    // and its one result row.
    let budget = blocks + 128;
    assert!(
        sql_allocs <= budget,
        "warm select allocated {sql_allocs} times over {blocks} blocks / {N} tuples (budget {budget})"
    );

    // Two conjuncts on unindexed columns: the first scans its column of
    // every block into the selection vector, the second narrows it. The
    // vector is reused across blocks, so the statement still allocates
    // per block and per row returned, never per row examined.
    let two = "select * from t where b = 13 and c = 31";
    let expect = (0..N)
        .filter(|i| (i * 13) % 4096 == 13 && (i * 31) % 256 == 31)
        .count();
    assert!(expect > 0);
    avq_sql::run(&db, two).unwrap();
    rel.reset_decoded_stats();
    let before = counting_alloc::allocs();
    let outcome = avq_sql::run(&db, two).unwrap();
    let two_allocs = counting_alloc::allocs() - before;
    let SqlOutcome::Table(table) = outcome else {
        panic!("a select returns a table");
    };
    assert_eq!(table.rows.len(), expect);
    let stats = rel.decoded_stats();
    assert_eq!((stats.hits, stats.misses), (blocks, 0), "not a warm scan");
    let budget = blocks + 128 + 2 * expect as u64;
    assert!(
        two_allocs <= budget,
        "warm two-conjunct select allocated {two_allocs} times over {blocks} blocks / {N} tuples \
         for {expect} rows (budget {budget})"
    );

    // The storage-level operator under the same contract.
    let selection = Selection::all().and(RangePredicate::equals(3, 31337));
    let before = counting_alloc::allocs();
    let (rows, cost, _) = rel.select(&selection).unwrap();
    let select_allocs = counting_alloc::allocs() - before;
    assert_eq!(rows.len(), 1);
    assert_eq!(cost.tuples_scanned, N as usize);
    assert!(
        select_allocs <= blocks + 16,
        "warm select() allocated {select_allocs} times over {blocks} blocks"
    );
}
