//! Memory-budget semantics of governed SQL scans.
//!
//! A statement run under `QueryBudget::with_max_mem_bytes` is charged for
//! the rows it keeps block by block, and every block read is a poll point,
//! so a trip overshoots the budget by at most one block's rows — the
//! statement can never materialize the whole relation first and be billed
//! afterwards.

use avq_db::{
    row_mem_bytes, Database, DbConfig, DbError, GovCtx, GovernanceError, QueryBudget, QueryCtx,
    QuotaKind,
};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::SqlError;
use proptest::prelude::*;

fn db(n: u64) -> Database {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(4096).unwrap()),
        ("c", Domain::uint(1 << 16).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 29) % 4096, i]))
        .collect();
    let mut db = Database::new(DbConfig::default().with_block_capacity(256));
    db.create_relation("t", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memory_overshoot_is_at_most_one_block_of_rows(
        n in 600u64..4000,
        budget_rows in 1u64..400,
        warm in any::<bool>(),
    ) {
        let db = db(n);
        let rel = db.relation("t").unwrap();
        let row = row_mem_bytes(rel.schema().arity());
        let one_block = rel.blocks().iter().map(|b| b.count as u64).max().unwrap() * row;
        let limit = budget_rows * row;
        if warm {
            rel.scan_all().unwrap();
        }

        // Every row matches, so every examined row is kept and charged.
        let gov = GovCtx::new(
            QueryBudget::unlimited().with_max_mem_bytes(limit),
            db.clock().clone(),
        );
        let err =
            avq_sql::run_with(&db, "select * from t", &QueryCtx::from(gov.clone())).unwrap_err();
        match err {
            SqlError::Exec {
                source:
                    DbError::Governance(GovernanceError::QuotaExceeded {
                        kind: QuotaKind::Memory,
                        limit: l,
                        used,
                    }),
            } => {
                prop_assert_eq!(l, limit);
                prop_assert!(used > limit);
                prop_assert!(
                    used <= limit + one_block,
                    "charged {} against {} with {}-byte blocks: more than one block over",
                    used, limit, one_block
                );
            }
            other => prop_assert!(false, "unexpected error: {other}"),
        }
        prop_assert!(gov.usage().mem_peak_bytes <= limit + one_block);
        prop_assert!(gov.usage().rows < n, "the scan must stop before the last block");

        // An aggregate folds the same rows away block by block and holds
        // none of them, so the budget that tripped the select lets it run.
        let folded = GovCtx::new(
            QueryBudget::unlimited().with_max_mem_bytes(limit),
            db.clock().clone(),
        );
        let sql = "select a, count(*), max(c) from t group by a";
        prop_assert!(avq_sql::run_with(&db, sql, &QueryCtx::from(folded.clone())).is_ok());
        prop_assert_eq!(folded.usage().rows, n);
        prop_assert_eq!(folded.usage().mem_peak_bytes, 0);

        // A budget the whole result fits under never trips.
        let roomy = GovCtx::new(
            QueryBudget::unlimited().with_max_mem_bytes(n * row),
            db.clock().clone(),
        );
        prop_assert!(avq_sql::run_with(&db, "select * from t", &QueryCtx::from(roomy)).is_ok());
    }
}

/// `LIMIT` directly over a scan stops the scan: the rows it never returns
/// are neither read, filtered nor charged, so a budget far below the
/// relation admits `limit 5` — and one below five rows still trips, typed.
#[test]
fn limit_is_charged_only_for_the_rows_it_returns() {
    let db = db(3000);
    let rel = db.relation("t").unwrap();
    let row = row_mem_bytes(rel.schema().arity());
    assert!(rel.block_count() > 10, "need many blocks");
    rel.clear_decoded_cache();
    rel.reset_decoded_stats();

    let gov = GovCtx::new(
        QueryBudget::unlimited().with_max_mem_bytes(20 * row),
        db.clock().clone(),
    );
    let out = avq_sql::run_with(&db, "select * from t limit 5", &QueryCtx::from(gov.clone()))
        .expect("five rows fit a twenty-row budget");
    let avq_sql::SqlOutcome::Table(table) = out else {
        panic!("a select returns a table");
    };
    assert_eq!(table.rows.len(), 5);
    let stats = rel.decoded_stats();
    assert!(
        stats.hits + stats.misses <= 2,
        "limit 5 read {} blocks",
        stats.hits + stats.misses
    );
    assert_eq!(gov.usage().mem_peak_bytes, 5 * row);

    let tight = GovCtx::new(
        QueryBudget::unlimited().with_max_mem_bytes(2 * row),
        db.clock().clone(),
    );
    let err =
        avq_sql::run_with(&db, "select * from t limit 5", &QueryCtx::from(tight)).unwrap_err();
    assert!(
        matches!(
            err,
            SqlError::Exec {
                source: DbError::Governance(GovernanceError::QuotaExceeded {
                    kind: QuotaKind::Memory,
                    ..
                }),
            }
        ),
        "unexpected error: {err}"
    );
}
