//! End-to-end integration tests across all crates: load → index → query →
//! update flows on coded and uncoded stores, cost-model consistency, and
//! cross-mode equivalence.

use avq::codec::{CodecOptions, CodingMode};
use avq::prelude::*;
use avq::workload::SyntheticSpec;

fn build_db(mode: CodingMode, n: usize, capacity: usize) -> (Database, Relation) {
    let relation = SyntheticSpec::section_5_2(n).generate();
    let config = DbConfig {
        codec: CodecOptions {
            mode,
            block_capacity: capacity,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut db = Database::new(config);
    db.create_relation("r", &relation).unwrap();
    (db, relation)
}

#[test]
fn coded_and_uncoded_answer_queries_identically() {
    let n = 3000;
    let (coded_db, _) = build_db(CodingMode::AvqChained, n, 2048);
    let (uncoded_db, _) = build_db(CodingMode::FieldWise, n, 2048);
    for (attr, lo, hi) in [(0usize, 0u64, 1u64), (6, 0, 1), (13, 32, 63), (15, 5, 5)] {
        let (a, _) = coded_db.select_range_ordinal("r", attr, lo, hi).unwrap();
        let (b, _) = uncoded_db.select_range_ordinal("r", attr, lo, hi).unwrap();
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "σ_{{{lo}≤A{attr}≤{hi}}} must agree across modes");
    }
}

#[test]
fn avq_uses_fewer_blocks_and_less_io() {
    let n = 5000;
    let (coded_db, _) = build_db(CodingMode::AvqChained, n, 2048);
    let (uncoded_db, _) = build_db(CodingMode::FieldWise, n, 2048);
    let coded_blocks = coded_db.relation("r").unwrap().block_count();
    let uncoded_blocks = uncoded_db.relation("r").unwrap().block_count();
    assert!(
        coded_blocks < uncoded_blocks,
        "AVQ must use fewer blocks: {coded_blocks} vs {uncoded_blocks}"
    );

    // An unindexed selection scans all blocks: N must shrink under AVQ.
    coded_db.drop_caches();
    coded_db.reset_measurements();
    let (_, c1) = coded_db.select_range_ordinal("r", 5, 0, 127).unwrap();
    uncoded_db.drop_caches();
    uncoded_db.reset_measurements();
    let (_, c2) = uncoded_db.select_range_ordinal("r", 5, 0, 127).unwrap();
    assert_eq!(c1.data_blocks as usize, coded_blocks);
    assert_eq!(c2.data_blocks as usize, uncoded_blocks);
    assert!(c1.data_ms < c2.data_ms, "less data I/O time under AVQ");
}

#[test]
fn cost_model_is_consistent_with_formula() {
    // C = I + N·t₁ (+ CPU): with the paper's 30 ms disk and a known CPU
    // charge, the measured total must equal the formula.
    let relation = SyntheticSpec::section_5_2(2000).generate();
    let t2 = 13.85;
    let config = DbConfig {
        codec: CodecOptions {
            block_capacity: 2048,
            ..Default::default()
        },
        cpu_ms_per_block: t2,
        ..Default::default()
    };
    // A range holding a quarter of the attribute-6 values that occur.
    let mut a06: Vec<u64> = relation.tuples().iter().map(|t| t.digits()[6]).collect();
    a06.sort_unstable();
    let (lo, hi) = (a06[a06.len() / 4], a06[a06.len() / 2]);
    let mut db = Database::new(config);
    db.create_relation("r", &relation).unwrap();
    db.create_secondary_index("r", 6).unwrap();
    db.drop_caches();
    db.reset_measurements();
    let (_, cost) = db.select_range_ordinal("r", 6, lo, hi).unwrap();
    assert!(cost.data_blocks > 1, "the range must touch data blocks");
    // Cold cache: physical reads == logical accesses.
    assert_eq!(cost.data_reads, cost.data_blocks);
    let expect_data_ms = cost.data_blocks as f64 * (30.0 + t2);
    assert!(
        (cost.data_ms - expect_data_ms).abs() < 1e-6,
        "measured {} vs formula {}",
        cost.data_ms,
        expect_data_ms
    );
    let expect_index_ms = cost.index_reads as f64 * 30.0;
    assert!((cost.index_ms - expect_index_ms).abs() < 1e-6);

    // The same conjunct through `select`: t₂ is charged wherever a block is
    // served, so the cost is the same cost.
    db.drop_caches();
    db.reset_measurements();
    let conjunct = Selection::all().and(RangePredicate { attr: 6, lo, hi });
    let (_, via_select, _) = db.relation("r").unwrap().select(&conjunct).unwrap();
    assert_eq!(via_select.data_blocks, cost.data_blocks);
    assert!((via_select.data_ms - expect_data_ms).abs() < 1e-6);

    // And through SQL, whatever plan it picks: every device read costs t₁
    // and every block a scan stage served costs t₂ on top.
    db.drop_caches();
    db.reset_measurements();
    let start_ms = db.clock().now_ms();
    let stmt = format!("select * from r where a06 between {lo} and {hi}");
    let stmt = avq_sql::parse(&stmt).unwrap();
    let avq_sql::Statement::Select(stmt) = stmt else {
        panic!("a select parses to a select");
    };
    let bound = avq_sql::bind(&db, &stmt).unwrap();
    let plan = avq_sql::plan::plan(&db, &bound).unwrap();
    let out = avq_sql::exec::execute(&db, &bound, &plan, &Default::default()).unwrap();
    assert_eq!(out.result.rows.len(), via_select.tuples_matched);
    let served: u64 = out.stages.iter().map(|s| s.blocks).sum();
    assert!(served > 0);
    let expect_ms = db.io_stats().reads as f64 * 30.0 + served as f64 * t2;
    let elapsed_ms = db.clock().now_ms() - start_ms;
    assert!(
        (elapsed_ms - expect_ms).abs() < 1e-6,
        "SQL advanced the clock by {elapsed_ms}, formula {expect_ms}"
    );
}

#[test]
fn warm_cache_reduces_physical_reads_but_not_n() {
    let (db, _) = build_db(CodingMode::AvqChained, 2000, 2048);
    db.drop_caches();
    db.reset_measurements();
    let (_, cold) = db.select_range_ordinal("r", 4, 0, 127).unwrap();
    let (_, warm) = db.select_range_ordinal("r", 4, 0, 127).unwrap();
    assert_eq!(cold.data_blocks, warm.data_blocks, "N is cache-independent");
    assert!(
        warm.data_reads < cold.data_reads,
        "warm run must hit the pool"
    );
}

#[test]
fn heavy_update_churn_preserves_integrity() {
    let (mut db, relation) = build_db(CodingMode::AvqChained, 1500, 1024);
    db.create_secondary_index("r", 2).unwrap();
    let schema = relation.schema().clone();

    // Delete a third, re-insert them, insert fresh tuples.
    let mut tuples = relation.tuples().to_vec();
    tuples.sort_unstable();
    tuples.dedup();
    let third: Vec<Tuple> = tuples.iter().step_by(3).cloned().collect();
    {
        let rel = db.relation_mut("r").unwrap();
        for t in &third {
            rel.delete(t).unwrap();
        }
        for t in &third {
            rel.insert(t).unwrap();
        }
        for i in 0..200u64 {
            let digits: Vec<u64> = (0..schema.arity() as u64)
                .map(|a| (i * 31 + a * 7) % 128)
                .collect();
            rel.insert(&Tuple::new(digits)).unwrap();
        }
    }
    let stored = db.relation("r").unwrap();
    assert_eq!(stored.tuple_count(), 1500 + 200);
    let all = stored.scan_all().unwrap();
    assert_eq!(all.len(), 1700);
    assert!(all.windows(2).all(|w| w[0] <= w[1]), "φ order maintained");
    stored.primary_index().validate().unwrap();

    // The secondary index still answers correctly after churn.
    let (rows, _) = stored.select_range(2, 50, 80).unwrap();
    let expect = all
        .iter()
        .filter(|t| (50..=80).contains(&t.digits()[2]))
        .count();
    assert_eq!(rows.len(), expect);
}

#[test]
fn multiple_relations_share_one_device() {
    let mut db = Database::new(DbConfig {
        codec: CodecOptions {
            block_capacity: 1024,
            ..Default::default()
        },
        ..Default::default()
    });
    let r1 = SyntheticSpec::test1(500).generate();
    let r2 = SyntheticSpec::test3(800).generate();
    db.create_relation("skewed", &r1).unwrap();
    db.create_relation("uniform", &r2).unwrap();
    assert_eq!(db.relation_names(), vec!["skewed", "uniform"]);
    assert_eq!(db.relation("skewed").unwrap().tuple_count(), 500);
    assert_eq!(db.relation("uniform").unwrap().tuple_count(), 800);
    db.drop_relation("skewed").unwrap();
    assert_eq!(db.relation_names(), vec!["uniform"]);
    // The remaining relation is intact.
    assert_eq!(
        db.relation("uniform").unwrap().scan_all().unwrap().len(),
        800
    );
}

#[test]
fn logical_roundtrip_through_values() {
    // String + signed + unsigned domains through the full stack.
    let schema = Schema::from_pairs(vec![
        (
            "grade",
            Domain::enumerated(vec!["A", "B", "C", "D", "F"]).unwrap(),
        ),
        ("delta", Domain::int_range(-50, 49).unwrap()),
        ("serial", Domain::uint(100_000).unwrap()),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..500i64)
        .map(|i| {
            vec![
                Value::from(["A", "B", "C", "D", "F"][(i % 5) as usize]),
                Value::Int(i % 100 - 50),
                Value::Uint((i * 97) as u64 % 100_000),
            ]
        })
        .collect();
    let relation = Relation::from_rows(schema, rows.clone()).unwrap();
    let mut db = Database::new(DbConfig {
        codec: CodecOptions {
            block_capacity: 512,
            ..Default::default()
        },
        ..Default::default()
    });
    db.create_relation("grades", &relation).unwrap();
    let (got, _) = db
        .select_range("grades", "delta", &Value::Int(-10), &Value::Int(10))
        .unwrap();
    let expect = rows
        .iter()
        .filter(|r| (-10..=10).contains(&r[1].as_int().unwrap()))
        .count();
    assert_eq!(got.len(), expect);
    assert!(got
        .iter()
        .all(|r| (-10..=10).contains(&r[1].as_int().unwrap())));
}

/// The clustered range is bounded by the whole equality prefix: on
/// `scan_cold`'s data (400 000 §5.2 tuples, 539 blocks, six leading binary
/// attributes) fixing six leading attributes reads about ¹⁄₁₆ of the blocks
/// fixing two reads, as `EXPLAIN ANALYZE`'s scan stage reports.
#[test]
fn longer_equality_prefix_reads_proportionally_fewer_blocks() {
    let relation = SyntheticSpec::section_5_2(400_000).generate();
    let mut db = Database::new(DbConfig::default());
    db.create_relation("r", &relation).unwrap();
    let first = relation.tuples()[0].digits().to_vec();
    let blocks_read = |len: usize| -> f64 {
        let prefix: Vec<String> = (0..len)
            .map(|a| format!("a{a:02} = {}", first[a]))
            .collect();
        let sql = format!(
            "explain analyze select a13 from r where {}",
            prefix.join(" and ")
        );
        let avq_sql::SqlOutcome::Plan(text) = avq_sql::run(&db, &sql).unwrap() else {
            panic!("explain returns a plan");
        };
        assert!(text.contains("plan: clustered-range"), "{text}");
        let scan = text
            .lines()
            .find(|l| l.starts_with("scan "))
            .expect("scan stage row");
        scan.split('|').nth(2).unwrap().trim().parse().unwrap()
    };
    let (two, six) = (blocks_read(2), blocks_read(6));
    let ratio = six / two;
    assert!(
        (1.0 / 20.0..=1.0 / 12.0).contains(&ratio),
        "prefix of six read {six} blocks, prefix of two {two}: ratio {ratio:.4}"
    );
}
