//! Planner regression tests: the chosen access path and join order must
//! flip exactly when the §5.3 cost model says they should — a selective
//! indexed predicate wins an index probe, a whole-domain predicate falls
//! back to the full scan, and the filtered side of a join becomes the
//! outer relation.

use avq_db::{AccessPath, Database, DbConfig, RangePredicate, Selection};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::plan::{plan, PhysicalPlan, PlanNode};
use avq_sql::{bind, parse, BoundQuery, Cell, SqlOutcome, Statement};

fn plan_for(db: &Database, sql: &str) -> (BoundQuery, PhysicalPlan) {
    let stmt = match parse(sql).unwrap() {
        Statement::Select(s) => s,
        Statement::Explain { stmt, .. } => stmt,
    };
    let bound = bind(db, &stmt).unwrap();
    let physical = plan(db, &bound).unwrap();
    (bound, physical)
}

/// The single `Scan` leaf of a one-table plan.
fn scan_path(node: &PlanNode) -> AccessPath {
    match node {
        PlanNode::Scan { path, .. } => *path,
        PlanNode::NlJoin { outer, .. } => scan_path(outer),
        PlanNode::HashJoin { left, .. } => scan_path(left),
        PlanNode::Aggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Project { input, .. } => scan_path(input),
    }
}

/// `events(day < 365, user < 1000)` spread over many small blocks, with a
/// secondary index on `user`, planned cold (as after startup).
fn events_db() -> Database {
    let mut db = warm_events_db();
    db.relation_mut("events").unwrap().clear_decoded_cache();
    db
}

/// [`events_db`] as the index build leaves it: every block resident in
/// the decoded cache. Residency saves the transfer t₁ but not the
/// per-block CPU t₂ (Eq. 5.7), so warm plans must flip exactly as cold ones.
fn warm_events_db() -> Database {
    let mut config = DbConfig::default();
    config.codec.block_capacity = 256;
    let mut db = Database::new(config);
    let schema = Schema::from_pairs(vec![
        ("day", Domain::uint(365).unwrap()),
        ("user", Domain::uint(1000).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..2000u64)
        .map(|i| Tuple::from([i % 365, (i * 13) % 1000]))
        .collect();
    db.create_relation("events", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db.relation_mut("events")
        .unwrap()
        .create_secondary_index(1)
        .unwrap();
    db
}

#[test]
fn selective_predicate_flips_to_index_probe() {
    let db = events_db();
    // user = 5: ~2 matching tuples, far fewer than the block count — the
    // index probe must beat reading every block.
    let (_, p) = plan_for(&db, "select * from events where user = 5");
    assert_eq!(scan_path(&p.root), AccessPath::SecondaryIndex { attr: 1 });
    assert!(p.plans_considered > 1);
}

#[test]
fn whole_domain_predicate_flips_back_to_full_scan() {
    let db = events_db();
    // user >= 0 keeps everything: N ≈ every block anyway, so the extra
    // index descents make the probe strictly worse than the scan.
    let (_, p) = plan_for(&db, "select * from events where user >= 0");
    assert_eq!(scan_path(&p.root), AccessPath::FullScan);
}

#[test]
fn warm_selective_predicate_flips_to_index_probe() {
    let db = warm_events_db();
    let rel = db.relation("events").unwrap();
    assert_eq!(rel.decoded_cache_len(), rel.block_count(), "not warm");
    let (_, p) = plan_for(&db, "select * from events where user = 5");
    assert_eq!(scan_path(&p.root), AccessPath::SecondaryIndex { attr: 1 });
    assert!(p.est_total_ms > 0.0, "a warm plan still pays t₂");
}

#[test]
fn warm_whole_domain_predicate_flips_back_to_full_scan() {
    let db = warm_events_db();
    let rel = db.relation("events").unwrap();
    assert_eq!(rel.decoded_cache_len(), rel.block_count(), "not warm");
    let (_, p) = plan_for(&db, "select * from events where user >= 0");
    assert_eq!(scan_path(&p.root), AccessPath::FullScan);
}

#[test]
fn flip_point_tracks_block_count() {
    let db = events_db();
    let blocks = db.relation("events").unwrap().block_count() as f64;
    // Sweep widening ranges: once the estimated matching-tuple count
    // clears the block count, the full scan must take over; while it is
    // far below, the probe must win. (Near the boundary either choice is
    // legitimate, so only the asymptotes are pinned.)
    let mut saw_probe = false;
    let mut saw_scan = false;
    for hi in [0u64, 9, 99, 499, 999] {
        let (_, p) = plan_for(&db, &format!("select * from events where user <= {hi}"));
        let matching = 2000.0 * (hi + 1) as f64 / 1000.0;
        match scan_path(&p.root) {
            AccessPath::SecondaryIndex { .. } => {
                saw_probe = true;
                assert!(
                    matching < blocks,
                    "probe chosen though ~{matching} matches exceed {blocks} blocks"
                );
            }
            AccessPath::FullScan => {
                saw_scan = true;
                assert!(
                    matching >= blocks / 2.0,
                    "scan chosen though ~{matching} matches are far below {blocks} blocks"
                );
            }
            other => panic!("unexpected path {other:?}"),
        }
    }
    assert!(saw_probe && saw_scan, "sweep never crossed the flip point");
}

#[test]
fn clustering_prefix_predicate_uses_clustered_range() {
    let db = events_db();
    let (_, p) = plan_for(&db, "select * from events where day < 10");
    assert_eq!(scan_path(&p.root), AccessPath::ClusteredRange);
}

/// Two same-shaped relations joined on their clustering key, both indexed
/// on it; the side carrying the selective predicate must be planned as the
/// outer relation.
fn join_db() -> Database {
    let mut config = DbConfig::default();
    config.codec.block_capacity = 256;
    let mut db = Database::new(config);
    for name in ["a", "b"] {
        let schema = Schema::from_pairs(vec![
            ("k", Domain::uint(100).unwrap()),
            (
                if name == "a" { "x" } else { "y" },
                Domain::uint(1000).unwrap(),
            ),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..1000u64)
            .map(|i| Tuple::from([i % 100, (i * 7) % 1000]))
            .collect();
        db.create_relation(name, &Relation::from_tuples(schema, tuples).unwrap())
            .unwrap();
        let rel = db.relation_mut(name).unwrap();
        rel.create_secondary_index(0).unwrap();
        rel.clear_decoded_cache();
    }
    db
}

#[test]
fn join_order_swaps_with_the_selective_side() {
    let db = join_db();
    let (_, p) = plan_for(&db, "select * from a join b on a.k = b.k where x = 5");
    assert_eq!(
        p.table_order,
        vec![0, 1],
        "filtered `a` should drive the join"
    );
    let (_, p) = plan_for(&db, "select * from a join b on a.k = b.k where y = 5");
    assert_eq!(
        p.table_order,
        vec![1, 0],
        "filtered `b` should drive the join"
    );
}

#[test]
fn chosen_plan_is_the_cheapest_enumerated() {
    let db = events_db();
    let (_, p) = plan_for(&db, "select * from events where user = 5");
    // Recompute the full-scan cost from the same statistics the planner
    // used, N·(t₁·(1 − resident) + t₂); the chosen plan must be at most that.
    let rel = db.relation("events").unwrap();
    let cfg = rel.config();
    let blocks = rel.block_count() as f64;
    let resident = rel.decoded_cache_len() as f64 / blocks;
    let full = blocks
        * (cfg.disk.block_time_ms(cfg.codec.block_capacity) * (1.0 - resident)
            + cfg.cpu_ms_per_block);
    assert!(
        p.est_total_ms <= full,
        "chosen {}ms exceeds the full-scan baseline {full}ms",
        p.est_total_ms
    );
}

/// SplitMix64: the seeded stream the agreement property draws from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The attributes of [`indexed_db`]'s relation and their domain sizes.
const NAMES: [&str; 4] = ["a", "b", "c", "d"];
const SIZES: [u64; 4] = [16, 64, 512, 1000];

/// `r(a < 16, b < 64, c < 512, d < 1000)`, 3000 tuples over many small
/// blocks, with a secondary index on each attribute `mask` names.
fn indexed_db(mask: u8) -> Database {
    let mut db = Database::new(DbConfig::default().with_block_capacity(256));
    let schema = Schema::from_pairs(
        NAMES
            .into_iter()
            .zip(SIZES)
            .map(|(name, size)| (name, Domain::uint(size).unwrap())),
    )
    .unwrap();
    let mut rng = Rng(0xA5A5);
    let tuples: Vec<Tuple> = (0..3000)
        .map(|_| Tuple::from(SIZES.map(|size| rng.below(size))))
        .collect();
    db.create_relation("r", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    for attr in (1..4).filter(|a| mask & (1 << a) != 0) {
        db.create_secondary_index("r", attr).unwrap();
    }
    db
}

/// The facade and the SQL planner choose from one access-path menu: for
/// any conjunction, indexes and cache state, `StoredRelation::select`
/// reads through the path `plan::plan` picks for the same `select *`, and
/// both return the same rows.
#[test]
fn facade_and_planner_choose_the_same_path() {
    let mut rng = Rng(42);
    for _ in 0..8 {
        let mask = (rng.below(8) as u8) << 1;
        let db = indexed_db(mask);
        let rel = db.relation("r").unwrap();
        for _ in 0..24 {
            let mut sel = Selection::all();
            let mut sql = Vec::new();
            for _ in 0..=rng.below(3) {
                let attr = rng.below(4) as usize;
                let size = SIZES[attr];
                let (lo, hi) = match rng.below(5) {
                    0 => {
                        let v = rng.below(size);
                        (v, v)
                    }
                    1 => {
                        let lo = rng.below(size);
                        (lo, (lo + rng.below(size / 8 + 1)).min(size - 1))
                    }
                    2 => {
                        let lo = rng.below(size / 4);
                        (lo, size - 1 - rng.below(size / 4))
                    }
                    3 => (0, size - 1),
                    // A contradiction: two equalities on one attribute.
                    _ => {
                        let v = rng.below(size - 1);
                        sel = sel.and(RangePredicate::equals(attr, v + 1));
                        sql.push(format!("{} = {}", NAMES[attr], v + 1));
                        (v, v)
                    }
                };
                sel = sel.and(RangePredicate { attr, lo, hi });
                sql.push(format!("{} between {lo} and {hi}", NAMES[attr]));
            }
            let sql = format!("select * from r where {}", sql.join(" and "));
            for warm in [false, true] {
                let settle = || {
                    db.drop_caches();
                    if warm {
                        rel.scan_all().unwrap();
                    }
                };
                settle();
                let (_, p) = plan_for(&db, &sql);
                settle();
                let (mut rows, _, path) = rel.select(&sel).unwrap();
                let case = format!("indexes {mask:#06b}, warm {warm}: {sql}");
                assert_eq!(path, scan_path(&p.root), "{case}");

                let Ok(SqlOutcome::Table(result)) = avq_sql::run(&db, &sql) else {
                    panic!("{case}: not a table");
                };
                let mut via_sql: Vec<Vec<u64>> = result
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|cell| match cell {
                                Cell::Int(v) => u64::try_from(*v).unwrap(),
                                other => panic!("{case}: cell {other:?}"),
                            })
                            .collect()
                    })
                    .collect();
                rows.sort_unstable();
                via_sql.sort_unstable();
                let rows: Vec<Vec<u64>> = rows.iter().map(|t| t.digits().to_vec()).collect();
                assert_eq!(rows, via_sql, "{case}");
            }
        }
    }
}
