//! A scan larger than the decoded cache must not flush it.
//!
//! A read over more blocks than the cache holds admits what it decodes at
//! the cold end, so it displaces at most one block resident before it and
//! each repeat of it hits what the cache kept. On a cache of 8 blocks and a
//! relation of at least 24, for each multi-block reader — a full SQL scan,
//! `scan_all`, `aggregate`, a `RangeScan` and `create_secondary_index`:
//!
//! - a block admitted by a point read before three such reads is still
//!   resident after them;
//! - the 2nd and 3rd read each hit at least `capacity − 1` blocks (a plain
//!   LRU cache hits none: each read evicts the blocks the next one needs
//!   first);
//! - per read, blocks served = decoded hits + decoded misses, and the
//!   `avq.codec.decode.blocks` delta equals the misses;
//! - every result equals the same read on a twin whose cache holds the
//!   whole relation.
//!
//! The decode counter is process-wide, so this file holds one test.

use avq_db::{Aggregate, Database, DbConfig, QueryCtx, RangePredicate, Selection, StoredRelation};
use avq_obs::names;
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::{run, SqlOutcome};

const CACHE: usize = 8;

fn database(cache_blocks: usize) -> Database {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(4096).unwrap()),
        ("c", Domain::uint(65536).unwrap()),
        ("d", Domain::uint(16).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..4000u64)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 4096, i, i % 16]))
        .collect();
    let relation = Relation::from_tuples(schema, tuples).unwrap();
    let config = DbConfig::default()
        .with_block_capacity(256)
        .with_decoded_cache_blocks(cache_blocks);
    let mut db = Database::new(config);
    db.create_relation("t", &relation).unwrap();
    db
}

fn rel(db: &Database) -> &StoredRelation {
    db.relation("t").unwrap()
}

fn decodes() -> u64 {
    avq_obs::counter!(names::CODEC_DECODE_BLOCKS).get()
}

fn sql(db: &Database, stmt: &str) -> String {
    match run(db, stmt).unwrap() {
        SqlOutcome::Table(t) => format!("{:?} {:?}", t.headers, t.rows),
        SqlOutcome::Plan(p) => p,
    }
}

/// The multi-block readers under test.
#[derive(Debug, Clone, Copy)]
enum Reader {
    SqlScan,
    ScanAll,
    Aggregate,
    RangeScan,
    IndexBuild,
}

/// Runs `reader`'s `round`-th read (0-based) over every block of `t`:
/// its result, rendered, and the blocks it served.
fn read(db: &mut Database, reader: Reader, round: usize) -> (String, u64) {
    let all = rel(db).block_count() as u64;
    match reader {
        Reader::SqlScan => {
            // No index and no clustering prefix on `b`: a full scan.
            let stmt = format!("select count(*), sum(c), min(d) from t where b >= {round}");
            (sql(db, &stmt), all)
        }
        Reader::ScanAll => (format!("{:?}", rel(db).scan_all().unwrap()), all),
        Reader::Aggregate => {
            let sel = Selection::all().and(RangePredicate {
                attr: 1,
                lo: round as u64,
                hi: 4095,
            });
            let (value, cost) = rel(db).aggregate(Aggregate::Sum { attr: 2 }, &sel).unwrap();
            (format!("{value:?}"), cost.data_blocks)
        }
        Reader::RangeScan => {
            let lo = Tuple::from([0u64, 0, 0, 0]);
            let hi = Tuple::from([63u64, 4095, 65535, 15]);
            let mut scan = rel(db).range_scan(lo, hi, &QueryCtx::default()).unwrap();
            let rows: Vec<Tuple> = scan.by_ref().collect();
            assert!(scan.take_error().is_none());
            (format!("{rows:?}"), scan.blocks_read())
        }
        Reader::IndexBuild => {
            // One attribute per round: an index is built once.
            let attr = round + 1;
            db.create_secondary_index("t", attr).unwrap();
            let probes: Vec<_> = [0u64, 5, 15]
                .iter()
                .map(|&v| rel(db).secondary_candidate_blocks(attr, v, v).unwrap())
                .collect();
            (format!("{probes:?}"), all)
        }
    }
}

#[test]
fn resident_blocks_survive_scans_larger_than_the_cache() {
    for reader in [
        Reader::SqlScan,
        Reader::ScanAll,
        Reader::Aggregate,
        Reader::RangeScan,
        Reader::IndexBuild,
    ] {
        let mut db = database(CACHE);
        let mut twin = database(10_000);
        let blocks = rel(&db).block_count();
        assert!(blocks >= 3 * CACHE, "{blocks} blocks: too few to overflow");

        // A point read admits block X, a middle block.
        db.drop_caches();
        let x = rel(&db).blocks()[blocks / 2].clone();
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| x.min.digits()[i]);
        let point = format!("select * from t where a = {a} and b = {b} and c = {c} and d = {d}");
        assert_eq!(sql(&db, &point), sql(&twin, &point));
        assert_eq!(
            rel(&db).decoded_cache_len(),
            1,
            "a point read decodes one block"
        );

        for round in 0..3 {
            let before = rel(&db).decoded_stats();
            let decodes_before = decodes();
            let (got, served) = read(&mut db, reader, round);
            let w = rel(&db).decoded_stats().since(&before);
            let decoded = decodes() - decodes_before;
            assert_eq!(
                got,
                read(&mut twin, reader, round).0,
                "{reader:?} round {round}"
            );
            assert_eq!(served, blocks as u64, "{reader:?}: every block is served");
            assert_eq!(
                w.hits + w.misses,
                served,
                "{reader:?} round {round}: served"
            );
            assert_eq!(decoded, w.misses, "{reader:?} round {round}: decodes");
            if round > 0 {
                assert!(
                    w.hits >= CACHE as u64 - 1,
                    "{reader:?} round {round}: {} hits of {CACHE} resident",
                    w.hits
                );
            }
            assert!(rel(&db).decoded_cache_len() <= CACHE);
        }

        // X was resident before the three reads and still is.
        let before = rel(&db).decoded_stats();
        rel(&db).read_block(x.id, &QueryCtx::default()).unwrap();
        let w = rel(&db).decoded_stats().since(&before);
        assert_eq!(
            (w.hits, w.misses),
            (1, 0),
            "{reader:?}: block X was evicted"
        );
    }
}
