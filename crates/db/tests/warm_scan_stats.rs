//! Pins the cold/warm decoded-cache counter semantics (what the benchmark
//! reports as `storage.decoded_hit_rate` and `codec.decodes_per_op`): a
//! cold scan misses every block and hits none; the warm re-scan — measured
//! as the traffic *since* the cold pass — hits every block and performs
//! **zero** decode calls. Reading the cumulative counters for the warm
//! window instead lets the cold pass's misses leak into the "warm" numbers
//! (hits == misses == block count); this test fails if that happens.
//!
//! A warm block read is a hand-off, not a copy: every reader of a cached
//! block gets the same `Arc<TupleBatch>`, until a mutation of that block
//! replaces it — writes go through the cache, so the read after a write is
//! a hit too.

use avq_db::{Database, DbConfig, QueryCtx};
use avq_schema::{Domain, Relation, Schema, Tuple};
use std::sync::Arc;

fn sample_relation(n: u64) -> Relation {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(4096).unwrap()),
        ("c", Domain::uint(65536).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 4096, i % 65536]))
        .collect();
    Relation::from_tuples(schema, tuples).unwrap()
}

#[test]
fn warm_rescan_is_all_hits_and_zero_decodes() {
    let relation = sample_relation(4000);
    let config = DbConfig::default()
        .with_block_capacity(512)
        .with_decoded_cache_blocks(10_000);
    let mut db = Database::new(config);
    db.create_relation("t", &relation).unwrap();
    let rel = db.relation("t").unwrap();
    let blocks = rel.block_count() as u64;
    assert!(blocks > 1, "need a multi-block relation");

    db.drop_caches();
    rel.reset_decoded_stats();
    let cold_scan = rel.scan_all().unwrap();
    let cold = rel.decoded_stats();
    assert_eq!(cold.hits, 0, "cold scan cannot hit the decoded cache");
    assert_eq!(cold.misses, blocks, "cold scan decodes every block");

    let warm_scan = rel.scan_all().unwrap();
    assert_eq!(warm_scan, cold_scan);
    // The warm window is the delta since the cold pass — cumulative
    // counters would wrongly attribute the cold misses to the warm scan.
    let warm = rel.decoded_stats().since(&cold);
    assert_eq!(warm.hits, blocks, "warm re-scan hits every block");
    assert_eq!(warm.misses, 0, "warm re-scan performs zero decode calls");

    // The cumulative view keeps both passes, so the windowing matters:
    // totals alone cannot distinguish a clean warm pass from a leak.
    let total = rel.decoded_stats();
    assert_eq!(total.hits, blocks);
    assert_eq!(total.misses, blocks);
}

#[test]
fn warm_window_counters_survive_repeat_scans() {
    let relation = sample_relation(2000);
    let config = DbConfig::default()
        .with_block_capacity(512)
        .with_decoded_cache_blocks(10_000);
    let mut db = Database::new(config);
    db.create_relation("t", &relation).unwrap();
    let rel = db.relation("t").unwrap();
    let blocks = rel.block_count() as u64;

    db.drop_caches();
    rel.reset_decoded_stats();
    rel.scan_all().unwrap();
    let mut prev = rel.decoded_stats();
    // Every subsequent scan is a pure-hit window of exactly `blocks`.
    for round in 0..3 {
        rel.scan_all().unwrap();
        let now = rel.decoded_stats();
        let window = now.since(&prev);
        assert_eq!(window.hits, blocks, "round {round}");
        assert_eq!(window.misses, 0, "round {round}");
        prev = now;
    }
}

#[test]
fn warm_block_read_hands_out_the_cached_batch_until_mutation() {
    let relation = sample_relation(2000);
    let config = DbConfig::default()
        .with_block_capacity(512)
        .with_decoded_cache_blocks(10_000);
    let mut db = Database::new(config);
    db.create_relation("t", &relation).unwrap();
    let ctx = QueryCtx::default();

    let rel = db.relation("t").unwrap();
    let ids = rel.all_block_ids();
    let cold: Vec<_> = ids
        .iter()
        .map(|&id| rel.read_block(id, &ctx).unwrap().unwrap())
        .collect();
    for (&id, first) in ids.iter().zip(&cold) {
        let again = rel.read_block(id, &ctx).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(first, &again),
            "block {id} was copied, not shared"
        );
    }
    let scanned: Vec<Tuple> = cold.iter().flat_map(|b| b.to_tuples()).collect();
    assert_eq!(scanned, rel.scan_all().unwrap());

    // Mutating the first block replaces exactly that block's batch, and
    // the new one is resident: reading it back decodes nothing.
    let victim = cold[0].to_tuples()[0].clone();
    let before = db.relation("t").unwrap().decoded_stats();
    db.relation_mut("t").unwrap().delete(&victim).unwrap();
    let rel = db.relation("t").unwrap();
    let reread = rel.read_block(ids[0], &ctx).unwrap().unwrap();
    let window = rel.decoded_stats().since(&before);
    assert_eq!(
        (window.hits, window.misses),
        (2, 0),
        "the write and the read after it both found the block resident"
    );
    assert!(
        !Arc::ptr_eq(&cold[0], &reread),
        "stale batch survived a delete"
    );
    assert_eq!(reread.to_tuples(), cold[0].to_tuples()[1..]);
    for (&id, first) in ids.iter().zip(&cold).skip(1) {
        let again = rel.read_block(id, &ctx).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(first, &again),
            "untouched block {id} was re-decoded"
        );
    }
}

#[test]
fn writes_to_resident_blocks_decode_nothing() {
    // A write stream over a warm relation: every mutation finds its block
    // resident, splices it, and leaves the updated batch resident, so the
    // whole stream and the scan after it are hits — zero decode calls —
    // except where a split leaves new blocks to be decoded once.
    let relation = sample_relation(3000);
    let config = DbConfig::default()
        .with_block_capacity(2048)
        .with_decoded_cache_blocks(10_000);
    let mut db = Database::new(config);
    db.create_relation("t", &relation).unwrap();
    let tuples = db.relation("t").unwrap().scan_all().unwrap(); // warm
    let blocks_before = db.relation("t").unwrap().block_count() as u64;
    let before = db.relation("t").unwrap().decoded_stats();

    let rel = db.relation_mut("t").unwrap();
    for t in tuples.iter().step_by(7) {
        rel.delete(t).unwrap();
    }
    for t in tuples.iter().step_by(7) {
        rel.insert(t).unwrap();
    }
    assert_eq!(rel.scan_all().unwrap(), tuples);
    let window = rel.decoded_stats().since(&before);
    let split_off = rel.block_count() as u64 - blocks_before;
    assert!(
        window.misses <= 2 * split_off,
        "{} decodes for {split_off} splits",
        window.misses
    );
    assert!(window.hits >= 2 * tuples.len().div_ceil(7) as u64);
}
