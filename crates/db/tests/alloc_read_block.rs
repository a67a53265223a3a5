//! Allocation accounting for the one block-read primitive.
//!
//! A cold [`StoredRelation::read_block`] must allocate what decoding the
//! block allocates plus a small constant for handing it over (the `Arc`
//! and the decoded-cache entry) — under the default context and under a
//! live budget alike: polling and charging a [`GovCtx`] is arithmetic on
//! atomics, never an allocation. A warm read hands out the cached batch
//! and must allocate nothing. A read over more blocks than the decoded
//! cache holds decodes each miss into the batch the cache just evicted, so
//! in its steady state a miss allocates the hand-off and nothing else. A
//! counting global allocator pins all three; it counts per thread, so the
//! tests of this binary running side by side do not perturb each other.

use avq_codec::{BlockCodec, CodingMode, DecodeScratch};
use avq_db::{DbConfig, GovCtx, QueryBudget, QueryCtx, StoredRelation};
use avq_schema::{Domain, Relation, Schema, Tuple, TupleBatch};
use avq_storage::{BlockDevice, BufferPool};
use counting_alloc::allocs;
use std::sync::Arc;

#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The relation both tests read: 20 000 tuples over three attributes.
fn relation() -> Relation {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(4096).unwrap()),
        ("c", Domain::uint(65536).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..20_000u64)
        .map(|i| Tuple::from([(i / 512) % 64, (i * 31) % 4096, (i * 131) % 65536]))
        .collect();
    Relation::from_tuples(schema, tuples).unwrap()
}

/// Allocations a cold read may add to its decode: the `Arc` around the
/// batch and the decoded cache's entry for it.
const HAND_OFF: u64 = 2;

#[test]
fn cold_read_allocates_its_decode_plus_the_hand_off_and_a_warm_read_nothing() {
    let relation = relation();
    let schema = relation.schema().clone();

    for mode in CodingMode::ALL {
        let config = DbConfig::default()
            .with_mode(mode)
            .with_block_capacity(1024);
        let device = BlockDevice::new(config.codec.block_capacity, config.disk);
        // Every block and index node stays in the pool, so a cold read
        // here is cold for the decoded cache only.
        let pool = BufferPool::new(device.clone(), 4096);
        let stored =
            StoredRelation::bulk_load(device.clone(), pool.clone(), &relation, config).unwrap();
        let codec = BlockCodec::with_options(schema.clone(), mode, config.codec.rep)
            .with_kernel(config.codec.kernel);
        let blocks = stored.block_count() as u64;
        assert!(blocks > 20 && blocks <= config.decoded_cache_blocks as u64);

        // Fill the pool, grow the decoded cache's table to its steady-state
        // size, and register every metric handle of the miss and hit paths.
        stored.scan_all().unwrap();
        stored.scan_all().unwrap();

        let live = GovCtx::new(QueryBudget::unlimited(), device.clock().clone());
        let mut cold_by_ctx = Vec::new();
        for ctx in [QueryCtx::default(), QueryCtx::from(live.clone())] {
            stored.clear_decoded_cache();
            let (mut decode_alone, mut cold) = (0u64, 0u64);
            for b in stored.blocks() {
                let bytes = pool.read(b.id).unwrap();
                let before = allocs();
                let mut run = TupleBatch::new(schema.arity());
                codec
                    .decode_batch_into(&bytes, &mut run, &mut DecodeScratch::new())
                    .unwrap();
                decode_alone += allocs() - before;

                let before = allocs();
                let served = stored.read_block(b.id, &ctx).unwrap().unwrap();
                cold += allocs() - before;
                assert_eq!(*served, run);
            }
            assert!(
                cold <= decode_alone + HAND_OFF * blocks,
                "{mode}: {blocks} cold reads allocated {cold} times, their decodes {decode_alone}"
            );
            cold_by_ctx.push(cold);

            let before = allocs();
            for b in stored.blocks() {
                std::hint::black_box(stored.read_block(b.id, &ctx).unwrap());
            }
            assert_eq!(allocs() - before, 0, "{mode}: a warm read allocated");
        }
        assert_eq!(
            cold_by_ctx[0], cold_by_ctx[1],
            "{mode}: a live budget changed what a cold read allocates"
        );
        assert_eq!(live.usage().rows, 2 * stored.tuple_count() as u64);
    }
}

#[test]
fn oversized_read_decodes_into_the_batch_it_evicts() {
    let relation = relation();
    let cache = 8;
    for mode in CodingMode::ALL {
        let config = DbConfig::default()
            .with_mode(mode)
            .with_block_capacity(1024)
            .with_decoded_cache_blocks(cache);
        let device = BlockDevice::new(config.codec.block_capacity, config.disk);
        // Every block stays in the pool: a miss here is a decoded-cache miss.
        let pool = BufferPool::new(device.clone(), 4096);
        let stored = StoredRelation::bulk_load(device, pool, &relation, config).unwrap();
        let ids = stored.all_block_ids();
        let blocks = ids.len() as u64;
        assert!(blocks > 2 * cache as u64, "{mode}: {blocks} blocks");

        // Two reads fill the pool, register the metric handles, and grow
        // the spare batch and scratch to the largest block.
        let ctx = QueryCtx::default();
        let read_all = || {
            let mut rows = 0usize;
            for read in stored.read_blocks(ids.iter().copied(), &ctx) {
                let (_, run) = read.unwrap();
                rows += run.len();
                // The caller lets each batch go before the next miss, so
                // the cache's reference is the only one left to evict.
                drop::<Arc<TupleBatch>>(run);
            }
            rows
        };
        read_all();
        read_all();

        let misses_before = stored.decoded_stats().misses;
        let before = allocs();
        let rows = read_all();
        let allocated = allocs() - before;
        let misses = stored.decoded_stats().misses - misses_before;
        assert_eq!(rows, stored.tuple_count());
        assert!(
            misses >= blocks - cache as u64,
            "{mode}: {misses} misses for {blocks} blocks"
        );
        assert!(
            allocated <= HAND_OFF * misses,
            "{mode}: {misses} steady-state misses allocated {allocated} times"
        );
    }
}
