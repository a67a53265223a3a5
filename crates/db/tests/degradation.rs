//! Graceful degradation under injected block faults: with `k` of `N`
//! blocks damaged, every reader under `SkipCorrupt` must return exactly
//! what it returns over the `N − k` intact blocks, quarantine the damaged
//! ones, and count them once in `avq_corrupt_blocks_total`. `FailFast`
//! must surface the first error unchanged. All injection is seeded — a
//! failure reproduces from the constants in this file.

use avq_db::{
    equijoin, AccessPath, Aggregate, DbConfig, QueryCost, QueryCtx, RangePredicate, RetryPolicy,
    ScanPolicy, Selection, StoredRelation,
};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_storage::{BlockDevice, BufferPool, FaultKind, FaultPlan};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes tests that assert exact global-counter deltas (the metrics
/// registry is process-wide and tests run concurrently).
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn corrupt_counter() -> u64 {
    avq_obs::global().counter("avq.corrupt_blocks.total").get()
}

fn retry_counter() -> u64 {
    avq_obs::global().counter("avq.io_retries.total").get()
}

/// The rows of `sel` read through `path`, in block order, with the cost.
fn select_via(rel: &StoredRelation, sel: &Selection, path: AccessPath) -> (Vec<Tuple>, QueryCost) {
    let ctx = QueryCtx::default();
    rel.fold_matching(sel, path, &ctx, Vec::new(), |out, run, sel| {
        out.extend(sel.iter().map(|&i| run.tuple(i as usize)))
    })
    .unwrap()
}

fn setup(n: u64, config: DbConfig) -> (Arc<BlockDevice>, Arc<BufferPool>, StoredRelation) {
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 64, (i * 29) % 4096]))
        .collect();
    setup_from(tuples, config)
}

fn setup_from(
    tuples: Vec<Tuple>,
    config: DbConfig,
) -> (Arc<BlockDevice>, Arc<BufferPool>, StoredRelation) {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(64).unwrap()),
        ("c", Domain::uint(4096).unwrap()),
    ])
    .unwrap();
    let rel = Relation::from_tuples(schema, tuples).unwrap();
    let device = BlockDevice::new(config.codec.block_capacity, config.disk);
    let pool = BufferPool::new(device.clone(), config.buffer_frames);
    let stored = StoredRelation::bulk_load(device.clone(), pool.clone(), &rel, config).unwrap();
    (device, pool, stored)
}

fn small_config(policy: ScanPolicy) -> DbConfig {
    DbConfig::default()
        .with_block_capacity(128)
        .with_scan_policy(policy)
        .with_retry(RetryPolicy::none())
}

/// The tuples of the blocks not in `bad`, in φ order, cut out of a full
/// scan (`reference`) by the block metadata.
fn intact_tuples(
    stored: &StoredRelation,
    reference: &[Tuple],
    bad: &BTreeSet<avq_storage::BlockId>,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for b in stored.blocks() {
        if !bad.contains(&b.id) {
            out.extend_from_slice(&reference[offset..offset + b.count]);
        }
        offset += b.count;
    }
    out
}

/// The issue's acceptance scenario: seeded hard read errors on `k` random
/// blocks; a `SkipCorrupt` scan returns exactly the intact blocks' tuples
/// and the corrupt-block counter advances by exactly `k`.
#[test]
fn skip_corrupt_scan_serves_exactly_the_intact_blocks() {
    let _guard = counter_lock();
    let (device, pool, stored) = setup(1000, small_config(ScanPolicy::SkipCorrupt));
    let reference = stored.scan_all().unwrap();
    assert_eq!(reference.len(), 1000);

    let n = stored.block_count();
    let k = 5;
    assert!(n > 2 * k, "need enough blocks for the scenario: {n}");
    let ids: Vec<_> = stored.blocks().iter().map(|b| b.id).collect();
    let bad = FaultPlan::pick_blocks(0xDEAD_BEEF, &ids, k);
    device.set_fault_plan(
        FaultPlan::new(0xDEAD_BEEF).with_fault_on(FaultKind::ReadError, bad.iter().copied()),
    );
    // Drop both cache layers so every block re-reads the device.
    pool.clear();
    stored.clear_decoded_cache();

    let expect = intact_tuples(&stored, &reference, &bad);

    let before = corrupt_counter();
    let got = stored.scan_all().unwrap();
    assert_eq!(got, expect, "scan must serve exactly the N-k intact blocks");
    assert_eq!(
        corrupt_counter() - before,
        k as u64,
        "each damaged block counted once in avq_corrupt_blocks_total"
    );
    assert_eq!(
        stored
            .quarantined_blocks()
            .into_iter()
            .collect::<BTreeSet<_>>(),
        bad
    );

    // A second scan skips the quarantined set without re-counting.
    let again = stored.scan_all().unwrap();
    assert_eq!(again, expect);
    assert_eq!(corrupt_counter() - before, k as u64, "no double counting");

    // Range selections on the clustering prefix degrade the same way.
    let (rows, _) = stored.select_range(0, 0, 63).unwrap();
    assert_eq!(rows.len(), expect.len());

    // Point probes into a quarantined block report absent, not an error.
    let first_bad = *bad.iter().next().unwrap();
    let bad_meta = stored.blocks().iter().find(|b| b.id == first_bad).unwrap();
    let (found, _) = stored.contains(&bad_meta.min.clone()).unwrap();
    assert!(
        !found,
        "quarantined block treated as absent under SkipCorrupt"
    );
}

/// The scan policy is honoured by every reader, not only `scan_all`: with
/// `k` of `N` blocks damaged, each operator returns exactly what the same
/// operator returns over a healthy relation holding the `N − k` intact
/// blocks' tuples; costs count the blocks served; and all of them together
/// count each damaged block once.
#[test]
fn every_operator_serves_exactly_the_intact_blocks() {
    let _guard = counter_lock();
    let (device, pool, mut damaged) = setup(1000, small_config(ScanPolicy::SkipCorrupt));
    damaged.create_secondary_index(1).unwrap();
    let reference = damaged.scan_all().unwrap();
    let (n, k) = (damaged.block_count(), 5);
    let ids: Vec<_> = damaged.blocks().iter().map(|b| b.id).collect();
    let bad = FaultPlan::pick_blocks(0xC0FFEE, &ids, k);
    device.set_fault_plan(
        FaultPlan::new(0xC0FFEE).with_fault_on(FaultKind::ReadError, bad.iter().copied()),
    );
    pool.clear();
    damaged.clear_decoded_cache();

    let intact = intact_tuples(&damaged, &reference, &bad);
    let (_, _, mut healthy) = setup_from(intact.clone(), small_config(ScanPolicy::FailFast));
    healthy.create_secondary_index(1).unwrap();
    let before = corrupt_counter();

    // select through each path: full scan, clustered range, secondary
    // index (the two relations' block counts differ, so each is named
    // rather than priced).
    let range = |attr, lo, hi| Selection::all().and(RangePredicate { attr, lo, hi });
    for (sel, path) in [
        (range(2, 100, 3000), AccessPath::FullScan),
        (range(0, 10, 40), AccessPath::ClusteredRange),
        (range(1, 5, 9), AccessPath::SecondaryIndex { attr: 1 }),
    ] {
        let (mut got, cost) = select_via(&damaged, &sel, path);
        let (mut want, _) = select_via(&healthy, &sel, path);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "select via {path}");
        assert_eq!(cost.tuples_matched, want.len());
    }
    let (_, cost, _) = damaged.select(&Selection::all()).unwrap();
    assert_eq!(
        cost.data_blocks as usize,
        n - k,
        "blocks served, not candidates"
    );
    assert_eq!(cost.tuples_scanned, intact.len());

    // aggregate and group-by (a conjunct keeps them off the metadata paths).
    let sel = range(2, 0, 4000);
    for agg in [
        Aggregate::Count,
        Aggregate::Sum { attr: 2 },
        Aggregate::Min { attr: 1 },
        Aggregate::Max { attr: 2 },
        Aggregate::Avg { attr: 1 },
    ] {
        let (got, cost) = damaged.aggregate(agg, &sel).unwrap();
        assert_eq!(got, healthy.aggregate(agg, &sel).unwrap().0, "{agg:?}");
        assert_eq!(cost.data_blocks as usize, n - k);
        assert_eq!(
            damaged.aggregate_group_by(0, agg, &sel).unwrap().0,
            healthy.aggregate_group_by(0, agg, &sel).unwrap().0,
            "{agg:?} group by a"
        );
    }

    // equijoin: index nested-loop on b, block nested-loop on c; outer and
    // inner reads both skip.
    for attr in [1, 2] {
        let (mut got, _, strategy) = equijoin(&damaged, attr, &damaged, attr).unwrap();
        let (mut want, _, want_strategy) = equijoin(&healthy, attr, &healthy, attr).unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(strategy, want_strategy);
        assert_eq!(got, want, "{strategy:?}");
    }

    // The whole φ range through the primary index, in φ order.
    let (rows, _) = select_via(&damaged, &range(0, 0, 63), AccessPath::ClusteredRange);
    assert_eq!(rows, intact);

    assert_eq!(
        corrupt_counter() - before,
        k as u64,
        "each damaged block counted once, whichever operator met it first"
    );
    assert_eq!(
        damaged
            .quarantined_blocks()
            .into_iter()
            .collect::<BTreeSet<_>>(),
        bad
    );
}

/// The default policy surfaces the injected error unchanged.
#[test]
fn fail_fast_surfaces_the_first_error() {
    let (device, pool, stored) = setup(400, small_config(ScanPolicy::FailFast));
    stored.scan_all().unwrap();
    let victim = stored.blocks()[1].id;
    device.set_fault_plan(FaultPlan::new(7).with_fault_on(FaultKind::ReadError, [victim]));
    pool.clear();
    stored.clear_decoded_cache();
    // Every reader surfaces the same typed error.
    let sel = Selection::all().and(RangePredicate {
        attr: 2,
        lo: 0,
        hi: 4095,
    });
    for (reader, err) in [
        ("scan_all", stored.scan_all().unwrap_err()),
        ("select", stored.select(&sel).unwrap_err()),
        (
            "aggregate",
            stored.aggregate(Aggregate::Count, &sel).unwrap_err(),
        ),
        ("equijoin", equijoin(&stored, 1, &stored, 1).unwrap_err()),
    ] {
        assert!(
            matches!(
                err,
                avq_db::DbError::Storage(avq_storage::StorageError::Io { .. })
            ),
            "{reader}: unexpected error: {err}"
        );
    }
    assert!(
        stored.quarantined_blocks().is_empty(),
        "fail-fast never quarantines"
    );
}

/// A transient fault heals within the retry budget: the scan succeeds,
/// nothing is quarantined, and the retries are counted.
#[test]
fn transient_faults_are_retried_not_quarantined() {
    let _guard = counter_lock();
    let config = small_config(ScanPolicy::SkipCorrupt).with_retry(RetryPolicy {
        max_attempts: 3,
        backoff_ms: 1.0,
        ..RetryPolicy::default()
    });
    let (device, pool, stored) = setup(500, config);
    let reference = stored.scan_all().unwrap();
    let victim = stored.blocks()[2].id;
    device.set_fault_plan(
        FaultPlan::new(11).with_fault_on(FaultKind::TransientRead { failures: 2 }, [victim]),
    );
    pool.clear();
    stored.clear_decoded_cache();

    let before = retry_counter();
    let clock_before = device.clock().now_ms();
    let got = stored.scan_all().unwrap();
    assert_eq!(got, reference, "transient fault must not lose tuples");
    assert_eq!(retry_counter() - before, 2, "two retries for two failures");
    assert!(stored.quarantined_blocks().is_empty());
    assert!(
        device.clock().now_ms() - clock_before >= 3.0 - 1e-9,
        "backoff charged to the virtual clock: 1 + 2 ms"
    );
}

/// A transient fault that outlives the retry budget degrades like a hard
/// fault under `SkipCorrupt`.
#[test]
fn exhausted_retries_quarantine_under_skip_corrupt() {
    let _guard = counter_lock();
    let config = small_config(ScanPolicy::SkipCorrupt).with_retry(RetryPolicy {
        max_attempts: 2,
        backoff_ms: 0.5,
        ..RetryPolicy::default()
    });
    let (device, pool, stored) = setup(500, config);
    let full = stored.scan_all().unwrap();
    let victim = stored.blocks()[0].id;
    device.set_fault_plan(
        FaultPlan::new(13).with_fault_on(FaultKind::TransientRead { failures: 10 }, [victim]),
    );
    pool.clear();
    stored.clear_decoded_cache();

    let got = stored.scan_all().unwrap();
    assert_eq!(
        got.len(),
        full.len() - stored.blocks()[0].count,
        "only the stuck block's tuples are missing"
    );
    assert_eq!(stored.quarantined_blocks(), vec![victim]);
}

/// A retry policy whose total-time budget is tighter than its attempt
/// budget gives up on time, not attempts: with 1 ms of total backoff
/// allowed, the second (2 ms) backoff is refused even though attempts
/// remain, and the block degrades like a hard fault under `SkipCorrupt`.
#[test]
fn retry_total_budget_caps_healing_time() {
    let _guard = counter_lock();
    let config = small_config(ScanPolicy::SkipCorrupt).with_retry(RetryPolicy {
        max_attempts: 10,
        backoff_ms: 1.0,
        max_total_ms: 1.0,
    });
    let (device, pool, stored) = setup(500, config);
    let full = stored.scan_all().unwrap();
    let victim = stored.blocks()[0].id;
    device.set_fault_plan(
        FaultPlan::new(17).with_fault_on(FaultKind::TransientRead { failures: 4 }, [victim]),
    );
    pool.clear();
    stored.clear_decoded_cache();

    let before = retry_counter();
    let clock_before = device.clock().now_ms();
    let got = stored.scan_all().unwrap();
    assert_eq!(
        got.len(),
        full.len() - stored.blocks()[0].count,
        "the block cannot heal inside the time budget"
    );
    assert_eq!(stored.quarantined_blocks(), vec![victim]);
    assert_eq!(retry_counter() - before, 1, "only the 1 ms retry fits");
    // The clock delta includes simulated disk transfers for the whole scan;
    // the backoff contributes at least its budgeted 1 ms.
    assert!(device.clock().now_ms() - clock_before >= 1.0 - 1e-9);
}

/// Silent bit flips: whatever the damaged block decodes to, the scan never
/// panics and the intact blocks' tuples all survive. (A flip may leave the
/// block decodable-but-reordered; the φ-order check catches that class.)
#[test]
fn bit_flips_never_panic_and_intact_blocks_survive() {
    let _guard = counter_lock();
    for seed in 0..20u64 {
        let (device, pool, stored) = setup(600, small_config(ScanPolicy::SkipCorrupt));
        let reference = stored.scan_all().unwrap();
        let ids: Vec<_> = stored.blocks().iter().map(|b| b.id).collect();
        let bad = FaultPlan::pick_blocks(seed, &ids, 3);
        device.set_fault_plan(
            FaultPlan::new(seed).with_fault_on(FaultKind::BitFlip, bad.iter().copied()),
        );
        pool.clear();
        stored.clear_decoded_cache();

        let got = stored.scan_all().unwrap();
        // Every tuple from an intact block must be present; a flipped block
        // contributes either nothing (detected) or whatever its damaged
        // bytes decode to (undetectable without a per-block checksum).
        let mut offset = 0usize;
        let mut intact = Vec::new();
        for b in stored.blocks() {
            if !bad.contains(&b.id) {
                intact.extend_from_slice(&reference[offset..offset + b.count]);
            }
            offset += b.count;
        }
        let got_set: BTreeSet<&Tuple> = got.iter().collect();
        for t in &intact {
            assert!(got_set.contains(t), "seed {seed}: intact tuple lost");
        }
    }
}

/// Building a secondary index under `SkipCorrupt` indexes the surviving
/// blocks and still answers selections from them.
#[test]
fn secondary_index_builds_over_surviving_blocks() {
    let _guard = counter_lock();
    let (device, pool, mut stored) = setup(800, small_config(ScanPolicy::SkipCorrupt));
    let victim = stored.blocks()[3].id;
    device.set_fault_plan(FaultPlan::new(3).with_fault_on(FaultKind::ReadError, [victim]));
    pool.clear();
    stored.clear_decoded_cache();

    stored.create_secondary_index(1).unwrap();
    let survivors = stored.scan_all().unwrap();
    let (rows, _) = stored.select_range(1, 5, 9).unwrap();
    let expect: Vec<&Tuple> = survivors
        .iter()
        .filter(|t| (5..=9).contains(&t.digits()[1]))
        .collect();
    let mut sorted: Vec<&Tuple> = rows.iter().collect();
    sorted.sort_unstable();
    assert_eq!(sorted, expect);
}
