//! Cancellation and quota semantics of scans run under a budget, through
//! the `fold_matching` block loop every operator shares.
//!
//! Three invariants, property-tested over relation size and trip points:
//! a scan that stops early always surfaces a typed [`GovernanceError`] —
//! never a silently truncated result; cancellation is observed within one
//! block of the poll point; and budget accounting is exact under
//! `SkipCorrupt` — quarantined blocks charge nothing.

use avq_db::{
    AccessPath, DbConfig, DbError, GovCtx, GovernanceError, QueryBudget, QueryCtx, QuotaKind,
    RetryPolicy, ScanPolicy, Selection, StoredRelation,
};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_storage::{BlockDevice, BufferPool, FaultKind, FaultPlan};
use proptest::prelude::*;
use std::sync::Arc;

const CAPACITY: usize = 128;

fn setup(n: u64, policy: ScanPolicy) -> (Arc<BlockDevice>, Arc<BufferPool>, StoredRelation) {
    let config = DbConfig::default()
        .with_block_capacity(CAPACITY)
        .with_scan_policy(policy)
        .with_retry(RetryPolicy::none());
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(4096).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::from([(i * 7) % 64, (i * 29) % 4096]))
        .collect();
    let rel = Relation::from_tuples(schema, tuples).unwrap();
    let device = BlockDevice::new(config.codec.block_capacity, config.disk);
    let pool = BufferPool::new(device.clone(), config.buffer_frames);
    let stored = StoredRelation::bulk_load(device.clone(), pool.clone(), &rel, config).unwrap();
    (device, pool, stored)
}

/// A full scan under `gov` through the block loop every operator shares:
/// the rows it served.
fn scan_under(stored: &StoredRelation, gov: &GovCtx) -> Result<Vec<Tuple>, DbError> {
    stored
        .fold_matching(
            &Selection::all(),
            AccessPath::FullScan,
            &QueryCtx::from(gov.clone()),
            Vec::new(),
            |out, run, sel| out.extend(sel.iter().map(|&i| run.tuple(i as usize))),
        )
        .map(|(rows, _)| rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cancelling mid-iteration (through a cloned handle, as a REPL would)
    /// either lets the scan finish — it was already
    /// past the last poll point — or stops it with the typed `Cancelled`
    /// error after at most one more block of tuples. Never a silently
    /// short result.
    #[test]
    fn cancellation_mid_scan_is_never_silent(n in 300u64..1500, stop in 0usize..700) {
        let (device, _pool, stored) = setup(n, ScanPolicy::FailFast);
        let gov = GovCtx::new(QueryBudget::unlimited(), device.clock().clone());
        // The rows handed out so far; the fold cancels once they reach
        // `stop`.
        let mut count = 0usize;
        let out = stored.fold_matching(
            &Selection::all(),
            AccessPath::FullScan,
            &QueryCtx::from(gov.clone()),
            (),
            |(), _, sel| {
                let before = count;
                count += sel.len();
                if before < stop && count >= stop {
                    gov.cancel();
                }
            },
        );
        match out.err() {
            None => prop_assert_eq!(count, n as usize, "short result without an error"),
            Some(DbError::Governance(GovernanceError::Cancelled)) => {
                prop_assert!(count < n as usize);
                // Observed within one block: only the block already
                // decoded when `cancel` hit may still drain.
                prop_assert!(count <= stop + CAPACITY, "{count} > {stop} + {CAPACITY}");
            }
            Some(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// A rows quota below the relation size always trips with the typed
    /// quota error, and the charged usage overshoots the limit by at most
    /// one block (the poll-at-block-boundary discipline).
    #[test]
    fn rows_quota_trips_and_overshoots_at_most_one_block(
        n in 700u64..3000,
        quota in 1u64..300,
    ) {
        let (device, _pool, stored) = setup(n, ScanPolicy::FailFast);
        let gov = GovCtx::new(
            QueryBudget::unlimited().with_max_rows(quota),
            device.clock().clone(),
        );
        let err = scan_under(&stored, &gov).unwrap_err();
        match err {
            DbError::Governance(GovernanceError::QuotaExceeded {
                kind: QuotaKind::Rows,
                limit,
                used,
            }) => {
                prop_assert_eq!(limit, quota);
                prop_assert!(used > quota);
                prop_assert!(used <= quota + CAPACITY as u64);
            }
            other => prop_assert!(false, "unexpected error: {other}"),
        }
        prop_assert!(gov.usage().rows <= quota + CAPACITY as u64);
    }
}

/// Under `SkipCorrupt`, quarantined blocks charge nothing: the budget's
/// rows usage equals exactly the tuples actually served from intact
/// blocks, so a quota sized to the intact set passes.
#[test]
fn skip_corrupt_accounting_charges_only_intact_blocks() {
    let (device, pool, stored) = setup(1000, ScanPolicy::SkipCorrupt);
    let reference = stored.scan_all().unwrap();
    let ids: Vec<_> = stored.blocks().iter().map(|b| b.id).collect();
    let k = 3;
    let bad = FaultPlan::pick_blocks(0xFEED_FACE, &ids, k);
    device.set_fault_plan(
        FaultPlan::new(0xFEED_FACE).with_fault_on(FaultKind::ReadError, bad.iter().copied()),
    );
    pool.clear();
    stored.clear_decoded_cache();

    let intact_blocks = || stored.blocks().iter().filter(|b| !bad.contains(&b.id));
    let intact: usize = intact_blocks().map(|b| b.count).sum();
    assert!(intact < reference.len());

    let gov = GovCtx::new(QueryBudget::unlimited(), device.clock().clone());
    let got = scan_under(&stored, &gov).unwrap();
    assert_eq!(got.len(), intact);
    assert_eq!(
        gov.usage().rows,
        intact as u64,
        "skipped blocks must charge nothing"
    );
    assert_eq!(
        gov.usage().decoded_bytes,
        intact_blocks().map(|b| b.used_bytes as u64).sum::<u64>(),
        "a cold scan decodes exactly the coded bytes of the blocks it served"
    );

    // A quota with exactly enough room for the intact set stays clean.
    let tight = GovCtx::new(
        QueryBudget::unlimited().with_max_rows(intact as u64),
        device.clock().clone(),
    );
    assert!(scan_under(&stored, &tight).is_ok());
}

/// A governance trip under `SkipCorrupt` aborts the scan — it is not
/// mistaken for block corruption and quarantined away.
#[test]
fn governance_trip_is_not_quarantined_under_skip_corrupt() {
    let (device, _pool, stored) = setup(600, ScanPolicy::SkipCorrupt);
    let gov = GovCtx::new(
        QueryBudget::unlimited().with_max_rows(10),
        device.clock().clone(),
    );
    let err = scan_under(&stored, &gov).unwrap_err();
    assert!(
        matches!(err, DbError::Governance(_)),
        "expected a governance abort, got {err}"
    );
    assert!(
        stored.quarantined_blocks().is_empty(),
        "a quota trip must never quarantine a block"
    );
}

/// A deadline sized to half the cold-scan disk time trips mid-scan with
/// the typed timeout, having served strictly fewer rows than the relation
/// holds.
#[test]
fn deadline_trips_mid_scan_on_simulated_disk_time() {
    let n = 2000u64;
    let (device, pool, stored) = setup(n, ScanPolicy::FailFast);

    // Measure the full cold-scan virtual cost once, ungoverned.
    pool.clear();
    stored.clear_decoded_cache();
    let t0 = device.clock().now_ms();
    stored.scan_all().unwrap();
    let full_ms = device.clock().now_ms() - t0;
    assert!(full_ms > 0.0, "the simulated disk must charge the clock");

    pool.clear();
    stored.clear_decoded_cache();
    let gov = GovCtx::new(
        QueryBudget::unlimited().with_timeout_ms(full_ms / 2.0),
        device.clock().clone(),
    );
    let err = scan_under(&stored, &gov).unwrap_err();
    assert!(
        matches!(err, DbError::Governance(GovernanceError::Timeout { .. })),
        "expected a timeout, got {err}"
    );
    assert!(
        gov.usage().rows < n,
        "the scan must have been cut off mid-way"
    );
}
