//! `Snapshot::since` delta semantics: property tests that histogram
//! bucket deltas are exact, quantiles stay monotone, and snapshots taken
//! while writers are recording never observe regressions.

use avq_obs::{bucket_index, Registry, HISTOGRAM_BUCKETS};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// The exact per-bucket counts of one batch of values.
fn exact_buckets(values: &[u64]) -> [u64; HISTOGRAM_BUCKETS] {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for &v in values {
        buckets[bucket_index(v)] += 1;
    }
    buckets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The histogram delta between two snapshots has *exactly* the bucket
    /// counts, count, and sum of the values recorded in between — nothing
    /// from the earlier epoch leaks through.
    #[test]
    fn histogram_delta_buckets_are_exact(
        // Bounded so the u64 sums cannot overflow (the histogram's sum
        // atomic wraps silently; this test pins exact delta arithmetic).
        before in prop::collection::vec(0u64..1 << 40, 0..200),
        between in prop::collection::vec(0u64..1 << 40, 0..200),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("t.h");
        let c = reg.counter("t.c");
        for &v in &before {
            h.record(v);
            c.inc();
        }
        let s1 = reg.snapshot();
        for &v in &between {
            h.record(v);
        }
        c.add(3);
        let delta = reg.snapshot().since(&s1);

        let dh = &delta.histograms["t.h"];
        prop_assert_eq!(dh.count, between.len() as u64);
        prop_assert_eq!(dh.sum, between.iter().sum::<u64>());
        prop_assert_eq!(dh.buckets, exact_buckets(&between));
        prop_assert_eq!(delta.counters["t.c"], 3);
    }

    /// Quantile estimates are monotone in `q`, on the raw snapshot and on
    /// any `since` delta of it (merging more observations can never make a
    /// higher percentile smaller).
    #[test]
    fn quantiles_monotone_on_snapshots_and_deltas(
        first in prop::collection::vec(any::<u64>(), 1..150),
        second in prop::collection::vec(any::<u64>(), 1..150),
        qs_permille in prop::collection::vec(0u64..=1000, 2..8),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("t.h");
        for &v in &first {
            h.record(v);
        }
        let s1 = reg.snapshot();
        for &v in &second {
            h.record(v);
        }
        let s2 = reg.snapshot();
        let delta = s2.since(&s1);

        let mut qs = qs_permille;
        qs.sort_unstable();
        for snap in [&s2.histograms["t.h"], &delta.histograms["t.h"]] {
            for pair in qs.windows(2) {
                let (lo, hi) = (pair[0] as f64 / 1000.0, pair[1] as f64 / 1000.0);
                prop_assert!(
                    snap.quantile(lo) <= snap.quantile(hi),
                    "quantile({lo}) > quantile({hi})"
                );
            }
        }
        // The merged histogram dominates the delta at every quantile rank's
        // bucket count total.
        prop_assert!(s2.histograms["t.h"].count >= delta.histograms["t.h"].count);
    }
}

/// Snapshots taken while writer threads are live never regress: counters
/// and per-bucket histogram counts are non-decreasing across successive
/// snapshots, and the final quiescent snapshot accounts for every record.
#[test]
fn concurrent_record_while_snapshotting_is_monotone() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 5_000;

    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    // The writers start only once the reader holds its first snapshot, so
    // the overlap does not depend on how the threads get scheduled.
    let start = Arc::new(Barrier::new(WRITERS + 1));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let reg = Arc::clone(&reg);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let h = reg.histogram("t.h");
                let c = reg.counter("t.c");
                start.wait();
                for i in 0..PER_WRITER {
                    h.record((w as u64) << 32 | i);
                    c.inc();
                }
            })
        })
        .collect();

    let reader = {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let mut prev = reg.snapshot();
            start.wait();
            // `stop` is read after the comparison, so at least one runs.
            loop {
                let cur = reg.snapshot();
                let prev_c = prev.counters.get("t.c").copied().unwrap_or(0);
                let cur_c = cur.counters.get("t.c").copied().unwrap_or(0);
                assert!(cur_c >= prev_c, "counter regressed: {cur_c} < {prev_c}");
                if let (Some(p), Some(c)) = (prev.histograms.get("t.h"), cur.histograms.get("t.h"))
                {
                    assert!(c.count >= p.count, "count regressed");
                    assert!(c.sum >= p.sum, "sum regressed");
                    for i in 0..HISTOGRAM_BUCKETS {
                        assert!(c.buckets[i] >= p.buckets[i], "bucket {i} regressed");
                    }
                    // since() of a monotone pair never saturates: every
                    // delta field is an honest difference.
                    let d = c.since(p);
                    assert_eq!(d.count, c.count - p.count);
                    assert_eq!(
                        d.buckets.iter().sum::<u64>(),
                        c.buckets.iter().sum::<u64>() - p.buckets.iter().sum::<u64>()
                    );
                }
                prev = cur;
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
        })
    };

    for h in handles {
        h.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Release);
    reader.join().expect("reader panicked");

    let total = u64::try_from(WRITERS).unwrap() * PER_WRITER;
    let snap = reg.snapshot();
    assert_eq!(snap.counters["t.c"], total);
    let h = &snap.histograms["t.h"];
    assert_eq!(h.count, total);
    assert_eq!(h.buckets.iter().sum::<u64>(), total);
}
