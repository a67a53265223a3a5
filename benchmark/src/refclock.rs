//! Reference-normalised time.
//!
//! The hosts this benchmark runs on are shared: the same code takes 1.5–2×
//! longer for seconds at a time when a neighbour loads the memory system,
//! and a 10-second run cannot average that out. So every timing is divided
//! by the slowdown the host shows *at that moment*, measured by a fixed
//! reference kernel run next to the timed call: 8 000 small heap
//! allocations and frees, then a 4 MB streaming sum — memory-bound like the
//! engine, but sharing no code with it, so no change to the engine can move
//! it. A timing is reported as
//!
//! `wall × REFERENCE_NOMINAL_NS ÷ (kernel time around the call)`,
//!
//! that is, in nanoseconds of a host on which the kernel takes its nominal
//! time. On the quiet sizing host a reference nanosecond is a nanosecond.
//! The kernel was chosen by measurement: of a compute loop, a pointer
//! chase, an allocation loop and a streaming sum, allocation + stream
//! tracked the engine's slowdown best on all workloads (run-to-run spread
//! of `ops_per_s` 18 % → 3 % on `scan_cold`, 9 % → 1.5 % on `probe_warm`);
//! the compute loop did not track it at all.

use std::cell::RefCell;
use std::time::Instant;

/// The kernel's time on the sizing host when quiet.
pub const REFERENCE_NOMINAL_NS: f64 = 400_000.0;
/// A calibration older than this is refreshed before the next timed call.
/// The host's speed changes within tens of milliseconds, so a calibration
/// must sit close to the call it scales: against 10 ms / 20 ms these two
/// values halved the run-to-run spread on `probe_warm`.
const STALE_NS: u128 = 3_000_000;
/// A timed call longer than this is calibrated after as well as before.
const LONG_NS: u64 = 1_500_000;
const ALLOCATIONS: u64 = 8_000;
const STREAM_WORDS: usize = 512 * 1024;

struct Clock {
    stream: Vec<u64>,
    /// Every calibration, oldest first: when it ended and the kernel's time.
    samples: Vec<(Instant, f64)>,
    /// Allocator calls made by calibrations, so `allocs_per_op` can leave
    /// them out.
    alloc_calls: u64,
}

thread_local! {
    static CLOCK: RefCell<Option<Clock>> = const { RefCell::new(None) };
}

fn kernel(stream: &[u64]) -> f64 {
    let t = Instant::now();
    let mut blocks: Vec<Vec<u64>> = Vec::with_capacity(ALLOCATIONS as usize);
    for i in 0..ALLOCATIONS {
        blocks.push(vec![i; 16]);
    }
    let mut sum = blocks.len() as u64;
    for w in stream {
        sum = sum.wrapping_add(*w);
    }
    drop(std::hint::black_box(blocks));
    std::hint::black_box(sum);
    t.elapsed().as_nanos() as f64
}

impl Clock {
    /// Runs the kernel twice and keeps the faster run: the first absorbs
    /// whatever the previous caller left in the caches.
    fn calibrate(&mut self) {
        let before = crate::alloc::calls();
        let kernel_ns = kernel(&self.stream).min(kernel(&self.stream));
        self.samples.push((Instant::now(), kernel_ns));
        self.alloc_calls += crate::alloc::calls() - before;
    }

    fn latest(&self) -> (Instant, f64) {
        *self
            .samples
            .last()
            .expect("a clock is calibrated when created")
    }

    /// The kernel's time averaged over `[start, end]`, reading it as
    /// piecewise linear between calibrations and flat outside them.
    fn mean_kernel_ns(&self, start: Instant, end: Instant) -> f64 {
        let first = self
            .samples
            .iter()
            .rposition(|(t, _)| *t <= start)
            .unwrap_or(0);
        let at = |t: Instant, (t0, k0): (Instant, f64), (t1, k1): (Instant, f64)| {
            let span = (t1 - t0).as_secs_f64();
            if span == 0.0 {
                k1
            } else {
                k0 + (k1 - k0) * (t.saturating_duration_since(t0).as_secs_f64() / span).min(1.0)
            }
        };
        let (mut area, mut from, mut k_from) = (0.0, start, None::<f64>);
        for pair in self.samples[first..].windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let to = b.0.min(end);
            if to <= from {
                continue;
            }
            let k0 = k_from.unwrap_or_else(|| at(from, a, b));
            let k1 = at(to, a, b);
            area += (k0 + k1) / 2.0 * (to - from).as_secs_f64();
            (from, k_from) = (to, Some(k1));
        }
        // Past the last calibration (or with a single one): flat.
        let tail = end.saturating_duration_since(from).as_secs_f64();
        area += k_from.unwrap_or(self.samples[first].1) * tail;
        let total = (end - start).as_secs_f64();
        if total == 0.0 {
            self.latest().1
        } else {
            area / total
        }
    }
}

fn with_clock<T>(f: impl FnOnce(&mut Clock) -> T) -> T {
    CLOCK.with(|cell| {
        let mut slot = cell.borrow_mut();
        let clock = slot.get_or_insert_with(|| {
            let mut clock = Clock {
                stream: (0..STREAM_WORDS as u64).map(crate::rng::mix).collect(),
                samples: Vec::new(),
                alloc_calls: 0,
            };
            clock.calibrate();
            clock
        });
        f(clock)
    })
}

/// How much of the kernel's slowdown set-up-like work shows. Index builds,
/// bulk encoding and recovery run through the buffer pool and the codec's
/// arithmetic more than through the allocator, and slow less than the
/// kernel when the host is loaded — by how much differs by workload. Between
/// a set of ten runs on a loaded host and one on a quiet host, `setup_s`
/// medians differed by 40 % on `ingest_durable` at exponent 1, and by 25 %
/// on `probe_warm` (whose unique-index build thrashes the pool) at 0.5;
/// re-scaling those recorded runs, 0.7 keeps every workload within about
/// 15 %. Op latencies follow the kernel one to one (the same sets agree
/// within 4 % at exponent 1 and drift apart below it).
const BUILD_EXPONENT: f64 = 0.7;

/// [`timed`] for set-up-like work: scaled by the host's slowdown to the
/// power [`BUILD_EXPONENT`].
pub fn timed_build<T>(call: impl FnOnce() -> T) -> (u64, T) {
    timed_with(BUILD_EXPONENT, call)
}

/// Times `call` in reference nanoseconds. The host is calibrated before the
/// call unless it was within the last 3 ms, and after it when the call
/// took more than 1.5 ms; calibrations made by timed calls nested inside
/// `call` count too, so a long call is divided by the host's mean slowdown
/// over its whole length.
pub fn timed<T>(call: impl FnOnce() -> T) -> (u64, T) {
    timed_with(1.0, call)
}

fn timed_with<T>(exponent: f64, call: impl FnOnce() -> T) -> (u64, T) {
    with_clock(|c| {
        if c.latest().0.elapsed().as_nanos() > STALE_NS {
            c.calibrate();
        }
    });
    let start = Instant::now();
    let out = std::hint::black_box(call());
    let end = Instant::now();
    let wall_ns = (end - start).as_nanos() as u64;
    let ns = with_clock(|c| {
        if wall_ns > LONG_NS {
            c.calibrate();
        }
        wall_ns as f64 * (REFERENCE_NOMINAL_NS / c.mean_kernel_ns(start, end)).powf(exponent)
    });
    (ns as u64, out)
}

/// Converts a short wall time measured just now (a span inside a timed
/// call) with the latest calibration.
pub fn scale(wall_ns: u64) -> u64 {
    with_clock(|c| (wall_ns as f64 * REFERENCE_NOMINAL_NS / c.latest().1) as u64)
}

/// Allocator calls made by calibrations so far.
pub fn alloc_calls() -> u64 {
    with_clock(|c| c.alloc_calls)
}

/// `(fastest, median, slowest)` kernel time of the run so far, ns — how
/// noisy the host was. Printed to standard error, not a metric.
pub fn kernel_range() -> (f64, f64, f64) {
    with_clock(|c| {
        let mut k: Vec<f64> = c.samples.iter().map(|(_, k)| *k).collect();
        k.sort_by(f64::total_cmp);
        (k[0], k[k.len() / 2], k[k.len() - 1])
    })
}
