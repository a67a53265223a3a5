//! RAII timing spans and the handle-caching macros.
//!
//! `span!("avq.codec.decode_block")` opens a [`SpanGuard`] that records the
//! elapsed wall time (nanoseconds) into the histogram named
//! `avq.codec.decode_block.ns` when dropped. The histogram handle is cached
//! in a per-call-site static, so entering a span costs one `OnceLock` load,
//! one `Instant::now`, and (on drop) one histogram record — cheap enough
//! for per-block hot paths.
//!
//! Span enter/exit events fan out to the sink set owned by
//! [`crate::trace`] — the same path the structured-tracing subsystem uses
//! — via [`crate::trace::add_span_sink`]. [`set_span_observer`] survives as
//! the PR 3 compatibility wrapper (first call wins, later calls return
//! `false`); observer bridges are just trace sinks now, so there is a
//! single dispatch path instead of the old dedicated `OBSERVER` slot.

use crate::metric::Histogram;
use crate::trace;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A wall-clock stopwatch for ad-hoc stage timing (e.g. `EXPLAIN ANALYZE`).
///
/// The AVQ workspace confines raw `std::time` reads to this crate and the
/// bench harness (`clippy.toml` disallows them elsewhere): engine code
/// that needs real elapsed time goes through [`Stopwatch`] or
/// [`crate::span!`], and code that charges simulated 1994-disk time uses
/// the storage crate's virtual clock instead.
///
/// A watch made by [`Stopwatch::start_if`] with `false` is *inert*: it never
/// reads the clock and every reading is zero, so a loop that times its
/// phases only for a reader who asks pays one branch per lap otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            start: Some(Instant::now()),
        }
    }

    /// Starts timing now when `timed`, else an inert watch that reads zero.
    #[inline]
    pub fn start_if(timed: bool) -> Self {
        Stopwatch {
            start: timed.then(Instant::now),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`] (zero when inert).
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |s| s.elapsed())
    }

    /// Time since the start or the previous lap, restarting the watch —
    /// one clock read splits a loop into consecutive phases (none, and
    /// zero, when inert).
    #[inline]
    pub fn lap(&mut self) -> Duration {
        let Some(start) = &mut self.start else {
            return Duration::ZERO;
        };
        let now = Instant::now();
        let lap = now.saturating_duration_since(*start);
        *start = now;
        lap
    }
}

/// Receives span lifecycle events. Implement this to bridge spans into an
/// external tracing system (e.g. a `tracing`-subscriber adapter).
pub trait SpanObserver: Send + Sync {
    /// Called when a span is entered.
    fn enter(&self, name: &'static str);
    /// Called when a span closes, with its elapsed time in nanoseconds.
    fn exit(&self, name: &'static str, elapsed_ns: u64);
    /// Called with an attribute of the open span `name` (see
    /// [`SpanGuard::attr`]); ignored unless a sink wants it.
    fn attr(&self, _name: &'static str, _key: &'static str, _value: u64) {}
}

/// Installs the process-wide span observer as a trace sink. Only the first
/// call wins; returns `false` if an observer was already installed (or the
/// sink set is full). New code should call [`crate::trace::add_span_sink`]
/// directly, which supports more than one sink.
pub fn set_span_observer(observer: Box<dyn SpanObserver>) -> bool {
    // SeqCst: a one-time install racing from any thread must have a single
    // winner in one total order; the cost is paid once per process.
    if trace::LEGACY_OBSERVER_INSTALLED.swap(true, Ordering::SeqCst) {
        return false;
    }
    trace::add_span_sink(observer)
}

/// An open timing span. Records its elapsed time into `hist` when dropped.
/// Created by the [`crate::span!`] macro; construct directly only in tests.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    name: &'static str,
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span that records into `hist` on drop.
    #[inline]
    pub fn enter(name: &'static str, hist: &'a Histogram) -> Self {
        trace::emit_enter(name);
        SpanGuard {
            name,
            hist,
            start: Instant::now(),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Hands every span sink an attribute of this span: a count its work
    /// produced (a [`crate::names`] `ATTR_*` key).
    pub fn attr(&self, key: &'static str, value: u64) {
        trace::emit_attr(self.name, key, value);
    }
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        trace::emit_exit(self.name, ns);
    }
}

/// Returns a cached `&'static` handle to the global counter `$name`.
/// The registry is consulted once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        let h: &'static $crate::Counter = HANDLE.get_or_init(|| $crate::global().counter($name));
        h
    }};
}

/// Returns a cached `&'static` handle to the global gauge `$name`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        let h: &'static $crate::Gauge = HANDLE.get_or_init(|| $crate::global().gauge($name));
        h
    }};
}

/// Returns a cached `&'static` handle to the global histogram `$name`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let h: &'static $crate::Histogram =
            HANDLE.get_or_init(|| $crate::global().histogram($name));
        h
    }};
}

/// Opens a timing span: `let _g = span!(names::SPAN_WAL_FSYNC);` records
/// elapsed nanoseconds into the global histogram `avq.wal.fsync.ns` when
/// `_g` drops. The name may be any `&'static str` expression — typically a
/// [`crate::names`] constant — not just a literal; the `.ns` histogram
/// handle is resolved once per call site and cached.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let h: &'static $crate::Histogram = HANDLE.get_or_init(|| {
            let mut n = ::std::string::String::from($name);
            n.push_str(".ns");
            $crate::global().histogram(&n)
        });
        $crate::SpanGuard::enter($name, h)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn guard_records_elapsed_on_drop() {
        let h = Histogram::new();
        {
            let _g = SpanGuard::enter("test.span", &h);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 1_000_000, "at least 1ms recorded, got {}", s.sum);
    }

    #[test]
    fn span_macro_reuses_one_global_histogram() {
        {
            let _a = crate::span!("avq.obs.test.spanmacro");
        }
        {
            let _b = crate::span!("avq.obs.test.spanmacro");
        }
        let snap = crate::global().snapshot();
        let h = &snap.histograms["avq.obs.test.spanmacro.ns"];
        assert!(h.count >= 2);
    }

    #[test]
    fn stopwatch_measures_elapsed() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn an_inert_stopwatch_reads_zero() {
        let mut sw = Stopwatch::start_if(false);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(sw.lap(), Duration::ZERO);
        assert_eq!(sw.elapsed(), Duration::ZERO);
        let mut sw = Stopwatch::start_if(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sw.lap() >= Duration::from_millis(1));
    }

    #[test]
    fn span_macro_accepts_const_names() {
        const NAME: &str = "avq.obs.test.constspan";
        {
            let _g = crate::span!(NAME);
        }
        let snap = crate::global().snapshot();
        assert!(snap.histograms["avq.obs.test.constspan.ns"].count >= 1);
    }

    #[test]
    fn counter_macro_caches_handle() {
        crate::counter!("avq.obs.test.counter").add(3);
        crate::counter!("avq.obs.test.counter").add(4);
        assert!(crate::global().counter("avq.obs.test.counter").get() >= 7);
    }

    struct CountingObserver {
        enters: AtomicU64,
        exits: AtomicU64,
        attrs: AtomicU64,
    }

    impl SpanObserver for CountingObserver {
        fn enter(&self, _name: &'static str) {
            self.enters.fetch_add(1, Ordering::Relaxed);
        }
        fn exit(&self, _name: &'static str, elapsed_ns: u64) {
            // Elapsed is a real measurement, not a sentinel.
            assert!(elapsed_ns < u64::MAX);
            self.exits.fetch_add(1, Ordering::Relaxed);
        }
        fn attr(&self, name: &'static str, key: &'static str, value: u64) {
            if (name, key) == ("avq.obs.test.observed", "items") {
                self.attrs.fetch_add(value, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn observer_sees_enter_and_exit() {
        // The observer slot is process-global and first-set-wins; this is
        // the only test in the crate that installs one.
        let obs = Box::leak(Box::new(CountingObserver {
            enters: AtomicU64::new(0),
            exits: AtomicU64::new(0),
            attrs: AtomicU64::new(0),
        }));
        assert!(set_span_observer(Box::new(ObserverRef(obs))));
        {
            let g = crate::span!("avq.obs.test.observed");
            g.attr("items", 5);
        }
        assert!(obs.enters.load(Ordering::Relaxed) >= 1);
        assert_eq!(obs.attrs.load(Ordering::Relaxed), 5, "attribute forwarded");
        assert!(obs.exits.load(Ordering::Relaxed) >= 1);
        // Second install is rejected.
        assert!(!set_span_observer(Box::new(ObserverRef(obs))));
    }

    struct ObserverRef(&'static CountingObserver);

    impl SpanObserver for ObserverRef {
        fn enter(&self, name: &'static str) {
            self.0.enter(name);
        }
        fn exit(&self, name: &'static str, elapsed_ns: u64) {
            self.0.exit(name, elapsed_ns);
        }
        fn attr(&self, name: &'static str, key: &'static str, value: u64) {
            self.0.attr(name, key, value);
        }
    }
}
