//! Resource governance: per-query budgets, cooperative cancellation, and
//! the typed [`GovernanceError`] every bounded query unwinds with.
//!
//! A [`GovCtx`] is the governance analogue of [`crate::TraceCtx`]: an
//! explicitly-threaded handle — no thread-locals — passed from the SQL
//! executor through the operators down to the per-block decode path. The
//! disabled handle ([`GovCtx::unlimited`]) is a `None`; every operation on
//! it is a branch and nothing else, so hot paths thread a context
//! unconditionally and pay only when a budget is live.
//!
//! The budget model ([`QueryBudget`]) bounds four resources:
//!
//! - **wall clock** — a deadline in *virtual* milliseconds, charged to the
//!   workspace's simulated clock (the storage layer's `SimClock` implements
//!   [`NowMs`]); governance never reads real time, in keeping with the
//!   virtual-clock-only rule (`clippy.toml` disallows `Instant::now`).
//! - **decoded bytes** — coded bytes fed through the block decoder.
//! - **rows examined** — tuples materialized by scans (not result rows:
//!   a selective filter still pays for every tuple it inspected).
//! - **memory** — bytes of query-proportional state (decoded runs, join
//!   hash tables) charged/released explicitly, the accounting twin of the
//!   counting-allocator harness that pins the disabled-path overhead.
//!
//! Enforcement is cooperative: operators call [`GovCtx::poll`] at block
//! boundaries and [`GovCtx::charge_decoded`]/[`GovCtx::charge_mem`] as they
//! consume, so a trip is observed within one block of the poll point.
//! Quotas are therefore "at most one block over", never silently under:
//! a tripped query surfaces [`GovernanceError`], not a truncated result.

use crate::names;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Source of virtual time for deadline checks. The storage crate's
/// `SimClock` implements this; governance deliberately has no access to
/// real wall clocks.
pub trait NowMs: Send + Sync {
    /// Current virtual time in milliseconds.
    fn now_ms(&self) -> f64;
}

/// Which quota a [`GovernanceError::QuotaExceeded`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// Coded bytes fed through the block decoder.
    DecodedBytes,
    /// Tuples materialized by scans.
    Rows,
    /// Bytes of query-proportional memory.
    Memory,
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuotaKind::DecodedBytes => "decoded-bytes",
            QuotaKind::Rows => "rows-examined",
            QuotaKind::Memory => "memory",
        })
    }
}

/// Typed terminal outcome of a governed query that did not run to
/// completion. Millisecond fields are rounded virtual milliseconds so the
/// error stays `Eq`-comparable (and cacheable inside `DbError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernanceError {
    /// The virtual-clock deadline passed mid-query.
    Timeout {
        /// Budgeted wall-clock in virtual ms.
        budget_ms: u64,
        /// Virtual ms actually elapsed when the trip was observed.
        elapsed_ms: u64,
    },
    /// The query was cancelled through a [`GovCtx`] handle.
    Cancelled,
    /// A decoded-bytes / rows-examined / memory quota tripped.
    QuotaExceeded {
        /// Which quota tripped.
        kind: QuotaKind,
        /// The configured limit.
        limit: u64,
        /// Consumption observed at the poll that tripped.
        used: u64,
    },
}

impl fmt::Display for GovernanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernanceError::Timeout {
                budget_ms,
                elapsed_ms,
            } => write!(
                f,
                "query timed out: deadline {budget_ms} ms exceeded at {elapsed_ms} ms (virtual)"
            ),
            GovernanceError::Cancelled => write!(f, "query cancelled"),
            GovernanceError::QuotaExceeded { kind, limit, used } => {
                write!(f, "{kind} quota exceeded: used {used} of {limit}")
            }
        }
    }
}

impl std::error::Error for GovernanceError {}

/// Per-query resource limits. `None` means unlimited; the default budget
/// limits nothing, so `QueryBudget::default()` threaded through a query is
/// byte-for-byte equivalent to no governance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryBudget {
    /// Wall-clock deadline in virtual milliseconds from query start.
    pub timeout_ms: Option<f64>,
    /// Cap on coded bytes fed through the decoder.
    pub max_decoded_bytes: Option<u64>,
    /// Cap on tuples materialized by scans.
    pub max_rows: Option<u64>,
    /// Cap on live query-proportional memory bytes.
    pub max_mem_bytes: Option<u64>,
}

impl QueryBudget {
    /// A budget with every limit open.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the virtual-clock deadline, in ms from query start.
    #[must_use]
    pub fn with_timeout_ms(mut self, ms: f64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Sets the decoded-bytes quota.
    #[must_use]
    pub fn with_max_decoded_bytes(mut self, bytes: u64) -> Self {
        self.max_decoded_bytes = Some(bytes);
        self
    }

    /// Sets the rows-examined quota.
    #[must_use]
    pub fn with_max_rows(mut self, rows: u64) -> Self {
        self.max_rows = Some(rows);
        self
    }

    /// Sets the memory budget in bytes.
    #[must_use]
    pub fn with_max_mem_bytes(mut self, bytes: u64) -> Self {
        self.max_mem_bytes = Some(bytes);
        self
    }

    /// True when no limit is set — the caller may skip building a live
    /// context entirely.
    pub fn is_unlimited(&self) -> bool {
        self.timeout_ms.is_none()
            && self.max_decoded_bytes.is_none()
            && self.max_rows.is_none()
            && self.max_mem_bytes.is_none()
    }
}

/// Consumption observed by a [`GovCtx`] so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovUsage {
    /// Coded bytes charged by the decode path.
    pub decoded_bytes: u64,
    /// Tuples charged by scan loops.
    pub rows: u64,
    /// High-water mark of charged memory bytes.
    pub mem_peak_bytes: u64,
    /// Poll-point visits (block boundaries reached).
    pub polls: u64,
}

struct GovInner {
    clock: Arc<dyn NowMs>,
    start_ms: f64,
    /// Absolute virtual deadline; `f64::INFINITY` when no timeout is set.
    deadline_ms: f64,
    budget: QueryBudget,
    decoded_bytes: AtomicU64,
    rows: AtomicU64,
    mem_now: AtomicU64,
    mem_peak: AtomicU64,
    polls: AtomicU64,
    cancelled: AtomicBool,
    /// Set by the first poll that observes a terminal trip, so the
    /// `avq.gov.*` outcome counters count each query once.
    tripped: AtomicBool,
    finished: AtomicBool,
}

impl GovInner {
    /// Records the trip counter exactly once per context.
    fn trip_once(&self, counter: &'static str) {
        if !self.tripped.swap(true, Ordering::Relaxed) {
            crate::global().counter(counter).inc();
        }
    }
}

/// Explicitly-threaded governance context: a shared handle over one
/// query's [`QueryBudget`], consumption counters, and cancellation flag.
///
/// Clones share state, so a clone kept outside the executor is a cancel
/// handle: `ctx.clone()` given to a REPL can
/// [`cancel`](GovCtx::cancel) the query while the original is mid-scan.
/// The disabled handle ([`GovCtx::unlimited`]) makes every method a single
/// branch.
#[derive(Clone, Default)]
pub struct GovCtx {
    inner: Option<Arc<GovInner>>,
}

impl fmt::Debug for GovCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("GovCtx(unlimited)"),
            Some(_) => f
                .debug_struct("GovCtx")
                .field("usage", &self.usage())
                .finish_non_exhaustive(),
        }
    }
}

impl GovCtx {
    /// The disabled context: no budget, never trips, costs one branch per
    /// operation.
    pub fn unlimited() -> Self {
        Self { inner: None }
    }

    /// Builds a live context charging `budget` against `clock` (virtual
    /// time). An all-`None` budget still builds a live context — it can be
    /// cancelled — but callers that want the true zero-cost path should
    /// check [`QueryBudget::is_unlimited`] and use [`GovCtx::unlimited`].
    pub fn new(budget: QueryBudget, clock: Arc<dyn NowMs>) -> Self {
        let start_ms = clock.now_ms();
        let deadline_ms = budget.timeout_ms.map_or(f64::INFINITY, |t| start_ms + t);
        Self {
            inner: Some(Arc::new(GovInner {
                clock,
                start_ms,
                deadline_ms,
                budget,
                decoded_bytes: AtomicU64::new(0),
                rows: AtomicU64::new(0),
                mem_now: AtomicU64::new(0),
                mem_peak: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                tripped: AtomicBool::new(false),
                finished: AtomicBool::new(false),
            })),
        }
    }

    /// True when a budget is live (any clone can trip or be cancelled).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Requests cooperative cancellation: the next [`poll`](GovCtx::poll)
    /// on any clone returns [`GovernanceError::Cancelled`]. No-op on the
    /// disabled context.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// True once [`cancel`](GovCtx::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::Relaxed))
    }

    /// The poll point: checks cancellation, then the virtual-clock
    /// deadline, then each quota. Called at block boundaries, so a trip is
    /// observed within one block of where the resource was consumed.
    #[inline]
    pub fn poll(&self) -> Result<(), GovernanceError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        inner.polls.fetch_add(1, Ordering::Relaxed);
        if inner.cancelled.load(Ordering::Relaxed) {
            inner.trip_once(names::GOV_CANCELLED);
            return Err(GovernanceError::Cancelled);
        }
        let now = inner.clock.now_ms();
        if now > inner.deadline_ms {
            inner.trip_once(names::GOV_TIMEOUTS);
            return Err(GovernanceError::Timeout {
                budget_ms: round_ms(inner.deadline_ms - inner.start_ms),
                elapsed_ms: round_ms(now - inner.start_ms),
            });
        }
        let quota = |kind, limit: Option<u64>, used: u64| -> Result<(), GovernanceError> {
            match limit {
                Some(limit) if used > limit => {
                    inner.trip_once(names::GOV_QUOTA_EXCEEDED);
                    Err(GovernanceError::QuotaExceeded { kind, limit, used })
                }
                _ => Ok(()),
            }
        };
        quota(
            QuotaKind::DecodedBytes,
            inner.budget.max_decoded_bytes,
            inner.decoded_bytes.load(Ordering::Relaxed),
        )?;
        quota(
            QuotaKind::Rows,
            inner.budget.max_rows,
            inner.rows.load(Ordering::Relaxed),
        )?;
        quota(
            QuotaKind::Memory,
            inner.budget.max_mem_bytes,
            inner.mem_now.load(Ordering::Relaxed),
        )?;
        Ok(())
    }

    /// Charges one decoded block: `bytes` coded bytes in, `rows` tuples
    /// out. Enforcement happens at the next [`poll`](GovCtx::poll).
    #[inline]
    pub fn charge_decoded(&self, bytes: u64, rows: u64) {
        if let Some(inner) = &self.inner {
            inner.decoded_bytes.fetch_add(bytes, Ordering::Relaxed);
            inner.rows.fetch_add(rows, Ordering::Relaxed);
        }
    }

    /// Charges `bytes` of query-proportional memory (decoded runs, hash
    /// tables). Pair with [`release_mem`](GovCtx::release_mem) when the
    /// state is dropped.
    #[inline]
    pub fn charge_mem(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            let now = inner.mem_now.fetch_add(bytes, Ordering::Relaxed) + bytes;
            inner.mem_peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Releases memory previously charged with [`charge_mem`](GovCtx::charge_mem).
    #[inline]
    pub fn release_mem(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            let _ = inner
                .mem_now
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(bytes))
                });
        }
    }

    /// Virtual milliseconds left before the deadline; `None` when no
    /// timeout is set (or the context is disabled). Clamped at zero.
    pub fn remaining_ms(&self) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        if inner.deadline_ms.is_finite() {
            Some((inner.deadline_ms - inner.clock.now_ms()).max(0.0))
        } else {
            None
        }
    }

    /// Virtual milliseconds since the context was built (0 when disabled).
    pub fn elapsed_ms(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.clock.now_ms() - i.start_ms)
    }

    /// The budget this context enforces (unlimited when disabled).
    pub fn budget(&self) -> QueryBudget {
        self.inner
            .as_ref()
            .map_or_else(QueryBudget::default, |i| i.budget)
    }

    /// Consumption so far.
    pub fn usage(&self) -> GovUsage {
        self.inner
            .as_ref()
            .map_or_else(GovUsage::default, |i| GovUsage {
                decoded_bytes: i.decoded_bytes.load(Ordering::Relaxed),
                rows: i.rows.load(Ordering::Relaxed),
                mem_peak_bytes: i.mem_peak.load(Ordering::Relaxed),
                polls: i.polls.load(Ordering::Relaxed),
            })
    }

    /// Records the budget-consumed-at-completion histograms
    /// (`avq.gov.budget.decoded_bytes`, `avq.gov.budget.rows`). Idempotent
    /// per context; the query entry point calls this once, whether the
    /// query completed or tripped.
    pub fn finish(&self) {
        if let Some(inner) = &self.inner {
            if !inner.finished.swap(true, Ordering::Relaxed) {
                crate::global()
                    .histogram(names::GOV_BUDGET_DECODED_BYTES)
                    .record(inner.decoded_bytes.load(Ordering::Relaxed));
                crate::global()
                    .histogram(names::GOV_BUDGET_ROWS)
                    .record(inner.rows.load(Ordering::Relaxed));
            }
        }
    }
}

/// Rounds a virtual-ms span to whole ms for `Eq`-safe error payloads.
fn round_ms(ms: f64) -> u64 {
    if ms <= 0.0 {
        0
    } else {
        let r = ms.round();
        if r >= u64::MAX as f64 {
            u64::MAX
        } else {
            r as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test clock: a settable virtual time.
    struct TestClock(std::sync::Mutex<f64>);
    impl TestClock {
        fn new() -> Arc<Self> {
            Arc::new(Self(std::sync::Mutex::new(0.0)))
        }
        fn advance(&self, ms: f64) {
            *self.0.lock().unwrap() += ms;
        }
    }
    impl NowMs for TestClock {
        fn now_ms(&self) -> f64 {
            *self.0.lock().unwrap()
        }
    }

    #[test]
    fn unlimited_context_never_trips() {
        let gov = GovCtx::unlimited();
        gov.charge_decoded(u64::MAX / 2, u64::MAX / 2);
        gov.charge_mem(u64::MAX / 2);
        gov.cancel();
        assert!(gov.poll().is_ok());
        assert!(!gov.is_enabled());
        assert_eq!(gov.usage(), GovUsage::default());
    }

    #[test]
    fn deadline_trips_on_virtual_time() {
        let clock = TestClock::new();
        let gov = GovCtx::new(
            QueryBudget::unlimited().with_timeout_ms(10.0),
            clock.clone(),
        );
        assert!(gov.poll().is_ok());
        clock.advance(10.5);
        assert_eq!(
            gov.poll(),
            Err(GovernanceError::Timeout {
                budget_ms: 10,
                elapsed_ms: 11,
            })
        );
        assert_eq!(gov.remaining_ms(), Some(0.0));
    }

    #[test]
    fn quotas_trip_at_next_poll() {
        let clock = TestClock::new();
        let gov = GovCtx::new(QueryBudget::unlimited().with_max_rows(5), clock);
        gov.charge_decoded(100, 5);
        assert!(gov.poll().is_ok(), "at the limit is not over it");
        gov.charge_decoded(100, 1);
        assert_eq!(
            gov.poll(),
            Err(GovernanceError::QuotaExceeded {
                kind: QuotaKind::Rows,
                limit: 5,
                used: 6,
            })
        );
    }

    #[test]
    fn memory_charges_release_and_track_peak() {
        let clock = TestClock::new();
        let gov = GovCtx::new(QueryBudget::unlimited().with_max_mem_bytes(1000), clock);
        gov.charge_mem(800);
        assert!(gov.poll().is_ok());
        gov.release_mem(700);
        gov.charge_mem(400);
        assert!(gov.poll().is_ok(), "released memory is reusable");
        assert_eq!(gov.usage().mem_peak_bytes, 800);
        gov.charge_mem(600);
        assert!(matches!(
            gov.poll(),
            Err(GovernanceError::QuotaExceeded {
                kind: QuotaKind::Memory,
                ..
            })
        ));
    }

    #[test]
    fn cancel_reaches_all_clones() {
        let clock = TestClock::new();
        let gov = GovCtx::new(QueryBudget::unlimited(), clock);
        let handle = gov.clone();
        assert!(gov.poll().is_ok());
        handle.cancel();
        assert_eq!(gov.poll(), Err(GovernanceError::Cancelled));
        assert!(gov.is_cancelled());
    }

    #[test]
    fn error_rendering_is_stable() {
        assert_eq!(
            GovernanceError::Timeout {
                budget_ms: 100,
                elapsed_ms: 112,
            }
            .to_string(),
            "query timed out: deadline 100 ms exceeded at 112 ms (virtual)"
        );
        assert_eq!(GovernanceError::Cancelled.to_string(), "query cancelled");
        assert_eq!(
            GovernanceError::QuotaExceeded {
                kind: QuotaKind::Rows,
                limit: 1,
                used: 9,
            }
            .to_string(),
            "rows-examined quota exceeded: used 9 of 1"
        );
    }
}
