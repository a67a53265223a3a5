//! `avq-obs` — the unified observability layer for the AVQ workspace.
//!
//! A zero-dependency metrics core shared by every crate in the workspace:
//!
//! - [`Counter`] / [`Gauge`] — single relaxed atomics.
//! - [`Histogram`] — 65 fixed base-2 log-scale buckets with lock-free
//!   recording and p50/p95/p99/max estimates exact to one bucket width.
//! - [`Registry`] — namespaced get-or-register metric store; [`global()`]
//!   is the process-wide instance everything reports to.
//! - [`span!`] — RAII timing guards that record elapsed nanoseconds into a
//!   histogram named `<span>.ns`, with an optional [`SpanObserver`] hook
//!   for bridging into external tracing backends.
//! - [`Snapshot`] — owned registry state with `since()` deltas and
//!   Prometheus-text / JSON renderers, used by `avqtool stats`, the
//!   `--metrics-out` flag, and the bench harness.
//! - [`trace`] — request-scoped structured tracing: explicitly-threaded
//!   [`TraceCtx`] span trees with typed attributes, a sampling
//!   ring-buffer [`TraceCollector`], a slow-query log, and pretty-text /
//!   JSONL / Chrome-trace exporters (`avqtool sql --trace`).
//! - [`gov`] — per-query resource governance: explicitly-threaded
//!   [`GovCtx`] budgets (virtual-clock deadline, decoded-bytes / rows /
//!   memory quotas), cooperative cancellation polled at block boundaries,
//!   and the typed [`GovernanceError`] a tripped query unwinds with.
//! - [`QueryCtx`] — the one context a query threads through the engine:
//!   its [`TraceCtx`] and its [`GovCtx`] side by side, so every operation
//!   is one function taking one `&QueryCtx` instead of a
//!   plain/traced/governed family.
//!
//! # Naming scheme
//!
//! Metric names are dot-namespaced by layer: `avq.codec.*`,
//! `avq.storage.pool.*`, `avq.storage.cache.*`, `avq.wal.*`, `avq.db.*`.
//! Span histograms end in `.ns`. The Prometheus renderer rewrites `.` to
//! `_` (`avq.wal.fsync.ns` → `avq_wal_fsync_ns`).
//!
//! # Hot-path cost
//!
//! The [`counter!`]/[`gauge!`]/[`histogram!`] macros cache their registry
//! handle in a per-call-site `OnceLock`, so steady-state cost is one atomic
//! load plus the metric update itself — no locking, no allocation, no map
//! lookup.

#![allow(
    clippy::disallowed_methods,
    reason = "avq-obs owns the real clock: `Stopwatch` and spans read `Instant::now`"
)]

pub mod gov;
mod metric;
pub mod names;
mod registry;
mod span;
pub mod trace;

pub use gov::{GovCtx, GovUsage, GovernanceError, NowMs, QueryBudget, QuotaKind};
pub use metric::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use registry::{global, Registry, Snapshot};
pub use span::{set_span_observer, SpanGuard, SpanObserver, Stopwatch};
pub use trace::{
    add_span_sink, AttrValue, QueryCapture, SamplingPolicy, SpanId, StageRows, TraceCollector,
    TraceCtx, TraceData, TraceId, TraceSpan, TraceSpanGuard,
};

/// Everything a query carries through the engine: where its spans go and
/// what it may spend. The [`Default`] records nothing and limits nothing —
/// both halves are `None` handles costing one branch per use — and clones
/// share the live trace and budget, so a clone kept by the caller is the
/// query's cancel handle.
#[derive(Debug, Clone, Default)]
pub struct QueryCtx {
    /// Span recording for this query ([`TraceCtx::disabled`] by default).
    pub trace: TraceCtx,
    /// Budget, quotas and cancellation ([`GovCtx::unlimited`] by default).
    pub gov: GovCtx,
}

impl From<TraceCtx> for QueryCtx {
    /// An unlimited query recording into `trace`.
    fn from(trace: TraceCtx) -> Self {
        QueryCtx {
            trace,
            gov: GovCtx::unlimited(),
        }
    }
}

impl From<GovCtx> for QueryCtx {
    /// An untraced query running under `gov`.
    fn from(gov: GovCtx) -> Self {
        QueryCtx {
            trace: TraceCtx::disabled(),
            gov,
        }
    }
}
