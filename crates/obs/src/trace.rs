//! Request-scoped structured tracing, layered on the span machinery.
//!
//! The flat metrics in [`crate::Registry`] say how much time each family
//! consumed; this module says *which request* spent it. A [`TraceCollector`]
//! hands out [`TraceCtx`] handles — explicitly threaded through call stacks,
//! no thread-local magic — and every layer that holds one attaches
//! hierarchical [`TraceSpan`] records (name, parent, start/elapsed via
//! [`Stopwatch`], typed attributes such as `blocks_read` or `kernel`).
//! Finished traces land in a bounded ring buffer under a [`SamplingPolicy`];
//! traces whose root span exceeds a configurable latency budget are
//! retroactively promoted to a slow-query log regardless of sampling,
//! together with the SQL text, chosen plan, and per-stage
//! estimated-vs-actual rows captured by [`QueryCapture`].
//!
//! A disabled [`TraceCtx`] (the default) is a `None` — every operation on
//! it is a branch and nothing else, so hot paths thread a context
//! unconditionally and pay only when a trace is live.
//!
//! This module also owns the process-wide span-event fan-out: the sink set
//! installed through [`add_span_sink`] (or the PR 3 compatibility wrapper
//! [`crate::set_span_observer`]) receives enter/exit events from the
//! [`crate::span!`] macro guards. There is exactly one dispatch path —
//! [`SpanGuard`](crate::SpanGuard) calls the same `emit_*` functions the
//! observer hook used to duplicate.
//!
//! # Locking honesty
//!
//! The crate forbids `unsafe`, so the ring buffer is not a single atomic
//! pointer array: slot *claiming* is lock-free (one `fetch_add` on the
//! cursor), and each claimed slot is then swapped under a per-slot mutex
//! held only for the pointer store. Writers never contend on a global lock
//! and never block readers of other slots. Span recording within one trace
//! serializes on that trace's own mutex — traces are per-request, so this
//! is uncontended in the common case.

use crate::names;
use crate::span::{SpanObserver, Stopwatch};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Locks a mutex, recovering the data from a poisoned lock — tracing must
/// never turn a panic elsewhere into a second panic in a `Drop`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `Duration` → nanoseconds, saturating at `u64::MAX`.
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// --- span-event fan-out (the unified SpanObserver path) ---------------------

const MAX_SINKS: usize = 4;

struct SinkSet {
    slots: [OnceLock<Box<dyn SpanObserver>>; MAX_SINKS],
    len: AtomicUsize,
}

static SINKS: SinkSet = SinkSet {
    slots: [const { OnceLock::new() }; MAX_SINKS],
    len: AtomicUsize::new(0),
};

/// Registers a span-event sink. Every sink receives enter/exit events from
/// all [`crate::span!`] guards for the life of the process. Returns `false`
/// when all [`MAX_SINKS`](add_span_sink) slots are taken.
pub fn add_span_sink(sink: Box<dyn SpanObserver>) -> bool {
    let mut sink = sink;
    for (i, slot) in SINKS.slots.iter().enumerate() {
        match slot.set(sink) {
            Ok(()) => {
                // Release: publishes the slot just set; pairs with the
                // Acquire loads of `SINKS.len` in emit_enter/emit_exit, so a
                // thread that sees the new length also sees the sink.
                SINKS.len.fetch_max(i + 1, Ordering::Release);
                return true;
            }
            Err(returned) => sink = returned,
        }
    }
    false
}

/// First-set-wins guard preserving the PR 3 `set_span_observer` contract.
pub(crate) static LEGACY_OBSERVER_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Fans a span-enter event out to every registered sink.
#[inline]
pub(crate) fn emit_enter(name: &'static str) {
    // Acquire: pairs with add_span_sink's Release on `SINKS.len`.
    let n = SINKS.len.load(Ordering::Acquire);
    for slot in &SINKS.slots[..n] {
        if let Some(sink) = slot.get() {
            sink.enter(name);
        }
    }
}

/// Fans a span-exit event out to every registered sink.
#[inline]
pub(crate) fn emit_exit(name: &'static str, elapsed_ns: u64) {
    // Acquire: pairs with add_span_sink's Release on `SINKS.len`.
    let n = SINKS.len.load(Ordering::Acquire);
    for slot in &SINKS.slots[..n] {
        if let Some(sink) = slot.get() {
            sink.exit(name, elapsed_ns);
        }
    }
}

/// Fans a span attribute out to every registered sink.
#[inline]
pub(crate) fn emit_attr(name: &'static str, key: &'static str, value: u64) {
    // Acquire: pairs with add_span_sink's Release on `SINKS.len`.
    let n = SINKS.len.load(Ordering::Acquire);
    for slot in &SINKS.slots[..n] {
        if let Some(sink) = slot.get() {
            sink.attr(name, key, value);
        }
    }
}

// --- trace model ------------------------------------------------------------

/// Identifies one trace (one traced request), unique per collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Index of a span within its trace, in creation order; span `0` is the
/// root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

/// A typed attribute value attached to a [`TraceSpan`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned count (rows, blocks, bytes…).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (cost estimates).
    F64(f64),
    /// Short text (kernel name, plan summary, SQL text).
    Str(String),
    /// Flag (cache hit / miss).
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// Renders the value for the pretty-text exporter: numbers bare,
    /// strings `{:?}`-quoted so attribute lists stay one line.
    fn text(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) => format!("{v}"),
            AttrValue::Str(v) => format!("{v:?}"),
            AttrValue::Bool(v) => v.to_string(),
        }
    }

    /// Renders the value as a JSON scalar.
    fn json(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) if v.is_finite() => format!("{v}"),
            AttrValue::F64(v) => format!("\"{v}\""),
            AttrValue::Str(v) => format!("\"{}\"", json_escape(v)),
            AttrValue::Bool(v) => v.to_string(),
        }
    }
}

/// One node of a trace's span tree.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Span name — a [`crate::names`] constant (AVQ-L004 enforces this).
    pub name: &'static str,
    /// Parent span, or `None` for the root.
    pub parent: Option<SpanId>,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall time between open and close, nanoseconds.
    pub elapsed_ns: u64,
    /// Typed attributes, in attachment order. Keys are
    /// [`crate::names`] `ATTR_*` constants.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Per-stage estimated-vs-actual row counts captured for the slow-query
/// log, one entry per plan node in pre-order.
#[derive(Debug, Clone)]
pub struct StageRows {
    /// Human-readable plan-node label (`scan people via full-scan`).
    pub label: String,
    /// Planner cardinality estimate.
    pub est_rows: u64,
    /// Rows the executor actually produced.
    pub actual_rows: u64,
}

/// What the SQL layer knew about a traced statement: enough for the
/// slow-query log to explain *why* a query was slow.
#[derive(Debug, Clone, Default)]
pub struct QueryCapture {
    /// The statement text as submitted.
    pub sql: String,
    /// The chosen physical plan's one-line summary.
    pub plan: String,
    /// Estimated-vs-actual rows per plan node.
    pub stages: Vec<StageRows>,
}

/// Mutable state of a live trace, behind the trace's own mutex.
struct TraceState {
    epoch: Stopwatch,
    spans: Vec<TraceSpan>,
    /// Stack of open span indices; the top is the parent of new spans.
    open: Vec<u32>,
    query: Option<QueryCapture>,
}

struct ActiveTrace {
    id: TraceId,
    state: Mutex<TraceState>,
}

/// A trace context, threaded explicitly through the layers of a request.
///
/// Cloning is cheap (an `Option<Arc>`); the disabled context is the
/// [`Default`] and makes every operation a no-op branch.
#[derive(Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<ActiveTrace>>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(t) => write!(f, "TraceCtx(trace {})", t.id.0),
            None => write!(f, "TraceCtx(disabled)"),
        }
    }
}

impl TraceCtx {
    /// The no-op context: records nothing, allocates nothing.
    pub fn disabled() -> TraceCtx {
        TraceCtx { inner: None }
    }

    /// True when a trace is live and spans will be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The live trace's id, if any.
    pub fn id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|t| t.id)
    }

    /// Opens a child span of the innermost open span (or the root, when no
    /// span is open). The returned guard closes it on drop.
    #[inline]
    pub fn span(&self, name: &'static str) -> TraceSpanGuard {
        let Some(active) = &self.inner else {
            return TraceSpanGuard {
                trace: None,
                idx: 0,
            };
        };
        let mut st = lock(&active.state);
        let start_ns = dur_ns(st.epoch.elapsed());
        let parent = st.open.last().map(|&i| SpanId(i));
        let idx = st.spans.len() as u32;
        st.spans.push(TraceSpan {
            name,
            parent,
            start_ns,
            elapsed_ns: 0,
            attrs: Vec::new(),
        });
        st.open.push(idx);
        TraceSpanGuard {
            trace: Some(Arc::clone(active)),
            idx,
        }
    }

    /// Records an already-measured span retroactively: a child of the
    /// innermost open span that ended *now* and lasted `elapsed`. Used by
    /// executors that time stages with their own [`Stopwatch`].
    pub fn complete_span(
        &self,
        name: &'static str,
        elapsed: Duration,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let Some(active) = &self.inner else { return };
        let mut st = lock(&active.state);
        let end_ns = dur_ns(st.epoch.elapsed());
        let elapsed_ns = dur_ns(elapsed);
        let parent = st.open.last().map(|&i| SpanId(i));
        st.spans.push(TraceSpan {
            name,
            parent,
            start_ns: end_ns.saturating_sub(elapsed_ns),
            elapsed_ns,
            attrs,
        });
    }

    /// Attaches the statement text and plan summary for the slow-query log.
    pub fn set_query(&self, sql: &str, plan: &str) {
        let Some(active) = &self.inner else { return };
        let mut st = lock(&active.state);
        let q = st.query.get_or_insert_with(QueryCapture::default);
        q.sql = sql.to_owned();
        q.plan = plan.to_owned();
    }

    /// Attaches per-stage estimated-vs-actual rows for the slow-query log.
    pub fn set_stage_rows(&self, stages: Vec<StageRows>) {
        let Some(active) = &self.inner else { return };
        let mut st = lock(&active.state);
        st.query.get_or_insert_with(QueryCapture::default).stages = stages;
    }
}

/// RAII guard for an open [`TraceCtx::span`]. Closes the span (recording
/// elapsed time) on drop; attach attributes through [`Self::attr`].
pub struct TraceSpanGuard {
    trace: Option<Arc<ActiveTrace>>,
    idx: u32,
}

impl std::fmt::Debug for TraceSpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.trace {
            Some(t) => write!(f, "TraceSpanGuard(trace {}, span {})", t.id.0, self.idx),
            None => write!(f, "TraceSpanGuard(disabled)"),
        }
    }
}

impl TraceSpanGuard {
    /// True when this guard belongs to a live trace.
    pub fn is_recording(&self) -> bool {
        self.trace.is_some()
    }

    /// Attaches a typed attribute to this span. `key` must be a
    /// [`crate::names`] `ATTR_*` constant (AVQ-L004 enforces this).
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        let Some(active) = &self.trace else { return };
        let mut st = lock(&active.state);
        let idx = self.idx as usize;
        if let Some(span) = st.spans.get_mut(idx) {
            span.attrs.push((key, value.into()));
        }
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        let Some(active) = &self.trace else { return };
        let mut st = lock(&active.state);
        let now_ns = dur_ns(st.epoch.elapsed());
        let idx = self.idx;
        if let Some(span) = st.spans.get_mut(idx as usize) {
            span.elapsed_ns = now_ns.saturating_sub(span.start_ns);
        }
        // Defensive: drop order is LIFO in straight-line code, but a guard
        // held across an early return may close out of order.
        st.open.retain(|&i| i != idx);
    }
}

// --- collector --------------------------------------------------------------

/// Which finished traces the collector keeps in its ring buffer.
///
/// The decision is made at [`TraceCollector::finish`] time, so
/// threshold-triggered sampling can consult the root span's measured
/// latency. The slow-query log is independent of sampling: over-budget
/// traces are promoted even when the policy drops them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPolicy {
    /// Keep every trace.
    Always,
    /// Keep one trace in `n` (by trace id; `0` and `1` keep every trace).
    OneIn(u64),
    /// Keep only traces whose root span took at least this long.
    SlowerThan(Duration),
}

/// Slow-query log capacity: old entries fall off the front.
const SLOW_LOG_CAP: usize = 32;

/// A bounded ring buffer of finished traces plus the slow-query log.
///
/// `begin` hands out a live [`TraceCtx`]; `finish` applies the sampling
/// policy, stores kept traces in the ring (overwriting the oldest slot),
/// and retroactively promotes over-budget traces to the slow-query log.
pub struct TraceCollector {
    slots: Vec<Mutex<Option<Arc<TraceData>>>>,
    cursor: AtomicU64,
    seq: AtomicU64,
    policy: SamplingPolicy,
    /// Root-span latency budget in ns; `u64::MAX` disables the slow log.
    slow_budget_ns: AtomicU64,
    slow: Mutex<VecDeque<Arc<TraceData>>>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("capacity", &self.slots.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl TraceCollector {
    /// A collector with `capacity` ring slots (at least one) under `policy`.
    /// The slow-query log starts disabled; see [`Self::set_slow_budget`].
    pub fn new(capacity: usize, policy: SamplingPolicy) -> TraceCollector {
        let capacity = capacity.max(1);
        TraceCollector {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            policy,
            slow_budget_ns: AtomicU64::new(u64::MAX),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Enables the slow-query log: any trace whose root span takes at least
    /// `budget` is promoted, regardless of the sampling policy.
    pub fn set_slow_budget(&self, budget: Duration) {
        self.slow_budget_ns.store(dur_ns(budget), Ordering::Relaxed);
    }

    /// Builder form of [`Self::set_slow_budget`].
    #[must_use]
    pub fn with_slow_budget(self, budget: Duration) -> TraceCollector {
        self.set_slow_budget(budget);
        self
    }

    /// The collector's sampling policy.
    pub fn policy(&self) -> SamplingPolicy {
        self.policy
    }

    /// Starts a new trace and returns its live context.
    pub fn begin(&self) -> TraceCtx {
        crate::counter!(names::TRACE_STARTED).inc();
        let id = TraceId(self.seq.fetch_add(1, Ordering::Relaxed) + 1);
        TraceCtx {
            inner: Some(Arc::new(ActiveTrace {
                id,
                state: Mutex::new(TraceState {
                    epoch: Stopwatch::start(),
                    spans: Vec::new(),
                    open: Vec::new(),
                    query: None,
                }),
            })),
        }
    }

    /// Finishes a trace: closes any still-open spans, applies the sampling
    /// policy, stores kept traces in the ring, and promotes over-budget
    /// traces to the slow-query log. Returns the trace data when the
    /// sampling policy kept it (a disabled context returns `None`).
    pub fn finish(&self, ctx: TraceCtx) -> Option<Arc<TraceData>> {
        let active = ctx.inner?;
        let (spans, query, root_ns) = {
            let mut st = lock(&active.state);
            let now_ns = dur_ns(st.epoch.elapsed());
            let open = std::mem::take(&mut st.open);
            for idx in open {
                if let Some(span) = st.spans.get_mut(idx as usize) {
                    span.elapsed_ns = now_ns.saturating_sub(span.start_ns);
                }
            }
            let spans = std::mem::take(&mut st.spans);
            let root_ns = spans.first().map_or(0, |s| s.elapsed_ns);
            (spans, st.query.take(), root_ns)
        };
        let data = Arc::new(TraceData {
            id: active.id,
            spans,
            query,
        });
        let kept = match self.policy {
            SamplingPolicy::Always => true,
            SamplingPolicy::OneIn(n) => n <= 1 || (data.id.0 - 1).is_multiple_of(n),
            SamplingPolicy::SlowerThan(d) => root_ns >= dur_ns(d),
        };
        if kept {
            crate::counter!(names::TRACE_SAMPLED).inc();
            let slot = (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
            *lock(&self.slots[slot]) = Some(Arc::clone(&data));
        } else {
            crate::counter!(names::TRACE_DROPPED).inc();
        }
        if root_ns >= self.slow_budget_ns.load(Ordering::Relaxed) {
            crate::counter!(names::TRACE_SLOW).inc();
            let mut slow = lock(&self.slow);
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(Arc::clone(&data));
        }
        kept.then_some(data)
    }

    /// Traces currently held in the ring, oldest first.
    pub fn recent(&self) -> Vec<Arc<TraceData>> {
        let mut out: Vec<Arc<TraceData>> =
            self.slots.iter().filter_map(|s| lock(s).clone()).collect();
        out.sort_by_key(|t| t.id);
        out
    }

    /// The slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<Arc<TraceData>> {
        lock(&self.slow).iter().cloned().collect()
    }
}

// --- finished traces and exporters ------------------------------------------

/// A finished trace: the span tree plus the optional query capture.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Trace id assigned by [`TraceCollector::begin`].
    pub id: TraceId,
    /// Spans in creation order; span `0` is the root.
    pub spans: Vec<TraceSpan>,
    /// SQL capture, when the SQL layer ran under this trace.
    pub query: Option<QueryCapture>,
}

/// Formats nanoseconds for humans (`850ns`, `12.3µs`, `4.56ms`, `1.20s`).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Escapes a string for a JSON double-quoted literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TraceData {
    /// Children of `parent` (or roots for `None`), in creation order.
    fn children(&self, parent: Option<u32>) -> impl Iterator<Item = (u32, &TraceSpan)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent.map(|p| p.0) == parent)
            .map(|(i, s)| (i as u32, s))
    }

    /// The root span's elapsed time in nanoseconds (0 for an empty trace).
    pub fn root_ns(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.elapsed_ns)
    }

    /// Pretty-text span tree. With `redact` every duration renders as `-`,
    /// so golden tests can pin the exact output.
    pub fn render_text(&self, redact: bool) -> String {
        let mut out = String::new();
        let root = if redact {
            "-".to_owned()
        } else {
            fmt_ns(self.root_ns())
        };
        let _ = writeln!(
            out,
            "trace {} ({} spans, root {})",
            self.id.0,
            self.spans.len(),
            root
        );
        for (idx, span) in self.children(None) {
            self.render_text_node(&mut out, idx, span, 0, redact);
        }
        out
    }

    fn render_text_node(
        &self,
        out: &mut String,
        idx: u32,
        span: &TraceSpan,
        depth: usize,
        redact: bool,
    ) {
        let t = if redact {
            "-".to_owned()
        } else {
            fmt_ns(span.elapsed_ns)
        };
        let _ = write!(
            out,
            "{:indent$}-> {} ({t})",
            "",
            span.name,
            indent = depth * 2
        );
        for (key, value) in &span.attrs {
            let _ = write!(out, " {key}={}", value.text());
        }
        out.push('\n');
        for (child_idx, child) in self.children(Some(idx)) {
            self.render_text_node(out, child_idx, child, depth + 1, redact);
        }
    }

    /// JSONL export: one JSON object per span, one span per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.0.to_string());
            let _ = write!(
                out,
                "{{\"trace\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"elapsed_ns\":{},\"attrs\":{{",
                self.id.0,
                json_escape(span.name),
                span.start_ns,
                span.elapsed_ns,
            );
            for (j, (key, value)) in span.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(key), value.json());
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto): complete
    /// (`"ph":"X"`) events with microsecond timestamps.
    pub fn render_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"avq\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
                json_escape(span.name),
                span.start_ns as f64 / 1e3,
                span.elapsed_ns as f64 / 1e3,
                self.id.0,
            );
            for (j, (key, value)) in span.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(key), value.json());
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Slow-query report: SQL text, plan summary, estimated-vs-actual rows
    /// per plan node, then the span tree. `redact` as in
    /// [`Self::render_text`].
    pub fn render_slow(&self, redact: bool) -> String {
        let mut out = String::new();
        let root = if redact {
            "-".to_owned()
        } else {
            fmt_ns(self.root_ns())
        };
        let _ = writeln!(out, "slow query: trace {} (root {root})", self.id.0);
        if let Some(q) = &self.query {
            let _ = writeln!(out, "sql: {}", q.sql);
            let _ = writeln!(out, "plan: {}", q.plan);
            if !q.stages.is_empty() {
                let width = q
                    .stages
                    .iter()
                    .map(|s| s.label.len())
                    .max()
                    .unwrap_or(0)
                    .max("node".len());
                let _ = writeln!(out, "{:width$}  est_rows  actual_rows", "node");
                for s in &q.stages {
                    let _ = writeln!(
                        out,
                        "{:width$}  {:>8}  {:>11}",
                        s.label, s.est_rows, s.actual_rows
                    );
                }
            }
        }
        out.push_str(&self.render_text(redact));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> TraceCollector {
        TraceCollector::new(4, SamplingPolicy::Always)
    }

    #[test]
    fn disabled_ctx_is_inert() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        assert!(ctx.id().is_none());
        let g = ctx.span("anything");
        assert!(!g.is_recording());
        g.attr("rows", 1u64);
        ctx.complete_span("x", Duration::from_nanos(5), Vec::new());
        ctx.set_query("q", "p");
        drop(g);
    }

    #[test]
    fn spans_nest_and_attrs_attach() {
        let c = collector();
        let ctx = c.begin();
        {
            let root = ctx.span("root");
            root.attr("rows", 3u64);
            {
                let child = ctx.span("child");
                child.attr("kernel", "swar");
                let _grand = ctx.span("grand");
            }
            let _sibling = ctx.span("sibling");
        }
        let data = c.finish(ctx).expect("always-sampled");
        assert_eq!(data.spans.len(), 4);
        assert_eq!(data.spans[0].parent, None);
        assert_eq!(data.spans[1].parent, Some(SpanId(0)));
        assert_eq!(data.spans[2].parent, Some(SpanId(1)));
        assert_eq!(data.spans[3].parent, Some(SpanId(0)));
        assert_eq!(data.spans[0].attrs[0].0, "rows");
        assert_eq!(data.spans[1].attrs[0].1, AttrValue::Str("swar".into()));
        assert!(data.spans[0].elapsed_ns >= data.spans[1].elapsed_ns);
    }

    #[test]
    fn complete_span_backdates() {
        let c = collector();
        let ctx = c.begin();
        {
            let _root = ctx.span("root");
            ctx.complete_span(
                "stage",
                Duration::from_micros(10),
                vec![("rows", AttrValue::U64(7))],
            );
        }
        let data = c.finish(ctx).unwrap();
        assert_eq!(data.spans[1].parent, Some(SpanId(0)));
        assert_eq!(data.spans[1].elapsed_ns, 10_000);
        assert_eq!(data.spans[1].attrs, vec![("rows", AttrValue::U64(7))]);
    }

    #[test]
    fn one_in_n_sampling_keeps_every_nth() {
        let c = TraceCollector::new(8, SamplingPolicy::OneIn(3));
        let mut kept = 0;
        for _ in 0..9 {
            let ctx = c.begin();
            {
                let _g = ctx.span("root");
            }
            if c.finish(ctx).is_some() {
                kept += 1;
            }
        }
        assert_eq!(kept, 3);
        assert_eq!(c.recent().len(), 3);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let c = TraceCollector::new(2, SamplingPolicy::Always);
        for _ in 0..5 {
            let ctx = c.begin();
            {
                let _g = ctx.span("root");
            }
            c.finish(ctx);
        }
        let recent = c.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, TraceId(4));
        assert_eq!(recent[1].id, TraceId(5));
    }

    #[test]
    fn slow_budget_promotes_regardless_of_sampling() {
        // Sampling drops everything; the zero budget promotes everything.
        let c = TraceCollector::new(2, SamplingPolicy::SlowerThan(Duration::from_secs(3600)))
            .with_slow_budget(Duration::ZERO);
        let ctx = c.begin();
        ctx.set_query("select 1", "full-scan");
        {
            let _g = ctx.span("root");
        }
        assert!(c.finish(ctx).is_none(), "sampling should drop it");
        let slow = c.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].query.as_ref().unwrap().sql, "select 1");
    }

    #[test]
    fn finish_closes_leaked_spans() {
        let c = collector();
        let ctx = c.begin();
        let g = ctx.span("root");
        std::mem::forget(g);
        let data = c.finish(ctx).unwrap();
        // elapsed was backfilled at finish time.
        assert_eq!(data.spans.len(), 1);
        assert!(data.root_ns() > 0 || data.spans[0].elapsed_ns == 0);
    }

    #[test]
    fn text_render_shape() {
        let c = collector();
        let ctx = c.begin();
        {
            let root = ctx.span("root.span");
            root.attr("kernel", "swar");
            let _child = ctx.span("child.span");
        }
        let data = c.finish(ctx).unwrap();
        let text = data.render_text(true);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "trace 1 (2 spans, root -)");
        assert_eq!(lines[1], "-> root.span (-) kernel=\"swar\"");
        assert_eq!(lines[2], "  -> child.span (-)");
    }

    #[test]
    fn jsonl_one_line_per_span() {
        let c = collector();
        let ctx = c.begin();
        {
            let g = ctx.span("a");
            g.attr("rows", 2u64);
            let _child = ctx.span("b");
        }
        let data = c.finish(ctx).unwrap();
        let jsonl = data.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"a\""));
        assert!(lines[0].contains("\"attrs\":{\"rows\":2}"));
        assert!(lines[1].contains("\"parent\":0"));
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let c = collector();
        let ctx = c.begin();
        ctx.set_query("select \"quoted\"", "p");
        {
            let g = ctx.span("root");
            g.attr("plan_summary", "full-scan \"x\"\n");
            let _child = ctx.span("child");
        }
        let data = c.finish(ctx).unwrap();
        let chrome = data.render_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        // Cheap structural validity: braces/brackets balance and quotes pair
        // up outside escapes.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escape = false;
        for ch in chrome.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if ch == '\\' {
                    escape = true;
                } else if ch == '"' {
                    in_str = false;
                }
                continue;
            }
            match ch {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn slow_report_contains_capture() {
        let c = collector().with_slow_budget(Duration::ZERO);
        let ctx = c.begin();
        ctx.set_query("select * from t", "full-scan");
        ctx.set_stage_rows(vec![StageRows {
            label: "scan t".into(),
            est_rows: 100,
            actual_rows: 42,
        }]);
        {
            let _g = ctx.span("root");
        }
        c.finish(ctx);
        let slow = c.slow_queries();
        let report = slow[0].render_slow(true);
        assert!(report.contains("sql: select * from t"));
        assert!(report.contains("plan: full-scan"));
        assert!(report.contains("scan t"));
        assert!(report.contains("100"));
        assert!(report.contains("42"));
    }

    #[test]
    fn concurrent_span_recording_is_safe() {
        let c = Arc::new(collector());
        let ctx = c.begin();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let g = ctx.span("worker");
                        g.attr("rows", 1u64);
                    }
                });
            }
        });
        let data = c.finish(ctx).unwrap();
        assert_eq!(data.spans.len(), 400);
    }
}
