//! The metric registry: namespaced get-or-register handles, point-in-time
//! snapshots, deltas, and the two export formats (Prometheus text, JSON).
//!
//! Metric names are dot-namespaced (`avq.codec.decode.blocks`); the
//! Prometheus renderer maps them to the legal charset
//! (`avq_codec_decode_blocks`). Handles are `Arc`s — call sites cache them
//! (see the [`crate::counter!`]/[`crate::histogram!`] macros) so the hot
//! path never touches the registry lock.

use crate::metric::{bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// A namespace-keyed collection of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    // Lock order: counters, gauges, histograms — `snapshot`'s three read
    // guards are tail-expression temporaries and overlap in that order;
    // every other method holds one at a time, and nothing else is ever
    // taken under them. Callers may hold their own latch: a call site's
    // first `counter!` inside the buffer pool or the decoded cache resolves
    // its handle here under that `inner` mutex.
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide registry every `avq.*` instrument reports to.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// Creates an empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("registry poisoned").get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("registry poisoned")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("registry poisoned").get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .expect("registry poisoned")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("registry poisoned").get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .expect("registry poisoned")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (benchmark iterations; registration
    /// is kept so cached handles stay valid).
    pub fn reset(&self) {
        for c in self.counters.read().expect("registry poisoned").values() {
            c.reset();
        }
        for g in self.gauges.read().expect("registry poisoned").values() {
            g.reset();
        }
        for h in self.histograms.read().expect("registry poisoned").values() {
            h.reset();
        }
    }
}

/// An owned, renderable copy of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Maps a dot-namespaced metric name onto the Prometheus charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Snapshot {
    /// The metrics accrued since `earlier` (saturating per-entry
    /// difference; gauges keep their current value — a gauge delta is
    /// meaningless). Names present only in `self` pass through unchanged.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| match earlier.histograms.get(k) {
                    Some(e) => (k.clone(), v.since(e)),
                    None => (k.clone(), v.clone()),
                })
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms emit cumulative `_bucket{le="…"}` series (only buckets
    /// with observations, plus `+Inf`), `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", bucket_upper(i)));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }

    /// Renders the snapshot as a JSON object with `counters`, `gauges`, and
    /// `histograms` sections; histograms report count/sum/mean/max and the
    /// p50/p95/p99 estimates rather than raw buckets.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{name}\": {}", histogram_json(h)));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// One histogram's JSON summary.
fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        h.count,
        h.sum,
        h.mean(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("avq.test.a");
        let b = r.counter("avq.test.a");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_and_delta() {
        let r = Registry::new();
        r.counter("avq.x").add(5);
        r.gauge("avq.g").set(-2);
        r.histogram("avq.h").record(100);
        let s1 = r.snapshot();
        r.counter("avq.x").add(3);
        r.histogram("avq.h").record(200);
        let d = r.snapshot().since(&s1);
        assert_eq!(d.counters["avq.x"], 3);
        assert_eq!(d.gauges["avq.g"], -2);
        assert_eq!(d.histograms["avq.h"].count, 1);
        assert_eq!(d.histograms["avq.h"].sum, 200);
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("avq.codec.decode.blocks").add(7);
        r.gauge("avq.pool.frames").set(64);
        let h = r.histogram("avq.wal.fsync_ns");
        h.record(1000);
        h.record(3000);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE avq_codec_decode_blocks counter"));
        assert!(text.contains("avq_codec_decode_blocks 7"));
        assert!(text.contains("# TYPE avq_pool_frames gauge"));
        assert!(text.contains("avq_pool_frames 64"));
        assert!(text.contains("# TYPE avq_wal_fsync_ns histogram"));
        assert!(text.contains("avq_wal_fsync_ns_count 2"));
        assert!(text.contains("avq_wal_fsync_ns_sum 4000"));
        assert!(text.contains("avq_wal_fsync_ns_bucket{le=\"+Inf\"} 2"));
        // Buckets are cumulative.
        assert!(text.contains("avq_wal_fsync_ns_bucket{le=\"1023\"} 1"));
        assert!(text.contains("avq_wal_fsync_ns_bucket{le=\"4095\"} 2"));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let r = Registry::new();
        r.counter("avq.a").inc();
        r.histogram("avq.h").record(10);
        let json = r.snapshot().render_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"avq.a\": 1"));
        assert!(json.contains("\"p99\""));
        assert!(json.trim_end().ends_with('}'));
        // Braces balance.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let r = Registry::new();
        let c = r.counter("avq.r");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0, "cached handle still valid");
        assert!(r.snapshot().counters.contains_key("avq.r"));
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global().counter("avq.obs.test.global");
        global().counter("avq.obs.test.global").add(2);
        assert!(a.get() >= 2);
    }
}
