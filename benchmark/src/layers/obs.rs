//! `avq-obs`: what one `span!` guard costs — the instrumentation every
//! timed path of the engine already carries.

use super::{time_ns, Probe};
use crate::metrics::Metrics;

/// Guards opened and dropped.
const SPANS: usize = 200_000;

/// Times one `span!` guard. (`obs.trace_overhead_ratio` comes from the
/// replay itself: traced ÷ untraced ops per second.)
pub fn probe(_p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let (ns, ()) = time_ns(|| {
        for _ in 0..SPANS {
            let _guard = avq_obs::span!("avq.benchmark.probe");
        }
    });
    m.set("obs.span_ns", ns as f64 / SPANS as f64);
    Ok(())
}
