//! Order statistics over recorded samples.

/// The `q`-quantile (nearest rank) of `samples`; 0 for an empty slice.
/// Sorts a copy, so call it once per report, not per op.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of `samples`.
pub fn median(samples: &[u64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median of float samples; 0 for an empty slice.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// `num / den`, or 0 when `den` is 0 — per-layer metrics print 0 where a
/// workload never exercises the layer.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
