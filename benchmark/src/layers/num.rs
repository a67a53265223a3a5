//! `avq-num`: φ and φ⁻¹ on the §5.2 radices — the arithmetic under every
//! block decode.

use super::{time_ns, Probe};
use crate::metrics::Metrics;

/// Tuples ranked and unranked.
const VALUES: usize = 10_000;

/// Times `MixedRadix::{rank, unrank_into, unrank_u64_batch_into}`.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let radix = p.schema.radix();
    let tuples = &p.sample[..VALUES.min(p.sample.len())];
    let n = tuples.len() as f64;

    let (ns, ranks) = time_ns(|| {
        tuples
            .iter()
            .map(|t| radix.rank(t.digits()))
            .collect::<Vec<_>>()
    });
    m.set("num.rank_ns", ns as f64 / n);

    let mut digits = vec![0u64; radix.arity()];
    let (ns, ok) = time_ns(|| ranks.into_iter().all(|v| radix.unrank_into(v, &mut digits)));
    if !ok {
        return Err("unrank_into rejected a rank it produced".to_owned());
    }
    m.set("num.unrank_ns", ns as f64 / n);

    // Machine-word φ-distances, as a chained block's small differences are.
    let values: Vec<u64> = tuples.iter().map(|_| p.rng.below(1 << 40)).collect();
    let mut out = vec![0u64; values.len() * radix.arity()];
    let (ns, ok) = time_ns(|| radix.unrank_u64_batch_into(&values, &mut out));
    if !ok {
        return Err("unrank_u64_batch_into rejected a 40-bit value".to_owned());
    }
    m.set("num.unrank_u64_batch_ns_per_value", ns as f64 / n);
    Ok(())
}
