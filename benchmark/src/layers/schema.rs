//! `avq-schema`: the per-tuple costs the decoded-cache hand-off and the
//! row facade pay — cloning a `Tuple`, encoding a logical row.

use super::{time_ns, Probe};
use crate::driver::err;
use crate::metrics::Metrics;
use avq_schema::Tuple;

/// Tuples cloned and rows encoded.
const ROWS: usize = 10_000;

/// Times `Tuple::clone` and `Schema::encode_row`.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let tuples = &p.sample[..ROWS.min(p.sample.len())];
    let n = tuples.len() as f64;

    let mut clones: Vec<Tuple> = Vec::with_capacity(tuples.len());
    let (ns, ()) = time_ns(|| clones.extend_from_slice(tuples));
    m.set("schema.tuple_clone_ns", ns as f64 / n);

    let rows = tuples
        .iter()
        .map(|t| p.schema.decode_row(t))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let (ns, encoded) = time_ns(|| {
        rows.iter()
            .filter(|r| p.schema.encode_row(r).is_ok())
            .count()
    });
    if encoded != rows.len() {
        return Err("encode_row rejected a row decode_row produced".to_owned());
    }
    m.set("schema.encode_row_ns", ns as f64 / n);
    Ok(())
}
