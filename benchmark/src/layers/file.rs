//! `avq-file`: saving and loading the coded relation — what a checkpoint
//! writes and a recovery reads.

use super::{time_ns, Probe};
use crate::driver::err;
use crate::metrics::Metrics;
use crate::stats::median_f64;
use avq_codec::{compress_sorted, CodecOptions};

const PASSES: usize = 3;

/// Times `avq_file::{save, load}` of the sample.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let coded =
        compress_sorted(p.schema.clone(), &p.sample, CodecOptions::default()).map_err(err)?;
    let path = p.tmp.path().join("probe.avq");
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let mut bytes = 0.0;
    for _ in 0..PASSES {
        let (ns, r) = time_ns(|| avq_file::save(&path, &coded));
        r.map_err(err)?;
        bytes = std::fs::metadata(&path).map_err(err)?.len() as f64;
        save.push(bytes / 1e6 / (ns as f64 / 1e9));
        let (ns, r) = time_ns(|| avq_file::load(&path));
        r.map_err(err)?;
        load.push(bytes / 1e6 / (ns as f64 / 1e9));
    }
    m.set("file.save_mb_per_s", median_f64(&save));
    m.set("file.load_mb_per_s", median_f64(&load));
    m.set("file.snapshot_bytes", bytes);
    Ok(())
}
