//! `avq-storage`: buffer-pool hits and misses and decoded-cache lookups,
//! on a device, pool and cache built here (the replay's own hit rates and
//! device traffic come from the database's counters, in `trace.rs`).

use super::{time_ns, Probe};
use crate::driver::err;
use crate::metrics::Metrics;
use avq_schema::Tuple;
use avq_storage::{BlockDevice, BufferPool, DecodedCache, DiskProfile};
use std::sync::Arc;

const FRAMES: usize = 64;
const BLOCKS: usize = 256;
const READS: usize = 20_000;

/// Times `BufferPool::read` and `DecodedCache::get`.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let device = BlockDevice::new(8192, DiskProfile::paper_fixed());
    let pool = BufferPool::new(device.clone(), FRAMES);
    let page = vec![0xA5u8; 8192];
    let mut ids = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let id = device.allocate().map_err(err)?;
        pool.write(id, &page).map_err(err)?;
        ids.push(id);
    }

    // Cycling over 4× the frames under LRU: every read goes to the device.
    let (ns, ok) = time_ns(|| (0..READS).all(|i| pool.read(ids[i % BLOCKS]).is_ok()));
    if !ok {
        return Err("pool read failed".to_owned());
    }
    m.set("storage.pool_read_miss_us", ns as f64 / READS as f64 / 1e3);

    // Half the frames, so every read after the first lap is a hit.
    let hot = &ids[..FRAMES / 2];
    for &id in hot {
        pool.read(id).map_err(err)?;
    }
    let (ns, ok) = time_ns(|| (0..READS).all(|i| pool.read(hot[i % hot.len()]).is_ok()));
    if !ok {
        return Err("pool read failed".to_owned());
    }
    m.set("storage.pool_read_hit_ns", ns as f64 / READS as f64);

    let cache: DecodedCache<Vec<Tuple>> = DecodedCache::new(FRAMES);
    let run = Arc::new(p.sample[..p.sample.len().min(600)].to_vec());
    for &id in hot {
        cache.insert(id, run.clone());
    }
    let (ns, hits) = time_ns(|| {
        (0..READS)
            .filter(|i| cache.get(hot[i % hot.len()]).is_some())
            .count()
    });
    if hits != READS {
        return Err("decoded cache lost a resident block".to_owned());
    }
    m.set("storage.decoded_get_ns", ns as f64 / READS as f64);
    Ok(())
}
