//! `avq-index`: B⁺-tree point operations and secondary-index postings, on
//! a tree built here; and the index blocks a lookup in the workload's own
//! primary tree reads from a cold start.

use super::{time_ns, Probe};
use crate::driver::err;
use crate::metrics::Metrics;
use crate::rng::mix;
use crate::stats::{median, ratio};
use crate::workload::REL;
use avq_db::SecondaryIndex;
use avq_index::BPlusTree;
use avq_storage::{BlockDevice, BufferPool, DiskProfile};

/// Keys in the probe tree.
const KEYS: u64 = 20_000;
/// Point operations timed.
const OPS: u64 = 2_000;
/// Lookups in the workload's primary index.
const LOOKUPS: usize = 200;

/// Times `BPlusTree::{get, insert, delete}` and
/// `SecondaryIndex::add_posting`.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let device = BlockDevice::new(8192, DiskProfile::paper_fixed());
    let pool = BufferPool::new(device, 256);
    let key = |i: u64| mix(i).to_be_bytes();
    let mut tree = BPlusTree::create(pool.clone()).map_err(err)?;
    for i in 0..KEYS {
        tree.insert(&key(i), i).map_err(err)?;
    }
    let mut get_ns = Vec::new();
    for _ in 0..OPS {
        let k = key(p.rng.below(KEYS));
        let (ns, r) = time_ns(|| tree.get(&k));
        if r.map_err(err)?.is_none() {
            return Err("tree lost a key".to_owned());
        }
        get_ns.push(ns);
    }
    let (mut insert_ns, mut delete_ns) = (Vec::new(), Vec::new());
    for i in KEYS..KEYS + OPS {
        let (ns, r) = time_ns(|| tree.insert(&key(i), i));
        r.map_err(err)?;
        insert_ns.push(ns);
    }
    for i in KEYS..KEYS + OPS {
        let (ns, r) = time_ns(|| tree.delete(&key(i)));
        r.map_err(err)?;
        delete_ns.push(ns);
    }
    m.set("index.get_us", median(&get_ns) / 1e3);
    m.set("index.insert_us", median(&insert_ns) / 1e3);
    m.set("index.delete_us", median(&delete_ns) / 1e3);

    // Postings of a 64-valued column over a few hundred blocks, as `a12`'s.
    let mut postings = SecondaryIndex::create(pool, usize::MAX, 12).map_err(err)?;
    let mut posting_ns = Vec::new();
    for i in 0..OPS {
        let (value, block) = (i % 64, (i / 64) as u32);
        let (ns, r) = time_ns(|| postings.add_posting(value, block));
        r.map_err(err)?;
        posting_ns.push(ns);
    }
    m.set("index.posting_add_us", median(&posting_ns) / 1e3);

    let rel = p.db.relation(REL).map_err(err)?;
    p.db.drop_caches();
    let mut index_reads = 0u64;
    let lookups = LOOKUPS.min(p.sample.len());
    for _ in 0..lookups {
        let t = &p.sample[p.rng.index(p.sample.len())];
        index_reads += rel.contains(t).map_err(err)?.1.index_reads;
    }
    m.set(
        "index.nodes_read_per_lookup",
        ratio(index_reads as f64, lookups as f64),
    );
    Ok(())
}
