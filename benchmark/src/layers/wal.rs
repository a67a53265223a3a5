//! `avq-wal`: append, fsync, record size and log scanning, on a log of its
//! own in the scratch directory.

use super::{time_ns, Probe};
use crate::driver::err;
use crate::metrics::Metrics;
use crate::stats::{median, ratio};
use crate::workload::REL;
use avq_wal::{SyncPolicy, WalRecord, WalWriter};

/// Records appended one by one under `SyncPolicy::Manual`.
const APPENDS: usize = 2_000;
/// `sync()` calls timed, each after a 64-record batch.
const SYNCS: usize = 16;

/// Times `WalWriter::{append, sync}` and `avq_wal::scan`.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let path = p.tmp.path().join("probe.wal");
    let mut wal = WalWriter::open(&path, SyncPolicy::Manual, 1).map_err(err)?;
    let record = |i: usize| WalRecord::Insert {
        relation: REL.to_owned(),
        tuple: p.sample[i % p.sample.len()].clone(),
    };
    let mut append_ns = Vec::with_capacity(APPENDS);
    for i in 0..APPENDS {
        let rec = record(i);
        let (ns, r) = time_ns(|| wal.append(&rec));
        r.map_err(err)?;
        append_ns.push(ns);
    }
    let mut sync_ns = Vec::with_capacity(SYNCS);
    for batch in 0..SYNCS {
        for i in 0..64 {
            wal.append(&record(batch * 64 + i)).map_err(err)?;
        }
        let (ns, r) = time_ns(|| wal.sync());
        r.map_err(err)?;
        sync_ns.push(ns);
    }
    let stats = wal.stats();
    drop(wal);
    m.set("wal.append_us", median(&append_ns) / 1e3);
    m.set("wal.fsync_us", median(&sync_ns) / 1e3);
    m.set(
        "wal.bytes_per_record",
        ratio(stats.bytes as f64, stats.records as f64),
    );

    let (ns, scan) = time_ns(|| avq_wal::scan(&path));
    let scan = scan.map_err(err)?;
    if scan.records.len() as u64 != stats.records {
        return Err(format!(
            "scan found {} of {} records",
            scan.records.len(),
            stats.records
        ));
    }
    m.set(
        "wal.scan_records_per_s",
        scan.records.len() as f64 / (ns as f64 / 1e9),
    );
    Ok(())
}
