//! # avq-wal — write-ahead logging and crash recovery for AVQ databases
//!
//! The durability substrate under `avq_db::DurableDatabase`: a
//! length-prefixed, CRC-32-framed stream of *logical* mutations with
//! monotonically increasing LSNs, batched group commit behind a
//! configurable [`SyncPolicy`], and a reader that replays to the last
//! complete, checksum-valid record — truncating torn tails left by crashes
//! instead of erroring. The `MANIFEST` module supplies the atomic root
//! (checkpoint LSN + snapshot generation) the log pairs with.
//!
//! The paper (§4.2) defines block-confined updates but leaves persistence
//! unspecified; this crate supplies the standard journal + checkpoint
//! protocol (DESIGN.md §9) without touching the coding layer: records hold
//! logical tuples, so replay drives the ordinary mutation paths and every
//! invariant (block splits, index maintenance, cache invalidation) is
//! enforced by the same code as live traffic.
//!
//! ```
//! use avq_wal::{scan, SyncPolicy, WalRecord, WalWriter};
//! use avq_schema::Tuple;
//!
//! let path = std::env::temp_dir().join(format!("doc-{}.wal", std::process::id()));
//! let mut w = WalWriter::open(&path, SyncPolicy::Always, 1).unwrap();
//! w.append(&WalRecord::Insert {
//!     relation: "people".into(),
//!     tuple: Tuple::from([1u64, 2, 3]),
//! }).unwrap();
//! let scan = scan(&path).unwrap();
//! assert_eq!(scan.records.len(), 1);
//! assert_eq!(scan.last_lsn(), 1);
//! std::fs::remove_file(&path).ok();
//! ```

mod error;
mod manifest;
mod reader;
mod record;
mod writer;

pub use error::WalError;
pub use manifest::{sync_dir, Manifest, ManifestEntry, MANIFEST_FILE};
pub use reader::{recover, scan, scan_bytes, WalScan};
pub use record::WalRecord;
pub use writer::{Lsn, SyncPolicy, WalWriter, WalWriterStats, FRAME_HEADER_BYTES};

/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "wal.log";

#[cfg(test)]
mod tests {
    use super::*;
    use avq_schema::Tuple;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("avq-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateRelation {
                name: "r".into(),
                coded: vec![1, 2, 3, 4, 5],
            },
            WalRecord::Insert {
                relation: "r".into(),
                tuple: Tuple::from([1u64, 2, 3]),
            },
            WalRecord::Delete {
                relation: "r".into(),
                tuple: Tuple::from([4u64, 5, 6]),
            },
            WalRecord::Update {
                relation: "r".into(),
                old: Tuple::from([7u64]),
                new: Tuple::from([8u64]),
            },
            WalRecord::CreateSecondaryIndex {
                relation: "r".into(),
                attribute: 2,
            },
            WalRecord::DropRelation { name: "r".into() },
            WalRecord::Checkpoint { lsn: 42 },
        ]
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp("roundtrip");
        let path = dir.join(WAL_FILE);
        let records = sample_records();
        let mut w = WalWriter::open(&path, SyncPolicy::Always, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        assert_eq!(w.last_lsn(), records.len() as u64);
        drop(w);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.torn_reason.is_none());
        assert_eq!(scan.records.len(), records.len());
        for (i, ((lsn, got), want)) in scan.records.iter().zip(&records).enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(got, want);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_yields_a_prefix() {
        let dir = tmp("prefix");
        let path = dir.join(WAL_FILE);
        let records = sample_records();
        let mut w = WalWriter::open(&path, SyncPolicy::Always, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let full = scan_bytes(&bytes).unwrap();
        // Frame start offsets.
        let mut starts = vec![0u64];
        let mut pos = 0usize;
        for _ in &full.records {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += FRAME_HEADER_BYTES + len;
            starts.push(pos as u64);
        }
        for cut in 0..bytes.len() {
            let s = scan_bytes(&bytes[..cut]).unwrap();
            // The valid prefix is exactly the records whose frames end at
            // or before the cut.
            let complete = starts.iter().filter(|&&b| b > 0 && b <= cut as u64).count();
            assert_eq!(s.records.len(), complete, "cut at byte {cut}");
            assert_eq!(s.valid_bytes, starts[complete], "cut at byte {cut}");
            if cut as u64 != starts[complete] {
                assert!(s.torn_reason.is_some(), "cut at byte {cut} must report");
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_tail_is_truncated_by_recover() {
        let dir = tmp("recover");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::open(&path, SyncPolicy::Always, 1).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        // Flip a byte inside the *last* record's body: that record dies,
        // everything before it survives.
        let mut bad = clean.clone();
        let n = bad.len();
        *bad.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let scan = recover(&path).unwrap();
        assert_eq!(scan.records.len(), sample_records().len() - 1);
        assert!(scan.torn_reason.is_some());
        assert!(scan.valid_bytes < n as u64);
        // The file was physically truncated to the valid prefix.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            scan.valid_bytes,
            "recover() must truncate the torn tail"
        );
        // And a fresh writer appends cleanly after it.
        let mut w = WalWriter::open(&path, SyncPolicy::Always, scan.last_lsn() + 1).unwrap();
        w.append(&WalRecord::Checkpoint { lsn: 0 }).unwrap();
        drop(w);
        let scan2 = scan_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan2.records.len(), sample_records().len());
        assert_eq!(scan2.torn_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sync_policies_count_syncs() {
        let dir = tmp("sync");
        let rec = WalRecord::Checkpoint { lsn: 0 };
        let always = dir.join("always.wal");
        let mut w = WalWriter::open(&always, SyncPolicy::Always, 1).unwrap();
        for _ in 0..10 {
            w.append(&rec).unwrap();
        }
        assert_eq!(w.stats().syncs, 10);

        let every = dir.join("every.wal");
        let mut w = WalWriter::open(&every, SyncPolicy::EveryN(4), 1).unwrap();
        for _ in 0..10 {
            w.append(&rec).unwrap();
        }
        assert_eq!(w.stats().syncs, 2, "10 appends at every-4 sync twice");
        w.sync().unwrap();
        assert_eq!(w.stats().syncs, 3);

        let manual = dir.join("manual.wal");
        let mut w = WalWriter::open(&manual, SyncPolicy::Manual, 1).unwrap();
        for _ in 0..10 {
            w.append(&rec).unwrap();
        }
        assert_eq!(w.stats().syncs, 0);
        // Batch append = group commit: one sync for the whole batch.
        let batch = vec![rec.clone(); 8];
        let manual2 = dir.join("batch.wal");
        let mut w = WalWriter::open(&manual2, SyncPolicy::Always, 1).unwrap();
        let lsns = w.append_batch(&batch).unwrap();
        assert_eq!(lsns, (1..=8).collect::<Vec<_>>());
        assert_eq!(w.stats().syncs, 1, "a batch pays one fsync");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lsn_regression_stops_scan() {
        let dir = tmp("lsn");
        let a = dir.join("a.wal");
        let b = dir.join("b.wal");
        let rec = WalRecord::Checkpoint { lsn: 0 };
        let mut w = WalWriter::open(&a, SyncPolicy::Always, 5).unwrap();
        w.append(&rec).unwrap();
        drop(w);
        let mut w = WalWriter::open(&b, SyncPolicy::Always, 3).unwrap();
        w.append(&rec).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&a).unwrap();
        bytes.extend_from_slice(&std::fs::read(&b).unwrap());
        let s = scan_bytes(&bytes).unwrap();
        assert_eq!(s.records.len(), 1, "LSN 3 after LSN 5 ends the scan");
        assert!(s.torn_reason.unwrap().contains("LSN went backwards"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncate_for_checkpoint_starts_fresh_epoch() {
        let dir = tmp("ck");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::open(&path, SyncPolicy::Always, 1).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let ck = w.last_lsn();
        w.truncate_for_checkpoint(ck).unwrap();
        drop(w);
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        let (lsn, rec) = &s.records[0];
        assert_eq!(*lsn, ck + 1, "LSNs keep increasing across truncation");
        assert_eq!(*rec, WalRecord::Checkpoint { lsn: ck });
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = Manifest {
            checkpoint_lsn: 99,
            relations: vec![
                ManifestEntry {
                    name: "people".into(),
                    snapshot: "people.99.avq".into(),
                    secondary_attrs: vec![1, 2],
                },
                ManifestEntry {
                    name: "orders".into(),
                    snapshot: "orders.99.avq".into(),
                    secondary_attrs: vec![],
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        for i in (0..bytes.len()).step_by(3) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        let dir = tmp("manifest");
        m.write_dir(&dir).unwrap();
        assert_eq!(Manifest::read_dir(&dir).unwrap().unwrap(), m);
        assert_eq!(Manifest::read_dir(dir.join("missing")).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_log_scans_empty() {
        let dir = tmp("missing");
        let s = scan(dir.join("nope.wal")).unwrap();
        assert!(s.records.is_empty());
        assert_eq!(s.last_lsn(), 0);
        assert_eq!((s.valid_bytes, s.torn_bytes), (0, 0));
        std::fs::remove_dir_all(dir).ok();
    }
}
