//! The log writer: framing, LSN assignment, and group commit.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! body_len u32     length of the body that follows the 8-byte header
//! crc32    u32     CRC-32 over the body (reuses avq_file::Crc32)
//! body:
//!   lsn    u64     monotonically increasing, starting at 1
//!   tag    u8      record type
//!   payload …      see `record.rs`
//! ```
//!
//! A crash can only leave an *incomplete suffix* (short header, short body,
//! or a body whose checksum fails because the frame was partially written);
//! the reader truncates such tails. Appends are buffered in memory and made
//! durable by `fsync` according to the [`SyncPolicy`]; a batch append pays
//! one `fsync` for the whole batch (group commit).

use crate::error::WalError;
use crate::record::WalRecord;
use avq_file::Crc32;
use avq_obs::names;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// A log sequence number. LSN 0 means "nothing"; real records start at 1.
pub type Lsn = u64;

/// Bytes of frame header preceding each record body.
pub const FRAME_HEADER_BYTES: usize = 8;

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every commit (each append, or each batch). Safest,
    /// slowest.
    Always,
    /// `fsync` once every `n` appended records (and on [`WalWriter::sync`]
    /// / checkpoint). A crash can lose up to `n - 1` acknowledged records.
    EveryN(usize),
    /// Only sync when explicitly asked. A crash can lose everything since
    /// the last [`WalWriter::sync`].
    Manual,
}

impl SyncPolicy {
    /// Short name used in reports and benchmarks.
    pub fn name(&self) -> String {
        match self {
            SyncPolicy::Always => "always".to_owned(),
            SyncPolicy::EveryN(n) => format!("every-{n}"),
            SyncPolicy::Manual => "manual".to_owned(),
        }
    }
}

/// Cumulative writer counters (for benchmarks and `recover-info`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalWriterStats {
    /// Records appended.
    pub records: u64,
    /// Frame + body bytes written.
    pub bytes: u64,
    /// `fsync` calls issued.
    pub syncs: u64,
}

/// An append-only writer over one log file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: SyncPolicy,
    next_lsn: Lsn,
    pending: Vec<u8>,
    unsynced_records: usize,
    stats: WalWriterStats,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path` for appending. The
    /// caller supplies `next_lsn`, normally `last scanned LSN + 1` — the
    /// writer does not scan the file itself.
    pub fn open<P: AsRef<Path>>(
        path: P,
        policy: SyncPolicy,
        next_lsn: Lsn,
    ) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        Ok(WalWriter {
            file,
            policy,
            next_lsn: next_lsn.max(1),
            pending: Vec::new(),
            unsynced_records: 0,
            stats: WalWriterStats::default(),
        })
    }

    /// The LSN the next appended record will receive.
    #[inline]
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// The LSN of the most recently appended record (0 if none yet).
    #[inline]
    pub fn last_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// The active sync policy.
    #[inline]
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Writer counters.
    #[inline]
    pub fn stats(&self) -> WalWriterStats {
        self.stats
    }

    fn encode_frame(&mut self, record: &WalRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let body_start = self.pending.len() + FRAME_HEADER_BYTES;
        // Reserve the header; fill it in once the body length is known.
        self.pending.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
        self.pending.extend_from_slice(&lsn.to_le_bytes());
        record.encode_into(&mut self.pending);
        let body_len = (self.pending.len() - body_start) as u32;
        let mut h = Crc32::new();
        h.update(&self.pending[body_start..]);
        let crc = h.finish();
        self.pending[body_start - 8..body_start - 4].copy_from_slice(&body_len.to_le_bytes());
        self.pending[body_start - 4..body_start].copy_from_slice(&crc.to_le_bytes());
        self.unsynced_records += 1;
        self.stats.records += 1;
        lsn
    }

    fn commit(&mut self) -> Result<(), WalError> {
        match self.policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::EveryN(n) => {
                if self.unsynced_records >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Manual => self.flush(),
        }
    }

    /// Appends one record, returning its LSN. Durability follows the sync
    /// policy.
    pub fn append(&mut self, record: &WalRecord) -> Result<Lsn, WalError> {
        let _span = avq_obs::span!(names::SPAN_WAL_APPEND);
        avq_obs::counter!(names::WAL_RECORDS).inc();
        let lsn = self.encode_frame(record);
        self.commit()?;
        Ok(lsn)
    }

    /// Appends a batch of records as one group commit: all frames are
    /// written together and, unless the policy is [`SyncPolicy::Manual`],
    /// made durable with a *single* `fsync`. Returns the batch's LSNs.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Result<Vec<Lsn>, WalError> {
        let _span = avq_obs::span!(names::SPAN_WAL_GROUP_COMMIT);
        avq_obs::counter!(names::WAL_RECORDS).add(records.len() as u64);
        avq_obs::histogram!(names::WAL_GROUP_COMMIT_BATCH_SIZE).record(records.len() as u64);
        let lsns: Vec<Lsn> = records.iter().map(|r| self.encode_frame(r)).collect();
        match self.policy {
            SyncPolicy::Manual => self.flush()?,
            _ => self.sync()?,
        }
        Ok(lsns)
    }

    /// Writes buffered frames to the OS without forcing them to disk.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if !self.pending.is_empty() {
            self.file.write_all(&self.pending)?;
            self.stats.bytes += self.pending.len() as u64;
            avq_obs::counter!(names::WAL_BYTES).add(self.pending.len() as u64);
            self.pending.clear();
        }
        Ok(())
    }

    /// Flushes buffered frames and `fsync`s the log file.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.flush()?;
        {
            let _span = avq_obs::span!(names::SPAN_WAL_FSYNC);
            self.file.sync_data()?;
        }
        self.stats.syncs += 1;
        avq_obs::counter!(names::WAL_SYNCS).inc();
        self.unsynced_records = 0;
        Ok(())
    }

    /// Truncates the log to empty and starts a fresh epoch whose first
    /// record is `Checkpoint { lsn }` (the caller's just-completed
    /// checkpoint). LSNs keep increasing across the truncation so replay
    /// can tell pre- from post-checkpoint records.
    pub fn truncate_for_checkpoint(&mut self, checkpoint_lsn: Lsn) -> Result<Lsn, WalError> {
        self.flush()?;
        self.file.set_len(0)?;
        self.next_lsn = self.next_lsn.max(checkpoint_lsn + 1);
        let lsn = self.encode_frame(&WalRecord::Checkpoint {
            lsn: checkpoint_lsn,
        });
        self.sync()?;
        Ok(lsn)
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort: push buffered frames to the OS so a clean process
        // exit under `Manual`/`EveryN` loses nothing.
        let _ = self.flush();
    }
}
