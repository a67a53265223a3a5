//! The log reader: scan, torn-tail detection, and truncation.

// Untrusted input is decoded here: a damaged byte is a typed error, never
// a panic (DESIGN.md §12). Test code is exempt through `clippy.toml`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use crate::error::WalError;
use crate::record::WalRecord;
use crate::writer::{Lsn, FRAME_HEADER_BYTES};
use avq_file::crc32;
use std::path::Path;

/// The outcome of scanning a log file.
#[derive(Debug)]
pub struct WalScan {
    /// Every complete, checksum-valid record in LSN order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Byte length of the valid prefix (where the torn tail, if any,
    /// begins).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (0 for a cleanly closed log).
    pub torn_bytes: u64,
    /// Why scanning stopped before end-of-file, when it did.
    pub torn_reason: Option<String>,
}

impl WalScan {
    /// The highest LSN in the valid prefix (0 for an empty log).
    pub fn last_lsn(&self) -> Lsn {
        self.records.last().map(|(lsn, _)| *lsn).unwrap_or(0)
    }
}

/// Scans log `bytes`, stopping at the first incomplete or checksum-invalid
/// frame. Only damage *behind* a valid checksum (undecodable record body,
/// non-monotonic LSN) is an error; everything a crash can produce is a torn
/// tail, reported rather than raised.
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn_reason = None;
    let mut prev_lsn: Lsn = 0;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER_BYTES) else {
            torn_reason = Some(format!(
                "incomplete frame header ({} of {FRAME_HEADER_BYTES} bytes)",
                bytes.len() - pos
            ));
            break;
        };
        // `header` is exactly FRAME_HEADER_BYTES (8) long, so the chunk
        // always exists; the else arm mirrors the truncated-header case.
        let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], _)) =
            header.split_first_chunk::<FRAME_HEADER_BYTES>()
        else {
            torn_reason = Some(format!(
                "incomplete frame header ({} of {FRAME_HEADER_BYTES} bytes)",
                bytes.len() - pos
            ));
            break;
        };
        let body_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let stored_crc = u32::from_le_bytes([c0, c1, c2, c3]);
        let body_start = pos + FRAME_HEADER_BYTES;
        let Some(body) = bytes.get(body_start..body_start + body_len) else {
            torn_reason = Some(format!(
                "incomplete record body ({} of {body_len} bytes)",
                bytes.len() - body_start
            ));
            break;
        };
        if crc32(body) != stored_crc {
            torn_reason = Some(format!("checksum mismatch in record body at byte {pos}"));
            break;
        }
        let Some((lsn_bytes, payload)) = body.split_first_chunk::<8>() else {
            torn_reason = Some(format!("record body at byte {pos} shorter than an LSN"));
            break;
        };
        let lsn = u64::from_le_bytes(*lsn_bytes);
        // A checksum-valid record with a non-increasing LSN means the log
        // was overwritten mid-stream; nothing after it can be trusted.
        if lsn <= prev_lsn {
            torn_reason = Some(format!(
                "LSN went backwards at byte {pos} ({prev_lsn} -> {lsn})"
            ));
            break;
        }
        let record = WalRecord::decode(payload, pos as u64)?;
        prev_lsn = lsn;
        records.push((lsn, record));
        pos = body_start + body_len;
    }
    Ok(WalScan {
        records,
        valid_bytes: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
        torn_reason,
    })
}

/// Scans the log at `path`. A missing file scans as empty.
pub fn scan<P: AsRef<Path>>(path: P) -> Result<WalScan, WalError> {
    let bytes = match std::fs::read(path.as_ref()) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    scan_bytes(&bytes)
}

/// Scans the log at `path` and truncates any torn tail in place, so a
/// subsequently opened [`crate::WalWriter`] appends after the last valid
/// record. Returns the scan of the surviving prefix.
pub fn recover<P: AsRef<Path>>(path: P) -> Result<WalScan, WalError> {
    let scan = scan(path.as_ref())?;
    if scan.torn_bytes > 0 {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path.as_ref())?;
        f.set_len(scan.valid_bytes)?;
        f.sync_data()?;
    }
    Ok(scan)
}
