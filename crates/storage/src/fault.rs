//! Deterministic, seeded fault injection for the storage layer.
//!
//! The paper's block-local coding (§3) means a single damaged block should
//! never take down a whole relation. This module supplies the damage: a
//! [`FaultPlan`] describes *which* blocks misbehave and *how* (hard read or
//! write errors, silent bit flips, torn writes, transient-then-ok errors),
//! and the [`crate::BlockDevice`] consults the plan on every transfer. All
//! randomness is derived from a caller-supplied seed via splitmix64, so a
//! failing run reproduces from its seed alone — the same discipline as the
//! WAL crash-injection matrix.
//!
//! For the durable path (snapshots, WAL segments, `.avq` files on a real
//! filesystem) the analogue is [`FaultFile`], an `io::Read`/`io::Write`
//! shim with byte-offset faults, plus [`corrupt_file_in_place`], which
//! flips seeded bits of an existing file — what `avqtool inject` and the
//! scrub tests use.

use crate::clock::SimClock;
use crate::error::{BlockId, StorageError};
use avq_obs::names;
use std::collections::BTreeSet;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// splitmix64: the one-word PRNG used to derive every injected decision.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Reads of the target blocks fail with a permanent I/O error.
    ReadError,
    /// Writes to the target blocks fail with a permanent I/O error.
    WriteError,
    /// Reads succeed but one seeded bit of the payload is flipped.
    BitFlip,
    /// Writes silently persist only a seeded strict prefix of the payload.
    TornWrite,
    /// The first `failures` reads of a target block fail with a *transient*
    /// error; later attempts succeed. Models recoverable media hiccups.
    TransientRead {
        /// How many leading read attempts fail before the block recovers.
        failures: u32,
    },
}

#[derive(Debug)]
struct Rule {
    /// `None` targets every block.
    blocks: Option<BTreeSet<BlockId>>,
    kind: FaultKind,
}

impl Rule {
    fn matches(&self, id: BlockId) -> bool {
        match &self.blocks {
            None => true,
            Some(set) => set.contains(&id),
        }
    }
}

/// A seeded, deterministic description of which blocks misbehave and how.
///
/// Install on a device with [`crate::BlockDevice::set_fault_plan`]; every
/// subsequent `read`/`write` consults the plan. Counters record how many
/// faults actually fired so tests can assert exact injection counts.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    /// Per-block read-attempt counts, for `TransientRead`.
    attempts: Mutex<Vec<(BlockId, u64)>>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            attempts: Mutex::new(Vec::new()),
            fired: AtomicU64::new(0),
        }
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a fault applying to *every* block.
    pub fn with_fault(mut self, kind: FaultKind) -> Self {
        self.rules.push(Rule { blocks: None, kind });
        self
    }

    /// Adds a fault applying only to the given blocks.
    pub fn with_fault_on(
        mut self,
        kind: FaultKind,
        blocks: impl IntoIterator<Item = BlockId>,
    ) -> Self {
        self.rules.push(Rule {
            blocks: Some(blocks.into_iter().collect()),
            kind,
        });
        self
    }

    /// Deterministically picks `k` distinct blocks out of `candidates`
    /// (seeded partial Fisher–Yates). Returns all of them when `k` is
    /// larger than the candidate set.
    pub fn pick_blocks(seed: u64, candidates: &[BlockId], k: usize) -> BTreeSet<BlockId> {
        let mut pool: Vec<BlockId> = candidates.to_vec();
        let mut picked = BTreeSet::new();
        let mut state = seed ^ 0xa5a5_5a5a_dead_beef;
        for round in 0..k.min(pool.len()) {
            state = splitmix64(state.wrapping_add(round as u64));
            let idx = (state % pool.len() as u64) as usize;
            picked.insert(pool.swap_remove(idx));
        }
        picked
    }

    /// How many faults have actually fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    fn fire(&self) {
        self.fired.fetch_add(1, Ordering::Relaxed);
    }

    /// Which bit of an `len`-byte payload the seeded flip lands on.
    fn flip_bit(&self, id: BlockId, len: usize) -> usize {
        let r = splitmix64(self.seed ^ (u64::from(id) << 20) ^ 0x0b17_f11b);
        (r % (len as u64 * 8)) as usize
    }

    /// Read-attempt counter for `id`, incremented on each call.
    fn bump_attempts(&self, id: BlockId) -> u64 {
        let mut attempts = self.attempts.lock().expect("fault plan lock poisoned");
        match attempts.iter_mut().find(|(b, _)| *b == id) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                attempts.push((id, 1));
                1
            }
        }
    }

    /// Applies read-side faults to the payload just fetched for `id`.
    pub(crate) fn on_read(&self, id: BlockId, data: &mut [u8]) -> Result<(), StorageError> {
        for rule in self.rules.iter().filter(|r| r.matches(id)) {
            match rule.kind {
                FaultKind::ReadError => {
                    self.fire();
                    return Err(StorageError::Io {
                        id,
                        detail: "injected read error",
                        transient: false,
                    });
                }
                FaultKind::TransientRead { failures } => {
                    if self.bump_attempts(id) <= u64::from(failures) {
                        self.fire();
                        return Err(StorageError::Io {
                            id,
                            detail: "injected transient read error",
                            transient: true,
                        });
                    }
                }
                FaultKind::BitFlip => {
                    if !data.is_empty() {
                        let bit = self.flip_bit(id, data.len());
                        data[bit / 8] ^= 1 << (bit % 8);
                        self.fire();
                    }
                }
                FaultKind::WriteError | FaultKind::TornWrite => {}
            }
        }
        Ok(())
    }

    /// Applies write-side faults to the payload about to be stored at `id`.
    pub(crate) fn on_write(&self, id: BlockId, data: &mut Vec<u8>) -> Result<(), StorageError> {
        for rule in self.rules.iter().filter(|r| r.matches(id)) {
            match rule.kind {
                FaultKind::WriteError => {
                    self.fire();
                    return Err(StorageError::Io {
                        id,
                        detail: "injected write error",
                        transient: false,
                    });
                }
                FaultKind::TornWrite => {
                    if !data.is_empty() {
                        let r = splitmix64(self.seed ^ (u64::from(id) << 24) ^ 0x7041_0041);
                        let keep = (r % data.len() as u64) as usize;
                        data.truncate(keep);
                        self.fire();
                    }
                }
                FaultKind::ReadError | FaultKind::BitFlip | FaultKind::TransientRead { .. } => {}
            }
        }
        Ok(())
    }
}

/// Bounded retry for transient device faults.
///
/// `read_with_retry` (on [`crate::BufferPool`]) re-attempts a read up to
/// `max_attempts` total tries, charging `backoff_ms` (doubling per retry)
/// to the device's virtual clock between attempts, and never charging more
/// than `max_total_ms` of backoff in total across one call. Only errors
/// marked `transient` are retried; hard faults surface immediately. A
/// governed query clamps the cap to its remaining deadline with
/// [`RetryPolicy::clamped_to_ms`], so retries can never outlive the query
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Virtual backoff before the first retry; doubles on each further one.
    pub backoff_ms: f64,
    /// Total-budget cap: a retry whose backoff would push the cumulative
    /// virtual backoff of this call past this many ms is not taken — the
    /// transient error surfaces instead.
    pub max_total_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 1.0,
            max_total_ms: 100.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ms: 0.0,
            max_total_ms: 0.0,
        }
    }

    /// Replaces the total backoff budget.
    #[must_use]
    pub fn with_total_budget_ms(mut self, ms: f64) -> Self {
        self.max_total_ms = ms.max(0.0);
        self
    }

    /// Tightens the total backoff budget to at most `remaining_ms` — the
    /// hook a governed query uses so retry backoff never exceeds its
    /// remaining deadline. Never loosens the cap.
    #[must_use]
    pub fn clamped_to_ms(mut self, remaining_ms: f64) -> Self {
        if remaining_ms < self.max_total_ms {
            self.max_total_ms = remaining_ms.max(0.0);
        }
        self
    }
}

/// Runs `op` under `policy`, retrying transient [`StorageError::Io`]
/// failures with exponential virtual backoff charged to `clock`. Each retry
/// increments the `avq.io_retries.total` counter. Retrying stops — and the
/// transient error surfaces — once another backoff would push the call past
/// `policy.max_total_ms` of cumulative charged backoff.
pub fn retry_with_backoff<T>(
    policy: RetryPolicy,
    clock: &SimClock,
    mut op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let attempts = policy.max_attempts.max(1);
    let mut backoff = policy.backoff_ms;
    let mut spent = 0.0;
    let mut attempt = 1;
    loop {
        match op() {
            Err(
                err @ StorageError::Io {
                    transient: true, ..
                },
            ) if attempt < attempts => {
                if spent + backoff > policy.max_total_ms {
                    return Err(err);
                }
                avq_obs::counter!(names::IO_RETRIES_TOTAL).inc();
                clock.advance_ms(backoff);
                spent += backoff;
                backoff *= 2.0;
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// A byte-offset fault for stream (file) I/O, used by [`FaultFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Writes past this many bytes are silently dropped (torn write): the
    /// caller sees success, the medium keeps only the prefix.
    TornAfter(u64),
    /// Writes past this many bytes fail with an I/O error.
    WriteErrorAfter(u64),
    /// Reads past this many bytes fail with an I/O error.
    ReadErrorAfter(u64),
    /// The byte at this offset has one seeded bit flipped on read.
    FlipOnRead(u64),
}

/// An `io::Read`/`io::Write`/`io::Seek` shim that injects [`StreamFault`]s
/// into an inner stream, for exercising the durable path (WAL segments,
/// snapshot files) without touching its call sites: hand the durable code a
/// `FaultFile<File>` wherever it would take a `File`.
#[derive(Debug)]
pub struct FaultFile<T> {
    inner: T,
    seed: u64,
    faults: Vec<StreamFault>,
    pos: u64,
}

impl<T> FaultFile<T> {
    /// Wraps `inner` with the given seeded faults.
    pub fn new(inner: T, seed: u64, faults: Vec<StreamFault>) -> Self {
        FaultFile {
            inner,
            seed,
            faults,
            pos: 0,
        }
    }

    /// Unwraps the shim, returning the inner stream.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Write> Write for FaultFile<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.pos;
        let end = start + buf.len() as u64;
        for fault in &self.faults {
            match *fault {
                StreamFault::WriteErrorAfter(limit) if end > limit => {
                    return Err(io::Error::other(format!(
                        "injected write error after byte {limit}"
                    )));
                }
                StreamFault::TornAfter(limit) if end > limit => {
                    // Persist only the part below the tear, report success.
                    let keep = limit.saturating_sub(start) as usize;
                    if keep > 0 {
                        self.inner.write_all(&buf[..keep])?;
                    }
                    self.pos = end;
                    return Ok(buf.len());
                }
                _ => {}
            }
        }
        let n = self.inner.write(buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Read for FaultFile<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = self.pos;
        for fault in &self.faults {
            if let StreamFault::ReadErrorAfter(limit) = *fault {
                if start >= limit {
                    return Err(io::Error::other(format!(
                        "injected read error after byte {limit}"
                    )));
                }
            }
        }
        let n = self.inner.read(buf)?;
        for fault in &self.faults {
            if let StreamFault::FlipOnRead(offset) = *fault {
                if offset >= start && offset < start + n as u64 {
                    let bit = (splitmix64(self.seed ^ offset) % 8) as u8;
                    buf[(offset - start) as usize] ^= 1 << bit;
                }
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

impl<T: Seek> Seek for FaultFile<T> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let new = self.inner.seek(pos)?;
        self.pos = new;
        Ok(new)
    }
}

/// Flips `k` seeded bits of the file at `path` in place and returns the
/// affected byte offsets (sorted, distinct). This is the one-call corruption
/// primitive behind `avqtool inject` and the scrub/repair tests: the same
/// `(seed, k)` always damages the same bytes of a given file.
pub fn corrupt_file_in_place(path: &Path, seed: u64, k: usize) -> io::Result<Vec<u64>> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut offsets = BTreeSet::new();
    let mut state = seed ^ 0xc0ff_ee00_c0ff_ee00;
    let limit = k.min(bytes.len());
    while offsets.len() < limit {
        state = splitmix64(state);
        offsets.insert(state % bytes.len() as u64);
    }
    for &off in &offsets {
        let bit = (splitmix64(seed ^ off) % 8) as u8;
        bytes[off as usize] ^= 1 << bit;
    }
    std::fs::write(path, &bytes)?;
    Ok(offsets.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_blocks_is_deterministic_and_distinct() {
        let candidates: Vec<BlockId> = (0..100).collect();
        let a = FaultPlan::pick_blocks(7, &candidates, 10);
        let b = FaultPlan::pick_blocks(7, &candidates, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let c = FaultPlan::pick_blocks(8, &candidates, 10);
        assert_ne!(a, c, "different seeds pick different blocks");
        assert_eq!(FaultPlan::pick_blocks(1, &candidates, 1000).len(), 100);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let plan = FaultPlan::new(42).with_fault_on(FaultKind::BitFlip, [3]);
        let original = vec![0xAAu8; 16];
        let mut data = original.clone();
        plan.on_read(3, &mut data).unwrap();
        let diff_bits: u32 = original
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
        assert_eq!(plan.faults_fired(), 1);
        // Untargeted block untouched.
        let mut other = original.clone();
        plan.on_read(4, &mut other).unwrap();
        assert_eq!(other, original);
    }

    #[test]
    fn transient_read_recovers_after_failures() {
        let plan = FaultPlan::new(1).with_fault_on(FaultKind::TransientRead { failures: 2 }, [0]);
        let mut data = vec![1u8];
        let e1 = plan.on_read(0, &mut data).unwrap_err();
        assert!(matches!(
            e1,
            StorageError::Io {
                transient: true,
                ..
            }
        ));
        assert!(plan.on_read(0, &mut data).is_err());
        assert!(plan.on_read(0, &mut data).is_ok(), "third attempt succeeds");
    }

    #[test]
    fn torn_write_keeps_strict_prefix() {
        let plan = FaultPlan::new(9).with_fault_on(FaultKind::TornWrite, [5]);
        let mut data = vec![7u8; 64];
        plan.on_write(5, &mut data).unwrap();
        assert!(data.len() < 64);
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn retry_recovers_transient_and_gives_up_on_hard() {
        let clock = SimClock::new();
        let mut left = 2;
        let got = retry_with_backoff(RetryPolicy::default(), &clock, || {
            if left > 0 {
                left -= 1;
                Err(StorageError::Io {
                    id: 0,
                    detail: "flaky",
                    transient: true,
                })
            } else {
                Ok(99)
            }
        });
        assert_eq!(got, Ok(99));
        assert!(
            clock.now_ms() >= 3.0 - 1e-9,
            "two backoffs charged: 1 + 2 ms"
        );

        let hard = retry_with_backoff(RetryPolicy::default(), &clock, || -> Result<(), _> {
            Err(StorageError::Io {
                id: 1,
                detail: "dead",
                transient: false,
            })
        });
        assert!(matches!(
            hard,
            Err(StorageError::Io {
                transient: false,
                ..
            })
        ));
    }

    #[test]
    fn retry_total_budget_caps_backoff() {
        // 10 attempts of doubling backoff would charge 1+2+4+… ms; a 3 ms
        // total budget lets only the first two retries run.
        let clock = SimClock::new();
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff_ms: 1.0,
            max_total_ms: 3.0,
        };
        let mut calls = 0u32;
        let out: Result<(), _> = retry_with_backoff(policy, &clock, || {
            calls += 1;
            Err(StorageError::Io {
                id: 0,
                detail: "always flaky",
                transient: true,
            })
        });
        assert!(matches!(
            out,
            Err(StorageError::Io {
                transient: true,
                ..
            })
        ));
        assert_eq!(calls, 3, "first try + two retries inside the 3 ms budget");
        assert!((clock.now_ms() - 3.0).abs() < 1e-9);

        // Clamping to a spent deadline refuses the very first retry.
        let clock = SimClock::new();
        let mut calls = 0u32;
        let out: Result<(), _> =
            retry_with_backoff(RetryPolicy::default().clamped_to_ms(0.0), &clock, || {
                calls += 1;
                Err(StorageError::Io {
                    id: 0,
                    detail: "always flaky",
                    transient: true,
                })
            });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert_eq!(clock.now_ms(), 0.0, "no backoff charged past the deadline");
    }

    #[test]
    fn fault_file_torn_write_keeps_prefix() {
        let mut out = Vec::new();
        {
            let mut f = FaultFile::new(&mut out, 3, vec![StreamFault::TornAfter(10)]);
            f.write_all(&[1u8; 8]).unwrap();
            f.write_all(&[2u8; 8]).unwrap(); // crosses the tear at 10
            f.write_all(&[3u8; 8]).unwrap(); // entirely past it
            f.flush().unwrap();
        }
        assert_eq!(out, vec![1, 1, 1, 1, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn fault_file_read_flip_and_error() {
        let data = [0u8; 32];
        let mut f = FaultFile::new(&data[..], 5, vec![StreamFault::FlipOnRead(7)]);
        let mut buf = vec![0u8; 32];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1);
        assert_ne!(buf[7], 0);

        let mut f = FaultFile::new(&data[..], 5, vec![StreamFault::ReadErrorAfter(16)]);
        let mut buf = vec![0u8; 16];
        f.read_exact(&mut buf).unwrap();
        assert!(f.read_exact(&mut buf).is_err());
    }

    #[test]
    fn corrupt_file_in_place_is_seed_deterministic() {
        let dir = std::env::temp_dir().join(format!("avq-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        let original = vec![0x55u8; 256];
        std::fs::write(&path, &original).unwrap();
        let offs = corrupt_file_in_place(&path, 123, 4).unwrap();
        assert_eq!(offs.len(), 4);
        let damaged = std::fs::read(&path).unwrap();
        let differing: Vec<u64> = original
            .iter()
            .zip(&damaged)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(differing, offs);
        // Same seed on the same original bytes damages the same offsets.
        std::fs::write(&path, &original).unwrap();
        assert_eq!(corrupt_file_in_place(&path, 123, 4).unwrap(), offs);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
