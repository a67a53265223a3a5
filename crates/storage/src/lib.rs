//! # avq-storage — simulated disk, I/O cost model, and buffer pool
//!
//! The storage substrate under the AVQ database: a thread-safe simulated
//! [`BlockDevice`] of fixed-size blocks whose transfers are charged to a
//! virtual [`SimClock`] by a parameterizable [`DiskProfile`] (the paper's
//! §5.3.2 model: seek + rotational delay + transfer + controller ≈ 30 ms per
//! 8 KiB block in 1994), plus an LRU write-through [`BufferPool`] and the
//! [`MachineProfile`]s (HP 9000/735, Sun 4/50, DEC 5000/120) that scale
//! CPU-bound costs in the Fig. 5.9 reproduction. A generic [`DecodedCache`]
//! layers above the pool to remember *decoded* block payloads, so warm
//! re-scans skip the decompression CPU entirely.
//!
//! The device counts physical reads and writes — that counter *is* the `N`
//! (number of blocks accessed) of the paper's §5.3.3 measurements.
//!
//! For robustness testing the device also accepts a seeded [`FaultPlan`]
//! (bit flips, hard/transient read errors, torn writes) consulted on every
//! transfer, and [`FaultFile`] provides the same treatment for real file
//! streams on the durable path. [`BufferPool::read_with_retry`] retries
//! transient faults under a bounded [`RetryPolicy`].

mod buffer;
mod clock;
mod decoded;
mod device;
mod error;
mod fault;
mod lru;
mod profile;

pub use buffer::{BufferPool, PoolStats};
pub use clock::SimClock;
pub use decoded::DecodedCache;
pub use device::{BlockDevice, IoStats};
pub use error::{BlockId, StorageError};
pub use fault::{
    corrupt_file_in_place, retry_with_backoff, FaultFile, FaultKind, FaultPlan, RetryPolicy,
    StreamFault,
};
pub use profile::{DiskProfile, MachineProfile};
