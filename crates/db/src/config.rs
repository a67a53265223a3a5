//! Database configuration.

use avq_codec::{CodecOptions, CodingMode, DecodeKernel, RepChoice};
use avq_storage::{DiskProfile, MachineProfile, RetryPolicy};

/// How scans react to an unreadable or corrupt data block.
///
/// The paper's block-local coding (§3) means damage never spreads past a
/// block boundary, so a relation with `k` bad blocks still holds every
/// tuple of the other `N − k`. `SkipCorrupt` serves them: the bad block is
/// quarantined (counted in `avq_corrupt_blocks_total`) and the scan keeps
/// going. `FailFast` — the default — surfaces the first error unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// The first unreadable or corrupt block aborts the operation.
    #[default]
    FailFast,
    /// Corrupt blocks are quarantined and skipped; intact blocks keep
    /// serving reads.
    SkipCorrupt,
}

/// Configuration for a [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbConfig {
    /// Block coding options (mode, representative policy, block capacity).
    /// The block capacity doubles as the device block size.
    pub codec: CodecOptions,
    /// Buffer-pool frames.
    pub buffer_frames: usize,
    /// Decoded-block cache capacity, in blocks per relation. The cache
    /// remembers each block's decoded tuple run so a warm re-scan performs
    /// zero decode calls; zero disables it.
    pub decoded_cache_blocks: usize,
    /// Disk cost model charged per physical block transfer.
    pub disk: DiskProfile,
    /// Maximum keys per index node (`usize::MAX` = block-size-bounded only;
    /// small values reproduce the paper's order-3 figures).
    pub index_order: usize,
    /// Simulated CPU milliseconds charged per *data* block processed during
    /// queries — the paper's `t₂` (decompression) for coded relations or
    /// `t₃` (tuple extraction) for uncoded ones. Defaults to the paper's
    /// HP 9000/735 decode time (13.85 ms, Fig. 5.9), the machine the
    /// default 30 ms disk belongs to. One value drives both the planner's
    /// Eq. 5.7 pricing and the simulated clock's per-block charge.
    pub cpu_ms_per_block: f64,
    /// How scans react to a corrupt data block (default: fail fast).
    pub scan_policy: ScanPolicy,
    /// Bounded retry for *transient* device read faults on the data path;
    /// hard faults and corruption are never retried.
    pub retry: RetryPolicy,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            codec: CodecOptions::default(),
            buffer_frames: 256,
            decoded_cache_blocks: 256,
            disk: DiskProfile::paper_fixed(),
            index_order: usize::MAX,
            cpu_ms_per_block: MachineProfile::hp_9000_735().paper_decode_ms,
            scan_policy: ScanPolicy::FailFast,
            retry: RetryPolicy::default(),
        }
    }
}

impl DbConfig {
    /// The paper's AVQ configuration: chained differences, median
    /// representative, 8192-byte blocks, 30 ms per block transfer, 13.85 ms
    /// per block decode.
    pub fn paper_avq() -> Self {
        Self::default()
    }

    /// The paper's uncoded baseline: fixed-width tuples in the same block
    /// size ("No coding" rows of Figs. 5.8/5.9).
    pub fn paper_uncoded() -> Self {
        DbConfig {
            codec: CodecOptions {
                mode: CodingMode::FieldWise,
                rep: RepChoice::Median,
                block_capacity: 8192,
                ..Default::default()
            },
            ..Self::default()
        }
    }

    /// Same configuration with a different coding mode.
    pub fn with_mode(mut self, mode: CodingMode) -> Self {
        self.codec.mode = mode;
        self
    }

    /// Same configuration with a different block capacity.
    pub fn with_block_capacity(mut self, capacity: usize) -> Self {
        self.codec.block_capacity = capacity;
        self
    }

    /// Same configuration with a different decode kernel (scalar reference
    /// or the vectorized SWAR kernel). Decode-only: coded bytes are
    /// identical either way.
    pub fn with_decode_kernel(mut self, kernel: DecodeKernel) -> Self {
        self.codec.kernel = kernel;
        self
    }

    /// Same configuration with a per-block CPU cost.
    pub fn with_cpu_ms_per_block(mut self, ms: f64) -> Self {
        self.cpu_ms_per_block = ms;
        self
    }

    /// Same configuration with a different decoded-block cache capacity
    /// (zero disables the cache).
    pub fn with_decoded_cache_blocks(mut self, blocks: usize) -> Self {
        self.decoded_cache_blocks = blocks;
        self
    }

    /// Same configuration with a different corrupt-block scan policy.
    pub fn with_scan_policy(mut self, policy: ScanPolicy) -> Self {
        self.scan_policy = policy;
        self
    }

    /// Same configuration with a different transient-fault retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DbConfig::paper_avq();
        assert_eq!(c.codec.block_capacity, 8192);
        assert_eq!(c.codec.mode, CodingMode::AvqChained);
        assert_eq!(c.disk.block_time_ms(8192), 30.0);
        assert_eq!(c.cpu_ms_per_block, 13.85);
    }

    #[test]
    fn uncoded_is_fieldwise() {
        assert_eq!(DbConfig::paper_uncoded().codec.mode, CodingMode::FieldWise);
    }

    #[test]
    fn builders() {
        let c = DbConfig::default()
            .with_mode(CodingMode::Avq)
            .with_block_capacity(4096)
            .with_decode_kernel(DecodeKernel::Scalar)
            .with_cpu_ms_per_block(40.45)
            .with_decoded_cache_blocks(0)
            .with_scan_policy(ScanPolicy::SkipCorrupt)
            .with_retry(RetryPolicy::none());
        assert_eq!(c.codec.mode, CodingMode::Avq);
        assert_eq!(c.codec.block_capacity, 4096);
        assert_eq!(c.codec.kernel, DecodeKernel::Scalar);
        assert_eq!(c.cpu_ms_per_block, 40.45);
        assert_eq!(c.decoded_cache_blocks, 0);
        assert_eq!(c.scan_policy, ScanPolicy::SkipCorrupt);
        assert_eq!(c.retry.max_attempts, 1);
    }

    #[test]
    fn scan_policy_defaults_to_fail_fast() {
        assert_eq!(DbConfig::default().scan_policy, ScanPolicy::FailFast);
        assert_eq!(DbConfig::default().retry, RetryPolicy::default());
    }
}
