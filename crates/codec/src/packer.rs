//! Block partitioning (§3.3): cut a φ-sorted relation into runs whose coded
//! form fits a disk block.
//!
//! The paper: "The number of tuples allocated to a block before coding must
//! be suitably fixed so as to minimize this [unused] space." The packer is
//! exact, not heuristic: each emitted run is the *longest prefix* of the
//! remaining tuples whose coded size fits the capacity.
//!
//! For [`CodingMode::FieldWise`] and [`CodingMode::AvqChained`] the coded
//! size is incremental in the appended tuple (field-wise adds `m` bytes; the
//! chained stream adds one adjacent-gap entry whose cost does not depend on
//! the representative), so packing is a single linear scan. For
//! [`CodingMode::Avq`] the representative moves as the run grows and every
//! difference is taken against it, so the packer gallops + binary-searches on
//! the exact [`BlockCodec::measure`] with a final linear fix-up.

use crate::block::{BlockCodec, BLOCK_HEADER_BYTES};
use crate::error::CodecError;
use crate::mode::CodingMode;
use avq_schema::Tuple;
use core::ops::Range;

/// Partitions φ-sorted tuples into block-sized runs for one codec.
#[derive(Debug, Clone)]
pub struct BlockPacker {
    codec: BlockCodec,
    capacity: usize,
}

impl BlockPacker {
    /// Creates a packer that fits coded runs into `capacity` bytes.
    pub fn new(codec: BlockCodec, capacity: usize) -> Self {
        BlockPacker { codec, capacity }
    }

    /// The block capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying codec.
    #[inline]
    pub fn codec(&self) -> &BlockCodec {
        &self.codec
    }

    /// Smallest possible coded block: header plus one raw tuple. Any single
    /// tuple must fit or packing fails.
    fn min_block(&self) -> usize {
        BLOCK_HEADER_BYTES + self.codec.schema().tuple_bytes()
    }

    /// Splits `tuples` (which must be in φ order) into consecutive ranges,
    /// each of whose coded size is ≤ the capacity, each maximal.
    pub fn partition(&self, tuples: &[Tuple]) -> Result<Vec<Range<usize>>, CodecError> {
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(pos) = tuples.windows(2).position(|w| matches!(w, [a, b] if a > b)) {
            return Err(CodecError::UnsortedInput { position: pos + 1 });
        }
        if self.min_block() > self.capacity {
            return Err(CodecError::BlockOverflow {
                needed: self.min_block(),
                capacity: self.capacity,
            });
        }
        let max_tuples = u16::MAX as usize;
        let mut ranges = Vec::new();
        let mut start = 0usize;
        while start < tuples.len() {
            // `start < tuples.len()`, so the rest is never empty.
            let rest = tuples.get(start..).unwrap_or(&[]);
            let len = match self.codec.mode() {
                CodingMode::Avq => self.longest_fit_searched(rest, max_tuples),
                CodingMode::AvqChainedBits => self.longest_fit_bits(rest, max_tuples),
                _ => self.longest_fit_linear(rest, max_tuples),
            };
            if len == 0 {
                // Unreachable (min_block fits), but never loop forever.
                break;
            }
            ranges.push(start..start + len);
            start += len;
        }
        Ok(ranges)
    }

    /// Longest fitting prefix by incremental accumulation (exact for
    /// field-wise and chained modes).
    fn longest_fit_linear(&self, tuples: &[Tuple], max_tuples: usize) -> usize {
        let mut size = self.min_block();
        debug_assert!(size <= self.capacity);
        let mut len = 1usize;
        let mut diff = Vec::new();
        for w in tuples.windows(2) {
            if len >= max_tuples {
                break;
            }
            let [prev, next] = w else { break };
            let add = self.codec.gap_cost(prev.digits(), next.digits(), &mut diff);
            if size + add > self.capacity {
                break;
            }
            size += add;
            len += 1;
        }
        debug_assert_eq!(
            Some(size),
            tuples.get(..len).map(|run| self.codec.measure(run))
        );
        len
    }

    /// Longest fitting prefix for the bit-aligned chained mode: entries are
    /// adjacent-gap bit strings, so the accumulated bit count is incremental
    /// and exact.
    fn longest_fit_bits(&self, tuples: &[Tuple], max_tuples: usize) -> usize {
        let base = self.min_block();
        debug_assert!(base <= self.capacity);
        let mut bits = 0usize;
        let mut len = 1usize;
        let mut diff = Vec::new();
        for w in tuples.windows(2) {
            if len >= max_tuples {
                break;
            }
            let [prev, next] = w else { break };
            let add = self.codec.gap_bits(prev.digits(), next.digits(), &mut diff);
            if base + (bits + add).div_ceil(8) > self.capacity {
                break;
            }
            bits += add;
            len += 1;
        }
        debug_assert_eq!(
            Some(base + bits.div_ceil(8)),
            tuples.get(..len).map(|run| self.codec.measure(run))
        );
        len
    }

    /// Longest fitting prefix by gallop + binary search on the exact coded
    /// size (for representative-relative mode, where appending a tuple moves
    /// the median and re-prices every entry).
    fn longest_fit_searched(&self, tuples: &[Tuple], max_tuples: usize) -> usize {
        let n = tuples.len().min(max_tuples);
        // Every probe length is ≤ n ≤ tuples.len(), so the prefix exists.
        let prefix = |k: usize| tuples.get(..k).unwrap_or(tuples);
        // Gallop to bracket the boundary.
        let mut lo = 1usize; // known to fit (min_block checked by caller)
        let mut hi = n;
        let mut probe = 2usize;
        while probe < n {
            if self.codec.measure(prefix(probe)) <= self.capacity {
                lo = probe;
                probe *= 2;
            } else {
                hi = probe;
                break;
            }
        }
        // Binary search in (lo, hi].
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.codec.measure(prefix(mid)) <= self.capacity {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // The coded size is not strictly monotone in run length when the
        // median shifts, so nudge down until the chosen prefix really fits.
        while lo > 1 && self.codec.measure(prefix(lo)) > self.capacity {
            lo -= 1;
        }
        lo
    }

    /// Partitions and encodes in one pass, returning the coded block streams.
    pub fn pack(&self, tuples: &[Tuple]) -> Result<Vec<Vec<u8>>, CodecError> {
        let ranges = self.partition(tuples)?;
        // lint: bounded(one entry per packed block range)
        let mut blocks = Vec::with_capacity(ranges.len());
        for r in ranges {
            // Partition ranges tile `tuples`, so each is in bounds.
            let coded = self.codec.encode(tuples.get(r).unwrap_or(&[]))?;
            debug_assert!(coded.len() <= self.capacity);
            blocks.push(coded);
        }
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::RepChoice;
    use avq_schema::{Domain, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(vec![
            ("a", Domain::uint(64).unwrap()),
            ("b", Domain::uint(64).unwrap()),
            ("c", Domain::uint(64).unwrap()),
        ])
        .unwrap()
    }

    fn dense_tuples(n: u64) -> Vec<Tuple> {
        // Consecutive tuples: tiny gaps, maximal compressibility.
        let s = schema();
        (0..n)
            .map(|i| {
                Tuple::new(
                    s.radix()
                        .unrank(&avq_num::BigUnsigned::from_u64(i))
                        .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn partition_covers_input_exactly() {
        let tuples = dense_tuples(500);
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema(), mode, RepChoice::Median);
            let packer = BlockPacker::new(codec, 64);
            let ranges = packer.partition(&tuples).unwrap();
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, tuples.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
            }
        }
    }

    #[test]
    fn every_block_fits_and_is_maximal() {
        let tuples = dense_tuples(300);
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema(), mode, RepChoice::Median);
            let packer = BlockPacker::new(codec.clone(), 48);
            let ranges = packer.partition(&tuples).unwrap();
            for (i, r) in ranges.iter().enumerate() {
                let size = codec.measure(&tuples[r.clone()]);
                assert!(size <= 48, "block {i} overflows: {size}");
                // Maximality: adding the next tuple must overflow.
                if r.end < tuples.len() {
                    let bigger = codec.measure(&tuples[r.start..r.end + 1]);
                    assert!(bigger > 48, "block {i} not maximal (mode {mode})");
                }
            }
        }
    }

    #[test]
    fn pack_encodes_fitting_blocks() {
        let tuples = dense_tuples(200);
        let codec = BlockCodec::new(schema());
        let packer = BlockPacker::new(codec.clone(), 56);
        let blocks = packer.pack(&tuples).unwrap();
        let mut decoded = Vec::new();
        for b in &blocks {
            assert!(b.len() <= 56);
            codec.decode_into(b, &mut decoded).unwrap();
        }
        assert_eq!(decoded, tuples);
    }

    #[test]
    fn capacity_too_small_for_one_tuple() {
        let codec = BlockCodec::new(schema());
        // min block = 4 header + 3 tuple bytes = 7
        let packer = BlockPacker::new(codec, 6);
        let err = packer.partition(&dense_tuples(3)).unwrap_err();
        assert_eq!(
            err,
            CodecError::BlockOverflow {
                needed: 7,
                capacity: 6
            }
        );
    }

    #[test]
    fn exact_minimum_capacity_gives_one_tuple_blocks() {
        let codec = BlockCodec::new(schema());
        let packer = BlockPacker::new(codec, 7);
        let ranges = packer.partition(&dense_tuples(4)).unwrap();
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn empty_input_gives_no_blocks() {
        let codec = BlockCodec::new(schema());
        let packer = BlockPacker::new(codec, 100);
        assert!(packer.partition(&[]).unwrap().is_empty());
    }

    #[test]
    fn unsorted_input_rejected() {
        let codec = BlockCodec::new(schema());
        let packer = BlockPacker::new(codec, 100);
        let tuples = vec![Tuple::from([1u64, 0, 0]), Tuple::from([0u64, 0, 0])];
        assert!(matches!(
            packer.partition(&tuples).unwrap_err(),
            CodecError::UnsortedInput { .. }
        ));
    }

    #[test]
    fn chained_packs_more_than_fieldwise_on_dense_data() {
        let tuples = dense_tuples(400);
        let cap = 128;
        let fw = BlockPacker::new(
            BlockCodec::with_options(schema(), CodingMode::FieldWise, RepChoice::Median),
            cap,
        );
        let ch = BlockPacker::new(
            BlockCodec::with_options(schema(), CodingMode::AvqChained, RepChoice::Median),
            cap,
        );
        let fw_blocks = fw.partition(&tuples).unwrap().len();
        let ch_blocks = ch.partition(&tuples).unwrap().len();
        assert!(
            ch_blocks < fw_blocks,
            "chained {ch_blocks} should beat field-wise {fw_blocks}"
        );
    }

    #[test]
    fn sparse_data_still_packs() {
        // Far-apart tuples: diffs as wide as tuples; AVQ degrades gracefully.
        let s = schema();
        let tuples: Vec<Tuple> = (0..50u64)
            .map(|i| {
                Tuple::new(
                    s.radix()
                        .unrank(&avq_num::BigUnsigned::from_u64(i * 5000))
                        .unwrap(),
                )
            })
            .collect();
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(s.clone(), mode, RepChoice::Median);
            let packer = BlockPacker::new(codec.clone(), 64);
            let blocks = packer.pack(&tuples).unwrap();
            let mut decoded = Vec::new();
            for b in &blocks {
                codec.decode_into(b, &mut decoded).unwrap();
            }
            assert_eq!(decoded, tuples, "mode {mode}");
        }
    }
}
