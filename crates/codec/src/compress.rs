//! Relation-level compression: the full §3 pipeline in one call.
//!
//! [`compress`] takes a [`Relation`], applies tuple re-ordering (§3.2),
//! block partitioning (§3.3), and block coding (§3.4), and returns a
//! [`CodedRelation`] — the sequence of coded block streams plus the per-block
//! metadata (representative, bounds) that access methods build on.

use crate::block::{BlockCodec, DecodeScratch};
use crate::error::{CodecError, Section};
use crate::kernel::DecodeKernel;
use crate::mode::{CodingMode, RepChoice};
use crate::packer::BlockPacker;
use crate::stats::CompressionStats;
use avq_obs::names;
use avq_schema::{Relation, Schema, Tuple, TupleBatch};
use std::sync::Arc;

/// Options for the compression pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecOptions {
    /// How blocks are coded.
    pub mode: CodingMode,
    /// Which tuple of a block becomes its representative.
    pub rep: RepChoice,
    /// Disk-block capacity in bytes (the paper uses 8192).
    pub block_capacity: usize,
    /// Which decode kernel block decoding routes through. Affects decode
    /// speed only — the coded bytes and decoded tuples are identical for
    /// every kernel.
    pub kernel: DecodeKernel,
}

impl Default for CodecOptions {
    fn default() -> Self {
        CodecOptions {
            mode: CodingMode::default(),
            rep: RepChoice::default(),
            block_capacity: 8192,
            kernel: DecodeKernel::default(),
        }
    }
}

/// Per-block metadata kept outside the coded stream.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// The block's representative tuple (the §4.1 primary-index key).
    pub representative: Tuple,
    /// φ-smallest tuple in the block.
    pub min: Tuple,
    /// φ-largest tuple in the block.
    pub max: Tuple,
    /// Number of tuples in the block.
    pub tuple_count: usize,
    /// Coded size in bytes.
    pub coded_bytes: usize,
}

/// A compressed relation: coded block streams plus metadata.
#[derive(Debug, Clone)]
pub struct CodedRelation {
    schema: Arc<Schema>,
    options: CodecOptions,
    blocks: Vec<Vec<u8>>,
    meta: Vec<BlockMeta>,
    tuple_count: usize,
}

/// Compresses a relation. The input order is irrelevant: tuples are copied
/// and sorted into φ order first (§3.2).
pub fn compress(relation: &Relation, options: CodecOptions) -> Result<CodedRelation, CodecError> {
    let mut tuples = relation.tuples().to_vec();
    tuples.sort_unstable();
    compress_sorted(relation.schema().clone(), &tuples, options)
}

/// Compresses tuples already in φ order (skips the copy + sort).
pub fn compress_sorted(
    schema: Arc<Schema>,
    tuples: &[Tuple],
    options: CodecOptions,
) -> Result<CodedRelation, CodecError> {
    let _span = avq_obs::span!(names::SPAN_CODEC_COMPRESS);
    avq_obs::counter!(names::CODEC_COMPRESS_RELATIONS).inc();
    let codec = BlockCodec::with_options(schema.clone(), options.mode, options.rep);
    let packer = BlockPacker::new(codec.clone(), options.block_capacity);
    let ranges = packer.partition(tuples)?;
    // lint: bounded(one entry per packed block range)
    let mut blocks = Vec::with_capacity(ranges.len());
    // lint: bounded(one entry per packed block range)
    let mut meta = Vec::with_capacity(ranges.len());
    for r in ranges {
        // Partition ranges tile `tuples`, so each is in bounds and
        // non-empty.
        let run = tuples.get(r).unwrap_or(&[]);
        let coded = codec.encode(run)?;
        let rep_idx = match options.mode {
            CodingMode::FieldWise => 0,
            _ => options.rep.index(run.len()),
        };
        let (Some(rep), Some(min), Some(max)) = (run.get(rep_idx), run.first(), run.last()) else {
            return Err(CodecError::EmptyBlock);
        };
        meta.push(BlockMeta {
            representative: rep.clone(),
            min: min.clone(),
            max: max.clone(),
            tuple_count: run.len(),
            coded_bytes: coded.len(),
        });
        blocks.push(coded);
    }
    Ok(CodedRelation {
        schema,
        options,
        blocks,
        meta,
        tuple_count: tuples.len(),
    })
}

impl CodedRelation {
    /// Reassembles a coded relation from previously-encoded block streams
    /// (read back from a file, or copied out of a store by a checkpoint),
    /// recomputing per-block metadata. Every block is decoded, into one
    /// reused batch, and must be non-empty and φ-sorted within itself and
    /// after the block before it. Within a block the order is walked only
    /// for a mode whose decode does not guarantee it
    /// ([`CodingMode::orders_by_construction`]).
    pub fn from_blocks(
        schema: Arc<Schema>,
        options: CodecOptions,
        blocks: Vec<Vec<u8>>,
    ) -> Result<Self, CodecError> {
        let codec = BlockCodec::with_options(schema.clone(), options.mode, options.rep)
            .with_kernel(options.kernel);
        // lint: bounded(one entry per supplied block)
        let mut meta = Vec::with_capacity(blocks.len());
        let mut tuple_count = 0usize;
        let mut rows = TupleBatch::new(schema.arity());
        let mut scratch = DecodeScratch::new();
        let mut prev_max: Option<Tuple> = None;
        for (i, b) in blocks.iter().enumerate() {
            rows.clear();
            codec.decode_batch_into(b, &mut rows, &mut scratch)?;
            let Some(last) = rows.len().checked_sub(1) else {
                return Err(CodecError::EmptyBlock);
            };
            let (min, max) = (rows.tuple(0), rows.tuple(last));
            let after_prev = prev_max.as_ref().is_none_or(|pm| min >= *pm);
            let sorted = if options.mode.orders_by_construction() {
                debug_assert!(rows.is_sorted());
                true
            } else {
                rows.is_sorted()
            };
            if !after_prev || !sorted {
                return Err(CodecError::UnsortedInput { position: i });
            }
            tuple_count += rows.len();
            meta.push(BlockMeta {
                representative: codec.read_representative(b)?,
                min,
                max: max.clone(),
                tuple_count: rows.len(),
                coded_bytes: b.len(),
            });
            prev_max = Some(max);
        }
        Ok(CodedRelation {
            schema,
            options,
            blocks,
            meta,
            tuple_count,
        })
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The options the relation was coded with.
    #[inline]
    pub fn options(&self) -> CodecOptions {
        self.options
    }

    /// A codec configured for this relation's blocks (including the decode
    /// kernel selected in the options).
    pub fn codec(&self) -> BlockCodec {
        BlockCodec::with_options(self.schema.clone(), self.options.mode, self.options.rep)
            .with_kernel(self.options.kernel)
    }

    /// Number of coded blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of tuples.
    #[inline]
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// The coded byte stream of block `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.block_count()` (documented index API).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panicking index accessor; i is caller-validated"
    )]
    pub fn block(&self, i: usize) -> &[u8] {
        &self.blocks[i]
    }

    /// All coded block streams in φ order.
    #[inline]
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }

    /// Metadata of block `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.block_count()` (documented index API).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panicking index accessor; i is caller-validated"
    )]
    pub fn meta(&self, i: usize) -> &BlockMeta {
        &self.meta[i]
    }

    /// Metadata of all blocks in φ order.
    #[inline]
    pub fn metas(&self) -> &[BlockMeta] {
        &self.meta
    }

    /// Decodes block `i` into tuples.
    ///
    /// # Panics
    /// Panics if `i >= self.block_count()` (documented index API).
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panicking index accessor; i is caller-validated"
    )]
    pub fn decode_block(&self, i: usize) -> Result<Vec<Tuple>, CodecError> {
        self.codec().decode(&self.blocks[i])
    }

    /// Decompresses the whole relation (tuples come back in φ order).
    ///
    /// One [`crate::DecodeScratch`] is carried across all blocks, so the
    /// whole pass allocates O(tuples): the digit vector each tuple owns,
    /// and nothing else once the scratch reaches steady state.
    pub fn decompress(&self) -> Result<Relation, CodecError> {
        let codec = self.codec();
        let mut scratch = DecodeScratch::new();
        // lint: bounded(tuple_count was counted at compression time)
        let mut tuples = Vec::with_capacity(self.tuple_count);
        for b in &self.blocks {
            codec.decode_into_scratch(b, &mut tuples, &mut scratch)?;
        }
        Relation::from_tuples(self.schema.clone(), tuples).map_err(|e| CodecError::Corrupt {
            section: Section::Entries,
            offset: 0,
            detail: format!("decoded tuples violate the schema: {e}"),
        })
    }

    /// Index of the first block whose φ-range could contain `tuple`
    /// (binary search on block bounds). Returns `None` for an empty relation.
    pub fn locate_block(&self, tuple: &Tuple) -> Option<usize> {
        if self.meta.is_empty() {
            return None;
        }
        // First block whose max >= tuple; if none, the last block.
        let idx = self.meta.partition_point(|m| m.max < *tuple);
        Some(idx.min(self.meta.len() - 1))
    }

    /// Compression accounting for this relation.
    pub fn stats(&self) -> CompressionStats {
        let m = self.schema.tuple_bytes();
        let uncoded_bytes = self.tuple_count * m;
        let coded_payload_bytes = self.blocks.iter().map(Vec::len).sum();
        let cap = self.options.block_capacity;
        // Uncoded layout: fixed-width tuples, none split across blocks, with
        // the same 4-byte header the coded blocks carry.
        let per_block = cap
            .saturating_sub(crate::block::BLOCK_HEADER_BYTES)
            .checked_div(m)
            .unwrap_or(self.tuple_count.max(1));
        let uncoded_blocks = match per_block {
            0 => 0,
            per_block => self.tuple_count.div_ceil(per_block),
        };
        CompressionStats {
            tuple_count: self.tuple_count,
            tuple_bytes: m,
            block_capacity: cap,
            uncoded_bytes,
            coded_payload_bytes,
            coded_blocks: self.blocks.len(),
            uncoded_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_num::BigUnsigned;
    use avq_schema::Domain;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(vec![
            ("a", Domain::uint(32).unwrap()),
            ("b", Domain::uint(64).unwrap()),
            ("c", Domain::uint(128).unwrap()),
        ])
        .unwrap()
    }

    fn relation(n: u64, stride: u64) -> Relation {
        let s = schema();
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| {
                Tuple::new(
                    s.radix()
                        .unrank(&BigUnsigned::from_u64(i * stride))
                        .unwrap(),
                )
            })
            .collect();
        Relation::from_tuples(s, tuples).unwrap()
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let rel = relation(1000, 37);
        for mode in CodingMode::ALL {
            let opts = CodecOptions {
                mode,
                block_capacity: 256,
                ..Default::default()
            };
            let coded = compress(&rel, opts).unwrap();
            let back = coded.decompress().unwrap();
            let mut expect = rel.tuples().to_vec();
            expect.sort_unstable();
            assert_eq!(back.tuples(), &expect[..], "mode {mode}");
        }
    }

    #[test]
    fn unsorted_input_is_sorted_by_compress() {
        let s = schema();
        let tuples = vec![
            Tuple::from([5u64, 0, 0]),
            Tuple::from([1u64, 0, 0]),
            Tuple::from([3u64, 0, 0]),
        ];
        let rel = Relation::from_tuples(s, tuples).unwrap();
        let coded = compress(&rel, CodecOptions::default()).unwrap();
        let back = coded.decompress().unwrap();
        assert!(back.is_sorted());
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn meta_bounds_are_correct() {
        let rel = relation(500, 101);
        let coded = compress(
            &rel,
            CodecOptions {
                block_capacity: 128,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(coded.block_count() > 1);
        let mut total = 0usize;
        for i in 0..coded.block_count() {
            let tuples = coded.decode_block(i).unwrap();
            let meta = coded.meta(i);
            assert_eq!(meta.tuple_count, tuples.len());
            assert_eq!(meta.min, tuples[0]);
            assert_eq!(meta.max, *tuples.last().unwrap());
            assert_eq!(meta.coded_bytes, coded.block(i).len());
            assert!(tuples.contains(&meta.representative));
            total += tuples.len();
        }
        assert_eq!(total, coded.tuple_count());
        // Blocks are disjoint and ordered.
        for w in coded.metas().windows(2) {
            assert!(w[0].max < w[1].min);
        }
    }

    #[test]
    fn locate_block_finds_containing_block() {
        let rel = relation(400, 53);
        let coded = compress(
            &rel,
            CodecOptions {
                block_capacity: 96,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..coded.block_count() {
            for t in coded.decode_block(i).unwrap() {
                assert_eq!(coded.locate_block(&t), Some(i), "tuple {t:?}");
            }
        }
        // A tuple beyond every block maps to the last block.
        let beyond = Tuple::from([31u64, 63, 127]);
        assert_eq!(coded.locate_block(&beyond), Some(coded.block_count() - 1));
    }

    #[test]
    fn stats_add_up() {
        let rel = relation(2000, 11);
        let coded = compress(
            &rel,
            CodecOptions {
                block_capacity: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let st = coded.stats();
        assert_eq!(st.tuple_count, 2000);
        assert_eq!(st.uncoded_bytes, 2000 * 3);
        assert_eq!(st.coded_blocks, coded.block_count());
        assert_eq!(
            st.coded_payload_bytes,
            coded.blocks().iter().map(Vec::len).sum::<usize>()
        );
        // Dense data must compress: fewer coded blocks than uncoded.
        assert!(st.coded_blocks < st.uncoded_blocks);
        assert!(st.block_reduction_percent() > 0.0);
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::new(schema());
        let coded = compress(&rel, CodecOptions::default()).unwrap();
        assert_eq!(coded.block_count(), 0);
        assert_eq!(coded.tuple_count(), 0);
        assert!(coded.locate_block(&Tuple::from([0u64, 0, 0])).is_none());
        assert_eq!(coded.decompress().unwrap().len(), 0);
    }

    #[test]
    fn paper_block_capacity_default() {
        assert_eq!(CodecOptions::default().block_capacity, 8192);
    }
}
