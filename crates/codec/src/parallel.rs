//! Parallel bulk compression and decompression.
//!
//! Block coding is embarrassingly parallel once the partition is fixed:
//! every block depends only on its own run of tuples. [`compress_parallel`]
//! sorts the input on a scoped thread pool (chunk-sort + k-way merge),
//! computes the partition sequentially (it is a cheap scan), and encodes the
//! runs on worker threads, producing output byte-identical to
//! [`crate::compress`]. Decoding parallelises the same way — blocks are
//! self-contained streams — but block decode times are skewed (a p99 block
//! costs ~30× the median), so [`decompress_parallel`] feeds workers from a
//! shared atomic work-stealing queue rather than fixed stripes: each worker
//! claims the next undecoded block, reusing one [`DecodeScratch`], and the
//! per-block runs are reassembled in φ order afterwards.

use crate::block::{BlockCodec, DecodeScratch};
use crate::compress::{compress_sorted, CodecOptions, CodedRelation};
use crate::error::CodecError;
use crate::packer::BlockPacker;
use avq_schema::{Relation, Schema, Tuple};
use std::sync::Arc;

/// Compresses a relation using up to `threads` worker threads. The result is
/// byte-identical to [`crate::compress`] with the same options.
///
/// Already-sorted input is detected and compressed in place without the
/// copy; unsorted input is copied, chunk-sorted across the workers, and
/// k-way merged.
pub fn compress_parallel(
    relation: &Relation,
    options: CodecOptions,
    threads: usize,
) -> Result<CodedRelation, CodecError> {
    let threads = threads.max(1);
    let src = relation.tuples();
    if src.is_sorted() {
        return compress_sorted_parallel(relation.schema().clone(), src, options, threads);
    }
    let mut tuples = src.to_vec();
    if threads == 1 || tuples.len() < 4096 {
        tuples.sort_unstable();
    } else {
        tuples = sort_parallel(tuples, threads);
    }
    compress_sorted_parallel(relation.schema().clone(), &tuples, options, threads)
}

/// Sorts tuples into φ order with up to `threads` workers: each worker
/// sorts one contiguous chunk, then the sorted runs are k-way merged
/// through a min-heap. Equal tuples are fully identical digit vectors, so
/// the merge order among ties cannot affect the result.
fn sort_parallel(mut tuples: Vec<Tuple>, threads: usize) -> Vec<Tuple> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = tuples.len();
    let chunk = n.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for c in tuples.chunks_mut(chunk) {
            scope.spawn(|| c.sort_unstable());
        }
    });
    let runs = n.div_ceil(chunk);
    if runs <= 1 {
        return tuples;
    }

    /// Moves run `r`'s head tuple (if any) onto the heap and advances the
    /// run's cursor.
    fn push_head(
        tuples: &mut [Tuple],
        cursors: &mut [(usize, usize)],
        r: usize,
        heap: &mut BinaryHeap<Reverse<(Tuple, usize)>>,
    ) {
        let Some(&mut (ref mut head, end)) = cursors.get_mut(r) else {
            return;
        };
        if *head >= end {
            return;
        }
        let Some(slot) = tuples.get_mut(*head) else {
            return;
        };
        *head += 1;
        heap.push(Reverse((
            std::mem::replace(slot, Tuple::new(Vec::new())),
            r,
        )));
    }

    // Per-run cursors: (next index, one past the run's end).
    let mut cursors: Vec<(usize, usize)> = (0..runs)
        .map(|r| (r * chunk, ((r + 1) * chunk).min(n)))
        .collect();
    // lint: bounded(one heap slot per sorted run; runs ≤ thread count)
    let mut heap: BinaryHeap<Reverse<(Tuple, usize)>> = BinaryHeap::with_capacity(runs);
    for r in 0..runs {
        push_head(&mut tuples, &mut cursors, r, &mut heap);
    }
    // lint: bounded(n is the input tuple count)
    let mut out = Vec::with_capacity(n);
    while let Some(Reverse((t, r))) = heap.pop() {
        out.push(t);
        push_head(&mut tuples, &mut cursors, r, &mut heap);
    }
    out
}

/// Parallel variant of [`crate::compress_sorted`].
pub fn compress_sorted_parallel(
    schema: Arc<Schema>,
    tuples: &[Tuple],
    options: CodecOptions,
    threads: usize,
) -> Result<CodedRelation, CodecError> {
    let threads = threads.max(1);
    if threads == 1 || tuples.len() < 4096 {
        return compress_sorted(schema, tuples, options);
    }
    let codec = BlockCodec::with_options(schema.clone(), options.mode, options.rep);
    let packer = BlockPacker::new(codec.clone(), options.block_capacity);
    let ranges = packer.partition(tuples)?;

    // lint: bounded(one slot per partitioned block range)
    let mut blocks: Vec<Result<Vec<u8>, CodecError>> = Vec::with_capacity(ranges.len());
    blocks.resize_with(ranges.len(), || Ok(Vec::new()));

    // Static chunking: contiguous stripes of blocks per worker keep each
    // worker's reads local.
    let per_worker = ranges.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (ranges_chunk, out_chunk) in
            ranges.chunks(per_worker).zip(blocks.chunks_mut(per_worker))
        {
            let codec = codec.clone();
            scope.spawn(move || {
                for (r, out) in ranges_chunk.iter().zip(out_chunk.iter_mut()) {
                    // Partition ranges tile `tuples`, so each is in bounds.
                    *out = codec.encode(tuples.get(r.clone()).unwrap_or(&[]));
                }
            });
        }
    });

    let blocks: Vec<Vec<u8>> = blocks.into_iter().collect::<Result<_, _>>()?;
    CodedRelation::from_blocks(schema, options, blocks)
}

/// Decodes a φ-ordered sequence of coded block streams into their tuples
/// using up to `threads` worker threads, one [`DecodeScratch`] per worker,
/// scheduled through a shared work-stealing block queue.
///
/// Workers claim blocks one at a time from an atomic global index
/// (`fetch_add`), so a straggler block — a 4 ms p99 outlier — occupies one
/// worker while the rest keep draining the queue; fixed chunk assignment
/// would instead serialize the whole pass behind the unluckiest stripe.
/// Each worker accumulates `(block index, tuple run)` pairs; after the
/// scope joins, the runs are reassembled in block order, so the output is
/// identical to decoding every block sequentially with
/// [`BlockCodec::decode_into`].
///
/// On failure, decoding aborts early and the error of the φ-smallest
/// failing block among those the workers reached is returned.
pub fn decode_blocks_parallel(
    codec: &BlockCodec,
    blocks: &[Vec<u8>],
    threads: usize,
) -> Result<Vec<Tuple>, CodecError> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let threads = threads.max(1);
    if threads == 1 || blocks.len() < 2 {
        let mut out = Vec::new();
        let mut scratch = DecodeScratch::new();
        for b in blocks {
            codec.decode_into_scratch(b, &mut out, &mut scratch)?;
        }
        return Ok(out);
    }

    type WorkerRuns = Vec<(usize, Vec<Tuple>)>;
    let workers = threads.min(blocks.len());
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // lint: bounded(one slot per worker; workers ≤ thread count)
    let mut parts: Vec<(WorkerRuns, Option<(usize, CodecError)>)> = Vec::with_capacity(workers);
    parts.resize_with(workers, || (Vec::new(), None));

    std::thread::scope(|scope| {
        for slot in parts.iter_mut() {
            let codec = codec.clone();
            let next = &next;
            let failed = &failed;
            scope.spawn(move || {
                let mut scratch = DecodeScratch::new();
                let mut runs: WorkerRuns = Vec::new();
                let mut err = None;
                while !failed.load(Ordering::Relaxed) {
                    // Claiming is the only synchronization: fetch_add hands
                    // every block to exactly one worker, and idle workers
                    // keep claiming until the queue is dry.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(b) = blocks.get(i) else {
                        break;
                    };
                    let mut out = Vec::new();
                    match codec.decode_into_scratch(b, &mut out, &mut scratch) {
                        Ok(()) => runs.push((i, out)),
                        Err(e) => {
                            err = Some((i, e));
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                *slot = (runs, err);
            });
        }
    });

    // Smallest failing block index wins, for a deterministic error.
    let mut first_err: Option<(usize, CodecError)> = None;
    for (_, e) in parts.iter_mut() {
        if let Some((i, err)) = e.take() {
            if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                first_err = Some((i, err));
            }
        }
    }
    if let Some((_, err)) = first_err {
        return Err(err);
    }

    // Reassemble the out-of-order runs into φ order.
    let mut runs: WorkerRuns = parts.into_iter().flat_map(|(r, _)| r).collect();
    runs.sort_unstable_by_key(|&(i, _)| i);
    // lint: bounded(sum of the decoded runs' lengths)
    let mut out = Vec::with_capacity(runs.iter().map(|(_, r)| r.len()).sum());
    for (_, run) in runs {
        out.extend(run);
    }
    Ok(out)
}

/// Parallel mirror of [`CodedRelation::decompress`]: decodes every block of
/// a coded relation across up to `threads` workers and returns the tuples
/// as a relation in φ order. The result equals the sequential decompression
/// exactly.
pub fn decompress_parallel(coded: &CodedRelation, threads: usize) -> Result<Relation, CodecError> {
    let codec = coded.codec();
    let tuples = decode_blocks_parallel(&codec, coded.blocks(), threads)?;
    Relation::from_tuples(coded.schema().clone(), tuples).map_err(|e| CodecError::Corrupt {
        section: "entries",
        offset: 0,
        detail: format!("decoded tuples violate the schema: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::mode::CodingMode;
    use avq_schema::Domain;

    fn relation(n: u64) -> Relation {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(64).unwrap()),
            ("b", Domain::uint(256).unwrap()),
            ("c", Domain::uint(4096).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| Tuple::from([(i * 13) % 64, (i * 7) % 256, (i * 31) % 4096]))
            .collect();
        Relation::from_tuples(schema, tuples).unwrap()
    }

    #[test]
    fn parallel_matches_sequential_bytes() {
        let rel = relation(20_000);
        for mode in CodingMode::ALL {
            let opts = CodecOptions {
                mode,
                block_capacity: 512,
                ..Default::default()
            };
            let seq = compress(&rel, opts).unwrap();
            for threads in [1, 2, 4, 7] {
                let par = compress_parallel(&rel, opts, threads).unwrap();
                assert_eq!(par.block_count(), seq.block_count());
                for i in 0..seq.block_count() {
                    assert_eq!(
                        par.block(i),
                        seq.block(i),
                        "mode {mode}, {threads} threads, block {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_input_skips_copy_and_matches() {
        let rel = relation(20_000);
        let mut tuples = rel.tuples().to_vec();
        tuples.sort_unstable();
        let sorted_rel = Relation::from_tuples(rel.schema().clone(), tuples).unwrap();
        assert!(sorted_rel.tuples().is_sorted());
        let opts = CodecOptions {
            block_capacity: 512,
            ..Default::default()
        };
        let seq = compress(&rel, opts).unwrap();
        let par = compress_parallel(&sorted_rel, opts, 4).unwrap();
        assert_eq!(par.blocks(), seq.blocks());
    }

    #[test]
    fn parallel_sort_matches_sequential_sort() {
        let rel = relation(10_000);
        let mut expect = rel.tuples().to_vec();
        expect.sort_unstable();
        for threads in [2, 3, 8, 13] {
            let got = sort_parallel(rel.tuples().to_vec(), threads);
            assert_eq!(got, expect, "{threads} threads");
        }
        // More workers than tuples.
        let small: Vec<Tuple> = rel.tuples()[..5].to_vec();
        let mut small_expect = small.clone();
        small_expect.sort_unstable();
        assert_eq!(sort_parallel(small, 16), small_expect);
    }

    #[test]
    fn small_input_falls_back_to_sequential() {
        let rel = relation(100);
        let opts = CodecOptions {
            block_capacity: 512,
            ..Default::default()
        };
        let par = compress_parallel(&rel, opts, 8).unwrap();
        let seq = compress(&rel, opts).unwrap();
        assert_eq!(par.blocks(), seq.blocks());
    }

    #[test]
    fn zero_threads_clamped() {
        let rel = relation(500);
        let par = compress_parallel(&rel, CodecOptions::default(), 0).unwrap();
        assert_eq!(par.tuple_count(), 500);
        assert_eq!(
            decompress_parallel(&par, 0).unwrap().len(),
            500,
            "decode side clamps too"
        );
    }

    #[test]
    fn parallel_roundtrip() {
        let rel = relation(30_000);
        let par = compress_parallel(
            &rel,
            CodecOptions {
                block_capacity: 1024,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        let back = par.decompress().unwrap();
        let mut expect = rel.tuples().to_vec();
        expect.sort_unstable();
        assert_eq!(back.tuples(), &expect[..]);
    }

    #[test]
    fn parallel_decompress_matches_sequential() {
        let rel = relation(20_000);
        for mode in CodingMode::ALL {
            let opts = CodecOptions {
                mode,
                block_capacity: 512,
                ..Default::default()
            };
            let coded = compress(&rel, opts).unwrap();
            let seq = coded.decompress().unwrap();
            for threads in [1, 2, 4, 7] {
                let par = decompress_parallel(&coded, threads).unwrap();
                assert_eq!(par.tuples(), seq.tuples(), "mode {mode}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_decode_propagates_errors() {
        let rel = relation(20_000);
        let coded = compress(
            &rel,
            CodecOptions {
                block_capacity: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let mut blocks = coded.blocks().to_vec();
        let victim = blocks.len() / 2;
        blocks[victim].truncate(3); // shorter than the header
        let codec = coded.codec();
        for threads in [1, 4] {
            assert!(
                decode_blocks_parallel(&codec, &blocks, threads).is_err(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_block_list_decodes_to_nothing() {
        let rel = relation(10);
        let coded = compress(&rel, CodecOptions::default()).unwrap();
        let codec = coded.codec();
        assert_eq!(decode_blocks_parallel(&codec, &[], 4).unwrap(), Vec::new());
    }
}
