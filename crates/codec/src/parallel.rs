//! Parallel bulk decompression.
//!
//! Blocks are self-contained streams, so decoding parallelises per block —
//! but block decode times are skewed (a p99 block costs ~30× the median), so
//! [`decompress_parallel`] feeds workers from a shared atomic work-stealing
//! queue rather than fixed stripes: each worker claims the next undecoded
//! block, reusing one [`DecodeScratch`], and the per-block runs are
//! reassembled in φ order afterwards.

use crate::block::{BlockCodec, DecodeScratch};
use crate::compress::CodedRelation;
use crate::error::{CodecError, Section};
use avq_schema::{Relation, Tuple};

/// Parallel mirror of [`CodedRelation::decompress`]: decodes every block of
/// a coded relation across up to `threads` workers and returns the tuples
/// as a relation in φ order. The result equals the sequential decompression
/// exactly.
pub fn decompress_parallel(coded: &CodedRelation, threads: usize) -> Result<Relation, CodecError> {
    let codec = coded.codec();
    let tuples = decode_blocks_parallel(&codec, coded.blocks(), threads)?;
    Relation::from_tuples(coded.schema().clone(), tuples).map_err(|e| CodecError::Corrupt {
        section: Section::Entries,
        offset: 0,
        detail: format!("decoded tuples violate the schema: {e}"),
    })
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
fn decode_blocks_parallel(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CodecOptions};
    use crate::mode::CodingMode;
    use avq_schema::{Domain, Schema};

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
    fn zero_threads_clamped() {
        let rel = relation(500);
        let coded = compress(&rel, CodecOptions::default()).unwrap();
        assert_eq!(decompress_parallel(&coded, 0).unwrap().len(), 500);
    }

    #[test]
    fn parallel_roundtrip() {
        let rel = relation(30_000);
        let coded = compress(
            &rel,
            CodecOptions {
                block_capacity: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let back = decompress_parallel(&coded, 4).unwrap();
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
