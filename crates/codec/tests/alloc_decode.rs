//! Allocation accounting for the decode path.
//!
//! The batch path — [`BlockCodec::decode_batch_into`] through one shared
//! [`DecodeScratch`] into one reused [`TupleBatch`] — must allocate a small
//! constant per *block*, whatever the block holds, in every coding mode and
//! under both kernels. The `Vec<Tuple>` adapter over it must add exactly
//! the digit vector each returned tuple owns. A counting global allocator
//! pins both contracts.
//!
//! [`BlockCodec::decode_batch_into`]: avq_codec::BlockCodec::decode_batch_into

mod alloc_common;
#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use alloc_common::{coded, relation, N, PER_BLOCK};
use avq_codec::{CodingMode, DecodeKernel, DecodeScratch};
use avq_schema::{Tuple, TupleBatch};
use counting_alloc::allocs;

#[test]
fn sequential_decode_allocates_one_vec_per_tuple() {
    let rel = relation();
    let coded_modes = CodingMode::ALL.map(|mode| (mode, coded(&rel, mode)));
    for ((mode, coded), kernel) in coded_modes
        .iter()
        .flat_map(|m| DecodeKernel::ALL.map(|kernel| (m, kernel)))
    {
        let codec = coded.codec().with_kernel(kernel);
        let blocks = coded.block_count() as u64;
        let mut scratch = DecodeScratch::new();
        let mut rows = TupleBatch::new(coded.schema().arity());

        // Warm the scratch and the batch on the largest block, so
        // steady-state capacity is reached before counting.
        let largest = (0..coded.block_count())
            .max_by_key(|&i| codec.tuple_count(coded.block(i)).unwrap())
            .unwrap();
        codec
            .decode_batch_into(coded.block(largest), &mut rows, &mut scratch)
            .unwrap();

        let before = allocs();
        let mut decoded = 0usize;
        for i in 0..coded.block_count() {
            rows.clear();
            codec
                .decode_batch_into(coded.block(i), &mut rows, &mut scratch)
                .unwrap();
            decoded += rows.len();
        }
        let during = allocs() - before;
        assert_eq!(decoded, N as usize);
        assert!(
            during <= PER_BLOCK * blocks,
            "{mode} / {kernel}: batch decode allocated {during} times for {blocks} blocks"
        );
    }

    // The adapter: one digit-vector allocation per decoded tuple, plus a
    // small slack for buffer growth. The old decode path allocated
    // ~5 vectors per tuple; this bound fails loudly if per-tuple
    // temporaries creep back in.
    let coded = coded(&rel, CodingMode::default());
    let codec = coded.codec();
    let mut scratch = DecodeScratch::new();
    let mut out: Vec<Tuple> = Vec::with_capacity(N as usize);
    codec
        .decode_into_scratch(coded.block(0), &mut out, &mut scratch)
        .unwrap();
    out.clear();

    let before = allocs();
    for i in 0..coded.block_count() {
        codec
            .decode_into_scratch(coded.block(i), &mut out, &mut scratch)
            .unwrap();
    }
    let during = allocs() - before;

    assert_eq!(out.len(), N as usize);
    let budget = N + 64;
    assert!(
        during <= budget,
        "decode allocated {during} times for {N} tuples (budget {budget})"
    );
    // Sanity: the decode really happened and owns per-tuple buffers.
    assert!(during >= N, "expected at least one allocation per tuple");
}
