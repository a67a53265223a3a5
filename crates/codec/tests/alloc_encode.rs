//! Allocation accounting for the encode side: [`BlockCodec::encode_into`]
//! and [`BlockCodec::measure`] take every difference in one reused buffer
//! and serialize it directly, so a block costs a small constant number of
//! allocations however many tuples it holds — splits, bulk load,
//! checkpoints and the packer's sizing loop all run through them.
//! Counting-allocator twin of `alloc_decode.rs`.
//!
//! [`BlockCodec::encode_into`]: avq_codec::BlockCodec::encode_into
//! [`BlockCodec::measure`]: avq_codec::BlockCodec::measure

mod alloc_common;
#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use alloc_common::{coded, relation, N};
use avq_codec::CodingMode;
use counting_alloc::allocs;

#[test]
fn encode_and_measure_allocate_a_constant_per_block() {
    let rel = relation();
    for mode in CodingMode::ALL {
        let coded = coded(&rel, mode);
        let codec = coded.codec();
        let blocks: Vec<_> = (0..coded.block_count())
            .map(|i| codec.decode(coded.block(i)).unwrap())
            .collect();
        let tuples = N as usize;
        // The byte-aligned modes need the difference buffer and nothing
        // else; the bit-aligned one also grows its bit stream by doubling,
        // which is logarithmic in the block size, not linear in the tuples.
        let per_block = match mode {
            CodingMode::AvqChainedBits => 20,
            _ => 2,
        };
        let budget = per_block * blocks.len() as u64;
        assert!(budget < N / 10, "{mode}: the bound must bite");

        let mut out = Vec::with_capacity(coded.options().block_capacity);
        let before = allocs();
        for (i, block) in blocks.iter().enumerate() {
            out.clear();
            codec.encode_into(block, &mut out).unwrap();
            assert_eq!(out, coded.block(i), "{mode}: block {i}");
        }
        let encode = allocs() - before;
        assert!(
            encode <= budget,
            "{mode}: encode allocated {encode} times for {} blocks of {tuples} tuples",
            blocks.len()
        );

        let before = allocs();
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(codec.measure(block), coded.block(i).len(), "{mode}");
        }
        let measure = allocs() - before;
        assert!(
            measure <= budget,
            "{mode}: measure allocated {measure} times for {} blocks",
            blocks.len()
        );
    }
}
