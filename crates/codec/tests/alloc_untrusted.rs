//! Allocation bound for hostile block bytes.
//!
//! A block's 4-byte header carries the tuple count `u` as a wire `u16`, and
//! the decoder reserves its output rows from it before it has parsed a
//! single entry. Whatever the bytes say, no decoder entry point may ask the
//! allocator for more than the rows of a full `u16` count —
//! `65 535 × arity × 8` bytes — in one request (the three AVQ modes reach
//! exactly that on a `0xFFFF` count; field-wise checks the body length
//! first and stays under a kilobyte). `proptests.rs` shows the same inputs
//! never panic; the allocator here shows they never balloon.

mod alloc_common;
#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use alloc_common::{coded, relation};
use avq_codec::{BlockCodec, CodingMode, DecodeKernel, DecodeScratch};
use avq_schema::{Tuple, TupleBatch};
use counting_alloc::take_largest_request;

/// Runs every decoder entry point over `bytes` — fresh scratch and output,
/// so nothing is served from capacity an earlier call left behind — and
/// returns the largest single request any of them made.
fn largest_request(codec: &BlockCodec, probe: &Tuple, bytes: &[u8]) -> u64 {
    take_largest_request();
    let mut rows = TupleBatch::new(probe.arity());
    let mut scratch = DecodeScratch::new();
    let _ = codec.decode_batch_into(bytes, &mut rows, &mut scratch);
    let _ = codec.tuple_count(bytes);
    let _ = codec.read_representative(bytes);
    let _ = codec.contains_tuple(bytes, probe);
    take_largest_request()
}

/// SplitMix64: the seeded garbage needs no more than this.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn hostile_headers_never_request_more_than_a_full_block_of_rows() {
    let rel = relation();
    let arity = rel.schema().arity();
    let bound = 65_535 * arity as u64 * 8;
    let probe = Tuple::new(rel.schema().radix().min_digits());

    for (seed, mode) in CodingMode::ALL.into_iter().enumerate() {
        let coded = coded(&rel, mode);
        for kernel in DecodeKernel::ALL {
            let codec = coded.codec().with_kernel(kernel);
            let check = |what: &str, bytes: &[u8]| {
                let got = largest_request(&codec, &probe, bytes);
                assert!(
                    got <= bound,
                    "{mode} / {kernel}: {what} made one {got}-byte request (bound {bound})"
                );
            };

            // Valid blocks whose header claims a count and a
            // representative index the body cannot back.
            let last = coded.block_count() - 1;
            for i in [0, last / 2, last] {
                for count in [0xFFFFu16, 0x7FFF, 0x8000] {
                    for rep_idx in [0xFFFFu16, 0x7FFF, 0x8000, 0] {
                        let mut bytes = coded.block(i).to_vec();
                        bytes[..2].copy_from_slice(&count.to_le_bytes());
                        bytes[2..4].copy_from_slice(&rep_idx.to_le_bytes());
                        check(
                            &format!("block {i}, header {count:#x}/{rep_idx:#x}"),
                            &bytes,
                        );
                    }
                }
            }

            // Seeded garbage, every length class up to 512 bytes.
            let mut state = 0xA5A5_0000 + seed as u64;
            for case in 0..256 {
                let len = (next(&mut state) % 513) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
                check(&format!("garbage case {case} ({len} bytes)"), &bytes);
            }
        }
    }
}
