//! Single-bit flips of coded blocks, decoded by the codec and read back
//! through the store.
//!
//! A decoded-cache miss walks a block's rows for φ order only in a mode
//! whose decode does not order them by construction
//! (`CodingMode::orders_by_construction`), and checks every block against
//! its bookkeeping — tuple count, min and max — in O(arity). This sweep is
//! the proof obligation for both, on blocks of the §5.2 relation, in every
//! coding mode and under both decode kernels:
//!
//! - **Chained modes.** A flipped block the codec decodes without error is
//!   φ-sorted, and a read through the store returns the original rows or a
//!   typed error, never other rows. The promise is for damage to one
//!   entry, which moves the running sum to an end of the block. Damage
//!   that compensates across two entries (one difference up by δ, the next
//!   down by δ) moves no end and is not swept; a per-page checksum is what
//!   would catch it.
//! - **Basic AVQ and field-wise.** These stay exposed: they code each row
//!   on its own (against the representative, or verbatim), so a flip inside
//!   an interior row that keeps the order moves no bookkeeping. Flipping
//!   every bit of these three blocks under the SWAR kernel, 46 % of AVQ's
//!   196 248 flips and 40 % of field-wise's 196 176 still read as other
//!   rows (the chained modes: 0 of 196 496 and 0 of 196 472). Only a
//!   per-page checksum (ROADMAP item 7, step 5) closes that. Here the sweep
//!   asserts what the fence and the order walk do promise: every flip that
//!   changes the count, the min, the max or the order is caught.
//!
//! Tier-1 flips the header's and representative's bits and a strided sample
//! of the rest; `AVQ_EXHAUSTIVE=1` flips every bit of the three chained
//! blocks of each chained mode and prints the tallies (run in release in
//! CI).

use avq_codec::{BlockCodec, CodingMode, DecodeKernel, DecodeScratch};
use avq_db::{DbConfig, DbError, QueryCtx, StoredRelation};
use avq_schema::TupleBatch;
use avq_storage::{BlockDevice, BufferPool};
use avq_workload::SyntheticSpec;

fn exhaustive() -> bool {
    std::env::var_os("AVQ_EXHAUSTIVE").is_some_and(|v| v == "1")
}

/// The bits of a `len`-byte block the sweep flips: all of them when
/// `every`; otherwise every bit of the first 16 bytes (header and the start
/// of the representative) and about 96 more, strided with a phase that
/// differs per block.
fn flipped_bits(len: usize, phase: usize, every: bool) -> Vec<usize> {
    let bits = len * 8;
    if every {
        return (0..bits).collect();
    }
    let step = (bits / 96).max(1);
    (0..bits)
        .filter(|&b| b < 128 || b % step == phase % step)
        .collect()
}

/// What the flips of one mode and kernel came to.
#[derive(Debug, Default)]
struct Tally {
    flips: usize,
    /// The codec decoded the flipped block without error.
    decoded: usize,
    /// ... and to other rows than the original.
    decoded_other: usize,
    /// A read through the store failed with a typed error.
    caught: usize,
    /// A read through the store returned other rows than the original.
    read_other: usize,
}

/// Flips bits of three blocks of `mode`'s store under `kernel` — every bit
/// when `every` — checking each flip as the module documentation states.
fn sweep(mode: CodingMode, kernel: DecodeKernel, every: bool) -> Tally {
    let relation = SyntheticSpec::section_5_2(4_000).generate();
    let schema = relation.schema().clone();
    let config = DbConfig::default()
        .with_mode(mode)
        .with_decode_kernel(kernel);
    let device = BlockDevice::new(config.codec.block_capacity, config.disk);
    let pool = BufferPool::new(device.clone(), 64);
    let stored = StoredRelation::bulk_load(device, pool.clone(), &relation, config).unwrap();
    let codec =
        BlockCodec::with_options(schema.clone(), mode, config.codec.rep).with_kernel(kernel);
    let n = stored.block_count();
    assert!(n >= 4, "{mode}: {n} blocks");
    let ctx = QueryCtx::default();
    let mut scratch = DecodeScratch::new();
    let mut rows = TupleBatch::new(schema.arity());
    let mut tally = Tally::default();
    for (phase, &at) in [0, n / 2, n - 2].iter().enumerate() {
        let block = stored.blocks()[at].clone();
        let id = block.id;
        let coded = pool.read(id).unwrap().to_vec();
        let original = stored.read_block(id, &ctx).unwrap().unwrap();
        let mut bad = coded.clone();
        for bit in flipped_bits(coded.len(), phase * 37 + 11, every) {
            let what = format!("{mode} / {kernel}: block {at}, bit {bit}");
            bad[bit / 8] ^= 1 << (bit % 8);
            tally.flips += 1;

            rows.clear();
            if codec
                .decode_batch_into(&bad, &mut rows, &mut scratch)
                .is_ok()
            {
                tally.decoded += 1;
                tally.decoded_other += usize::from(rows != *original);
                if mode.orders_by_construction() {
                    assert!(rows.is_sorted(), "{what}: decoded out of φ order");
                }
            }

            pool.write(id, &bad).unwrap();
            stored.clear_decoded_cache();
            match stored.read_block(id, &ctx) {
                Ok(Some(read)) => {
                    let last = read.len() - 1;
                    assert_eq!(read.len(), block.count, "{what}: count not fenced");
                    assert!(read.cmp_row(0, block.min.digits()).is_eq(), "{what}: min");
                    assert!(
                        read.cmp_row(last, block.max.digits()).is_eq(),
                        "{what}: max"
                    );
                    assert!(read.is_sorted(), "{what}: order not checked");
                    if *read != *original {
                        tally.read_other += 1;
                        assert!(
                            !mode.orders_by_construction(),
                            "{what}: a chained read returned other rows"
                        );
                    }
                }
                Ok(None) => panic!("{what}: a fail-fast read skipped the block"),
                Err(e) => {
                    assert!(matches!(e, DbError::Codec(_)), "{what}: {e:?}");
                    tally.caught += 1;
                }
            }
            bad[bit / 8] = coded[bit / 8];
        }
        pool.write(id, &coded).unwrap();
    }
    stored.clear_decoded_cache();
    assert_eq!(stored.scan_all().unwrap().len(), relation.len());
    if every {
        eprintln!("{mode} / {kernel}: {tally:?}");
    }
    tally
}

/// Under `AVQ_EXHAUSTIVE=1` the SWAR kernel, the one reads use by default,
/// flips every bit; the scalar kernel, which `kernel_equivalence.rs` pins to
/// it on every flipped byte, stays sampled.
#[test]
fn chained_blocks_read_their_rows_or_fail_typed() {
    for mode in [CodingMode::AvqChained, CodingMode::AvqChainedBits] {
        for kernel in DecodeKernel::ALL {
            let tally = sweep(mode, kernel, exhaustive() && kernel == DecodeKernel::Swar);
            assert_eq!(tally.read_other, 0, "{mode} / {kernel}");
            // The sweep exercises the claim: many flips decode, most of them
            // to other rows, and the fence turns those into errors.
            assert!(tally.decoded_other > 0, "{mode} / {kernel}: {tally:?}");
            assert!(tally.caught >= tally.decoded_other, "{mode} / {kernel}");
        }
    }
}

#[test]
fn unchained_blocks_fail_typed_when_bookkeeping_or_order_moves() {
    for mode in [CodingMode::Avq, CodingMode::FieldWise] {
        for kernel in DecodeKernel::ALL {
            let tally = sweep(mode, kernel, false);
            assert!(tally.caught > 0, "{mode} / {kernel}: {tally:?}");
        }
    }
}
