//! Seeded differential test of the SWAR kernel's sparse decode.
//!
//! The SWAR kernel writes only the cells an entry's tail reaches (pass 1)
//! and computes only the rows a column's digits or carries reach, filling
//! the runs between them (pass 2). Its hazards are the schema's byte
//! geometry and the block's edges, so the generator aims at them:
//!
//! - attributes of width 0 (domain size 1);
//! - zero runs that end inside a multi-byte cell;
//! - entries whose whole difference is elided (`count = m`, duplicates);
//! - a last entry within 8 bytes of the block's end, so its loads cannot
//!   take a whole 8-byte window;
//! - the representative first, in the middle and last.
//!
//! Every block is decoded by both kernels, into a fresh batch and into a
//! reused batch whose slots hold stale values (so a slot the kernel
//! forgets to write shows), and must equal its source tuples. Truncated
//! and byte-flipped copies must come out of both kernels identically: the
//! same rows, or the same error. A tally checks every case above was hit.
//! `AVQ_EXHAUSTIVE=1` runs more seeds and corrupts every byte.

use avq_codec::{BlockCodec, CodecError, CodingMode, DecodeKernel, DecodeScratch, RepChoice};
use avq_schema::{Domain, Schema, Tuple, TupleBatch};
use std::sync::Arc;

fn exhaustive() -> bool {
    std::env::var_os("AVQ_EXHAUSTIVE").is_some_and(|v| v == "1")
}

/// SplitMix64: a seeded stream, so a failing seed replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform below `n ≥ 1`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 1–8 attributes whose cells are 0, 1, 2, 3, 5 or 8 bytes wide.
fn arb_schema(rng: &mut Rng) -> Arc<Schema> {
    let n = 1 + rng.below(8);
    let attrs = (0..n).map(|i| {
        let size = match rng.below(8) {
            0 | 1 => 1,
            2 | 3 => 2 + rng.below(254),
            4 => 257 + rng.below(65_000),
            5 => (1 << 16) + 1 + rng.below((1 << 24) - (1 << 16) - 1),
            6 => (1 << 32) + rng.below(1 << 40),
            _ => u64::MAX,
        };
        (format!("a{i}"), Domain::uint(size).unwrap())
    });
    Schema::from_pairs(attrs).unwrap()
}

/// A sorted run of 1–80 tuples (now and then up to 300) built from steps
/// that leave the zero runs the kernel must handle: duplicates, a bump of
/// at most 255 in one attribute with random digits after it (its zero run
/// ends inside that attribute's cell when the cell is wider than a byte),
/// and unrelated tuples.
fn arb_run(rng: &mut Rng, schema: &Schema) -> Vec<Tuple> {
    let radices = schema.radix().radices().to_vec();
    let cap = if rng.below(4) == 0 { 300 } else { 80 };
    let u = 1 + rng.below(cap) as usize;
    let random = |rng: &mut Rng| radices.iter().map(|&r| rng.below(r)).collect::<Vec<u64>>();
    let mut rows = vec![random(rng)];
    while rows.len() < u {
        let prev = rows.last().unwrap().clone();
        let next = match rng.below(4) {
            0 => prev,
            1 | 2 => {
                let j = rng.below(radices.len() as u64) as usize;
                let mut t = prev;
                let room = radices[j] - 1 - t[j];
                if room > 0 {
                    t[j] += 1 + rng.below(room.min(255));
                    for k in j + 1..radices.len() {
                        t[k] = rng.below(radices[k]);
                    }
                }
                t
            }
            _ => random(rng),
        };
        rows.push(next);
    }
    rows.sort_unstable();
    rows.into_iter().map(Tuple::new).collect()
}

/// Which of the module doc's cases a run exercises (under chained coding,
/// whose entries are the adjacent gaps).
#[derive(Debug, Default)]
struct Tally {
    zero_width: usize,
    mid_cell: usize,
    duplicate: usize,
    short_last_entry: usize,
}

impl Tally {
    fn add(&mut self, schema: &Schema, run: &[Tuple]) {
        let widths: Vec<usize> = (0..schema.arity()).map(|i| schema.byte_width(i)).collect();
        if widths.contains(&0) {
            self.zero_width += 1;
        }
        let m = schema.tuple_bytes();
        let mut diff = Vec::new();
        let mut tail = None;
        for w in run.windows(2) {
            schema
                .radix()
                .abs_diff_into(w[1].digits(), w[0].digits(), &mut diff);
            // The elided zero bytes, and whether they end inside a cell.
            let mut lz = 0;
            let mut mid = false;
            for (&d, &width) in diff.iter().zip(&widths) {
                if d == 0 {
                    lz += width;
                    continue;
                }
                let used = (64 - d.leading_zeros() as usize).div_ceil(8);
                lz += width - used;
                mid = used < width;
                break;
            }
            self.mid_cell += usize::from(mid);
            self.duplicate += usize::from(lz == m);
            tail = Some(m - lz.min(255));
        }
        // The last gap is the block's last entry unless the representative
        // is the last tuple; its loads start within 8 bytes of the end.
        self.short_last_entry += usize::from(tail.is_some_and(|t| t < 8));
    }

    fn assert_covered(&self) {
        assert!(self.zero_width > 0, "no width-0 attribute: {self:?}");
        assert!(self.mid_cell > 0, "no zero run ending mid-cell: {self:?}");
        assert!(self.duplicate > 0, "no count = m entry: {self:?}");
        assert!(
            self.short_last_entry > 0,
            "no last entry under 8 bytes: {self:?}"
        );
    }
}

/// Decodes `bytes` into `batch` after emptying it (its buffer and stale
/// contents kept), returning the rows or the error.
fn decode(
    codec: &BlockCodec,
    bytes: &[u8],
    batch: &mut TupleBatch,
    scratch: &mut DecodeScratch,
) -> Result<Vec<Tuple>, CodecError> {
    batch.reset(codec.schema().arity());
    codec.decode_batch_into(bytes, batch, scratch)?;
    Ok(batch.to_tuples())
}

/// A batch holding `rows` rows of arbitrary words, to be reset and decoded
/// into: every slot a decode does not write keeps a stale value.
fn stale_batch(rng: &mut Rng, arity: usize, rows: usize) -> TupleBatch {
    let mut batch = TupleBatch::new(arity);
    let mut row = vec![0u64; arity];
    for _ in 0..rows {
        row.iter_mut().for_each(|d| *d = rng.next());
        batch.push_row(&row);
    }
    batch
}

/// Byte positions to corrupt in a `len`-byte block: all of them under
/// `AVQ_EXHAUSTIVE=1`, else the header, the last 10 bytes and 12 strided
/// positions.
fn positions(len: usize) -> Vec<usize> {
    if exhaustive() {
        return (0..len).collect();
    }
    let step = (len / 12).max(1);
    (0..len)
        .filter(|&i| i < 4 || i + 10 >= len || i % step == len % step)
        .collect()
}

#[test]
fn swar_decode_matches_scalar_and_source() {
    let seeds = if exhaustive() { 64 } else { 24 };
    let mut tally = Tally::default();
    let mut scratch = DecodeScratch::new();
    for seed in 0..seeds {
        let mut rng = Rng(seed);
        let schema = arb_schema(&mut rng);
        let run = arb_run(&mut rng, &schema);
        tally.add(&schema, &run);
        let arity = schema.arity();
        let mut reused = TupleBatch::new(arity);
        for mode in [
            CodingMode::Avq,
            CodingMode::AvqChained,
            CodingMode::AvqChainedBits,
        ] {
            for rep in RepChoice::ALL {
                let base = BlockCodec::with_options(schema.clone(), mode, rep);
                let scalar = base.clone().with_kernel(DecodeKernel::Scalar);
                let swar = base.with_kernel(DecodeKernel::Swar);
                let coded = scalar.encode(&run).unwrap();
                let at = format!("seed {seed} {mode:?} {rep:?} ({} tuples)", run.len());
                let want = Ok(run.clone());
                assert_eq!(
                    decode(&scalar, &coded, &mut TupleBatch::new(arity), &mut scratch),
                    want,
                    "scalar, {at}"
                );
                assert_eq!(
                    decode(&swar, &coded, &mut TupleBatch::new(arity), &mut scratch),
                    want,
                    "swar, {at}"
                );
                let mut stale = stale_batch(&mut rng, arity, run.len() + 8);
                assert_eq!(
                    decode(&swar, &coded, &mut stale, &mut scratch),
                    want,
                    "swar into a stale batch, {at}"
                );

                // Damaged copies: both kernels agree on rows or error.
                let mut bad = coded.clone();
                let mut check = |bytes: &[u8], what: &str| {
                    let a = decode(&scalar, bytes, &mut reused, &mut scratch);
                    let b = decode(&swar, bytes, &mut stale, &mut scratch);
                    assert_eq!(a, b, "{what}, {at}");
                };
                for cut in positions(coded.len()) {
                    check(&coded[..cut], &format!("truncated to {cut}"));
                }
                for i in positions(coded.len()) {
                    for mask in [0xFFu8, 0x01] {
                        bad[i] ^= mask;
                        check(&bad, &format!("byte {i} ^ {mask:#04x}"));
                        bad[i] = coded[i];
                    }
                }
            }
        }
    }
    tally.assert_covered();
}
