//! Differential test of the filter kernel: `Selection::filter_block`
//! against a row-at-a-time oracle over seeded φ-sorted batches.
//!
//! The kernel tests a block a mask word of rows at a time, decides
//! conjuncts on the block's constant prefix once, refines sparse words row
//! by row and expands set bits into the selection vector, so the cases aim
//! at each of those: row counts around the word size (0, 1, 7, 8, 63, 64,
//! 65) and at real block sizes (742, 1000); arities 1–16; values that
//! include 0 and `u64::MAX`; equalities, ranges, the full range
//! `[0, u64::MAX]`, contradictions (`lo > hi`), repeated attributes, and
//! conjuncts on a constant prefix. The selection vector must equal the
//! oracle's, which is ascending by construction.
//!
//! Tier-1 runs a few seeds; `AVQ_EXHAUSTIVE=1` runs many more.

use avq_db::{RangePredicate, Selection};
use avq_schema::TupleBatch;

/// splitmix64: a seeded, dependency-free source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const ROW_COUNTS: [usize; 9] = [0, 1, 7, 8, 63, 64, 65, 742, 1000];

/// How a column's values are drawn.
#[derive(Clone, Copy)]
enum Column {
    /// One value in every row: part of a constant prefix when it leads.
    Constant(u64),
    /// A few small values, so equalities hit often.
    Small,
    /// Values near both ends of the `u64` range, 0 and `u64::MAX` included.
    Extremes,
    /// Any `u64`.
    Wide,
}

impl Column {
    fn draw(self, rng: &mut Rng) -> u64 {
        match self {
            Column::Constant(v) => v,
            Column::Small => rng.below(4),
            Column::Extremes => match rng.below(4) {
                0 => 0,
                1 => u64::MAX,
                2 => rng.below(3),
                _ => u64::MAX - rng.below(3),
            },
            Column::Wide => rng.next(),
        }
    }
}

/// A φ-sorted batch of `rows` rows: a constant prefix of random length,
/// then columns of mixed kinds. Returns the batch and its rows.
fn batch(rng: &mut Rng, rows: usize, arity: usize) -> (TupleBatch, Vec<Vec<u64>>) {
    let prefix = rng.below(arity as u64 + 1) as usize;
    let columns: Vec<Column> = (0..arity)
        .map(|a| match (a < prefix, rng.below(3)) {
            (true, 0) => Column::Constant(0),
            (true, 1) => Column::Constant(u64::MAX),
            (true, _) => Column::Constant(rng.below(5)),
            (false, 0) => Column::Small,
            (false, 1) => Column::Extremes,
            (false, _) => Column::Wide,
        })
        .collect();
    let mut data: Vec<Vec<u64>> = (0..rows)
        .map(|_| columns.iter().map(|c| c.draw(rng)).collect())
        .collect();
    data.sort_unstable();
    let mut batch = TupleBatch::new(arity);
    for row in &data {
        batch.push_row(row);
    }
    (batch, data)
}

/// A value worth comparing against in attribute `attr`: one the column
/// holds, an extreme, or anything.
fn value(rng: &mut Rng, data: &[Vec<u64>], attr: usize) -> u64 {
    match rng.below(4) {
        0 if !data.is_empty() => data[rng.below(data.len() as u64) as usize][attr],
        1 => 0,
        2 => u64::MAX,
        _ => rng.next() >> rng.below(64),
    }
}

/// A conjunct on `attr`: an equality, a range, the full range or a
/// contradiction.
fn conjunct(rng: &mut Rng, data: &[Vec<u64>], attr: usize) -> RangePredicate {
    let (a, b) = (value(rng, data, attr), value(rng, data, attr));
    let (lo, hi) = match rng.below(8) {
        0..=2 => (a, a),
        3..=5 => (a.min(b), a.max(b)),
        6 => (0, u64::MAX),
        // `lo` just past `hi`, or far past it.
        _ => {
            let hi = a.min(b).min(u64::MAX - 1);
            (if a == b { hi + 1 } else { a.max(b) }, hi)
        }
    };
    RangePredicate { attr, lo, hi }
}

/// A conjunction of 0–5 conjuncts, some repeating an attribute.
fn selection(rng: &mut Rng, data: &[Vec<u64>], arity: usize) -> Selection {
    let mut sel = Selection::all();
    let mut used: Vec<usize> = Vec::new();
    for _ in 0..rng.below(6) {
        let attr = match used.last() {
            Some(&last) if rng.below(4) == 0 => last,
            _ => rng.below(arity as u64) as usize,
        };
        used.push(attr);
        sel = sel.and(conjunct(rng, data, attr));
    }
    sel
}

/// The row-at-a-time oracle: the ascending indices of the rows every
/// conjunct admits.
fn oracle(sel: &Selection, data: &[Vec<u64>]) -> Vec<u32> {
    (0u32..)
        .zip(data)
        .filter(|(_, row)| {
            sel.predicates()
                .iter()
                .all(|p| (p.lo..=p.hi).contains(&row[p.attr]))
        })
        .map(|(i, _)| i)
        .collect()
}

fn run(seeds: u64, selections: usize) {
    let mut picked = vec![7u32; 3]; // reused, and dirty on entry
    let mut checked = 0usize;
    for seed in 0..seeds {
        let mut rng = Rng(0xF11_7E5 ^ seed);
        for rows in ROW_COUNTS {
            for arity in 1..=16 {
                let (batch, data) = batch(&mut rng, rows, arity);
                for _ in 0..selections {
                    let sel = selection(&mut rng, &data, arity);
                    sel.filter_block(&batch, &mut picked);
                    let want = oracle(&sel, &data);
                    assert_eq!(
                        picked, want,
                        "seed {seed}, {rows} rows, arity {arity}, {sel:?}"
                    );
                    assert!(picked.windows(2).all(|w| w[0] < w[1]));
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked as u64, seeds * 9 * 16 * selections as u64);
}

#[test]
fn filter_block_matches_the_row_oracle() {
    let exhaustive = std::env::var_os("AVQ_EXHAUSTIVE").is_some_and(|v| v == "1");
    if exhaustive {
        run(256, 24);
    } else {
        run(3, 12);
    }
}

#[test]
fn dense_and_sparse_words_expand_alike() {
    // Words with every row set, none, one, a run of 15, 16 or 17 rows
    // (either side of where refinement and expansion switch from row by
    // row to the whole word) and most rows; then refined by a conjunct
    // that keeps every row, and by one that keeps the first half.
    for rows in ROW_COUNTS {
        let data: Vec<Vec<u64>> = (0..rows as u64).map(|i| vec![0, i, i % 64]).collect();
        let mut batch = TupleBatch::new(3);
        for row in &data {
            batch.push_row(row);
        }
        let mut picked = Vec::new();
        for (lo, hi) in [
            (0, 63),
            (64, 64),
            (0, 0),
            (0, 14),
            (0, 15),
            (0, 16),
            (0, 40),
        ] {
            let sel = Selection::all().and(RangePredicate { attr: 2, lo, hi });
            for sel in [
                sel.clone(),
                sel.clone().and(RangePredicate {
                    attr: 1,
                    lo: 0,
                    hi: u64::MAX,
                }),
                sel.and(RangePredicate {
                    attr: 1,
                    lo: 1,
                    hi: rows as u64 / 2,
                }),
            ] {
                sel.filter_block(&batch, &mut picked);
                assert_eq!(picked, oracle(&sel, &data), "{rows} rows, {sel:?}");
            }
        }
    }
}
