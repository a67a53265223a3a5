//! The oracle: what every statement must return, computed from plain
//! in-memory tuples with none of the engine's code.
//!
//! A read is checked by `(row count, order-insensitive checksum)`; a
//! `LIMIT` without `ORDER BY` may return any matching rows, so it is
//! checked as a duplicate-free subset of the model of the right size.

use crate::rng::mix;
use avq_schema::Tuple;
use avq_sql::{Cell, QueryResult};
use std::collections::BTreeSet;

/// A conjunction of inclusive ordinal ranges, `(attribute, lo, hi)`.
pub type Pred = Vec<(usize, u64, u64)>;

/// True when `digits` satisfies every conjunct of `pred`.
pub fn matches(pred: &Pred, digits: &[u64]) -> bool {
    pred.iter()
        .all(|&(attr, lo, hi)| (lo..=hi).contains(&digits[attr]))
}

/// Hashes one result row cell by cell; the same cells in the same order
/// give the same hash whether they come from the engine or the model.
#[derive(Debug, Clone, Copy)]
pub struct RowHasher(u64);

impl Default for RowHasher {
    fn default() -> Self {
        RowHasher(0x243F_6A88_85A3_08D3)
    }
}

impl RowHasher {
    fn word(&mut self, tag: u64, w: u64) {
        self.0 = mix(self.0.rotate_left(5) ^ mix(w ^ (tag << 56)));
    }

    /// An integer cell.
    pub fn int(&mut self, n: i128) {
        self.word(1, n as u64);
        self.word(2, (n >> 64) as u64);
    }

    /// A float cell (`AVG`), by bit pattern: the model divides the same
    /// `i128` sum by the same `u64` count as the engine, and IEEE division
    /// is exact to the bit.
    pub fn float(&mut self, x: f64) {
        self.word(3, x.to_bits());
    }

    /// A text cell.
    pub fn text(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(4, u64::from_le_bytes(w));
        }
        self.word(5, s.len() as u64);
    }

    /// An aggregate over zero rows.
    pub fn null(&mut self) {
        self.word(6, 0);
    }

    /// The row's hash.
    pub fn finish(self) -> u64 {
        mix(self.0)
    }
}

/// Hash of a `select *` row holding `digits` (unsigned-integer domains
/// decode to their ordinals).
pub fn hash_digits(digits: &[u64]) -> u64 {
    let mut h = RowHasher::default();
    for &d in digits {
        h.int(i128::from(d));
    }
    h.finish()
}

fn hash_cells(cells: &[Cell]) -> u64 {
    let mut h = RowHasher::default();
    for c in cells {
        match c {
            Cell::Int(n) => h.int(*n),
            Cell::Float(x) => h.float(*x),
            Cell::Str(s) => h.text(s),
            Cell::Null => h.null(),
        }
    }
    h.finish()
}

/// What a statement must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Exactly these rows, in any order.
    Exact {
        /// Row count.
        rows: u64,
        /// Wrapping sum of the rows' hashes.
        checksum: u64,
    },
    /// Any `rows` distinct tuples of the model that satisfy `pred`.
    Subset {
        /// Row count (`min(limit, matching tuples)`).
        rows: u64,
        /// The statement's `WHERE` clause.
        pred: Pred,
    },
}

impl Check {
    /// The check for a `select *` returning exactly `tuples`.
    pub fn exact_tuples<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> Check {
        Check::exact_hashes(tuples.map(|t| hash_digits(t.digits())))
    }

    /// The check for a result made of the given pre-hashed rows.
    pub fn exact_hashes(hashes: impl Iterator<Item = u64>) -> Check {
        let (mut rows, mut checksum) = (0u64, 0u64);
        for h in hashes {
            rows += 1;
            checksum = checksum.wrapping_add(h);
        }
        Check::Exact { rows, checksum }
    }

    /// True when `result` is what this check demands. `model` is the live
    /// tuple set; only [`Check::Subset`] consults it.
    pub fn accepts(&self, result: &QueryResult, model: &BTreeSet<Tuple>) -> bool {
        match self {
            Check::Exact { rows, checksum } => {
                result.rows.len() as u64 == *rows
                    && result
                        .rows
                        .iter()
                        .fold(0u64, |acc, r| acc.wrapping_add(hash_cells(r)))
                        == *checksum
            }
            Check::Subset { rows, pred } => {
                if result.rows.len() as u64 != *rows {
                    return false;
                }
                let mut seen = BTreeSet::new();
                result.rows.iter().all(|row| {
                    let digits: Option<Vec<u64>> = row
                        .iter()
                        .map(|c| match c {
                            Cell::Int(n) => u64::try_from(*n).ok(),
                            _ => None,
                        })
                        .collect();
                    digits.is_some_and(|d| {
                        let t = Tuple::new(d);
                        matches(pred, t.digits()) && model.contains(&t) && seen.insert(t)
                    })
                })
            }
        }
    }

    /// Spoils the expectation (self-check: a wrong oracle must fail the
    /// run).
    pub fn corrupt(&mut self) {
        match self {
            Check::Exact { checksum, .. } => *checksum ^= 1,
            Check::Subset { rows, .. } => *rows += 1,
        }
    }
}
