//! Per-block synopses: the small materialised aggregates of Moerkotte
//! (*Small Materialized Aggregates*, VLDB 1998) that let a reader answer a
//! block without decoding it.
//!
//! A block's synopsis holds each column's minimum, maximum and sum of
//! ordinals; its tuple count is the block's own ([`crate::StoredBlock`]).
//! A block is stored in φ order, so every column of the leading run on
//! which its first and last tuple agree holds one value throughout. Those
//! columns get no record: [`Synopsis::column`] reads them off the block's
//! first tuple. On `scan_cold`'s relation that leaves 60 % of the column
//! records.
//!
//! A sum that does not fit a `u64` is not kept: the record says so
//! ([`ColumnSynopsis::sum`] is `None`), and a statement that needs it
//! decodes the block instead.

use avq_schema::{Tuple, TupleBatch};

/// The stored sum that stands for "does not fit a `u64`".
const UNKNOWN_SUM: u64 = u64::MAX;

/// One column's aggregate over one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSynopsis {
    /// The smallest ordinal in the column.
    pub min: u64,
    /// The largest ordinal in the column.
    pub max: u64,
    /// The ordinal sum, [`UNKNOWN_SUM`] when it does not fit.
    sum: u64,
}

impl ColumnSynopsis {
    /// The aggregate of a non-empty column.
    fn of(values: impl IntoIterator<Item = u64>) -> Self {
        let mut rec = ColumnSynopsis {
            min: u64::MAX,
            max: 0,
            sum: 0,
        };
        for v in values {
            rec.add(v);
        }
        rec
    }

    /// A column of `n` copies of `v`.
    fn constant(v: u64, n: u64) -> Self {
        ColumnSynopsis {
            min: v,
            max: v,
            sum: v.checked_mul(n).unwrap_or(UNKNOWN_SUM),
        }
    }

    /// The column's ordinal sum, or `None` when it does not fit a `u64`.
    pub fn sum(&self) -> Option<u64> {
        (self.sum != UNKNOWN_SUM).then_some(self.sum)
    }

    /// Folds one more value in. A sum that overflows stays unknown.
    fn add(&mut self, v: u64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum = self.sum.saturating_add(v);
    }
}

/// A block's per-column aggregates, past its constant prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Synopsis {
    /// One record per column from the first on which the block's first and
    /// last tuple differ, in column order.
    cols: Vec<ColumnSynopsis>,
}

/// Leading columns on which `a` and `b` agree.
fn common_prefix(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Synopsis {
    /// The synopsis of a non-empty φ-sorted block.
    pub fn of_batch(rows: &TupleBatch) -> Self {
        let last = rows.len().saturating_sub(1);
        let arity = rows.arity();
        let prefix = (0..arity)
            .find(|&j| rows.get(0, j) != rows.get(last, j))
            .unwrap_or(arity);
        Synopsis {
            cols: (prefix..arity)
                .map(|j| ColumnSynopsis::of(rows.col(j).iter().copied()))
                .collect(),
        }
    }

    /// The synopsis of a non-empty φ-sorted run of tuples.
    pub fn of_tuples(run: &[Tuple]) -> Self {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return Synopsis::default();
        };
        let prefix = common_prefix(first.digits(), last.digits());
        Synopsis {
            cols: (prefix..first.arity())
                .map(|j| ColumnSynopsis::of(run.iter().map(|t| t.digits()[j])))
                .collect(),
        }
    }

    /// Column `j` of the block whose first tuple is `first` and which holds
    /// `count` tuples.
    pub fn column(&self, j: usize, first: &[u64], count: u64) -> ColumnSynopsis {
        let prefix = first.len() - self.cols.len();
        match j.checked_sub(prefix) {
            Some(k) => self.cols[k],
            None => ColumnSynopsis::constant(first[j], count),
        }
    }

    /// Column records kept: the columns past the constant prefix.
    pub fn records(&self) -> usize {
        self.cols.len()
    }

    /// In-memory bytes of the column records.
    pub fn bytes(&self) -> usize {
        self.cols.len() * core::mem::size_of::<ColumnSynopsis>()
    }

    /// Folds `row` into the synopsis of a block whose bounds and count
    /// *before* the insert are `min`, `max` and `count`: O(arity). A row
    /// outside `[min, max]` can end the constant prefix early; the columns
    /// it leaves get records of their one value first.
    pub(crate) fn insert(&mut self, row: &[u64], min: &[u64], max: &[u64], count: u64) {
        let old = row.len() - self.cols.len();
        let (lo, hi) = (min.min(row), max.max(row));
        let prefix = common_prefix(lo, hi).min(old);
        if prefix < old {
            let left = (prefix..old).map(|j| ColumnSynopsis::constant(min[j], count));
            self.cols.splice(0..0, left);
        }
        for (rec, &v) in self.cols.iter_mut().zip(&row[prefix..]) {
            rec.add(v);
        }
    }

    /// Takes `row` out of the synopsis, given the block's `remaining` rows
    /// (non-empty, φ-sorted) after the delete. A column whose minimum or
    /// maximum left with the row — and is no longer in `remaining` — is
    /// recomputed from `remaining`; every other column only subtracts.
    /// Columns the delete made constant lose their records.
    pub(crate) fn delete(&mut self, row: &[u64], remaining: &TupleBatch) {
        let arity = row.len();
        let old = arity - self.cols.len();
        let last = remaining.len().saturating_sub(1);
        let prefix = (old..arity)
            .find(|&j| remaining.get(0, j) != remaining.get(last, j))
            .unwrap_or(arity);
        self.cols.drain(..prefix - old);
        for (j, rec) in (prefix..).zip(self.cols.iter_mut()) {
            let (v, col) = (row[j], remaining.col(j));
            let extreme = rec.min < rec.max && (v == rec.min || v == rec.max);
            if (extreme && !col.contains(&v)) || rec.sum().is_none() {
                *rec = ColumnSynopsis::of(col.iter().copied());
            } else {
                rec.sum -= v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rows: &[[u64; 3]]) -> TupleBatch {
        let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple::from(*r)).collect();
        TupleBatch::from_tuples(3, &tuples)
    }

    #[test]
    fn the_constant_prefix_has_no_record() {
        let rows = batch(&[[4, 1, 9], [4, 1, 2], [4, 3, 5]]);
        let syn = Synopsis::of_batch(&rows);
        assert_eq!(syn.records(), 2);
        assert_eq!(syn, Synopsis::of_tuples(&rows.to_tuples()));
        let first = [4, 1, 9];
        assert_eq!(syn.column(0, &first, 3), ColumnSynopsis::constant(4, 3));
        assert_eq!(syn.column(0, &first, 3).sum(), Some(12));
        let c = syn.column(2, &first, 3);
        assert_eq!((c.min, c.max, c.sum()), (2, 9, Some(16)));
    }

    #[test]
    fn insert_and_delete_match_a_rebuild() {
        // Inserts below and above the bounds shrink the prefix; deletes of
        // each extreme grow it back.
        let mut rows: Vec<Tuple> = vec![Tuple::from([5u64, 5, 5]), Tuple::from([5u64, 5, 7])];
        let mut syn = Synopsis::of_tuples(&rows);
        for t in [[5u64, 4, 9], [6, 0, 0], [5, 5, 6], [5, 5, 6]] {
            let t = Tuple::from(t);
            let (min, max) = (rows[0].clone(), rows[rows.len() - 1].clone());
            syn.insert(t.digits(), min.digits(), max.digits(), rows.len() as u64);
            rows.insert(rows.partition_point(|x| *x <= t), t);
            assert_eq!(syn, Synopsis::of_tuples(&rows), "after inserting");
        }
        for t in [[6u64, 0, 0], [5, 5, 6], [5, 4, 9], [5, 5, 7]] {
            let t = Tuple::from(t);
            let at = rows.iter().position(|x| *x == t).unwrap();
            rows.remove(at);
            syn.delete(t.digits(), &TupleBatch::from_tuples(3, &rows));
            assert_eq!(syn, Synopsis::of_tuples(&rows), "after deleting {t:?}");
        }
    }

    #[test]
    fn a_sum_past_u64_is_unknown_and_stays_so_until_it_fits() {
        let big = u64::MAX / 2 + 1;
        let mut rows = vec![Tuple::from([0u64, big]), Tuple::from([1u64, big])];
        let mut syn = Synopsis::of_tuples(&rows);
        assert_eq!(syn.column(1, rows[0].digits(), 2).sum(), None);
        assert_eq!(ColumnSynopsis::constant(big, 2).sum(), None);
        let gone = rows.pop().unwrap();
        syn.delete(gone.digits(), &TupleBatch::from_tuples(2, &rows));
        assert_eq!(syn, Synopsis::default());
        assert_eq!(syn.column(1, rows[0].digits(), 1).sum(), Some(big));
    }
}
