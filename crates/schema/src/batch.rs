//! Flat row-major batches of encoded tuples.

use crate::tuple::Tuple;

/// A run of encoded tuples in one buffer: row `i` is the `arity` ordinals
/// at `[i·arity, (i+1)·arity)`, borrowed out as `&[u64]`.
///
/// This is the decoded form of a data block on the read path — the codec
/// reconstructs straight into it, the decoded-block cache shares it behind
/// an `Arc`, and operators filter its rows in place — so examining a tuple
/// costs no allocation. Lexicographic order of row slices is the φ order
/// of §2.2, exactly as for [`Tuple`]. The row count is stored, not derived,
/// so a batch of zero-width rows still has a length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TupleBatch {
    arity: usize,
    rows: usize,
    data: Vec<u64>,
}

impl TupleBatch {
    /// An empty batch of `arity`-wide rows.
    pub fn new(arity: usize) -> Self {
        TupleBatch {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TupleBatch {
            arity,
            rows: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Copies a run of tuples (each `arity` wide) into a batch.
    pub fn from_tuples(arity: usize, tuples: &[Tuple]) -> Self {
        let mut batch = TupleBatch::with_capacity(arity, tuples.len());
        for t in tuples {
            batch.push_row(t.digits());
        }
        batch
    }

    /// Materializes every row as an owned [`Tuple`].
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.rows().map(Tuple::from).collect()
    }

    /// Ordinals per row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff the batch has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i`. Panics when `i` is out of range, like slice indexing.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// The rows in order.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            arity: self.arity,
            left: self.rows,
        }
    }

    /// Appends one row. Panics unless `row` is exactly `arity` wide.
    #[inline]
    pub fn push_row(&mut self, row: &[u64]) {
        self.push_joined(row, &[]);
    }

    /// Appends the row `left ++ right` (a join output). Panics unless the
    /// two together are exactly `arity` wide.
    #[inline]
    pub fn push_joined(&mut self, left: &[u64], right: &[u64]) {
        assert_eq!(left.len() + right.len(), self.arity, "row width");
        self.data.extend_from_slice(left);
        self.data.extend_from_slice(right);
        self.rows += 1;
    }

    /// Appends `rows` rows that `fill` writes straight into the backing
    /// buffer: it must push exactly `rows · arity` ordinals and leave what
    /// was already there alone. When `fill` fails the batch is left exactly
    /// as it was; a wrong count is a bug in `fill` and panics.
    pub fn try_extend<E>(
        &mut self,
        rows: usize,
        fill: impl FnOnce(&mut Vec<u64>) -> Result<(), E>,
    ) -> Result<(), E> {
        let base = self.data.len();
        let result = fill(&mut self.data);
        if result.is_ok() {
            assert_eq!(self.data.len(), base + rows * self.arity, "fill count");
            self.rows += rows;
        } else {
            self.data.truncate(base);
        }
        result
    }

    /// A copy of the batch with `row` inserted before row `i` (`i == len`
    /// appends), allocated at exactly its size. Panics when `i > len` or
    /// `row` is not `arity` wide.
    pub fn with_row_inserted(&self, i: usize, row: &[u64]) -> TupleBatch {
        assert!(
            i <= self.rows,
            "row {i} out of range for {} rows",
            self.rows
        );
        assert_eq!(row.len(), self.arity, "row width");
        let (head, tail) = self.data.split_at(i * self.arity);
        let mut data = Vec::with_capacity(self.data.len() + self.arity);
        data.extend_from_slice(head);
        data.extend_from_slice(row);
        data.extend_from_slice(tail);
        TupleBatch {
            arity: self.arity,
            rows: self.rows + 1,
            data,
        }
    }

    /// A copy of the batch without row `i`, allocated at exactly its size.
    /// Panics when `i` is out of range.
    pub fn with_row_removed(&self, i: usize) -> TupleBatch {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        let mut data = Vec::with_capacity(self.data.len() - self.arity);
        data.extend_from_slice(&self.data[..i * self.arity]);
        data.extend_from_slice(&self.data[(i + 1) * self.arity..]);
        TupleBatch {
            arity: self.arity,
            rows: self.rows - 1,
            data,
        }
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.rows {
            self.rows = rows;
            self.data.truncate(rows * self.arity);
        }
    }

    /// Removes every row, keeping the buffer.
    pub fn clear(&mut self) {
        self.reset(self.arity);
    }

    /// Empties the batch and re-types it to `arity`-wide rows, keeping the
    /// buffer (a scratch batch reused across schemas).
    pub fn reset(&mut self, arity: usize) {
        self.data.clear();
        self.rows = 0;
        self.arity = arity;
    }

    /// True iff the rows are in non-decreasing φ order.
    pub fn is_sorted(&self) -> bool {
        self.rows().zip(self.rows().skip(1)).all(|(a, b)| a <= b)
    }

    /// Index of the first row for which `pred` is false, assuming the rows
    /// are partitioned by it (as [`slice::partition_point`]).
    pub fn partition_point(&self, mut pred: impl FnMut(&[u64]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Iterator over the rows of a [`TupleBatch`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    data: &'a [u64],
    arity: usize,
    left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u64];

    #[inline]
    fn next(&mut self) -> Option<&'a [u64]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (row, rest) = self.data.split_at(self.arity);
        self.data = rest;
        Some(row)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl DoubleEndedIterator for Rows<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (rest, row) = self.data.split_at(self.left * self.arity);
        self.data = rest;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_and_borrow() {
        let mut b = TupleBatch::new(3);
        assert!(b.is_empty());
        b.push_row(&[1, 2, 3]);
        b.push_joined(&[4], &[5, 6]);
        assert_eq!((b.len(), b.arity()), (2, 3));
        assert_eq!(b.row(1), &[4, 5, 6]);
        assert_eq!(
            b.rows().collect::<Vec<_>>(),
            [&[1u64, 2, 3][..], &[4, 5, 6]]
        );
        assert_eq!(b.rows().len(), 2);
        b.truncate(5);
        assert_eq!(b.len(), 2);
        b.truncate(1);
        assert_eq!(b.to_tuples(), vec![Tuple::from([1u64, 2, 3])]);
        b.clear();
        assert!(b.is_empty() && b.rows().next().is_none());
        b.reset(1);
        b.push_row(&[8]);
        assert_eq!((b.arity(), b.row(0)), (1, &[8u64][..]));
    }

    #[test]
    fn rows_iterate_from_both_ends() {
        let b = TupleBatch::from_tuples(
            2,
            &[
                Tuple::from([1u64, 2]),
                Tuple::from([3u64, 4]),
                Tuple::from([5u64, 6]),
            ],
        );
        let mut it = b.rows();
        assert_eq!(it.next_back(), Some(&[5u64, 6][..]));
        assert_eq!(it.next(), Some(&[1u64, 2][..]));
        assert_eq!(it.len(), 1);
        assert_eq!(it.next_back(), Some(&[3u64, 4][..]));
        assert_eq!((it.next(), it.next_back()), (None, None));
        let rev: Vec<_> = b.rows().take(2).enumerate().rev().collect();
        assert_eq!(rev, [(1, &[3u64, 4][..]), (0, &[1, 2])]);
    }

    #[test]
    fn zero_arity_rows_are_counted() {
        let mut b = TupleBatch::new(0);
        b.push_row(&[]);
        b.push_row(&[]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows().collect::<Vec<_>>(), [&[][..], &[][..]]);
        assert_eq!(b.row(1), &[] as &[u64]);
        assert!(b.is_sorted());
        b.try_extend(3, |_| Ok::<(), ()>(())).unwrap();
        assert_eq!(b.to_tuples().len(), 5);
        b.truncate(1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn arity_one() {
        let b = TupleBatch::from_tuples(1, &[Tuple::from([7u64]), Tuple::from([9u64])]);
        assert_eq!(b.rows().collect::<Vec<_>>(), [&[7u64][..], &[9]]);
        assert_eq!(b.partition_point(|r| r < &[8][..]), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_row_panics() {
        TupleBatch::new(2).push_row(&[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let _ = TupleBatch::new(0).row(0);
    }

    #[test]
    fn try_extend_restores_on_error() {
        let mut b = TupleBatch::from_tuples(2, &[Tuple::from([1u64, 2])]);
        let before = b.clone();
        let r = b.try_extend(2, |data| {
            data.extend_from_slice(&[3, 4, 5]);
            Err::<(), &str>("boom")
        });
        assert_eq!(r, Err("boom"));
        assert_eq!(b, before);
        b.try_extend(2, |data| {
            data.extend_from_slice(&[3, 4, 5, 6]);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(b.row(2), &[5, 6]);
    }

    #[test]
    fn sortedness_and_partition_point() {
        let sorted = TupleBatch::from_tuples(
            2,
            &[
                Tuple::from([0u64, 9]),
                Tuple::from([1u64, 0]),
                Tuple::from([1u64, 0]),
                Tuple::from([2u64, 5]),
            ],
        );
        assert!(sorted.is_sorted());
        assert_eq!(sorted.partition_point(|r| r < &[1, 0][..]), 1);
        assert_eq!(sorted.partition_point(|r| r <= &[1, 0][..]), 3);
        assert_eq!(sorted.partition_point(|_| true), 4);
        let unsorted = TupleBatch::from_tuples(1, &[Tuple::from([2u64]), Tuple::from([1u64])]);
        assert!(!unsorted.is_sorted());
    }
}
