//! Column-major batches of encoded tuples.

use crate::tuple::Tuple;
use core::cmp::Ordering;

/// A run of encoded tuples stored column by column in one buffer: column
/// `a` is the `len()` ordinals at `[a·stride, a·stride + len)`, where the
/// stride is the batch's row capacity.
///
/// This is the decoded form of a data block on the read path (the PAX
/// layout inside a block): the codec reconstructs straight into the
/// columns, the decoded-block cache shares the batch behind an `Arc`, and
/// operators filter, project and fold one column at a time, so examining an
/// attribute touches that attribute's words only and no allocation. A batch
/// decoded from one block has a stride of exactly its row count; a batch
/// grown row by row (join or sort output) doubles its stride as it fills.
///
/// No row slice exists: a row is read with [`Self::get`] or gathered with
/// [`Self::row_into`], and compared with [`Self::cmp_row`], which walks the
/// columns and stops at the first that differs — lexicographic order, which
/// is the φ order of §2.2, exactly as for [`Tuple`]. The row count is
/// stored, not derived, so a batch of zero-width rows still has a length.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    arity: usize,
    rows: usize,
    /// Row capacity: the distance between consecutive columns.
    stride: usize,
    /// `arity · stride` words; slots past `rows` in a column are spare.
    data: Vec<u64>,
}

impl TupleBatch {
    /// An empty batch of `arity`-wide rows.
    pub fn new(arity: usize) -> Self {
        TupleBatch {
            arity,
            rows: 0,
            stride: 0,
            data: Vec::new(),
        }
    }

    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TupleBatch {
            arity,
            rows: 0,
            stride: rows,
            data: vec![0; arity * rows],
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
        (0..self.rows).map(|i| self.tuple(i)).collect()
    }

    /// Row `i` as an owned [`Tuple`]. Panics when `i` is out of range.
    pub fn tuple(&self, i: usize) -> Tuple {
        self.check_row(i);
        Tuple::new(
            (0..self.arity)
                .map(|a| self.data[a * self.stride + i])
                .collect(),
        )
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

    /// Column `a`: attribute `a` of every row, in row order. Panics when
    /// `a` is not below the arity.
    #[inline]
    pub fn col(&self, a: usize) -> &[u64] {
        assert!(
            a < self.arity,
            "column {a} out of range for arity {}",
            self.arity
        );
        let start = a * self.stride;
        &self.data[start..start + self.rows]
    }

    /// Attribute `a` of row `i`. Panics when either is out of range.
    #[inline]
    pub fn get(&self, i: usize, a: usize) -> u64 {
        self.check_row(i);
        self.col(a)[i]
    }

    /// Gathers row `i` into `out`. Panics when `i` is out of range or
    /// `out` is not `arity` wide.
    pub fn row_into(&self, i: usize, out: &mut [u64]) {
        self.check_row(i);
        assert_eq!(out.len(), self.arity, "row width");
        for (a, o) in out.iter_mut().enumerate() {
            *o = self.data[a * self.stride + i];
        }
    }

    /// Row `i` compared with `key` lexicographically, one column at a
    /// time, stopping at the first column that differs — `row.cmp(key)`
    /// for a row slice, so a shorter equal prefix orders first. Panics
    /// when `i` is out of range.
    pub fn cmp_row(&self, i: usize, key: &[u64]) -> Ordering {
        self.check_row(i);
        for (a, k) in key.iter().enumerate().take(self.arity) {
            match self.data[a * self.stride + i].cmp(k) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        self.arity.cmp(&key.len())
    }

    #[inline]
    fn check_row(&self, i: usize) {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
    }

    /// Appends one row. Panics unless `row` is exactly `arity` wide.
    pub fn push_row(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.arity, "row width");
        self.reserve(1);
        let i = self.rows;
        for (a, &v) in row.iter().enumerate() {
            self.data[a * self.stride + i] = v;
        }
        self.rows += 1;
    }

    /// Appends rows `sel` of `src` (a selection vector, in the order
    /// given), one column at a time. Panics when the arities differ or an
    /// index is out of range.
    pub fn extend_from(&mut self, src: &TupleBatch, sel: &[u32]) {
        assert_eq!(src.arity, self.arity, "row width");
        self.reserve(sel.len());
        for a in 0..self.arity {
            let from = src.col(a);
            let start = a * self.stride + self.rows;
            for (slot, &i) in self.data[start..start + sel.len()].iter_mut().zip(sel) {
                *slot = from[i as usize];
            }
        }
        self.rows += sel.len();
    }

    /// The join output whose row `j` is `left` row `li[j]` followed by
    /// `right` row `ri[j]`, built column by column at exactly its size.
    /// Panics when `li` and `ri` differ in length or an index is out of
    /// range.
    pub fn gather_joined(
        left: &TupleBatch,
        li: &[u32],
        right: &TupleBatch,
        ri: &[u32],
    ) -> TupleBatch {
        assert_eq!(li.len(), ri.len(), "one left row per right row");
        let arity = left.arity + right.arity;
        let mut data = Vec::with_capacity(arity * li.len());
        for (side, idx) in [(left, li), (right, ri)] {
            for a in 0..side.arity {
                let from = side.col(a);
                data.extend(idx.iter().map(|&i| from[i as usize]));
            }
        }
        TupleBatch {
            arity,
            rows: li.len(),
            stride: li.len(),
            data,
        }
    }

    /// Makes room for `more` rows past the last, at least doubling the
    /// stride when it has to grow.
    fn reserve(&mut self, more: usize) {
        let need = self.rows + more;
        if need > self.stride {
            self.set_stride(need.max(2 * self.stride).max(4));
        }
    }

    /// Re-lays the columns out `stride` apart (`stride ≥ len`). A batch
    /// with no rows reuses its buffer; otherwise every column is copied
    /// once into a buffer of exactly the new size.
    fn set_stride(&mut self, stride: usize) {
        debug_assert!(stride >= self.rows);
        if self.arity > 0 {
            if self.rows == 0 {
                self.data.clear();
                self.data.resize(self.arity * stride, 0);
            } else {
                let mut data = vec![0; self.arity * stride];
                for (a, col) in data.chunks_exact_mut(stride).enumerate() {
                    col[..self.rows].copy_from_slice(self.col(a));
                }
                self.data = data;
            }
        }
        self.stride = stride;
    }

    /// Appends `rows` rows that `fill` writes straight into the columns
    /// through a [`BatchSlots`] view, which it must fill completely. When
    /// `fill` fails the batch keeps exactly the rows it had. A batch with
    /// no rows and too little room is sized to exactly `rows` rows, so a
    /// block decoded into a fresh batch holds exactly its ordinals.
    pub fn try_extend<E>(
        &mut self,
        rows: usize,
        fill: impl FnOnce(&mut BatchSlots<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let need = self.rows + rows;
        if need > self.stride {
            let grown = if self.rows == 0 { 0 } else { 2 * self.stride };
            self.set_stride(need.max(grown));
        }
        let mut slots = BatchSlots {
            data: &mut self.data,
            stride: self.stride,
            base: self.rows,
            rows,
            arity: self.arity,
        };
        let result = fill(&mut slots);
        if result.is_ok() {
            self.rows = need;
        }
        result
    }

    /// Inserts `row` before row `i` (`i == len` appends), in place: each
    /// column's tail moves one slot down inside the stride. A batch with no
    /// spare slot first re-lays its columns out with a small slack, about a
    /// sixteenth of its rows, so a run of inserts into one block re-lays it
    /// out once per slack's worth, not once per insert. Panics when
    /// `i > len` or `row` is not `arity` wide.
    pub fn insert_row(&mut self, i: usize, row: &[u64]) {
        assert!(
            i <= self.rows,
            "row {i} out of range for {} rows",
            self.rows
        );
        assert_eq!(row.len(), self.arity, "row width");
        if self.rows == self.stride {
            self.set_stride(self.rows + 1 + self.rows / 16);
        }
        for (a, &v) in row.iter().enumerate() {
            let col = a * self.stride;
            self.data.copy_within(col + i..col + self.rows, col + i + 1);
            self.data[col + i] = v;
        }
        self.rows += 1;
    }

    /// Removes row `i` in place: each column's tail moves one slot up, and
    /// the stride is kept. Panics when `i` is out of range.
    pub fn remove_row(&mut self, i: usize) {
        self.check_row(i);
        for a in 0..self.arity {
            let col = a * self.stride;
            self.data.copy_within(col + i + 1..col + self.rows, col + i);
        }
        self.rows -= 1;
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        self.rows = self.rows.min(rows);
    }

    /// Removes every row, keeping the buffer.
    pub fn clear(&mut self) {
        self.rows = 0;
    }

    /// Empties the batch and re-types it to `arity`-wide rows, keeping the
    /// buffer (a scratch batch reused across schemas).
    pub fn reset(&mut self, arity: usize) {
        self.rows = 0;
        self.arity = arity;
        self.stride = self.data.len().checked_div(arity).unwrap_or(0);
        self.data.truncate(arity * self.stride);
    }

    /// True iff the rows are in non-decreasing φ order, checked column by
    /// column: column 0 must not decrease, and within each run of rows
    /// that tie on it column 1 must not, and so on — each column is read
    /// contiguously, and only where every earlier column tied. A column
    /// whose first and last rows agree must be constant (one vectorizable
    /// pass), and a short run compares its rows pairwise.
    pub fn is_sorted(&self) -> bool {
        self.is_sorted_from(0, 0..self.rows)
    }

    /// [`Self::is_sorted`] for `rows`, which agree on columns `0..a`.
    fn is_sorted_from(&self, a: usize, rows: core::ops::Range<usize>) -> bool {
        const SHORT: usize = 8;
        if a == self.arity || rows.len() < 2 {
            return true;
        }
        let col = &self.col(a)[rows.clone()];
        let first = col[0];
        if first == col[col.len() - 1] {
            return col.iter().all(|&v| v == first) && self.is_sorted_from(a + 1, rows);
        }
        if rows.len() <= SHORT {
            return rows
                .skip(1)
                .all(|i| self.cmp_rows_from(a, i - 1, i) != Ordering::Greater);
        }
        let mut tied = 0;
        for i in 1..col.len() {
            if col[i] < col[i - 1] {
                return false;
            }
            if col[i] != col[i - 1] {
                if i - tied > 1 && !self.is_sorted_from(a + 1, rows.start + tied..rows.start + i) {
                    return false;
                }
                tied = i;
            }
        }
        self.is_sorted_from(a + 1, rows.start + tied..rows.end)
    }

    /// Rows `i` and `j` compared on columns `a..`, column by column.
    fn cmp_rows_from(&self, a: usize, i: usize, j: usize) -> Ordering {
        for b in a..self.arity {
            let col = b * self.stride;
            match self.data[col + i].cmp(&self.data[col + j]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Index of the first row `i` for which `pred(self.cmp_row(i, key))`
    /// is false, assuming the rows are partitioned by it (as
    /// [`slice::partition_point`]): `Ordering::is_lt` finds the first row
    /// `≥ key`, `Ordering::is_le` the first row `> key`.
    pub fn partition_point(&self, key: &[u64], mut pred: impl FnMut(Ordering) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.cmp_row(mid, key)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Two batches are equal when they hold the same rows; spare capacity and
/// stride do not count.
impl PartialEq for TupleBatch {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.rows == other.rows
            && (0..self.arity).all(|a| self.col(a) == other.col(a))
    }
}

impl Eq for TupleBatch {}

/// The slots a [`TupleBatch::try_extend`] fill writes: rows `0..rows()` of
/// the view are the batch's next rows, in every column.
#[derive(Debug)]
pub struct BatchSlots<'a> {
    data: &'a mut [u64],
    stride: usize,
    base: usize,
    rows: usize,
    arity: usize,
}

impl BatchSlots<'_> {
    /// Attribute `a` of row `i`, as last written.
    #[inline]
    pub fn get(&self, i: usize, a: usize) -> u64 {
        debug_assert!(i < self.rows && a < self.arity);
        self.data[a * self.stride + self.base + i]
    }

    /// Writes attribute `a` of row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, a: usize, v: u64) {
        debug_assert!(i < self.rows && a < self.arity);
        self.data[a * self.stride + self.base + i] = v;
    }

    /// Column `a`'s slots for the new rows. Panics when `a` is not below
    /// the arity.
    #[inline]
    pub fn col_mut(&mut self, a: usize) -> &mut [u64] {
        assert!(
            a < self.arity,
            "column {a} out of range for arity {}",
            self.arity
        );
        let start = a * self.stride + self.base;
        &mut self.data[start..start + self.rows]
    }

    /// Scatters `row` into row `i`'s slot in each column. Panics when `i`
    /// is out of range or `row` is not `arity` wide.
    #[inline]
    pub fn set_row(&mut self, i: usize, row: &[u64]) {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        assert_eq!(row.len(), self.arity, "row width");
        let at = self.base + i;
        for (a, &v) in row.iter().enumerate() {
            self.data[a * self.stride + at] = v;
        }
    }

    /// The buffer from row `i` of column 0 on, and the stride between
    /// columns: attribute `a` of row `i + k` is at `a · stride + k`. For
    /// kernels that write several rows in one strided pass.
    #[inline]
    pub fn strided_from(&mut self, i: usize) -> (&mut [u64], usize) {
        let start = (self.base + i).min(self.data.len());
        (&mut self.data[start..], self.stride)
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
        b.push_row(&[4, 5, 6]);
        assert_eq!((b.len(), b.arity()), (2, 3));
        assert_eq!((b.col(0), b.col(2)), (&[1u64, 4][..], &[3u64, 6][..]));
        assert_eq!(b.get(1, 1), 5);
        let mut row = [0; 3];
        b.row_into(1, &mut row);
        assert_eq!(row, [4, 5, 6]);
        b.truncate(5);
        assert_eq!(b.len(), 2);
        b.truncate(1);
        assert_eq!(b.to_tuples(), vec![Tuple::from([1u64, 2, 3])]);
        b.clear();
        assert!(b.is_empty() && b.col(0).is_empty());
        b.reset(1);
        b.push_row(&[8]);
        assert_eq!((b.arity(), b.col(0)), (1, &[8u64][..]));
    }

    #[test]
    fn growth_keeps_every_column() {
        let mut b = TupleBatch::new(2);
        for i in 0..100u64 {
            b.push_row(&[i, 1000 + i]);
        }
        assert_eq!(b.col(0), (0..100).collect::<Vec<_>>());
        assert_eq!(b.col(1), (1000..1100).collect::<Vec<_>>());
        let exact = TupleBatch::from_tuples(2, &b.to_tuples());
        assert_eq!(exact, b, "stride does not count toward equality");
        let mut picked = TupleBatch::new(2);
        picked.extend_from(&b, &[99, 0]);
        picked.extend_from(&b, &[7]);
        assert_eq!(picked.col(0), &[99u64, 0, 7]);
        assert_eq!(picked.col(1), &[1099u64, 1000, 1007]);
        let one = TupleBatch::from_tuples(1, &[Tuple::from([5u64])]);
        let joined = TupleBatch::gather_joined(&picked, &[2, 2, 0], &one, &[0, 0, 0]);
        assert_eq!(joined.arity(), 3);
        assert_eq!(joined.tuple(0), Tuple::from([7u64, 1007, 5]));
        assert_eq!(joined.col(0), &[7u64, 7, 99]);
    }

    #[test]
    fn zero_arity_rows_are_counted() {
        let mut b = TupleBatch::new(0);
        b.push_row(&[]);
        b.push_row(&[]);
        assert_eq!(b.len(), 2);
        b.row_into(1, &mut []);
        assert_eq!(b.cmp_row(0, &[]), Ordering::Equal);
        assert!(b.is_sorted());
        b.try_extend(3, |_| Ok::<(), ()>(())).unwrap();
        assert_eq!(b.to_tuples().len(), 5);
        b.insert_row(5, &[]);
        assert_eq!(b.len(), 6);
        b.remove_row(0);
        b.remove_row(0);
        assert_eq!(b.len(), 4);
        b.truncate(1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn arity_one() {
        let b = TupleBatch::from_tuples(1, &[Tuple::from([7u64]), Tuple::from([9u64])]);
        assert_eq!(b.col(0), &[7u64, 9]);
        assert_eq!(b.partition_point(&[8], Ordering::is_lt), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_row_panics() {
        TupleBatch::new(2).push_row(&[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        TupleBatch::new(0).row_into(0, &mut []);
    }

    #[test]
    fn try_extend_restores_on_error() {
        let mut b = TupleBatch::from_tuples(2, &[Tuple::from([1u64, 2])]);
        let before = b.clone();
        let r = b.try_extend(2, |slots| {
            slots.set_row(0, &[3, 4]);
            Err::<(), &str>("boom")
        });
        assert_eq!(r, Err("boom"));
        assert_eq!(b, before);
        b.try_extend(2, |slots| {
            slots.set_row(0, &[3, 4]);
            slots.set_row(1, &[5, 6]);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(b.tuple(2), Tuple::from([5u64, 6]));
        assert_eq!(b.col(1), &[2u64, 4, 6]);
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
        assert_eq!(sorted.partition_point(&[1, 0], Ordering::is_lt), 1);
        assert_eq!(sorted.partition_point(&[1, 0], Ordering::is_le), 3);
        assert_eq!(sorted.partition_point(&[], |_| true), 4);
        assert_eq!(sorted.cmp_row(0, &[0]), Ordering::Greater, "longer row");
        assert_eq!(sorted.cmp_row(3, &[2, 5, 0]), Ordering::Less, "shorter row");
        let unsorted = TupleBatch::from_tuples(1, &[Tuple::from([2u64]), Tuple::from([1u64])]);
        assert!(!unsorted.is_sorted());
    }
}
