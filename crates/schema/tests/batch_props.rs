//! Property tests for [`TupleBatch`]: stored column by column, it is still
//! `Vec<Vec<u64>>` — same rows, same order, same comparisons — for every
//! arity including 0 and 1, through every accessor and edit.

use avq_schema::{Tuple, TupleBatch};
use core::cmp::Ordering;
use proptest::prelude::*;

/// `rows` tuples of width `arity` drawn from a small alphabet (so ties and
/// shared prefixes are common).
fn run(arity: usize, cells: &[u64], rows: usize) -> Vec<Tuple> {
    (0..rows)
        .map(|r| {
            Tuple::new(
                (0..arity)
                    .map(|c| cells[(r * arity + c) % cells.len()] % 4)
                    .collect(),
            )
        })
        .collect()
}

/// The row-major model of a batch.
fn model(tuples: &[Tuple]) -> Vec<Vec<u64>> {
    tuples.iter().map(|t| t.digits().to_vec()).collect()
}

/// The batch read back row by row through `row_into`.
fn rows_of(batch: &TupleBatch) -> Vec<Vec<u64>> {
    (0..batch.len())
        .map(|i| {
            let mut row = vec![0; batch.arity()];
            batch.row_into(i, &mut row);
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrips_with_vec_of_tuples(
        arity in 0usize..5,
        rows in 0usize..40,
        cells in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let tuples = run(arity, &cells, rows);
        let expect = model(&tuples);
        let batch = TupleBatch::from_tuples(arity, &tuples);
        prop_assert_eq!(batch.len(), rows);
        prop_assert_eq!(batch.to_tuples(), tuples.clone());
        prop_assert_eq!(rows_of(&batch), expect.clone());
        for a in 0..arity {
            let col: Vec<u64> = expect.iter().map(|r| r[a]).collect();
            prop_assert_eq!(batch.col(a), col.as_slice());
            for (i, r) in expect.iter().enumerate() {
                prop_assert_eq!(batch.get(i, a), r[a]);
            }
        }
        let mut pushed = TupleBatch::new(arity);
        for t in &tuples {
            pushed.push_row(t.digits());
        }
        prop_assert_eq!(&pushed, &batch);
        // Any selection of rows, gathered column by column.
        let sel: Vec<u32> = (0..rows as u32).rev().step_by(2).collect();
        let mut picked = TupleBatch::new(arity);
        picked.extend_from(&batch, &sel);
        let want: Vec<Vec<u64>> = sel.iter().map(|&i| expect[i as usize].clone()).collect();
        prop_assert_eq!(rows_of(&picked), want);
    }

    #[test]
    fn truncate_matches_vec_truncate(
        arity in 0usize..4,
        rows in 0usize..30,
        keep in 0usize..40,
        cells in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let tuples = run(arity, &cells, rows);
        let mut expect = model(&tuples);
        let mut batch = TupleBatch::from_tuples(arity, &tuples);
        expect.truncate(keep);
        batch.truncate(keep);
        prop_assert_eq!(batch.len(), expect.len());
        prop_assert_eq!(rows_of(&batch), expect.clone());
        // A truncated batch grows back from where it was cut.
        batch.push_row(&vec![3; arity]);
        expect.push(vec![3; arity]);
        prop_assert_eq!(rows_of(&batch), expect);
    }

    #[test]
    fn row_insert_and_remove_match_vec(
        arity in 0usize..4,
        rows in 0usize..30,
        at in 0usize..31,
        cells in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let tuples = run(arity, &cells, rows);
        let batch = TupleBatch::from_tuples(arity, &tuples);
        let at = at % (rows + 1);
        let new = run(arity, &cells[..1], 1).remove(0);
        let mut grown = model(&tuples);
        grown.insert(at, new.digits().to_vec());
        let mut inserted = batch.clone();
        inserted.insert_row(at, new.digits());
        prop_assert_eq!(inserted.len(), rows + 1);
        prop_assert_eq!(rows_of(&inserted), grown.clone());
        // A second insert lands in the slack the first one left.
        let mut twice = inserted.clone();
        twice.insert_row(at, new.digits());
        grown.insert(at, new.digits().to_vec());
        prop_assert_eq!(rows_of(&twice), grown);
        twice.remove_row(at);
        prop_assert_eq!(&twice, &inserted);
        inserted.remove_row(at);
        prop_assert_eq!(&inserted, &batch);
        if rows > 0 {
            let gone = at % rows;
            let mut shrunk = model(&tuples);
            shrunk.remove(gone);
            let mut removed = batch.clone();
            removed.remove_row(gone);
            prop_assert_eq!(removed.len(), rows - 1);
            prop_assert_eq!(rows_of(&removed), shrunk.clone());
            // An insert after a remove reuses the freed slot.
            removed.insert_row(gone, tuples[gone].digits());
            prop_assert_eq!(&removed, &batch);
        }
    }

    #[test]
    fn slice_order_is_tuple_order(
        arity in 0usize..4,
        rows in 2usize..30,
        cells in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let tuples = run(arity, &cells, rows);
        let expect = model(&tuples);
        let batch = TupleBatch::from_tuples(arity, &tuples);
        for (i, a) in tuples.iter().enumerate() {
            for b in &expect {
                prop_assert_eq!(batch.cmp_row(i, b), a.digits().cmp(b.as_slice()));
            }
            // Keys shorter and longer than a row order as slices do.
            let short = &a.digits()[..arity.saturating_sub(1)];
            prop_assert_eq!(batch.cmp_row(i, short), a.digits().cmp(short));
            let long = [a.digits(), &[0]].concat();
            prop_assert_eq!(batch.cmp_row(i, &long), Ordering::Less);
        }
        prop_assert_eq!(batch.is_sorted(), tuples.windows(2).all(|w| w[0] <= w[1]));

        let mut sorted = tuples.clone();
        sorted.sort_unstable();
        let sorted_batch = TupleBatch::from_tuples(arity, &sorted);
        prop_assert!(sorted_batch.is_sorted());
        for probe in &tuples {
            prop_assert_eq!(
                sorted_batch.partition_point(probe.digits(), Ordering::is_lt),
                sorted.partition_point(|t| t < probe)
            );
            prop_assert_eq!(
                sorted_batch.partition_point(probe.digits(), Ordering::is_le),
                sorted.partition_point(|t| t <= probe)
            );
        }
    }

    #[test]
    fn failed_try_extend_leaves_the_rows(
        arity in 0usize..4,
        rows in 0usize..30,
        more in 1usize..20,
        written in 0usize..20,
        cells in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let tuples = run(arity, &cells, rows);
        let mut batch = TupleBatch::from_tuples(arity, &tuples);
        let before = batch.clone();
        // The fill writes some of its rows, then fails.
        let r = batch.try_extend(more, |slots| {
            for i in 0..written.min(more) {
                slots.set_row(i, &vec![9; arity]);
            }
            Err::<(), ()>(())
        });
        prop_assert!(r.is_err());
        prop_assert_eq!(&batch, &before);
        prop_assert_eq!(rows_of(&batch), model(&tuples));
        // A fill that succeeds appends exactly its rows after them.
        batch
            .try_extend(more, |slots| {
                for i in 0..more {
                    slots.set_row(i, &vec![i as u64; arity]);
                }
                Ok::<(), ()>(())
            })
            .unwrap();
        let mut expect = model(&tuples);
        expect.extend((0..more).map(|i| vec![i as u64; arity]));
        prop_assert_eq!(batch.len(), rows + more);
        prop_assert_eq!(rows_of(&batch), expect);
    }
}
