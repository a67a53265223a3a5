//! Property tests for [`TupleBatch`]: it is `Vec<Tuple>` in one buffer —
//! same rows, same order, same comparisons — for every arity including 0
//! and 1.

use avq_schema::{Tuple, TupleBatch};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrips_with_vec_of_tuples(
        arity in 0usize..5,
        rows in 0usize..40,
        cells in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let tuples = run(arity, &cells, rows);
        let batch = TupleBatch::from_tuples(arity, &tuples);
        prop_assert_eq!(batch.len(), rows);
        prop_assert_eq!(batch.rows().len(), rows);
        prop_assert_eq!(batch.to_tuples(), tuples.clone());
        for (i, t) in tuples.iter().enumerate() {
            prop_assert_eq!(batch.row(i), t.digits());
        }
        let mut pushed = TupleBatch::new(arity);
        for t in &tuples {
            pushed.push_row(t.digits());
        }
        prop_assert_eq!(&pushed, &batch);
    }

    #[test]
    fn truncate_matches_vec_truncate(
        arity in 0usize..4,
        rows in 0usize..30,
        keep in 0usize..40,
        cells in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut tuples = run(arity, &cells, rows);
        let mut batch = TupleBatch::from_tuples(arity, &tuples);
        tuples.truncate(keep);
        batch.truncate(keep);
        prop_assert_eq!(batch.to_tuples(), tuples);
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
        let mut grown = tuples.clone();
        grown.insert(at, new.clone());
        let inserted = batch.with_row_inserted(at, new.digits());
        prop_assert_eq!(inserted.to_tuples(), grown);
        prop_assert_eq!(inserted.with_row_removed(at), batch);
    }

    #[test]
    fn slice_order_is_tuple_order(
        arity in 0usize..4,
        rows in 2usize..30,
        cells in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let tuples = run(arity, &cells, rows);
        let batch = TupleBatch::from_tuples(arity, &tuples);
        for (i, a) in tuples.iter().enumerate() {
            for (j, b) in tuples.iter().enumerate() {
                prop_assert_eq!(batch.row(i).cmp(batch.row(j)), a.cmp(b));
            }
        }
        prop_assert_eq!(batch.is_sorted(), tuples.windows(2).all(|w| w[0] <= w[1]));

        let mut sorted = tuples.clone();
        sorted.sort_unstable();
        let sorted_batch = TupleBatch::from_tuples(arity, &sorted);
        prop_assert!(sorted_batch.is_sorted());
        let probe = &tuples[0];
        prop_assert_eq!(
            sorted_batch.partition_point(|r| r < probe.digits()),
            sorted.partition_point(|t| t < probe)
        );
    }
}
