//! The clustered-range bound against brute force.
//!
//! φ order is lexicographic, so equalities on attributes `0..k` plus at most
//! one range on attribute `k` admit exactly one φ-interval. Over random
//! relations and selections, the clustered candidate set must be exactly
//! the blocks whose `[min, max]` meets that interval, and `select` and a
//! read through the clustered path must return what a filtered full scan
//! returns.

use avq_db::{AccessPath, Database, DbConfig, QueryCtx, RangePredicate, Selection};
use avq_schema::{Domain, Relation, Schema, Tuple};
use proptest::prelude::*;
use std::collections::BTreeSet;

const SIZES: [u64; 4] = [4, 5, 6, 4096];

/// Row-wise oracle: `row` satisfies every conjunct of `sel`.
fn admits(sel: &Selection, row: &[u64]) -> bool {
    sel.predicates()
        .iter()
        .all(|p| (p.lo..=p.hi).contains(&row[p.attr]))
}

fn db(tuples: BTreeSet<(u64, u64, u64, u64)>) -> Database {
    let schema = Schema::from_pairs(
        SIZES
            .iter()
            .zip(["a", "b", "c", "d"])
            .map(|(&size, name)| (name, Domain::uint(size).unwrap())),
    )
    .unwrap();
    let tuples = tuples
        .into_iter()
        .map(|(a, b, c, d)| Tuple::from([a, b, c, d]))
        .collect();
    let mut db = Database::new(DbConfig::default().with_block_capacity(128));
    db.create_relation("t", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustered_candidates_are_the_blocks_meeting_the_phi_interval(
        tuples in proptest::collection::btree_set(
            (0..SIZES[0], 0..SIZES[1], 0..SIZES[2], 0..SIZES[3]),
            1..1500,
        ),
        eq in proptest::collection::vec(0u64..6, 0..3),
        ranged in any::<bool>(),
        (lo, hi) in (0u64..8, 0u64..8),
        tail in 0u64..5000,
    ) {
        // Bounds run past the small domains of `a`, `b` and `c`; a tail draw
        // past `d`'s domain means no conjunct on `d`.
        let range = ranged.then_some((lo, hi));
        let tail = (tail < 4096).then_some(tail);
        let db = db(tuples);
        let rel = db.relation("t").unwrap();

        // Equalities on attributes 0..k, at most one range on k, and a
        // conjunct past the prefix (attribute 3) that must not extend it.
        let k = eq.len();
        let mut sel = Selection::all();
        for (attr, &v) in eq.iter().enumerate() {
            sel = sel.and(RangePredicate::equals(attr, v));
        }
        if let Some((lo, hi)) = range {
            sel = sel.and(RangePredicate { attr: k, lo, hi });
        }
        if let Some(v) = tail {
            sel = sel.and(RangePredicate { attr: 3, lo: 0, hi: v });
        }

        // The φ-interval, built digit by digit, clamped to each domain.
        let mut lo = vec![0u64; 4];
        let mut hi: Vec<u64> = SIZES.iter().map(|s| s - 1).collect();
        let mut empty = false;
        let bounds = eq.iter().map(|&v| (v, v)).chain(range);
        for (attr, (l, h)) in bounds.enumerate() {
            let h = h.min(SIZES[attr] - 1);
            empty |= l > h;
            lo[attr] = l;
            hi[attr] = h;
        }
        let (lo, hi) = (Tuple::new(lo), Tuple::new(hi));
        let expected: Vec<_> = if empty {
            Vec::new()
        } else {
            rel.blocks()
                .iter()
                .filter(|b| b.min <= hi && b.max >= lo)
                .map(|b| b.id)
                .collect()
        };

        let constrained = k > 0 || range.is_some();
        if constrained {
            let got = rel.candidate_blocks(&sel, AccessPath::ClusteredRange).unwrap();
            prop_assert_eq!(got, expected);
        }

        let brute: Vec<Tuple> = rel
            .scan_all()
            .unwrap()
            .into_iter()
            .filter(|t| admits(&sel, t.digits()))
            .collect();
        let (mut rows, _, _) = rel.select(&sel).unwrap();
        rows.sort_unstable();
        prop_assert_eq!(&rows, &brute);
        if constrained {
            // The clustered path, named rather than priced, reads the same.
            let (mut rows, _) = rel
                .fold_matching(
                    &sel,
                    AccessPath::ClusteredRange,
                    &QueryCtx::default(),
                    Vec::new(),
                    |out, run, sel| out.extend(sel.iter().map(|&i| run.tuple(i as usize))),
                )
                .unwrap();
            rows.sort_unstable();
            prop_assert_eq!(rows, brute);
        }
    }
}
