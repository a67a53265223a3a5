//! Equijoins over compressed relations.
//!
//! Two strategies, both operating block-at-a-time on coded data (decoding is
//! confined to blocks, exactly as §3.3 intends):
//!
//! * **Block nested-loop** — decode each outer block once, and for each,
//!   stream the inner relation's blocks; cost `B_outer + B_outer·B_inner`
//!   block reads (mitigated by the buffer pool).
//! * **Index nested-loop** — when the inner relation has a secondary index
//!   on its join attribute, probe it per distinct outer value; cost
//!   `B_outer + Σ probe`.
//!
//! Results are pairs of tuples `(outer, inner)` with equal join-attribute
//! ordinals. Joining compressed relations never materializes either side in
//! full.

use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::relation_store::StoredRelation;
use avq_obs::{names, QueryCtx};
use avq_schema::Tuple;
use std::collections::{BTreeMap, BTreeSet};

/// Which join strategy was used (reported for tests/experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Decode-outer × decode-inner.
    BlockNestedLoop,
    /// Probe the inner relation's secondary index per outer value.
    IndexNestedLoop,
}

/// Joined tuple pairs plus the measured cost and chosen strategy.
pub type JoinResult = (Vec<(Tuple, Tuple)>, QueryCost, JoinStrategy);

/// Joins `outer ⋈ inner` on `outer.A_outer_attr = inner.A_inner_attr`,
/// picking index nested-loop when the inner side has a secondary index on
/// the join attribute.
pub fn equijoin(
    outer: &StoredRelation,
    outer_attr: usize,
    inner: &StoredRelation,
    inner_attr: usize,
) -> Result<JoinResult, DbError> {
    let _span = avq_obs::span!(names::SPAN_DB_JOIN);
    avq_obs::counter!(names::DB_JOINS).inc();
    if inner.has_secondary_index(inner_attr) {
        index_nested_loop(outer, outer_attr, inner, inner_attr)
            .map(|(rows, cost)| (rows, cost, JoinStrategy::IndexNestedLoop))
    } else {
        block_nested_loop(outer, outer_attr, inner, inner_attr)
            .map(|(rows, cost)| (rows, cost, JoinStrategy::BlockNestedLoop))
    }
}

/// Block nested-loop equijoin.
pub fn block_nested_loop(
    outer: &StoredRelation,
    outer_attr: usize,
    inner: &StoredRelation,
    inner_attr: usize,
) -> Result<(Vec<(Tuple, Tuple)>, QueryCost), DbError> {
    nested_loop(outer, outer_attr, inner, inner_attr, false)
}

/// Index nested-loop equijoin (inner must have a secondary index on
/// `inner_attr`; falls back to the candidate-block scan otherwise).
pub fn index_nested_loop(
    outer: &StoredRelation,
    outer_attr: usize,
    inner: &StoredRelation,
    inner_attr: usize,
) -> Result<(Vec<(Tuple, Tuple)>, QueryCost), DbError> {
    nested_loop(outer, outer_attr, inner, inner_attr, true)
}

/// The nested loop both strategies share: per outer block, group its row
/// numbers by join value, then stream the inner blocks — all of them, or
/// with `probe_index` only those the inner's secondary index lists for the
/// block's distinct values. Both sides are read through their join
/// column; only a matched pair is gathered out of its blocks.
fn nested_loop(
    outer: &StoredRelation,
    outer_attr: usize,
    inner: &StoredRelation,
    inner_attr: usize,
    probe_index: bool,
) -> Result<(Vec<(Tuple, Tuple)>, QueryCost), DbError> {
    let ctx = QueryCtx::default();
    let mut tracker = CostTracker::new(outer.device());
    let mut out = Vec::new();
    let inner_ids = inner.all_block_ids();
    for served in outer.read_blocks(outer.all_block_ids(), &ctx) {
        let (_, outer_rows) = served?;
        tracker.cost.data_blocks += 1;
        tracker.cost.tuples_scanned += outer_rows.len();
        let mut by_value: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, &v) in outer_rows.col(outer_attr).iter().enumerate() {
            by_value.entry(v).or_default().push(i);
        }
        let candidates = if probe_index {
            // One index probe per distinct value; union candidate blocks.
            let mut blocks = BTreeSet::new();
            for &v in by_value.keys() {
                blocks.extend(inner.secondary_candidate_blocks(inner_attr, v, v)?);
            }
            tracker.end_index_phase();
            blocks.into_iter().collect()
        } else {
            inner_ids.clone()
        };
        for served in inner.read_blocks(candidates, &ctx) {
            let (_, inner_rows) = served?;
            tracker.cost.data_blocks += 1;
            for (i, v) in inner_rows.col(inner_attr).iter().enumerate() {
                for &o in by_value.get(v).into_iter().flatten() {
                    out.push((outer_rows.tuple(o), inner_rows.tuple(i)));
                }
            }
        }
        if probe_index {
            tracker.end_data_phase();
        }
    }
    tracker.cost.tuples_matched = out.len();
    tracker.end_data_phase();
    Ok((out, tracker.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use avq_codec::CodecOptions;
    use avq_schema::{Domain, Relation, Schema};
    use avq_storage::{BlockDevice, BufferPool};
    use std::sync::Arc;

    fn make(
        device: &Arc<BlockDevice>,
        pool: &Arc<BufferPool>,
        tuples: Vec<Tuple>,
        sizes: (u64, u64),
    ) -> StoredRelation {
        let schema = Schema::from_pairs(vec![
            ("k", Domain::uint(sizes.0).unwrap()),
            ("v", Domain::uint(sizes.1).unwrap()),
        ])
        .unwrap();
        let relation = Relation::from_tuples(schema, tuples).unwrap();
        let config = DbConfig {
            codec: CodecOptions {
                block_capacity: 96,
                ..Default::default()
            },
            ..Default::default()
        };
        StoredRelation::bulk_load(device.clone(), pool.clone(), &relation, config).unwrap()
    }

    fn setup(index_inner: bool) -> (StoredRelation, StoredRelation) {
        let config = DbConfig::default();
        let device = BlockDevice::new(96, config.disk);
        let pool = BufferPool::new(device.clone(), 256);
        // Outer: 200 tuples with join key = v % 20 in attr 1.
        let outer = make(
            &device,
            &pool,
            (0..200u64).map(|i| Tuple::from([i % 50, i % 20])).collect(),
            (50, 20),
        );
        // Inner: 100 tuples keyed on attr 0 (values 0..25).
        let mut inner = make(
            &device,
            &pool,
            (0..100u64).map(|i| Tuple::from([i % 25, i])).collect(),
            (25, 100),
        );
        if index_inner {
            inner.create_secondary_index(0).unwrap();
        }
        (outer, inner)
    }

    fn brute_force(
        outer: &StoredRelation,
        oa: usize,
        inner: &StoredRelation,
        ia: usize,
    ) -> Vec<(Tuple, Tuple)> {
        let os = outer.scan_all().unwrap();
        let is = inner.scan_all().unwrap();
        let mut out = Vec::new();
        for o in &os {
            for i in &is {
                if o.digits()[oa] == i.digits()[ia] {
                    out.push((o.clone(), i.clone()));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn block_nested_loop_matches_brute_force() {
        let (outer, inner) = setup(false);
        let (mut rows, cost, strategy) = equijoin(&outer, 1, &inner, 0).unwrap();
        assert_eq!(strategy, JoinStrategy::BlockNestedLoop);
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&outer, 1, &inner, 0));
        assert!(cost.data_blocks as usize >= outer.block_count() * inner.block_count());
    }

    #[test]
    fn index_nested_loop_matches_brute_force() {
        let (outer, inner) = setup(true);
        let (mut rows, _, strategy) = equijoin(&outer, 1, &inner, 0).unwrap();
        assert_eq!(strategy, JoinStrategy::IndexNestedLoop);
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&outer, 1, &inner, 0));
    }

    #[test]
    fn strategies_agree() {
        let (outer, inner) = setup(true);
        let (mut a, _, _) = equijoin(&outer, 1, &inner, 0).unwrap();
        let (mut b, _) = block_nested_loop(&outer, 1, &inner, 0).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn join_with_no_matches() {
        let (outer, inner) = setup(true);
        // Join outer attr 0 (values up to 49) against inner attr 1 where
        // only values 0..100 exist, but restrict: join on attr that can't
        // match is hard to construct here, so join a constant-free pair:
        // outer.k in 0..50, inner.v in 0..100 — matches exist. Instead build
        // a disjoint inner.
        let config = DbConfig::default();
        let device = BlockDevice::new(96, config.disk);
        let pool = BufferPool::new(device.clone(), 256);
        let disjoint = make(
            &device,
            &pool,
            (0..50u64).map(|i| Tuple::from([i % 7, i + 50])).collect(),
            (7, 100),
        );
        // outer join key attr 1 has values 0..20; disjoint attr 1 has 50..99.
        let (rows, _, _) = equijoin(&outer, 1, &disjoint, 1).unwrap();
        assert!(rows.is_empty());
        let _ = inner;
    }

    #[test]
    fn self_join_on_key_returns_multiplicities() {
        let (_, inner) = setup(true);
        // Self-join on attr 0: each group of equal keys contributes n².
        let (rows, _, _) = equijoin(&inner, 0, &inner, 0).unwrap();
        let all = inner.scan_all().unwrap();
        let mut counts = std::collections::HashMap::new();
        for t in &all {
            *counts.entry(t.digits()[0]).or_insert(0u64) += 1;
        }
        let expect: u64 = counts.values().map(|&c| c * c).sum();
        assert_eq!(rows.len() as u64, expect);
    }
}
