//! Aggregation over (possibly compressed) relations, with block skipping.
//!
//! Demonstrates the second half of the paper's §4 claim — standard
//! operations work unchanged on coded data — and adds an optimization the
//! block structure makes natural: per-block φ bounds let `COUNT`/`MIN`/`MAX`
//! queries over the clustering prefix skip or short-circuit whole blocks
//! without decoding them.

use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::query::Selection;
use crate::relation_store::StoredRelation;
use avq_obs::{names, QueryCtx};
use avq_schema::TupleBatch;
use std::collections::BTreeMap;

/// An aggregate function over one attribute (ordinal space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of matching tuples.
    Count,
    /// Sum of the attribute's ordinals.
    Sum {
        /// Attribute position.
        attr: usize,
    },
    /// Minimum ordinal.
    Min {
        /// Attribute position.
        attr: usize,
    },
    /// Maximum ordinal.
    Max {
        /// Attribute position.
        attr: usize,
    },
    /// Mean ordinal (as a float).
    Avg {
        /// Attribute position.
        attr: usize,
    },
}

impl Aggregate {
    /// The aggregated attribute, or `None` for `COUNT`.
    fn attr(self) -> Option<usize> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum { attr }
            | Aggregate::Min { attr }
            | Aggregate::Max { attr }
            | Aggregate::Avg { attr } => Some(attr),
        }
    }
}

/// The result of an aggregate query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateValue {
    /// Count result.
    Count(u64),
    /// Sum result.
    Sum(u128),
    /// Min/Max result, `None` when no tuple matched.
    Extremum(Option<u64>),
    /// Average result, `None` when no tuple matched.
    Avg(Option<f64>),
}

impl StoredRelation {
    /// Evaluates an aggregate under a selection.
    ///
    /// Fast paths (no block decode):
    /// * `COUNT` with an empty selection — block headers carry tuple counts
    ///   (served from in-memory metadata; zero I/O);
    /// * `MIN`/`MAX` of the clustering attribute with an empty selection —
    ///   only the first / last block is decoded.
    ///
    /// An aggregated attribute past the arity is a
    /// [`avq_schema::SchemaError::NoSuchAttribute`].
    pub fn aggregate(
        &self,
        agg: Aggregate,
        selection: &Selection,
    ) -> Result<(AggregateValue, QueryCost), DbError> {
        self.check_attr(agg.attr().unwrap_or(0))?;
        let _span = avq_obs::span!(names::SPAN_DB_AGGREGATE);
        avq_obs::counter!(names::DB_AGGREGATES).inc();
        let mut tracker = CostTracker::new(self.device());

        if selection.predicates().is_empty() {
            match agg {
                Aggregate::Count => {
                    tracker.end_index_phase();
                    return Ok((
                        AggregateValue::Count(self.tuple_count() as u64),
                        tracker.cost,
                    ));
                }
                Aggregate::Min { attr: 0 } => {
                    let v = self.blocks().first().map(|b| b.min.digits()[0]);
                    tracker.end_index_phase();
                    return Ok((AggregateValue::Extremum(v), tracker.cost));
                }
                Aggregate::Max { attr: 0 } => {
                    let v = self.blocks().last().map(|b| b.max.digits()[0]);
                    tracker.end_index_phase();
                    return Ok((AggregateValue::Extremum(v), tracker.cost));
                }
                _ => {}
            }
        }

        // General path: stream the selection through a fold (matching
        // tuples are never materialized).
        let (state, cost) = self.fold_matching(
            selection,
            self.access_path(selection),
            &QueryCtx::default(),
            AggState::default(),
            |st, run, sel| st.fold(agg, run, sel),
        )?;
        tracker.cost = cost;
        Ok((state.finish(agg), tracker.cost))
    }

    /// Evaluates an aggregate per distinct value of `group_attr` (GROUP BY),
    /// streaming block-at-a-time. A group or aggregated attribute past the
    /// arity is a [`avq_schema::SchemaError::NoSuchAttribute`].
    pub fn aggregate_group_by(
        &self,
        group_attr: usize,
        agg: Aggregate,
        selection: &Selection,
    ) -> Result<(BTreeMap<u64, AggregateValue>, QueryCost), DbError> {
        self.check_attr(group_attr.max(agg.attr().unwrap_or(0)))?;
        let (groups, cost) = self.fold_matching(
            selection,
            self.access_path(selection),
            &QueryCtx::default(),
            BTreeMap::<u64, AggState>::new(),
            |groups, run, sel| {
                let keys = run.col(group_attr);
                for &i in sel {
                    let st: &mut AggState = groups.entry(keys[i as usize]).or_default();
                    st.fold(agg, run, &[i]);
                }
            },
        )?;
        let out = groups
            .into_iter()
            .map(|(k, st)| (k, st.finish(agg)))
            .collect();
        Ok((out, cost))
    }
}

/// Streaming fold state shared by all aggregate functions.
#[derive(Debug, Default, Clone, Copy)]
struct AggState {
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl AggState {
    /// Folds rows `sel` of `run` in, reading only the aggregated column.
    fn fold(&mut self, agg: Aggregate, run: &TupleBatch, sel: &[u32]) {
        self.count += sel.len() as u64;
        let Some(attr) = agg.attr() else {
            return;
        };
        let col = run.col(attr);
        for &i in sel {
            let v = col[i as usize];
            self.sum += v as u128;
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }

    fn finish(self, agg: Aggregate) -> AggregateValue {
        match agg {
            Aggregate::Count => AggregateValue::Count(self.count),
            Aggregate::Sum { .. } => AggregateValue::Sum(self.sum),
            Aggregate::Min { .. } => AggregateValue::Extremum(self.min),
            Aggregate::Max { .. } => AggregateValue::Extremum(self.max),
            Aggregate::Avg { .. } => AggregateValue::Avg(if self.count == 0 {
                None
            } else {
                Some(self.sum as f64 / self.count as f64)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use crate::query::RangePredicate;
    use avq_codec::CodecOptions;
    use avq_schema::{Domain, Relation, Schema, Tuple};
    use avq_storage::{BlockDevice, BufferPool};

    fn stored() -> StoredRelation {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(10).unwrap()),
            ("b", Domain::uint(100).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..1000u64)
            .map(|i| Tuple::from([i % 10, i % 100]))
            .collect();
        let relation = Relation::from_tuples(schema, tuples).unwrap();
        let config = DbConfig {
            codec: CodecOptions {
                block_capacity: 128,
                ..Default::default()
            },
            ..Default::default()
        };
        let device = BlockDevice::new(128, config.disk);
        let pool = BufferPool::new(device.clone(), config.buffer_frames);
        StoredRelation::bulk_load(device, pool, &relation, config).unwrap()
    }

    #[test]
    fn count_all_is_free() {
        let rel = stored();
        let (v, cost) = rel.aggregate(Aggregate::Count, &Selection::all()).unwrap();
        assert_eq!(v, AggregateValue::Count(1000));
        assert_eq!(cost.data_blocks, 0, "metadata answers COUNT(*)");
    }

    #[test]
    fn min_max_of_clustering_attr_is_cheap() {
        let rel = stored();
        let (v, cost) = rel
            .aggregate(Aggregate::Min { attr: 0 }, &Selection::all())
            .unwrap();
        assert_eq!(v, AggregateValue::Extremum(Some(0)));
        assert_eq!(cost.data_blocks, 0);
        let (v, _) = rel
            .aggregate(Aggregate::Max { attr: 0 }, &Selection::all())
            .unwrap();
        assert_eq!(v, AggregateValue::Extremum(Some(9)));
    }

    #[test]
    fn sum_and_avg_match_brute_force() {
        let rel = stored();
        let all = rel.scan_all().unwrap();
        let sel = Selection::all().and(RangePredicate {
            attr: 1,
            lo: 10,
            hi: 50,
        });
        let matching: Vec<_> = all
            .iter()
            .filter(|t| crate::query::tests::matches(&sel, t.digits()))
            .collect();
        let expect_sum: u128 = matching.iter().map(|t| t.digits()[1] as u128).sum();

        let (v, _) = rel.aggregate(Aggregate::Sum { attr: 1 }, &sel).unwrap();
        assert_eq!(v, AggregateValue::Sum(expect_sum));

        let (v, _) = rel.aggregate(Aggregate::Avg { attr: 1 }, &sel).unwrap();
        let AggregateValue::Avg(Some(avg)) = v else {
            panic!("non-empty selection");
        };
        assert!((avg - expect_sum as f64 / matching.len() as f64).abs() < 1e-9);

        let (v, _) = rel.aggregate(Aggregate::Count, &sel).unwrap();
        assert_eq!(v, AggregateValue::Count(matching.len() as u64));
    }

    #[test]
    fn empty_match_extremes_are_none() {
        let rel = stored();
        // Contradictory conjuncts on the same attribute: nothing matches.
        let sel = Selection::all()
            .and(RangePredicate::equals(1, 0))
            .and(RangePredicate::equals(1, 1));
        let (v, _) = rel.aggregate(Aggregate::Min { attr: 1 }, &sel).unwrap();
        assert_eq!(v, AggregateValue::Extremum(None));
        let (v, _) = rel.aggregate(Aggregate::Avg { attr: 1 }, &sel).unwrap();
        assert_eq!(v, AggregateValue::Avg(None));
    }

    #[test]
    fn group_by_matches_brute_force() {
        let rel = stored();
        let all = rel.scan_all().unwrap();
        let sel = Selection::all().and(RangePredicate {
            attr: 1,
            lo: 0,
            hi: 49,
        });
        let (groups, _) = rel
            .aggregate_group_by(0, Aggregate::Sum { attr: 1 }, &sel)
            .unwrap();
        for g in 0..10u64 {
            let expect: u128 = all
                .iter()
                .filter(|t| t.digits()[0] == g && t.digits()[1] < 50)
                .map(|t| t.digits()[1] as u128)
                .sum();
            assert_eq!(
                groups.get(&g).copied(),
                Some(AggregateValue::Sum(expect)),
                "group {g}"
            );
        }
        // COUNT per group.
        let (counts, _) = rel
            .aggregate_group_by(0, Aggregate::Count, &Selection::all())
            .unwrap();
        assert_eq!(counts.len(), 10);
        assert!(counts.values().all(|v| *v == AggregateValue::Count(100)));
    }

    #[test]
    fn group_by_empty_selection_result() {
        let rel = stored();
        let sel = Selection::all()
            .and(RangePredicate::equals(1, 0))
            .and(RangePredicate::equals(1, 1));
        let (groups, _) = rel.aggregate_group_by(0, Aggregate::Count, &sel).unwrap();
        assert!(groups.is_empty());
    }

    #[test]
    fn min_with_predicate_decodes_blocks() {
        let rel = stored();
        let sel = Selection::all().and(RangePredicate {
            attr: 0,
            lo: 3,
            hi: 3,
        });
        let (v, cost) = rel.aggregate(Aggregate::Min { attr: 1 }, &sel).unwrap();
        let expect = rel
            .scan_all()
            .unwrap()
            .iter()
            .filter(|t| t.digits()[0] == 3)
            .map(|t| t.digits()[1])
            .min();
        assert_eq!(v, AggregateValue::Extremum(expect));
        assert!(cost.data_blocks > 0);
        assert!((cost.data_blocks as usize) < rel.block_count());
    }
}
