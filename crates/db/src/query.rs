//! Conjunctive selections with access-path planning.
//!
//! §4 of the paper argues that "standard database operations remain the
//! same even when the database is AVQ coded". This module demonstrates it
//! beyond single-attribute ranges: a [`Selection`] is a conjunction of
//! per-attribute range predicates; the planner picks the cheapest access
//! path (clustered prefix range, a secondary index, or a full scan) and
//! filters the remaining conjuncts after block decode.

use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::relation_store::StoredRelation;
use avq_obs::{names, QueryCtx};
use avq_schema::Tuple;
use avq_storage::BlockId;

/// One conjunct: `lo ≤ A_attr ≤ hi` in ordinal space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePredicate {
    /// Attribute position.
    pub attr: usize,
    /// Inclusive lower bound (ordinal).
    pub lo: u64,
    /// Inclusive upper bound (ordinal).
    pub hi: u64,
}

impl RangePredicate {
    /// An equality predicate `A_attr = v`.
    pub fn equals(attr: usize, v: u64) -> Self {
        RangePredicate { attr, lo: v, hi: v }
    }

    /// True iff the row satisfies this conjunct.
    #[inline]
    pub fn matches(&self, row: &[u64]) -> bool {
        let v = row[self.attr];
        v >= self.lo && v <= self.hi
    }

    /// Width of the accepted range (for selectivity ordering).
    fn width(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }
}

/// A conjunction of range predicates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selection {
    predicates: Vec<RangePredicate>,
}

/// Which access path the planner chose (reported for tests/experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Contiguous block range via the primary index (clustering prefix).
    ClusteredRange,
    /// A secondary index on the named attribute.
    SecondaryIndex {
        /// The indexed attribute used.
        attr: usize,
    },
    /// Every data block.
    FullScan,
}

impl Selection {
    /// An unrestricted selection (matches everything).
    pub fn all() -> Self {
        Selection::default()
    }

    /// Adds a conjunct. Multiple conjuncts on the same attribute intersect.
    pub fn and(mut self, pred: RangePredicate) -> Self {
        self.predicates.push(pred);
        self
    }

    /// The conjuncts.
    pub fn predicates(&self) -> &[RangePredicate] {
        &self.predicates
    }

    /// True iff the row satisfies every conjunct.
    pub fn matches(&self, row: &[u64]) -> bool {
        self.predicates.iter().all(|p| p.matches(row))
    }

    /// The intersection of every conjunct on `attr`, or `None` when no
    /// conjunct constrains it (`lo > hi` when the conjuncts contradict).
    pub fn range_of(&self, attr: usize) -> Option<(u64, u64)> {
        self.predicates
            .iter()
            .filter(|p| p.attr == attr)
            .fold(None, |acc, p| {
                let (lo, hi) = acc.unwrap_or((0, u64::MAX));
                Some((lo.max(p.lo), hi.min(p.hi)))
            })
    }

    /// The bound of a clustered-range scan: the intersected ranges of
    /// attributes `0, 1, …` for as long as each is an equality, then at
    /// most one ranged attribute. φ order is lexicographic, so the tuples
    /// these conjuncts admit form one φ-interval, `[(v₀,…,v_{k−1}, lo, 0,
    /// …), (v₀,…,v_{k−1}, hi, max, …)]`. Empty when attribute 0 is
    /// unconstrained; a contradiction ends the prefix with `lo > hi`.
    pub fn clustered_prefix(&self) -> Vec<(u64, u64)> {
        let mut prefix = Vec::new();
        while let Some((lo, hi)) = self.range_of(prefix.len()) {
            prefix.push((lo, hi));
            if lo != hi {
                break;
            }
        }
        prefix
    }

    /// Chooses the access path for `rel`: a clustering-prefix conjunct wins
    /// (contiguous I/O); otherwise the *narrowest* conjunct with a secondary
    /// index; otherwise a full scan.
    pub fn plan(&self, rel: &StoredRelation) -> AccessPath {
        if self.predicates.iter().any(|p| p.attr == 0) {
            return AccessPath::ClusteredRange;
        }
        let mut best: Option<&RangePredicate> = None;
        for p in &self.predicates {
            if rel.has_secondary_index(p.attr) && best.is_none_or(|b| p.width() < b.width()) {
                best = Some(p);
            }
        }
        match best {
            Some(p) => AccessPath::SecondaryIndex { attr: p.attr },
            None => AccessPath::FullScan,
        }
    }
}

impl core::fmt::Display for AccessPath {
    /// The access-path names shared by `EXPLAIN` output and plan renderers
    /// (`clustered-range`, `secondary-index(attr=N)`, `full-scan`).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessPath::ClusteredRange => write!(f, "clustered-range"),
            AccessPath::SecondaryIndex { attr } => write!(f, "secondary-index(attr={attr})"),
            AccessPath::FullScan => write!(f, "full-scan"),
        }
    }
}

impl StoredRelation {
    /// Candidate data blocks for `selection` through the access path it
    /// planned (or any explicitly supplied `path`): the contiguous primary
    /// run meeting the φ-interval of [`Selection::clustered_prefix`], the
    /// union of secondary-index postings for an indexed conjunct, or every
    /// block. Shared by
    /// [`Self::fold_matching`], `EXPLAIN ANALYZE`, and the SQL executor so
    /// all three walk identical block sets.
    pub fn candidate_blocks(
        &self,
        selection: &Selection,
        path: AccessPath,
    ) -> Result<Vec<BlockId>, DbError> {
        match path {
            AccessPath::ClusteredRange => self.clustered_candidates(&selection.clustered_prefix()),
            AccessPath::SecondaryIndex { attr } => match selection.range_of(attr) {
                Some((lo, hi)) if lo <= hi => self.secondary_candidate_blocks(attr, lo, hi),
                _ => Ok(Vec::new()),
            },
            AccessPath::FullScan => Ok(self.all_block_ids()),
        }
    }

    /// Streams every row matching `selection` through `f`, borrowed from
    /// its decoded block, without materializing the result set — the one
    /// loop that turns candidate blocks into filtered rows, behind
    /// [`Self::select`], [`Self::select_range`], [`Self::aggregate`] and
    /// [`Self::aggregate_group_by`]. Blocks come through
    /// [`Self::read_block`] under `ctx`; the cost counts the blocks and
    /// tuples actually served, so one skipped under
    /// [`crate::ScanPolicy::SkipCorrupt`] is in neither.
    pub fn fold_matching<T>(
        &self,
        selection: &Selection,
        ctx: &QueryCtx,
        init: T,
        mut f: impl FnMut(&mut T, &[u64]),
    ) -> Result<(T, QueryCost, AccessPath), DbError> {
        let _span = avq_obs::span!(names::SPAN_DB_SELECT);
        avq_obs::counter!(names::DB_QUERIES).inc();
        let path = selection.plan(self);
        let mut tracker = CostTracker::new(self.device());
        let candidates: Vec<BlockId> = self.candidate_blocks(selection, path)?;
        tracker.end_index_phase();

        let mut acc = init;
        for id in candidates {
            let Some(run) = self.read_block(id, ctx)? else {
                continue;
            };
            tracker.cost.data_blocks += 1;
            tracker.cost.tuples_scanned += run.len();
            for row in run.rows().filter(|row| selection.matches(row)) {
                tracker.cost.tuples_matched += 1;
                f(&mut acc, row);
            }
        }
        tracker.end_data_phase();
        Ok((acc, tracker.cost, path))
    }

    /// Executes a conjunctive selection, returning matching tuples, the
    /// cost, and the access path used.
    pub fn select(
        &self,
        selection: &Selection,
    ) -> Result<(Vec<Tuple>, QueryCost, AccessPath), DbError> {
        self.fold_matching(selection, &QueryCtx::default(), Vec::new(), |out, row| {
            out.push(Tuple::from(row))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use avq_codec::CodecOptions;
    use avq_schema::{Domain, Relation, Schema};
    use avq_storage::{BlockDevice, BufferPool};

    fn stored(with_index_on: &[usize]) -> StoredRelation {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(16).unwrap()),
            ("b", Domain::uint(32).unwrap()),
            ("c", Domain::uint(512).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..2000u64)
            .map(|i| Tuple::from([(i * 3) % 16, (i * 7) % 32, (i * 11) % 512]))
            .collect();
        let relation = Relation::from_tuples(schema, tuples).unwrap();
        let config = DbConfig {
            codec: CodecOptions {
                block_capacity: 256,
                ..Default::default()
            },
            ..Default::default()
        };
        let device = BlockDevice::new(256, config.disk);
        let pool = BufferPool::new(device.clone(), config.buffer_frames);
        let mut s = StoredRelation::bulk_load(device, pool, &relation, config).unwrap();
        for &attr in with_index_on {
            s.create_secondary_index(attr).unwrap();
        }
        s
    }

    fn brute_force(rel: &StoredRelation, sel: &Selection) -> Vec<Tuple> {
        rel.scan_all()
            .unwrap()
            .into_iter()
            .filter(|t| sel.matches(t.digits()))
            .collect()
    }

    #[test]
    fn conjunction_matches_brute_force() {
        let rel = stored(&[1]);
        let sel = Selection::all()
            .and(RangePredicate {
                attr: 1,
                lo: 4,
                hi: 20,
            })
            .and(RangePredicate {
                attr: 2,
                lo: 100,
                hi: 400,
            });
        let (mut rows, cost, path) = rel.select(&sel).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&rel, &sel));
        assert_eq!(path, AccessPath::SecondaryIndex { attr: 1 });
        assert_eq!(cost.tuples_matched, rows.len());
    }

    #[test]
    fn clustering_prefix_wins_planning() {
        let rel = stored(&[1, 2]);
        let sel = Selection::all()
            .and(RangePredicate {
                attr: 0,
                lo: 2,
                hi: 5,
            })
            .and(RangePredicate {
                attr: 1,
                lo: 0,
                hi: 31,
            });
        let (rows, cost, path) = rel.select(&sel).unwrap();
        assert_eq!(path, AccessPath::ClusteredRange);
        let mut rows = rows;
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&rel, &sel));
        assert!(
            (cost.data_blocks as usize) < rel.block_count(),
            "prefix selection reads a contiguous subset"
        );
    }

    #[test]
    fn narrowest_indexed_predicate_chosen() {
        let rel = stored(&[1, 2]);
        let sel = Selection::all()
            .and(RangePredicate {
                attr: 1,
                lo: 0,
                hi: 31, // wide
            })
            .and(RangePredicate::equals(2, 77)); // narrow
        let (_, _, path) = rel.select(&sel).unwrap();
        assert_eq!(path, AccessPath::SecondaryIndex { attr: 2 });
    }

    #[test]
    fn unindexed_conjunction_scans() {
        let rel = stored(&[]);
        let sel = Selection::all().and(RangePredicate {
            attr: 2,
            lo: 0,
            hi: 10,
        });
        let (rows, cost, path) = rel.select(&sel).unwrap();
        assert_eq!(path, AccessPath::FullScan);
        assert_eq!(cost.data_blocks as usize, rel.block_count());
        let mut rows = rows;
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&rel, &sel));
    }

    #[test]
    fn empty_selection_matches_everything() {
        let rel = stored(&[]);
        let (rows, _, path) = rel.select(&Selection::all()).unwrap();
        assert_eq!(path, AccessPath::FullScan);
        assert_eq!(rows.len(), 2000);
    }

    #[test]
    fn contradictory_prefix_ranges_return_nothing() {
        let rel = stored(&[]);
        let sel = Selection::all()
            .and(RangePredicate {
                attr: 0,
                lo: 5,
                hi: 10,
            })
            .and(RangePredicate {
                attr: 0,
                lo: 12,
                hi: 15,
            });
        let (rows, cost, _) = rel.select(&sel).unwrap();
        assert!(rows.is_empty());
        assert_eq!(cost.data_blocks, 0, "no blocks touched");
    }

    #[test]
    fn same_attr_conjuncts_intersect() {
        let rel = stored(&[1]);
        let sel = Selection::all()
            .and(RangePredicate {
                attr: 1,
                lo: 5,
                hi: 25,
            })
            .and(RangePredicate {
                attr: 1,
                lo: 10,
                hi: 30,
            });
        let (mut rows, _, _) = rel.select(&sel).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&rel, &sel));
        assert!(rows.iter().all(|t| (10..=25).contains(&t.digits()[1])));
    }
}
