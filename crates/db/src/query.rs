//! Conjunctive selections with access-path planning.
//!
//! §4 of the paper argues that "standard database operations remain the
//! same even when the database is AVQ coded". This module demonstrates it
//! beyond single-attribute ranges: a [`Selection`] is a conjunction of
//! per-attribute range predicates; the planner picks the cheapest access
//! path (clustered prefix range, a secondary index, or a full scan) and
//! filters the remaining conjuncts after block decode, one column at a
//! time ([`Selection::filter_block`]).

use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::relation_store::StoredRelation;
use avq_obs::{names, QueryCtx};
use avq_schema::{Tuple, TupleBatch};
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

    /// The filter kernel: sets `sel` to the indices of `block`'s rows that
    /// satisfy every conjunct, ascending — the block's selection vector.
    ///
    /// The conjuncts are evaluated one column at a time: the first scans
    /// its whole column into `sel`, each later one narrows `sel` reading
    /// only its own column at the surviving rows. Both loops are
    /// branch-free — every candidate is written and the write position
    /// advances by the test's outcome — so their cost does not depend on
    /// selectivity. A block's rows are φ sorted, so when its first and last
    /// rows agree on attributes `0..k` every row does (its *constant
    /// prefix*); a conjunct on one of those attributes is decided once for
    /// the whole block — it passes every row or none — and never scans.
    /// `sel` is cleared first and its buffer reused, so a caller that keeps
    /// one vector across blocks allocates nothing per block once it has
    /// grown. Panics when a conjunct names an attribute past the block's
    /// arity.
    pub fn filter_block(&self, block: &TupleBatch, sel: &mut Vec<u32>) {
        sel.clear();
        let rows = block.len();
        if self.predicates.is_empty() {
            sel.extend(0..rows as u32);
            return;
        }
        debug_assert!(
            u32::try_from(rows).is_ok(),
            "a block holds at most 64Ki rows"
        );
        let constant = (0..block.arity())
            .take_while(|&a| block.get(0, a) == block.get(rows - 1, a))
            .count();
        if rows == 0 {
            return;
        }
        let mut scanned = false;
        for p in &self.predicates {
            // `v ∈ [lo, hi]` as one unsigned compare.
            let Some(span) = p.hi.checked_sub(p.lo) else {
                // A contradiction admits no row.
                sel.clear();
                return;
            };
            let admits = |v: u64| v.wrapping_sub(p.lo) <= span;
            if p.attr < constant {
                if !admits(block.get(0, p.attr)) {
                    sel.clear();
                    return;
                }
                continue;
            }
            let col = block.col(p.attr);
            let mut kept = 0;
            if scanned {
                for j in 0..sel.len() {
                    let i = sel[j];
                    sel[kept] = i;
                    kept += usize::from(admits(col[i as usize]));
                }
            } else {
                // Room for a power of two of rows: the blocks of a relation
                // differ in size by less than 2×, so one buffer serves all.
                sel.reserve(rows.next_power_of_two());
                sel.resize(rows, 0);
                for (i, &v) in (0u32..).zip(col) {
                    sel[kept] = i;
                    kept += usize::from(admits(v));
                }
                scanned = true;
            }
            sel.truncate(kept);
            if sel.is_empty() {
                return;
            }
        }
        if !scanned {
            sel.extend(0..rows as u32);
        }
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

    /// Streams every block's matching rows through `f` — the decoded block
    /// and its selection vector from [`Selection::filter_block`] — without
    /// materializing the result set: the one loop that turns candidate
    /// blocks into filtered rows, behind
    /// [`Self::select`], [`Self::select_range`], [`Self::aggregate`] and
    /// [`Self::aggregate_group_by`]. Blocks come through
    /// [`Self::read_blocks`] under `ctx`; the cost counts the blocks and
    /// tuples actually served, so one skipped under
    /// [`crate::ScanPolicy::SkipCorrupt`] is in neither.
    pub fn fold_matching<T>(
        &self,
        selection: &Selection,
        ctx: &QueryCtx,
        init: T,
        mut f: impl FnMut(&mut T, &TupleBatch, &[u32]),
    ) -> Result<(T, QueryCost, AccessPath), DbError> {
        let _span = avq_obs::span!(names::SPAN_DB_SELECT);
        avq_obs::counter!(names::DB_QUERIES).inc();
        let path = selection.plan(self);
        let mut tracker = CostTracker::new(self.device());
        let candidates: Vec<BlockId> = self.candidate_blocks(selection, path)?;
        tracker.end_index_phase();

        let mut acc = init;
        let mut sel = Vec::new();
        for served in self.read_blocks(candidates, ctx) {
            let (_, run) = served?;
            tracker.cost.data_blocks += 1;
            tracker.cost.tuples_scanned += run.len();
            selection.filter_block(&run, &mut sel);
            tracker.cost.tuples_matched += sel.len();
            f(&mut acc, &run, &sel);
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
        self.fold_matching(
            selection,
            &QueryCtx::default(),
            Vec::new(),
            |out, run, sel| out.extend(sel.iter().map(|&i| run.tuple(i as usize))),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The row-wise oracle the column kernel must agree with.
    pub(crate) fn matches(sel: &Selection, row: &[u64]) -> bool {
        sel.predicates()
            .iter()
            .all(|p| (p.lo..=p.hi).contains(&row[p.attr]))
    }

    fn brute_force(rel: &StoredRelation, sel: &Selection) -> Vec<Tuple> {
        rel.scan_all()
            .unwrap()
            .into_iter()
            .filter(|t| matches(sel, t.digits()))
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
