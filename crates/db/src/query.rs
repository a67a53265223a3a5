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
    /// A block's rows are φ sorted, so when its first and last rows agree
    /// on attributes `0..k` every row does (its *constant prefix*); a
    /// conjunct on one of those attributes, or one that contradicts itself
    /// (`lo > hi`), is decided once for the whole block — it passes every
    /// row or none — and never scans. The other conjuncts are tested on
    /// mask words of 64 rows: bit `j` of a word stands for row `base + j`,
    /// and every word starts with its rows set. Each conjunct in turn
    /// refines every word that still holds rows: a word with many rows left
    /// is tested whole, with branch-free unsigned compares eight rows to a
    /// lane; one with few left has only those rows tested; an emptied word
    /// is skipped, and once every word is empty no further conjunct is
    /// read. The set bits are then expanded into `sel`. A block's words
    /// (up to 4 096 rows at a time) are kept on the stack, so the block is
    /// filtered a conjunct — one column — at a time.
    ///
    /// `sel` is cleared first and its buffer reused, so a caller that keeps
    /// one vector across blocks allocates nothing per block once it has
    /// grown. An empty block selects nothing. Panics when a conjunct names
    /// an attribute past the arity of a block with rows.
    pub fn filter_block(&self, block: &TupleBatch, sel: &mut Vec<u32>) {
        sel.clear();
        let rows = block.len();
        if rows == 0 {
            return;
        }
        debug_assert!(
            u32::try_from(rows).is_ok(),
            "a block holds at most 64Ki rows"
        );
        let constant = (0..block.arity())
            .take_while(|&a| block.get(0, a) == block.get(rows - 1, a))
            .count();
        for p in &self.predicates {
            // `v ∈ [lo, hi]` as one unsigned compare: `v − lo ≤ hi − lo`.
            let Some(span) = p.hi.checked_sub(p.lo) else {
                return;
            };
            if p.attr < constant && block.get(0, p.attr).wrapping_sub(p.lo) > span {
                return;
            }
        }
        // Room for a power of two of rows: the blocks of a relation differ
        // in size by less than 2×, so one buffer serves all.
        sel.reserve(rows.next_power_of_two().max(WORD));
        let mut masks = [0u64; STRIP / WORD];
        for start in (0..rows).step_by(STRIP) {
            let end = rows.min(start + STRIP);
            let masks = &mut masks[..(end - start).div_ceil(WORD)];
            for (word, mask) in masks.iter_mut().enumerate() {
                *mask = u64::MAX >> (WORD - (end - start - word * WORD).min(WORD));
            }
            for p in self.predicates.iter().filter(|p| p.attr >= constant) {
                let words = block.col(p.attr)[start..end].chunks(WORD);
                let mut left = 0;
                for (mask, col) in masks.iter_mut().zip(words) {
                    *mask = refined(*mask, col, p.lo, p.hi - p.lo);
                    left |= *mask;
                }
                if left == 0 {
                    break;
                }
            }
            for (word, &mask) in masks.iter().enumerate() {
                expand(mask, (start + word * WORD) as u32, sel);
            }
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

/// Rows one mask word of [`Selection::filter_block`] covers.
const WORD: usize = 64;

/// Rows whose mask words [`Selection::filter_block`] keeps at once, on the
/// stack: a block of up to this many rows is filtered in one strip.
const STRIP: usize = 64 * WORD;

/// Below this many rows set in a word, a conjunct tests only those rows
/// and expansion writes only those rows; from it on, both go over the
/// whole word.
const SPARSE: u32 = 16;

/// `1 << j` at `j`: the bit each row of a word sets.
const BIT: [u64; WORD] = {
    let mut bits = [0; WORD];
    let mut j = 0;
    while j < WORD {
        bits[j] = 1 << j;
        j += 1;
    }
    bits
};

/// `mask`, the rows still selected of a word whose values are `col`, less
/// those outside `[lo, lo + span]`.
fn refined(mut mask: u64, col: &[u64], lo: u64, span: u64) -> u64 {
    match mask.count_ones() {
        0 => 0,
        n if n < SPARSE => {
            let mut left = mask;
            while left != 0 {
                let j = left.trailing_zeros() as usize;
                left &= left - 1;
                mask &= !(u64::from(col[j].wrapping_sub(lo) > span) << j);
            }
            mask
        }
        _ => mask & admitted(col, lo, span),
    }
}

/// The mask of the values of `col` (at most [`WORD`]) that lie in
/// `[lo, lo + span]`: bit `j` is set iff `col[j] − lo ≤ span`, unsigned.
/// Eight lanes each OR in every eighth row's bit, masked by the compare's
/// outcome rather than branched on, so no row waits on another and the
/// cost does not depend on the data. An equality gets a loop of its own,
/// which compilers turn into vector compares.
fn admitted(col: &[u64], lo: u64, span: u64) -> u64 {
    // Each closure is all ones for a value outside: the compare, spread.
    if span == 0 {
        lanes(col, |v| 0u64.wrapping_sub(u64::from(v != lo)))
    } else {
        lanes(col, |v| {
            0u64.wrapping_sub(u64::from(span < v.wrapping_sub(lo)))
        })
    }
}

/// [`admitted`]'s loop: bit `j` set iff `outside(col[j])` is zero.
#[inline(always)]
fn lanes(col: &[u64], outside: impl Fn(u64) -> u64) -> u64 {
    let mut lanes = [0u64; 8];
    let mut rows = col.chunks_exact(8);
    let mut bits = BIT.chunks_exact(8);
    for (row, bit8) in (&mut rows).zip(&mut bits) {
        for j in 0..8 {
            lanes[j] |= bit8[j] & !outside(row[j]);
        }
    }
    let mut mask = lanes.iter().fold(0, |m, &lane| m | lane);
    for (&v, &bit) in rows.remainder().iter().zip(bits.next().unwrap_or_default()) {
        mask |= bit & !outside(v);
    }
    mask
}

/// Appends `base + j` to `sel` for every bit `j` set in `mask`, ascending.
/// Few bits: one write each. Many: a byte of the mask at a time, whose set
/// bits' positions [`POSITIONS`] lists, eight rows written and the write
/// position advanced by the byte's count, without a branch.
fn expand(mut mask: u64, base: u32, sel: &mut Vec<u32>) {
    if mask == u64::MAX {
        sel.extend(base..base + WORD as u32);
    } else if mask.count_ones() < SPARSE {
        while mask != 0 {
            sel.push(base + mask.trailing_zeros());
            mask &= mask - 1;
        }
    } else {
        let mut kept = sel.len();
        sel.resize(kept + WORD, 0);
        for (k, byte) in mask.to_le_bytes().into_iter().enumerate() {
            let at = base + 8 * k as u32;
            for (slot, &j) in sel[kept..kept + 8]
                .iter_mut()
                .zip(&POSITIONS[byte as usize])
            {
                *slot = at + u32::from(j);
            }
            kept += byte.count_ones() as usize;
        }
        sel.truncate(kept);
    }
}

/// For each byte, the positions of its set bits, ascending, then zeros.
const POSITIONS: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut j, mut n) = (0, 0);
        while j < 8 {
            if byte & (1 << j) != 0 {
                table[byte][n] = j as u8;
                n += 1;
            }
            j += 1;
        }
        byte += 1;
    }
    table
};

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
    fn an_empty_block_selects_nothing() {
        // No row to read a constant prefix off, whatever the conjuncts.
        let block = TupleBatch::new(3);
        let mut sel = vec![1, 2];
        for selection in [
            Selection::all(),
            Selection::all().and(RangePredicate::equals(1, 0)),
            Selection::all().and(RangePredicate {
                attr: 0,
                lo: 0,
                hi: u64::MAX,
            }),
        ] {
            selection.filter_block(&block, &mut sel);
            assert!(sel.is_empty(), "{selection:?}");
        }
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
