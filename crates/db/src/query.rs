//! Conjunctive selections and the one access-path chooser.
//!
//! §4 of the paper argues that "standard database operations remain the
//! same even when the database is AVQ coded". This module demonstrates it
//! beyond single-attribute ranges: a [`Selection`] is a conjunction of
//! per-attribute range predicates, reached through one [`AccessPath`]
//! (clustered prefix range, a secondary index, or a full scan) and
//! filtered after block decode, one column at a time
//! ([`Selection::filter_block`]).
//!
//! Which path reaches the blocks is priced once, here, by §5.3's
//! `C = I + N·(t₁ + t₂)` (Eq. 5.7): [`TableStats::scan_alternatives`]
//! lists every applicable path with its estimate, and [`cheapest`] picks
//! one. The SQL planner and the facade operators ([`StoredRelation::select`],
//! [`StoredRelation::aggregate`], [`StoredRelation::aggregate_group_by`])
//! both choose through them, so a conjunction reads the same blocks
//! whichever way it is asked.

use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::relation_store::StoredRelation;
use avq_obs::{names, QueryCtx};
use avq_schema::{SchemaError, Tuple, TupleBatch};
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
}

/// A conjunction of range predicates, normalized: at most one interval
/// per attribute, in attribute order, each the intersection of every
/// conjunct on its attribute (`lo > hi` when they contradict). So two
/// selections built from the same conjuncts in any order are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selection {
    predicates: Vec<RangePredicate>,
}

/// How a selection reaches its relation's blocks.
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

    /// Adds a conjunct, intersecting it with the interval already on its
    /// attribute.
    pub fn and(mut self, pred: RangePredicate) -> Self {
        match self.predicates.binary_search_by_key(&pred.attr, |p| p.attr) {
            Ok(at) => {
                let p = &mut self.predicates[at];
                (p.lo, p.hi) = (p.lo.max(pred.lo), p.hi.min(pred.hi));
            }
            Err(at) => self.predicates.insert(at, pred),
        }
        self
    }

    /// The intervals, one per constrained attribute, in attribute order.
    pub fn predicates(&self) -> &[RangePredicate] {
        &self.predicates
    }

    /// True when the conjuncts on some attribute contradict (`lo > hi`):
    /// the selection admits no row.
    pub fn contradicts(&self) -> bool {
        self.predicates.iter().any(|p| p.lo > p.hi)
    }

    /// The filter kernel: sets `sel` to the indices of `block`'s rows that
    /// satisfy every interval, ascending — the block's selection vector.
    ///
    /// A block's rows are φ sorted, so when its first and last rows agree
    /// on attributes `0..k` every row does (its *constant prefix*); an
    /// interval on one of those attributes, or a contradiction (`lo >
    /// hi`), is decided once for the whole block — it passes every row or
    /// none — and never scans. The other intervals are tested on mask
    /// words of 64 rows: bit `j` of a word stands for row `base + j`, and
    /// every word starts with its rows set. Each interval in turn refines
    /// every word that still holds rows: a word with many rows left is
    /// tested whole, with branch-free unsigned compares eight rows to a
    /// lane; one with few left has only those rows tested; an emptied word
    /// is skipped, and once every word is empty no further interval is
    /// read. The set bits are then expanded into `sel`. A block's words
    /// (up to 4 096 rows at a time) are kept on the stack, so the block is
    /// filtered an attribute — one column, read once — at a time.
    ///
    /// `sel` is cleared first and its buffer reused, so a caller that keeps
    /// one vector across blocks allocates nothing per block once it has
    /// grown. An empty block selects nothing. Panics when an interval names
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

    /// The interval on `attr`, or `None` when no conjunct constrains it
    /// (`lo > hi` when the conjuncts contradict).
    pub fn range_of(&self, attr: usize) -> Option<(u64, u64)> {
        let at = self.predicates.binary_search_by_key(&attr, |p| p.attr);
        let p = self.predicates[at.ok()?];
        Some((p.lo, p.hi))
    }

    /// The bound of a clustered-range scan: the intervals of attributes
    /// `0, 1, …` for as long as each is an equality, then at most one
    /// ranged attribute, borrowed from the selection. φ order is
    /// lexicographic, so the tuples these conjuncts admit form one
    /// φ-interval, `[(v₀,…,v_{k−1}, lo, 0, …), (v₀,…,v_{k−1}, hi, max,
    /// …)]`. Empty when attribute 0 is unconstrained; a contradiction ends
    /// the prefix with `lo > hi`.
    pub fn clustered_prefix(&self) -> &[RangePredicate] {
        let run = (self.predicates.iter().enumerate())
            .take_while(|&(attr, p)| p.attr == attr)
            .count();
        let equalities = (self.predicates[..run].iter())
            .take_while(|p| p.lo == p.hi)
            .count();
        &self.predicates[..run.min(equalities + 1)]
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

/// Cost and cardinality estimates of one plan node, in Eq. 5.7's terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Est {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated data blocks read by this node (0 for pure operators).
    pub blocks: f64,
    /// Estimated simulated milliseconds for this node.
    pub cost_ms: f64,
}

/// Estimated index height charged per descent (`I` of Eq. 5.7).
pub const INDEX_DESCENT_BLOCKS: f64 = 2.0;

/// One costed access path of a relation's menu.
#[derive(Debug, Clone, Copy)]
pub struct ScanAlt {
    /// The path.
    pub path: AccessPath,
    /// What reading the selection through it is estimated to cost.
    pub est: Est,
}

/// The inputs of Eq. 5.7 for one stored relation, snapshotted when
/// planning. Whether an attribute is indexed, and how large its domain
/// is, are read from `rel` where the cost model asks.
#[derive(Debug, Clone, Copy)]
pub struct TableStats<'a> {
    /// The relation priced.
    pub rel: &'a StoredRelation,
    /// Data blocks (`B`).
    pub blocks: f64,
    /// Tuples.
    pub tuples: f64,
    /// t₁: device transfer time per block, data or index.
    pub transfer_ms: f64,
    /// t₂: CPU time per data block processed.
    pub cpu_ms: f64,
    /// Fraction of data blocks resident in the decoded cache.
    pub resident: f64,
    /// Decoded-cache capacity in blocks.
    pub cache_blocks: f64,
}

impl<'a> TableStats<'a> {
    /// Snapshots `rel`'s block and tuple counts, its cost profile and how
    /// much of it the decoded cache holds now.
    pub fn of(rel: &'a StoredRelation) -> Self {
        let config = rel.config();
        let blocks = rel.block_count() as f64;
        let resident = if rel.block_count() == 0 {
            0.0
        } else {
            (rel.decoded_cache_len() as f64 / blocks).min(1.0)
        };
        TableStats {
            rel,
            blocks,
            tuples: rel.tuple_count() as f64,
            transfer_ms: config.disk.block_time_ms(config.codec.block_capacity),
            cpu_ms: config.cpu_ms_per_block,
            resident,
            cache_blocks: config.decoded_cache_blocks as f64,
        }
    }

    /// Effective cost of reading `n` estimated data blocks: residency saves
    /// the transfer t₁, never the per-block CPU t₂. A warm relation thus
    /// prices cheaper than a cold one, and a point probe still beats
    /// reading the whole relation.
    pub fn data_ms(&self, n: f64) -> f64 {
        n * (self.transfer_ms * (1.0 - self.resident) + self.cpu_ms)
    }

    /// Fraction of `attr`'s domain that `lo..=hi` accepts, under §5.3's
    /// uniform assumption.
    pub fn fraction(&self, attr: usize, (lo, hi): (u64, u64)) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let size = (self.rel.schema().attributes().get(attr))
            .map_or(1.0, |a| a.domain().size() as f64)
            .max(1.0);
        // Saturating: `0..=u64::MAX` has one more value than `u64` holds.
        ((hi - lo).saturating_add(1) as f64 / size).min(1.0)
    }

    /// Fraction of the relation `sel` accepts, attributes independent.
    pub fn selectivity(&self, sel: &Selection) -> f64 {
        (sel.predicates().iter())
            .map(|p| self.fraction(p.attr, (p.lo, p.hi)))
            .product()
    }

    /// The access-path menu for `sel`: every applicable path priced as
    /// `C = I + N·(t₁ + t₂)`. The full scan comes first and is always
    /// there; the clustered range is the φ-interval of the equality prefix
    /// ([`Selection::clustered_prefix`]), so its estimate and its
    /// candidate set come from one rule.
    pub fn scan_alternatives(&self, sel: &Selection) -> Vec<ScanAlt> {
        let rows = self.tuples * self.selectivity(sel);
        let mut alts = Vec::new();

        // Full scan: N = every block, I = 0.
        alts.push(ScanAlt {
            path: AccessPath::FullScan,
            est: Est {
                rows,
                blocks: self.blocks,
                cost_ms: self.data_ms(self.blocks),
            },
        });

        // Clustered range: the contiguous blocks of the equality prefix's
        // φ-interval, N ≈ blocks × the fraction of φ-space it spans.
        let prefix = sel.clustered_prefix();
        if !prefix.is_empty() {
            let frac: f64 = (prefix.iter())
                .map(|p| self.fraction(p.attr, (p.lo, p.hi)))
                .product();
            let n = if frac == 0.0 {
                0.0
            } else {
                (self.blocks * frac).max(1.0).min(self.blocks)
            };
            alts.push(ScanAlt {
                path: AccessPath::ClusteredRange,
                est: Est {
                    rows,
                    blocks: n,
                    cost_ms: INDEX_DESCENT_BLOCKS * self.transfer_ms + self.data_ms(n),
                },
            });
        }

        // Secondary-index probe per indexed, constrained, non-prefix
        // attribute: matching tuples may each live in a distinct block, so
        // N ≈ min(B, M).
        let indexed = |p: &&RangePredicate| p.attr > 0 && self.rel.has_secondary_index(p.attr);
        for p in sel.predicates().iter().filter(indexed) {
            let n = (self.tuples * self.fraction(p.attr, (p.lo, p.hi))).min(self.blocks);
            alts.push(ScanAlt {
                path: AccessPath::SecondaryIndex { attr: p.attr },
                est: Est {
                    rows,
                    blocks: n,
                    cost_ms: INDEX_DESCENT_BLOCKS * self.transfer_ms + self.data_ms(n),
                },
            });
        }
        alts
    }
}

/// The cheapest entry of an access-path menu (the first of equals), or
/// `None` for an empty one.
pub fn cheapest(menu: &[ScanAlt]) -> Option<&ScanAlt> {
    menu.iter()
        .min_by(|a, b| a.est.cost_ms.total_cmp(&b.est.cost_ms))
}

impl StoredRelation {
    /// The access path `selection` reads through: the cheapest entry of
    /// this relation's menu ([`TableStats::scan_alternatives`]), as the SQL
    /// planner picks it for a one-table statement.
    pub fn access_path(&self, selection: &Selection) -> AccessPath {
        let menu = TableStats::of(self).scan_alternatives(selection);
        cheapest(&menu).map_or(AccessPath::FullScan, |alt| alt.path)
    }

    /// Candidate data blocks for `selection` through `path`: the
    /// contiguous primary run meeting the φ-interval of
    /// [`Selection::clustered_prefix`], the union of secondary-index
    /// postings for an indexed conjunct, or every block — and none on any
    /// path when the selection contradicts itself. Shared by
    /// [`Self::fold_matching`] and the SQL executor, so both walk
    /// identical block sets.
    pub fn candidate_blocks(
        &self,
        selection: &Selection,
        path: AccessPath,
    ) -> Result<Vec<BlockId>, DbError> {
        if selection.contradicts() {
            return Ok(Vec::new());
        }
        match path {
            AccessPath::ClusteredRange => self.clustered_candidates(selection.clustered_prefix()),
            AccessPath::SecondaryIndex { attr } => match selection.range_of(attr) {
                Some((lo, hi)) => self.secondary_candidate_blocks(attr, lo, hi),
                None => Ok(Vec::new()),
            },
            AccessPath::FullScan => Ok(self.all_block_ids()),
        }
    }

    /// Streams the matching rows of the blocks `path` reaches through `f`
    /// — the decoded block and its selection vector from
    /// [`Selection::filter_block`] — without materializing the result set:
    /// the one loop that turns candidate blocks into filtered rows, behind
    /// [`Self::select`], [`Self::select_range`], [`Self::aggregate`] and
    /// [`Self::aggregate_group_by`]. Blocks come through
    /// [`Self::read_blocks`] under `ctx`, so a cancelled or tripped read
    /// stops within one block with [`DbError::Governance`]; the cost counts
    /// the blocks and tuples actually served, so one skipped under
    /// [`crate::ScanPolicy::SkipCorrupt`] is in neither. A conjunct on an
    /// attribute past the arity is a [`SchemaError::NoSuchAttribute`].
    pub fn fold_matching<T>(
        &self,
        selection: &Selection,
        path: AccessPath,
        ctx: &QueryCtx,
        init: T,
        mut f: impl FnMut(&mut T, &TupleBatch, &[u32]),
    ) -> Result<(T, QueryCost), DbError> {
        // Intervals are in attribute order: the last names the highest.
        self.check_attr(selection.predicates().last().map_or(0, |p| p.attr))?;
        let _span = avq_obs::span!(names::SPAN_DB_SELECT);
        avq_obs::counter!(names::DB_QUERIES).inc();
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
        Ok((acc, tracker.cost))
    }

    /// `Ok` when `attr` names one of this relation's attributes (a schema
    /// has at least one), else [`SchemaError::NoSuchAttribute`].
    pub(crate) fn check_attr(&self, attr: usize) -> Result<(), DbError> {
        if attr < self.schema().arity() {
            return Ok(());
        }
        let attribute = format!("#{attr} (arity {})", self.schema().arity());
        Err(DbError::Schema(SchemaError::NoSuchAttribute { attribute }))
    }

    /// Executes a conjunctive selection through [`Self::access_path`],
    /// returning matching tuples, the cost, and the access path used.
    pub fn select(
        &self,
        selection: &Selection,
    ) -> Result<(Vec<Tuple>, QueryCost, AccessPath), DbError> {
        let path = self.access_path(selection);
        let (rows, cost) = self.select_through(selection, path)?;
        Ok((rows, cost, path))
    }

    /// The tuples of `selection` read through `path`, in block order.
    pub(crate) fn select_through(
        &self,
        selection: &Selection,
        path: AccessPath,
    ) -> Result<(Vec<Tuple>, QueryCost), DbError> {
        let ctx = QueryCtx::default();
        self.fold_matching(selection, path, &ctx, Vec::new(), |out, run, sel| {
            out.extend(sel.iter().map(|&i| run.tuple(i as usize)))
        })
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
        let (mut rows, cost, _) = rel.select(&sel).unwrap();
        rows.sort_unstable();
        assert_eq!(rows, brute_force(&rel, &sel));
        assert_eq!(cost.tuples_matched, rows.len());
        // The index on attribute 1 reads the same rows.
        let path = AccessPath::SecondaryIndex { attr: 1 };
        let (mut via_index, cost) = rel.select_through(&sel, path).unwrap();
        via_index.sort_unstable();
        assert_eq!(via_index, rows);
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
        // So does an interval over every `u64`, whose width `u64` cannot hold.
        let (attr, lo, hi) = (2, 0, u64::MAX);
        let whole = Selection::all().and(RangePredicate { attr, lo, hi });
        assert_eq!(rel.select(&whole).unwrap().0.len(), 2000);
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
    fn a_selection_is_one_interval_per_attribute_in_attribute_order() {
        let r = |attr, lo, hi| RangePredicate { attr, lo, hi };
        let conjuncts = [r(1, 9, 9), r(2, 3, 40), r(0, 4, 4), r(2, 7, 90)];
        let forward = conjuncts.iter().fold(Selection::all(), |s, &p| s.and(p));
        let backward = (conjuncts.iter().rev()).fold(Selection::all(), |s, &p| s.and(p));
        assert_eq!(forward, backward);
        let intervals = [r(0, 4, 4), r(1, 9, 9), r(2, 7, 40)];
        assert_eq!(forward.predicates(), intervals);
        assert_eq!(forward.range_of(2), Some((7, 40)));
        // The equality run, then at most one range; nothing past a gap.
        assert_eq!(forward.clustered_prefix(), intervals);
        let ranged = Selection::all()
            .and(r(2, 0, 0))
            .and(r(1, 0, 99))
            .and(r(0, 4, 4));
        assert_eq!(ranged.clustered_prefix(), [r(0, 4, 4), r(1, 0, 99)]);
        let gap = Selection::all().and(r(0, 4, 4)).and(r(2, 3, 3));
        assert_eq!(gap.clustered_prefix(), [r(0, 4, 4)]);
    }

    #[test]
    fn a_contradiction_reads_no_block_on_any_path() {
        let rel = stored(&[]);
        let r = |lo, hi| RangePredicate { attr: 2, lo, hi };
        let sel = Selection::all().and(r(5, 10)).and(r(12, 15));
        assert!(sel.contradicts());
        let (rows, cost, path) = rel.select(&sel).unwrap();
        assert_eq!(path, AccessPath::FullScan);
        assert!(rows.is_empty());
        assert_eq!(cost.data_blocks, 0, "no blocks touched");
    }

    #[test]
    fn an_attribute_past_the_arity_is_a_typed_error() {
        use crate::aggregate::Aggregate;
        let rel = stored(&[]);
        let past = Selection::all().and(RangePredicate::equals(99, 0));
        let all = Selection::all();
        let errs = [
            rel.select(&past).err(),
            rel.aggregate(Aggregate::Sum { attr: 99 }, &all).err(),
            rel.aggregate_group_by(99, Aggregate::Count, &all).err(),
        ];
        for err in errs {
            let Some(DbError::Schema(SchemaError::NoSuchAttribute { .. })) = err else {
                panic!("{err:?}");
            };
        }
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
