//! Secondary (non-clustering) indexes with bucket indirection (Fig. 4.5).
//!
//! A secondary index on attribute `A_k` is a B⁺-tree keyed by attribute
//! value (big-endian `u64` ordinal, so byte order = numeric order). Its
//! payload is one of two things:
//!
//! * `INLINE | block` (bit 63 set; a [`BlockId`] is 32 bits): the value
//!   sits in exactly one data block, which the tree entry names itself;
//! * a bucket head: the value sits in two or more blocks, which the bucket
//!   lists, as in the paper.
//!
//! The invariant is that a bucket exists iff its value has two or more
//! postings. A second posting promotes the value to a two-posting bucket,
//! and a removal that leaves one demotes it back inline, freeing the page.
//! A unique key so costs one leaf entry and no bucket block, and a probe
//! of it reads no bucket. Executing `σ_{a ≤ A_k ≤ b}` walks the tree range,
//! unions the inline blocks and the buckets, and hands back the distinct
//! data blocks to read.

use crate::error::DbError;
use avq_index::{BPlusTree, BucketStore, IndexError, Posting, Removal};
use avq_storage::{BlockId, BufferPool};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Tags a tree payload that is a data block id, not a bucket head.
const INLINE: u64 = 1 << 63;

/// What [`SecondaryIndex::split_postings`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitPostings {
    /// Inline postings re-pointed by the tree's batch pass.
    pub repointed: usize,
    /// Tree leaves that batch pass wrote.
    pub leaf_writes: usize,
}

/// A secondary index over one attribute.
#[derive(Debug)]
pub struct SecondaryIndex {
    attr: usize,
    tree: BPlusTree,
    store: BucketStore,
}

fn value_key(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// What a tree payload names.
enum Entry {
    /// The value's only data block.
    Inline(BlockId),
    /// The head of the value's bucket.
    Bucket(BlockId),
}

impl Entry {
    fn of(payload: u64) -> Self {
        if payload & INLINE != 0 {
            Entry::Inline(payload as BlockId)
        } else {
            Entry::Bucket(payload as BlockId)
        }
    }
}

fn inline(block: BlockId) -> u64 {
    INLINE | block as u64
}

impl SecondaryIndex {
    /// Creates an empty index on attribute `attr`.
    pub fn create(pool: Arc<BufferPool>, order: usize, attr: usize) -> Result<Self, DbError> {
        let tree = if order == usize::MAX {
            BPlusTree::create(pool.clone())?
        } else {
            BPlusTree::create_with_order(pool.clone(), order)?
        };
        Ok(SecondaryIndex {
            attr,
            tree,
            store: BucketStore::new(pool),
        })
    }

    /// Builds the index on attribute `attr` over `postings` in one pass:
    /// sorted once, a value with one posting goes inline, each other
    /// value's bucket chain is written whole, and the tree is bulk-built.
    /// Duplicate postings are ignored.
    pub fn build(
        pool: Arc<BufferPool>,
        order: usize,
        attr: usize,
        mut postings: Vec<Posting>,
    ) -> Result<Self, DbError> {
        postings.sort_unstable();
        postings.dedup();
        let store = BucketStore::new(pool.clone());
        let mut pairs = Vec::new();
        for run in postings.chunk_by(|a, b| a.value == b.value) {
            let payload = match run {
                [one] => inline(one.block),
                _ => store.create_with(run)? as u64,
            };
            pairs.push((value_key(run[0].value).to_vec(), payload));
        }
        Ok(SecondaryIndex {
            attr,
            tree: BPlusTree::bulk_build(pool, order, &pairs)?,
            store,
        })
    }

    /// The indexed attribute position.
    #[inline]
    pub fn attribute(&self) -> usize {
        self.attr
    }

    /// The underlying tree (for stats in experiments).
    #[inline]
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }

    /// Registers that data block `block` contains a tuple whose indexed
    /// attribute equals `value`. Idempotent.
    pub fn add_posting(&mut self, value: u64, block: BlockId) -> Result<(), DbError> {
        let key = value_key(value);
        let posting = Posting { value, block };
        match self.tree.get(&key)?.map(Entry::of) {
            None => {
                self.tree.insert(&key, inline(block))?;
            }
            Some(Entry::Inline(only)) if only == block => {}
            Some(Entry::Inline(only)) => {
                let head = self
                    .store
                    .create_with(&[Posting { value, block: only }, posting])?;
                self.tree.insert(&key, head as u64)?;
            }
            Some(Entry::Bucket(head)) => self.store.push(head, posting)?,
        }
        Ok(())
    }

    /// Removes the posting `(value, block)` if present. One posting left
    /// goes back inline and frees the bucket; none left deletes the tree
    /// key, so a deleted value leaves nothing behind.
    pub fn remove_posting(&mut self, value: u64, block: BlockId) -> Result<(), DbError> {
        let key = value_key(value);
        match self.tree.get(&key)?.map(Entry::of) {
            Some(Entry::Inline(only)) if only == block => {
                self.tree.delete(&key)?;
            }
            None | Some(Entry::Inline(_)) => {}
            Some(Entry::Bucket(head)) => match self.store.remove(head, Posting { value, block })? {
                Removal::Absent | Removal::Removed => {}
                Removal::Demoted(survivor) => {
                    self.tree.insert(&key, inline(survivor.block))?;
                }
                Removal::Emptied => {
                    self.tree.delete(&key)?;
                }
            },
        }
        Ok(())
    }

    /// Re-points the postings of a split of block `from`: `kept` holds
    /// the sorted distinct values still in `from`, and `moved` the sorted
    /// postings of the runs that left it, one per distinct value and run.
    /// Every posting of `moved` is added, and `(v, from)` is removed for
    /// each moved `v` not kept.
    ///
    /// A moved value inline at `from` and not kept — every value of a
    /// unique key — is re-pointed in one batch pass over the tree's leaves
    /// ([`BPlusTree::patch_sorted`]): one descent and one write per leaf
    /// touched, however many of its keys moved. Any other value goes
    /// through [`Self::add_posting`] and then [`Self::remove_posting`], so
    /// a bucket gains its new blocks before it loses `from` and is never
    /// demoted on the way.
    pub fn split_postings(
        &mut self,
        from: BlockId,
        kept: &[u64],
        moved: &[Posting],
    ) -> Result<SplitPostings, DbError> {
        debug_assert!(moved.windows(2).all(|w| w[0] < w[1]));
        let runs: Vec<&[Posting]> = moved.chunk_by(|a, b| a.value == b.value).collect();
        let keys: Vec<[u8; 8]> = runs.iter().map(|run| value_key(run[0].value)).collect();
        let mut repointed = vec![false; runs.len()];
        let leaf_writes = self.tree.patch_sorted(&keys, |i, payload| {
            let first = runs[i][0];
            match Entry::of(payload) {
                Entry::Inline(only)
                    if only == from && kept.binary_search(&first.value).is_err() =>
                {
                    repointed[i] = true;
                    Some(inline(first.block))
                }
                _ => None,
            }
        })?;
        for (run, &done) in runs.iter().zip(&repointed) {
            let value = run[0].value;
            for p in &run[usize::from(done)..] {
                self.add_posting(value, p.block)?;
            }
            if !done && kept.binary_search(&value).is_err() {
                self.remove_posting(value, from)?;
            }
        }
        Ok(SplitPostings {
            repointed: repointed.iter().filter(|&&done| done).count(),
            leaf_writes,
        })
    }

    /// Every posting, ascending by value and block (for checks: equal to
    /// the deduplicated postings [`Self::build`] would be given).
    pub fn postings(&self) -> Result<Vec<Posting>, DbError> {
        let mut out = Vec::new();
        let (lo, hi) = (value_key(0), value_key(u64::MAX));
        self.tree.range_each(&lo, &hi, |key, payload| {
            match Entry::of(payload) {
                Entry::Inline(block) => {
                    let value = <[u8; 8]>::try_from(key)
                        .map(u64::from_be_bytes)
                        .map_err(|_| IndexError::CorruptNode {
                            block: self.tree.root(),
                            detail: format!("secondary key of {} bytes", key.len()),
                        })?;
                    out.push(Posting { value, block });
                }
                Entry::Bucket(head) => self.store.for_each(head, |p| out.push(p))?,
            }
            Ok(())
        })?;
        out.sort_unstable();
        Ok(out)
    }

    /// Bulk-registers a coded block's rows (one posting per distinct
    /// value).
    pub fn add_block<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a [u64]>,
        block: BlockId,
    ) -> Result<(), DbError> {
        for v in self.distinct(rows) {
            self.add_posting(v, block)?;
        }
        Ok(())
    }

    /// Removes every posting `(v, block)` for the distinct values of
    /// `rows`.
    pub fn remove_block<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a [u64]>,
        block: BlockId,
    ) -> Result<(), DbError> {
        for v in self.distinct(rows) {
            self.remove_posting(v, block)?;
        }
        Ok(())
    }

    /// The distinct values of the indexed attribute over `rows`.
    fn distinct<'a>(&self, rows: impl IntoIterator<Item = &'a [u64]>) -> BTreeSet<u64> {
        rows.into_iter().map(|row| row[self.attr]).collect()
    }

    /// The distinct data blocks containing any value in `[lo, hi]`, in
    /// ascending block order. An inline block is read off the tree entry;
    /// only values with two or more blocks read a bucket. Tree entries and
    /// bucket pages are read in place, so the one allocation is the
    /// returned vector, sorted and deduplicated where it stands.
    pub fn blocks_for_range(&self, lo: u64, hi: u64) -> Result<Vec<BlockId>, DbError> {
        let mut blocks = Vec::new();
        self.tree
            .range_each(&value_key(lo), &value_key(hi), |_, payload| {
                match Entry::of(payload) {
                    Entry::Inline(block) => blocks.push(block),
                    Entry::Bucket(head) => self.store.for_each(head, |p| {
                        // Bucket pages hold only postings for their tree
                        // key, but filter defensively.
                        if (lo..=hi).contains(&p.value) {
                            blocks.push(p.block);
                        }
                    })?,
                }
                Ok(())
            })?;
        blocks.sort_unstable();
        blocks.dedup();
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_schema::Tuple;
    use avq_storage::{BlockDevice, DiskProfile};

    fn index() -> SecondaryIndex {
        let pool = BufferPool::new(BlockDevice::new(512, DiskProfile::instant()), 64);
        SecondaryIndex::create(pool, usize::MAX, 1).unwrap()
    }

    #[test]
    fn postings_roundtrip() {
        let mut idx = index();
        idx.add_posting(5, 100).unwrap();
        idx.add_posting(5, 101).unwrap();
        idx.add_posting(7, 100).unwrap();
        assert_eq!(idx.blocks_for_range(5, 5).unwrap(), vec![100, 101]);
        assert_eq!(idx.blocks_for_range(6, 7).unwrap(), vec![100]);
        assert_eq!(idx.blocks_for_range(0, 10).unwrap(), vec![100, 101]);
        assert!(idx.blocks_for_range(8, 9).unwrap().is_empty());
    }

    #[test]
    fn add_posting_idempotent() {
        let mut idx = index();
        idx.add_posting(3, 42).unwrap();
        idx.add_posting(3, 42).unwrap();
        assert_eq!(idx.blocks_for_range(3, 3).unwrap(), vec![42]);
    }

    #[test]
    fn remove_posting() {
        let mut idx = index();
        idx.add_posting(3, 42).unwrap();
        idx.add_posting(3, 43).unwrap();
        idx.remove_posting(3, 42).unwrap();
        assert_eq!(idx.blocks_for_range(3, 3).unwrap(), vec![43]);
        // Removing a never-added posting is a no-op.
        idx.remove_posting(99, 1).unwrap();
    }

    #[test]
    fn block_bulk_registration() {
        let mut idx = index();
        let tuples = [
            Tuple::from([0u64, 5, 0]),
            Tuple::from([0u64, 5, 1]),
            Tuple::from([0u64, 9, 2]),
        ];
        idx.add_block(tuples.iter().map(Tuple::digits), 7).unwrap();
        assert_eq!(idx.blocks_for_range(5, 5).unwrap(), vec![7]);
        assert_eq!(idx.blocks_for_range(9, 9).unwrap(), vec![7]);
        idx.remove_block(tuples.iter().map(Tuple::digits), 7)
            .unwrap();
        assert!(idx.blocks_for_range(0, 100).unwrap().is_empty());
    }

    #[test]
    fn range_ordering_of_values() {
        let mut idx = index();
        // Values whose little-endian order would differ from numeric order.
        idx.add_posting(256, 1).unwrap();
        idx.add_posting(1, 2).unwrap();
        idx.add_posting(511, 3).unwrap();
        assert_eq!(idx.blocks_for_range(0, 300).unwrap(), vec![1, 2]);
        assert_eq!(idx.blocks_for_range(257, 600).unwrap(), vec![3]);
    }
}
