//! Secondary (non-clustering) indexes with bucket indirection (Fig. 4.5).
//!
//! A secondary index on attribute `A_k` is a B⁺-tree mapping each attribute
//! value (big-endian `u64` ordinal, so byte order = numeric order) to a
//! bucket; the bucket lists the data blocks containing at least one tuple
//! with that value. Executing `σ_{a ≤ A_k ≤ b}` walks the tree range, unions
//! the buckets, and hands back the distinct data blocks to read.

use crate::error::DbError;
use avq_index::{BPlusTree, BucketStore, Posting, Removal};
use avq_storage::{BlockId, BufferPool};
use std::collections::BTreeSet;
use std::sync::Arc;

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
        let bucket = match self.tree.get(&key)? {
            Some(head) => head as BlockId,
            None => {
                let head = self.store.create()?;
                self.tree.insert(&key, head as u64)?;
                head
            }
        };
        self.store.push(bucket, Posting { value, block })?;
        Ok(())
    }

    /// Removes the posting `(value, block)` if present. When it was the
    /// value's last, the bucket's pages are freed and the tree key goes
    /// with them, so a deleted value leaves nothing behind.
    pub fn remove_posting(&mut self, value: u64, block: BlockId) -> Result<(), DbError> {
        let key = value_key(value);
        if let Some(head) = self.tree.get(&key)? {
            let removal = self
                .store
                .remove(head as BlockId, Posting { value, block })?;
            if removal == Removal::Emptied {
                self.tree.delete(&key)?;
            }
        }
        Ok(())
    }

    /// Bulk-registers a coded block's rows (one posting per distinct
    /// value).
    pub fn add_block<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a [u64]>,
        block: BlockId,
    ) -> Result<(), DbError> {
        let values: BTreeSet<u64> = rows.into_iter().map(|row| row[self.attr]).collect();
        for v in values {
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
        let values: BTreeSet<u64> = rows.into_iter().map(|row| row[self.attr]).collect();
        for v in values {
            self.remove_posting(v, block)?;
        }
        Ok(())
    }

    /// The distinct data blocks containing any value in `[lo, hi]`, in
    /// ascending block order.
    pub fn blocks_for_range(&self, lo: u64, hi: u64) -> Result<Vec<BlockId>, DbError> {
        let mut blocks = BTreeSet::new();
        for (_, head) in self.tree.range(&value_key(lo), &value_key(hi))? {
            for p in self.store.read(head as BlockId)? {
                // Bucket pages hold only postings for their tree key, but
                // filter defensively.
                if p.value >= lo && p.value <= hi {
                    blocks.insert(p.block);
                }
            }
        }
        Ok(blocks.into_iter().collect())
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
