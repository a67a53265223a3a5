//! Indirection buckets for secondary indexes (Fig. 4.5).
//!
//! A secondary index over an AVQ relation is non-clustering: one attribute
//! value can occur in many data blocks. The paper interposes *buckets*
//! between the B⁺-tree and the data: the tree maps an attribute value to a
//! bucket, and the bucket holds `(value : data-block)` pairs. Buckets are
//! chains of device blocks:
//!
//! ```text
//! [count u16][next u32][ (value u64, block u32) * count ]
//! ```

use crate::error::IndexError;
use avq_storage::{BlockId, BufferPool};
use std::sync::Arc;

const BUCKET_HEADER: usize = 6;
const ENTRY_BYTES: usize = 12;
const NO_NEXT: BlockId = BlockId::MAX;

/// One `(attribute value, data block)` posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// The attribute value (domain ordinal).
    pub value: u64,
    /// The data block containing at least one tuple with this value.
    pub block: BlockId,
}

/// What [`BucketStore::remove`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Removal {
    /// The posting was not in the bucket.
    Absent,
    /// The posting was removed; the bucket still holds others.
    Removed,
    /// The posting was the bucket's last: every page of the bucket has been
    /// freed and its head id is dead.
    Emptied,
}

/// Reads and writes bucket chains on the device.
#[derive(Debug, Clone)]
pub struct BucketStore {
    pool: Arc<BufferPool>,
}

struct Page {
    postings: Vec<Posting>,
    next: BlockId,
}

impl BucketStore {
    /// Creates a store over `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        BucketStore { pool }
    }

    fn capacity(&self) -> usize {
        (self.pool.device().block_size() - BUCKET_HEADER) / ENTRY_BYTES
    }

    fn load(&self, id: BlockId) -> Result<Page, IndexError> {
        let bytes = self.pool.read(id)?;
        let corrupt = |detail: &str| IndexError::CorruptNode {
            block: id,
            detail: detail.to_owned(),
        };
        if bytes.len() < BUCKET_HEADER {
            return Err(corrupt("bucket shorter than header"));
        }
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let next = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
        let mut postings = Vec::with_capacity(count);
        let mut pos = BUCKET_HEADER;
        for _ in 0..count {
            let chunk = bytes
                .get(pos..pos + ENTRY_BYTES)
                .ok_or_else(|| corrupt("truncated posting"))?;
            postings.push(Posting {
                value: u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")),
                block: u32::from_le_bytes(chunk[8..].try_into().expect("4 bytes")),
            });
            pos += ENTRY_BYTES;
        }
        Ok(Page { postings, next })
    }

    fn store(&self, id: BlockId, page: &Page) -> Result<(), IndexError> {
        let mut out = Vec::with_capacity(BUCKET_HEADER + page.postings.len() * ENTRY_BYTES);
        out.extend_from_slice(&(page.postings.len() as u16).to_le_bytes());
        out.extend_from_slice(&page.next.to_le_bytes());
        for p in &page.postings {
            out.extend_from_slice(&p.value.to_le_bytes());
            out.extend_from_slice(&p.block.to_le_bytes());
        }
        self.pool.write(id, &out)?;
        Ok(())
    }

    /// Creates an empty bucket, returning its head block id.
    pub fn create(&self) -> Result<BlockId, IndexError> {
        let id = self.pool.device().allocate()?;
        self.store(
            id,
            &Page {
                postings: Vec::new(),
                next: NO_NEXT,
            },
        )?;
        Ok(id)
    }

    /// Appends a posting to the bucket, extending the chain when full.
    /// Duplicate postings are ignored (a block is listed once per value).
    pub fn push(&self, head: BlockId, posting: Posting) -> Result<(), IndexError> {
        let cap = self.capacity();
        let mut id = head;
        loop {
            let mut page = self.load(id)?;
            if page.postings.contains(&posting) {
                return Ok(());
            }
            if page.postings.len() < cap {
                page.postings.push(posting);
                return self.store(id, &page);
            }
            if page.next == NO_NEXT {
                let new_id = self.pool.device().allocate()?;
                self.store(
                    new_id,
                    &Page {
                        postings: vec![posting],
                        next: NO_NEXT,
                    },
                )?;
                page.next = new_id;
                return self.store(id, &page);
            }
            id = page.next;
        }
    }

    /// Reads every posting in the bucket chain.
    pub fn read(&self, head: BlockId) -> Result<Vec<Posting>, IndexError> {
        let mut out = Vec::new();
        let mut id = head;
        loop {
            let page = self.load(id)?;
            out.extend_from_slice(&page.postings);
            if page.next == NO_NEXT {
                return Ok(out);
            }
            id = page.next;
        }
    }

    /// Removes one posting (if present) and reclaims the page it emptied,
    /// so no page of a chain but a lone head is ever empty: an emptied
    /// follower is unlinked and freed, an emptied head takes over its
    /// follower's postings, and when the head was the whole bucket it is
    /// freed too — [`Removal::Emptied`] tells the caller to forget `head`.
    pub fn remove(&self, head: BlockId, posting: Posting) -> Result<Removal, IndexError> {
        let mut prev: Option<(BlockId, Page)> = None;
        let mut id = head;
        loop {
            let mut page = self.load(id)?;
            if let Some(i) = page.postings.iter().position(|p| *p == posting) {
                page.postings.swap_remove(i);
                if !page.postings.is_empty() {
                    self.store(id, &page)?;
                    return Ok(Removal::Removed);
                }
                return match (prev, page.next) {
                    (None, NO_NEXT) => {
                        self.release(id)?;
                        Ok(Removal::Emptied)
                    }
                    (None, follower) => {
                        self.store(id, &self.load(follower)?)?;
                        self.release(follower)?;
                        Ok(Removal::Removed)
                    }
                    (Some((prev_id, mut prev_page)), next) => {
                        prev_page.next = next;
                        self.store(prev_id, &prev_page)?;
                        self.release(id)?;
                        Ok(Removal::Removed)
                    }
                };
            }
            if page.next == NO_NEXT {
                return Ok(Removal::Absent);
            }
            let next = page.next;
            prev = Some((id, page));
            id = next;
        }
    }

    /// Frees a bucket page and drops its pool frame.
    fn release(&self, id: BlockId) -> Result<(), IndexError> {
        self.pool.invalidate(id);
        self.pool.device().free(id)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_storage::{BlockDevice, DiskProfile};

    fn store(block_size: usize) -> BucketStore {
        BucketStore::new(BufferPool::new(
            BlockDevice::new(block_size, DiskProfile::instant()),
            32,
        ))
    }

    #[test]
    fn create_push_read() {
        let s = store(256);
        let b = s.create().unwrap();
        assert!(s.read(b).unwrap().is_empty());
        for i in 0..5 {
            s.push(
                b,
                Posting {
                    value: 34,
                    block: i,
                },
            )
            .unwrap();
        }
        let postings = s.read(b).unwrap();
        assert_eq!(postings.len(), 5);
        assert!(postings.iter().all(|p| p.value == 34));
        assert_eq!(s.pool.device().live_blocks(), 1);
    }

    #[test]
    fn duplicates_ignored() {
        let s = store(256);
        let b = s.create().unwrap();
        let p = Posting { value: 1, block: 2 };
        s.push(b, p).unwrap();
        s.push(b, p).unwrap();
        assert_eq!(s.read(b).unwrap().len(), 1);
    }

    #[test]
    fn chain_grows_when_full() {
        // Tiny pages: (64 - 6) / 12 = 4 postings per page.
        let s = store(64);
        let b = s.create().unwrap();
        for i in 0..10 {
            s.push(
                b,
                Posting {
                    value: i,
                    block: i as u32,
                },
            )
            .unwrap();
        }
        assert_eq!(s.pool.device().live_blocks(), 3);
        let mut postings = s.read(b).unwrap();
        postings.sort();
        assert_eq!(postings.len(), 10);
        for (i, p) in postings.iter().enumerate() {
            assert_eq!(p.value, i as u64);
        }
    }

    #[test]
    fn remove_across_chain() {
        let s = store(64);
        let b = s.create().unwrap();
        for i in 0..10 {
            s.push(b, Posting { value: i, block: 0 }).unwrap();
        }
        let seven = Posting { value: 7, block: 0 };
        assert_eq!(s.remove(b, seven).unwrap(), Removal::Removed);
        assert_eq!(s.remove(b, seven).unwrap(), Removal::Absent);
        assert_eq!(s.read(b).unwrap().len(), 9);
    }

    #[test]
    fn emptied_pages_are_reclaimed() {
        // 4 postings per page: ten postings make a chain of three pages.
        let s = store(64);
        let live = || s.pool.device().live_blocks();
        let before = live();
        let b = s.create().unwrap();
        let posting = |i: u64| Posting { value: i, block: 0 };
        for i in 0..10 {
            s.push(b, posting(i)).unwrap();
        }
        assert_eq!(live(), before + 3);
        // Emptying the last page unlinks and frees it.
        for i in 8..10 {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
        }
        assert_eq!(live(), before + 2);
        // Emptying the head pulls the follower's postings into it.
        for i in 0..4 {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
        }
        assert_eq!(live(), before + 1);
        let mut left = s.read(b).unwrap();
        left.sort();
        assert_eq!(left, (4..8).map(posting).collect::<Vec<_>>());
        // The last posting takes the bucket with it.
        for i in 4..7 {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
        }
        assert_eq!(s.remove(b, posting(7)).unwrap(), Removal::Emptied);
        assert_eq!(live(), before);
    }

    #[test]
    fn dedup_respects_block_distinction() {
        let s = store(256);
        let b = s.create().unwrap();
        s.push(
            b,
            Posting {
                value: 1,
                block: 10,
            },
        )
        .unwrap();
        s.push(
            b,
            Posting {
                value: 1,
                block: 11,
            },
        )
        .unwrap();
        assert_eq!(s.read(b).unwrap().len(), 2);
    }
}
