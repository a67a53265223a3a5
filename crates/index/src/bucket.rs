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
//!
//! Chains are kept compact: every page but the last is full, so a chain of
//! `n` postings is `⌈n / capacity⌉` pages. [`BucketStore::push`] appends to
//! the last page, and [`BucketStore::remove`] fills the hole it leaves with
//! the chain's last posting. A bucket is only worth a page for a value with
//! two or more postings: the secondary index keeps a lone posting inline in
//! its tree, so `remove` hands the survivor back ([`Removal::Demoted`]) when
//! one is left.

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
    /// The posting was removed; the bucket still holds two or more.
    Removed,
    /// The posting was removed and one was left: the bucket's page has been
    /// freed, its head id is dead, and the survivor is returned.
    Demoted(Posting),
    /// The posting was the bucket's last: its page has been freed and its
    /// head id is dead.
    Emptied,
}

/// A page's postings, parsed off its bytes as they are read.
struct Postings<'a>(core::slice::ChunksExact<'a, u8>);

impl Iterator for Postings<'_> {
    type Item = Posting;

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }

    fn next(&mut self) -> Option<Posting> {
        let (value, block) = self.0.next()?.split_first_chunk::<8>()?;
        let &[b0, b1, b2, b3] = block else {
            return None;
        };
        Some(Posting {
            value: u64::from_le_bytes(*value),
            block: u32::from_le_bytes([b0, b1, b2, b3]),
        })
    }
}

/// Reads and writes bucket chains on the device.
#[derive(Debug, Clone)]
pub struct BucketStore {
    pool: Arc<BufferPool>,
}

struct Page {
    id: BlockId,
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

    /// Walks the chain starting at `head`, handing `visit` each page's id,
    /// postings (read in place) and next link. A chain longer than the
    /// device has blocks is a cycle; the device is counted only once a
    /// chain gets long.
    fn walk(
        &self,
        head: BlockId,
        mut visit: impl FnMut(BlockId, Postings<'_>, BlockId),
    ) -> Result<(), IndexError> {
        let (mut id, mut pages, mut max_pages) = (head, 0usize, usize::MAX);
        loop {
            let bytes = self.pool.read(id)?;
            let corrupt = |detail: &str| IndexError::CorruptNode {
                block: id,
                detail: detail.to_owned(),
            };
            let Some((&[c0, c1, n0, n1, n2, n3], rest)) =
                bytes.split_first_chunk::<BUCKET_HEADER>()
            else {
                return Err(corrupt("bucket shorter than header"));
            };
            let count = u16::from_le_bytes([c0, c1]) as usize;
            let next = u32::from_le_bytes([n0, n1, n2, n3]);
            let postings = rest
                .get(..count * ENTRY_BYTES)
                .ok_or_else(|| corrupt("truncated posting"))?;
            visit(id, Postings(postings.chunks_exact(ENTRY_BYTES)), next);
            pages += 1;
            if next == NO_NEXT {
                return Ok(());
            }
            if pages == 64 {
                max_pages = self.pool.device().live_blocks();
            }
            if pages >= max_pages {
                return Err(IndexError::CorruptNode {
                    block: next,
                    detail: "bucket chain revisits a page".into(),
                });
            }
            id = next;
        }
    }

    fn store(&self, page: &Page) -> Result<(), IndexError> {
        self.write(page.id, &page.postings, page.next)
    }

    fn write(&self, id: BlockId, postings: &[Posting], next: BlockId) -> Result<(), IndexError> {
        let mut out = Vec::with_capacity(BUCKET_HEADER + postings.len() * ENTRY_BYTES);
        out.extend_from_slice(&(postings.len() as u16).to_le_bytes());
        out.extend_from_slice(&next.to_le_bytes());
        for p in postings {
            out.extend_from_slice(&p.value.to_le_bytes());
            out.extend_from_slice(&p.block.to_le_bytes());
        }
        self.pool.write(id, &out)?;
        Ok(())
    }

    /// Every page of the chain starting at `head`, in order, as owned
    /// pages (what edits change).
    fn chain(&self, head: BlockId) -> Result<Vec<Page>, IndexError> {
        let mut pages = Vec::new();
        self.walk(head, |id, postings, next| {
            pages.push(Page {
                id,
                postings: postings.collect(),
                next,
            })
        })?;
        Ok(pages)
    }

    /// Creates an empty bucket, returning its head block id.
    pub fn create(&self) -> Result<BlockId, IndexError> {
        self.create_with(&[])
    }

    /// Creates a bucket holding `postings` (which the caller keeps
    /// distinct), writing its compact chain in one pass, and returns its
    /// head block id.
    pub fn create_with(&self, postings: &[Posting]) -> Result<BlockId, IndexError> {
        let pages = postings.len().div_ceil(self.capacity()).max(1);
        let ids = (0..pages)
            .map(|_| self.pool.device().allocate())
            .collect::<Result<Vec<_>, _>>()?;
        let mut chunks = postings.chunks(self.capacity());
        for (i, &id) in ids.iter().enumerate() {
            let next = ids.get(i + 1).copied().unwrap_or(NO_NEXT);
            self.write(id, chunks.next().unwrap_or_default(), next)?;
        }
        Ok(ids[0])
    }

    /// Appends a posting to the bucket's last page, extending the chain
    /// when it is full. A posting already anywhere in the chain is ignored
    /// (a block is listed once per value).
    pub fn push(&self, head: BlockId, posting: Posting) -> Result<(), IndexError> {
        let pages = self.chain(head)?;
        if pages.iter().any(|p| p.postings.contains(&posting)) {
            return Ok(());
        }
        let mut last = pages.into_iter().last().expect("a chain has a head");
        if last.postings.len() < self.capacity() {
            last.postings.push(posting);
            return self.store(&last);
        }
        let id = self.pool.device().allocate()?;
        self.write(id, &[posting], NO_NEXT)?;
        last.next = id;
        self.store(&last)
    }

    /// Reads every posting in the bucket chain.
    pub fn read(&self, head: BlockId) -> Result<Vec<Posting>, IndexError> {
        let mut out = Vec::new();
        self.for_each(head, |p| out.push(p))?;
        Ok(out)
    }

    /// Hands every posting in the bucket chain to `f`, in chain order,
    /// reading each page in place: allocates nothing when the chain is in
    /// the pool.
    pub fn for_each(&self, head: BlockId, mut f: impl FnMut(Posting)) -> Result<(), IndexError> {
        self.walk(head, |_, postings, _| postings.for_each(&mut f))
    }

    /// Removes one posting (if present), filling its hole with the chain's
    /// last posting so the chain stays compact; a last page that empties is
    /// unlinked and freed. When one posting is left, or none, the bucket's
    /// page is freed too: [`Removal::Demoted`] and [`Removal::Emptied`] tell
    /// the caller to forget `head`.
    pub fn remove(&self, head: BlockId, posting: Posting) -> Result<Removal, IndexError> {
        let mut pages = self.chain(head)?;
        let Some((at, i)) = pages.iter().enumerate().find_map(|(at, page)| {
            let i = page.postings.iter().position(|p| *p == posting)?;
            Some((at, i))
        }) else {
            return Ok(Removal::Absent);
        };
        let tail = pages.last_mut().expect("a chain has a head");
        let last = tail.postings.pop().ok_or_else(|| IndexError::CorruptNode {
            block: tail.id,
            detail: "empty page ends a bucket chain".into(),
        })?;
        if last != posting {
            pages[at].postings[i] = last;
        }
        let tail = pages.last().expect("a chain has a head");
        if tail.postings.is_empty() {
            self.release(tail.id)?;
            pages.pop();
            match pages.last_mut() {
                Some(page) => page.next = NO_NEXT,
                None => return Ok(Removal::Emptied),
            }
        }
        if let [page] = pages.as_slice() {
            if let [survivor] = page.postings.as_slice() {
                self.release(page.id)?;
                return Ok(Removal::Demoted(*survivor));
            }
        }
        let tail = pages.len() - 1;
        if at < tail {
            self.store(&pages[at])?;
        }
        self.store(&pages[tail])?;
        Ok(Removal::Removed)
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
        // Holes in the head are filled from the tail, which empties.
        for i in 0..4 {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
        }
        assert_eq!(live(), before + 1);
        let mut left = s.read(b).unwrap();
        left.sort();
        assert_eq!(left, (4..8).map(posting).collect::<Vec<_>>());
        // A lone survivor is demoted: the bucket goes and hands it back.
        for i in 4..6 {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
        }
        assert_eq!(
            s.remove(b, posting(6)).unwrap(),
            Removal::Demoted(posting(7))
        );
        assert_eq!(live(), before);
    }

    #[test]
    fn push_finds_a_posting_on_a_later_page() {
        // A hole in the head must not take a posting the chain already
        // lists further on, or one `remove` would leave a ghost behind.
        let s = store(64);
        let b = s.create().unwrap();
        let posting = |i: u64| Posting { value: i, block: 1 };
        for i in 0..10 {
            s.push(b, posting(i)).unwrap();
        }
        assert_eq!(s.remove(b, posting(0)).unwrap(), Removal::Removed);
        s.push(b, posting(9)).unwrap();
        let listed = s.read(b).unwrap();
        assert_eq!(listed.iter().filter(|p| **p == posting(9)).count(), 1);
        assert_eq!(s.remove(b, posting(9)).unwrap(), Removal::Removed);
        assert!(!s.read(b).unwrap().contains(&posting(9)));
        for i in 1..7 {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
        }
        assert_eq!(
            s.remove(b, posting(7)).unwrap(),
            Removal::Demoted(posting(8))
        );
    }

    #[test]
    fn chains_stay_compact() {
        // However postings come and go, a chain of n is ⌈n / 4⌉ pages and
        // `create_with` writes the same chain in one pass.
        let s = store(64);
        let live = || s.pool.device().live_blocks();
        let before = live();
        let posting = |i: u64| Posting {
            value: 3,
            block: i as BlockId,
        };
        let b = s
            .create_with(&(0..11).map(posting).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(live(), before + 3);
        for i in [5, 0, 10, 7, 2, 9, 1] {
            assert_eq!(s.remove(b, posting(i)).unwrap(), Removal::Removed);
            let n = s.read(b).unwrap().len();
            assert_eq!(live(), before + n.div_ceil(4), "after removing {i}");
        }
        for i in 20..26 {
            s.push(b, posting(i)).unwrap();
            let n = s.read(b).unwrap().len();
            assert_eq!(live(), before + n.div_ceil(4), "after pushing {i}");
        }
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
