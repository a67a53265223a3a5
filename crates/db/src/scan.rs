//! Streaming φ-range scans: iterate a tuple range block-at-a-time through
//! the primary index, without materializing the whole result.
//!
//! This is the access pattern behind the paper's clustered selections: the
//! primary index locates the first block whose range intersects
//! `[lo, hi]`, and the scan walks forward until a block's minimum passes
//! `hi`.

use crate::error::DbError;
use crate::relation_store::StoredRelation;
use avq_obs::QueryCtx;
use avq_schema::{Tuple, TupleBatch};
use core::cmp::Ordering;
use std::sync::Arc;

/// A streaming iterator over the tuples in `[lo, hi]` (inclusive, φ order).
pub struct RangeScan<'a> {
    rel: &'a StoredRelation,
    hi: Tuple,
    /// Index into the relation's block list of the next block to decode.
    next_block: usize,
    /// The block being drained (shared with the decoded cache, not copied).
    buf: Arc<TupleBatch>,
    pos: usize,
    /// One past the block's last row `≤ hi`.
    end: usize,
    /// Blocks decoded so far (the scan's `N`).
    blocks_read: u64,
    error: Option<DbError>,
    done: bool,
    lo: Tuple,
    /// The query's context; each refill reads its block under it.
    ctx: QueryCtx,
}

impl StoredRelation {
    /// Starts a streaming scan of the φ range `[lo, hi]` under `ctx`. Each
    /// refill is one [`Self::read_block`], so a cancelled or tripped scan
    /// stops yielding within one block and surfaces
    /// [`DbError::Governance`] through [`RangeScan::take_error`] — never a
    /// silently truncated stream — and a block skipped under
    /// [`crate::ScanPolicy::SkipCorrupt`] is passed over.
    pub fn range_scan(
        &self,
        lo: Tuple,
        hi: Tuple,
        ctx: &QueryCtx,
    ) -> Result<RangeScan<'_>, DbError> {
        self.schema().validate_tuple(&lo)?;
        self.schema().validate_tuple(&hi)?;
        // First block whose max >= lo.
        let start = self.blocks().partition_point(|b| b.max < lo);
        Ok(RangeScan {
            rel: self,
            hi,
            next_block: start,
            buf: Arc::default(),
            pos: 0,
            end: 0,
            blocks_read: 0,
            error: None,
            done: false,
            lo,
            ctx: ctx.clone(),
        })
    }
}

impl RangeScan<'_> {
    /// Blocks decoded so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// The first error hit, if iteration stopped on one.
    pub fn take_error(&mut self) -> Option<DbError> {
        self.error.take()
    }

    fn refill(&mut self) -> bool {
        loop {
            let blocks = self.rel.blocks();
            if self.next_block >= blocks.len() {
                self.done = true;
                return false;
            }
            let meta = &blocks[self.next_block];
            if meta.min > self.hi {
                self.done = true;
                return false;
            }
            let id = meta.id;
            self.next_block += 1;
            match self.rel.read_block(id, &self.ctx) {
                Ok(Some(run)) => self.buf = run,
                Ok(None) => continue,
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                    return false;
                }
            }
            self.blocks_read += 1;
            // The block's rows in [lo, hi]: two binary searches, each
            // comparing a row column by column.
            self.pos = self.buf.partition_point(self.lo.digits(), Ordering::is_lt);
            self.end = self.buf.partition_point(self.hi.digits(), Ordering::is_le);
            if self.pos < self.buf.len() {
                return true;
            }
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.done {
            return None;
        }
        loop {
            if self.pos < self.end {
                self.pos += 1;
                return Some(self.buf.tuple(self.pos - 1));
            }
            if self.pos < self.buf.len() {
                // A row past `hi`: so is every later one.
                self.done = true;
                return None;
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use avq_codec::CodecOptions;
    use avq_schema::{Domain, Relation, Schema};
    use avq_storage::{BlockDevice, BufferPool};

    fn stored(n: u64) -> StoredRelation {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(64).unwrap()),
            ("b", Domain::uint(1024).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 1024]))
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

    /// A scan of `[lo, hi]` under the default context.
    fn scan(rel: &StoredRelation, lo: Tuple, hi: Tuple) -> RangeScan<'_> {
        rel.range_scan(lo, hi, &QueryCtx::default()).unwrap()
    }

    #[test]
    fn scan_matches_filtered_full_scan() {
        let rel = stored(2000);
        let all = rel.scan_all().unwrap();
        let lo = Tuple::from([10u64, 0]);
        let hi = Tuple::from([20u64, 1023]);
        let got: Vec<Tuple> = scan(&rel, lo.clone(), hi.clone()).collect();
        let expect: Vec<Tuple> = all
            .iter()
            .filter(|t| **t >= lo && **t <= hi)
            .cloned()
            .collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn scan_reads_only_intersecting_blocks() {
        let rel = stored(2000);
        let lo = Tuple::from([30u64, 0]);
        let hi = Tuple::from([32u64, 1023]);
        let mut scan = scan(&rel, lo, hi);
        let count = scan.by_ref().count();
        assert!(count > 0);
        assert!(
            (scan.blocks_read() as usize) < rel.block_count() / 2,
            "narrow scan must not decode most blocks: {} of {}",
            scan.blocks_read(),
            rel.block_count()
        );
        assert!(scan.take_error().is_none());
    }

    #[test]
    fn empty_range() {
        let rel = stored(500);
        let lo = Tuple::from([63u64, 1023]);
        let hi = Tuple::from([63u64, 1023]);
        let got: Vec<Tuple> = scan(&rel, lo, hi).collect();
        // Present only if that exact tuple exists.
        let present = rel
            .scan_all()
            .unwrap()
            .binary_search(&Tuple::from([63u64, 1023]))
            .is_ok();
        assert_eq!(!got.is_empty(), present);
    }

    #[test]
    fn inverted_range_yields_nothing() {
        let rel = stored(500);
        let lo = Tuple::from([40u64, 0]);
        let hi = Tuple::from([10u64, 0]);
        assert_eq!(scan(&rel, lo, hi).count(), 0);
    }

    #[test]
    fn whole_range_equals_scan_all() {
        let rel = stored(1000);
        let lo = Tuple::from([0u64, 0]);
        let hi = Tuple::from([63u64, 1023]);
        let got: Vec<Tuple> = scan(&rel, lo, hi).collect();
        assert_eq!(got, rel.scan_all().unwrap());
    }

    #[test]
    fn invalid_bounds_rejected() {
        let rel = stored(100);
        assert!(rel
            .range_scan(
                Tuple::from([99u64, 0]),
                Tuple::from([0u64, 0]),
                &QueryCtx::default()
            )
            .is_err());
    }
}
