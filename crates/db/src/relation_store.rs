//! A stored relation: coded data blocks + primary index + secondary indexes.
//!
//! This is the §4 system: tuples live in AVQ-coded blocks on the simulated
//! device; a primary B⁺-tree keyed on whole serialized tuples routes
//! point/range operations to blocks; secondary indexes with buckets serve
//! selections on non-clustering attributes; inserts and deletes re-code only
//! the affected block (splitting it when the coded form outgrows the block,
//! freeing it when emptied).

use crate::config::{DbConfig, ScanPolicy};
use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::query::{RangePredicate, Selection};
use crate::secondary::SecondaryIndex;
#[cfg(test)]
use avq_codec::CodingMode;
use avq_codec::{
    delete_from_rows, insert_into_rows, BlockCodec, BlockPacker, CodecError, DecodeScratch,
};
use avq_schema::{Relation, Schema, Tuple, TupleBatch};
use avq_storage::{BlockDevice, BlockId, BufferPool, DecodedCache, PoolStats, StorageError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use avq_index::{BPlusTree, Posting};
use avq_obs::{names, QueryCtx};

/// In-memory bookkeeping for one coded data block.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// Device block id.
    pub id: BlockId,
    /// φ-smallest tuple in the block (the primary-index key).
    pub min: Tuple,
    /// φ-largest tuple in the block.
    pub max: Tuple,
    /// Tuples in the block.
    pub count: usize,
    /// Coded bytes used of the block capacity.
    pub used_bytes: usize,
}

/// A relation stored on the simulated device.
#[derive(Debug)]
pub struct StoredRelation {
    schema: Arc<Schema>,
    config: DbConfig,
    codec: BlockCodec,
    device: Arc<BlockDevice>,
    pool: Arc<BufferPool>,
    /// Cache of decoded blocks, layered over the buffer pool. The pool
    /// caches coded bytes; this caches the result of decoding them, so a
    /// warm re-scan performs zero decode calls and shares each batch. A
    /// read of more blocks than it holds admits at the cold end (see
    /// [`Self::read_blocks`]).
    decoded: DecodedCache<TupleBatch>,
    /// Blocks found unreadable or corrupt during policy-aware reads. Under
    /// [`ScanPolicy::SkipCorrupt`] these are skipped on later scans; each
    /// block is counted once in `avq_corrupt_blocks_total`.
    quarantined: Mutex<BTreeSet<BlockId>>,
    blocks: Vec<StoredBlock>,
    primary: BPlusTree,
    secondaries: BTreeMap<usize, SecondaryIndex>,
    tuple_count: usize,
}

/// The served blocks of one [`StoredRelation::read_blocks`] call, in the
/// order asked for: each item is a block's id and its shared decoded batch,
/// or the error that ends the read.
#[derive(Debug)]
pub struct BlockReads<'a, I> {
    rel: &'a StoredRelation,
    ids: I,
    ctx: QueryCtx,
    /// Admit decoded blocks at the decoded cache's cold end.
    cold: bool,
}

impl<I: Iterator<Item = BlockId>> Iterator for BlockReads<'_, I> {
    type Item = Result<(BlockId, Arc<TupleBatch>), DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        for id in self.ids.by_ref() {
            match self.rel.serve(id, &self.ctx, self.cold) {
                Ok(Some(run)) => return Some(Ok((id, run))),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
        }
        None
    }
}

impl StoredRelation {
    /// Bulk-loads a relation: sorts into φ order, packs into blocks, writes
    /// them to the device, and bulk-builds the primary index.
    pub fn bulk_load(
        device: Arc<BlockDevice>,
        pool: Arc<BufferPool>,
        relation: &Relation,
        config: DbConfig,
    ) -> Result<Self, DbError> {
        let schema = relation.schema().clone();
        let codec = BlockCodec::with_options(schema.clone(), config.codec.mode, config.codec.rep)
            .with_kernel(config.codec.kernel);
        let packer = BlockPacker::new(codec.clone(), config.codec.block_capacity);

        let mut tuples = relation.tuples().to_vec();
        tuples.sort_unstable();

        let ranges = packer.partition(&tuples)?;
        let mut blocks = Vec::with_capacity(ranges.len());
        let mut keys = Vec::with_capacity(ranges.len());
        for r in ranges {
            let run = &tuples[r];
            let coded = codec.encode(run)?;
            let id = device.allocate()?;
            pool.write(id, &coded)?;
            let min = run[0].clone();
            keys.push((serialize_key(&schema, &min), id as u64));
            blocks.push(StoredBlock {
                id,
                min,
                max: run[run.len() - 1].clone(),
                count: run.len(),
                used_bytes: coded.len(),
            });
        }
        let primary = BPlusTree::bulk_build(pool.clone(), config.index_order, &keys)?;
        Ok(StoredRelation {
            schema,
            codec,
            device,
            pool,
            decoded: DecodedCache::new(config.decoded_cache_blocks),
            quarantined: Mutex::new(BTreeSet::new()),
            config,
            blocks,
            primary,
            secondaries: BTreeMap::new(),
            tuple_count: tuples.len(),
        })
    }

    /// Loads a [`avq_codec::CodedRelation`] (e.g. read from an `.avq` file)
    /// into the store: its coded blocks are written to the device verbatim
    /// and the primary index is bulk-built from the block metadata. The
    /// relation's coding options override the database defaults (except the
    /// block capacity, which must fit the device).
    pub fn from_coded(
        device: Arc<BlockDevice>,
        pool: Arc<BufferPool>,
        coded: &avq_codec::CodedRelation,
        mut config: DbConfig,
    ) -> Result<Self, DbError> {
        let opts = coded.options();
        if opts.block_capacity > device.block_size() {
            return Err(DbError::Storage(avq_storage::StorageError::BlockTooLarge {
                got: opts.block_capacity,
                block_size: device.block_size(),
            }));
        }
        config.codec = opts;
        let codec = BlockCodec::with_options(coded.schema().clone(), opts.mode, opts.rep)
            .with_kernel(opts.kernel);
        let mut emitted = Vec::with_capacity(coded.block_count());
        for i in 0..coded.block_count() {
            let id = device.allocate()?;
            pool.write(id, coded.block(i))?;
            // Reuse the decoded tuples for metadata assembly.
            let tuples = codec.decode(coded.block(i))?;
            emitted.push((id, tuples));
        }
        Self::assemble_loaded(device, pool, coded.schema().clone(), config, emitted)
    }

    /// Assembles a stored relation from already-written data blocks: records
    /// metadata and bulk-builds the primary index. Blocks must arrive in φ
    /// order.
    fn assemble_loaded(
        device: Arc<BlockDevice>,
        pool: Arc<BufferPool>,
        schema: Arc<Schema>,
        config: DbConfig,
        emitted: Vec<(BlockId, Vec<Tuple>)>,
    ) -> Result<Self, DbError> {
        let codec = BlockCodec::with_options(schema.clone(), config.codec.mode, config.codec.rep)
            .with_kernel(config.codec.kernel);
        let mut blocks = Vec::with_capacity(emitted.len());
        let mut keys = Vec::with_capacity(emitted.len());
        let mut tuple_count = 0usize;
        for (id, run) in &emitted {
            debug_assert!(!run.is_empty());
            let min = run[0].clone();
            keys.push((serialize_key(&schema, &min), *id as u64));
            tuple_count += run.len();
            blocks.push(StoredBlock {
                id: *id,
                min,
                max: run[run.len() - 1].clone(),
                count: run.len(),
                used_bytes: codec.measure(run),
            });
        }
        let primary = BPlusTree::bulk_build(pool.clone(), config.index_order, &keys)?;
        Ok(StoredRelation {
            schema,
            codec,
            device,
            pool,
            decoded: DecodedCache::new(config.decoded_cache_blocks),
            quarantined: Mutex::new(BTreeSet::new()),
            config,
            blocks,
            primary,
            secondaries: BTreeMap::new(),
            tuple_count,
        })
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of stored tuples.
    #[inline]
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Number of data blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Per-block bookkeeping, φ-ordered.
    #[inline]
    pub fn blocks(&self) -> &[StoredBlock] {
        &self.blocks
    }

    /// The primary index.
    #[inline]
    pub fn primary_index(&self) -> &BPlusTree {
        &self.primary
    }

    /// The database configuration this relation was stored with.
    #[inline]
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Total coded payload bytes across data blocks.
    pub fn coded_payload_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.used_bytes).sum()
    }

    /// Compression accounting for the stored relation, including the block
    /// fill factor (§3.3 aims to minimize unused block space).
    pub fn storage_stats(&self) -> avq_codec::CompressionStats {
        let m = self.schema.tuple_bytes();
        avq_codec::CompressionStats {
            tuple_count: self.tuple_count,
            tuple_bytes: m,
            block_capacity: self.config.codec.block_capacity,
            uncoded_bytes: self.tuple_count * m,
            coded_payload_bytes: self.coded_payload_bytes(),
            coded_blocks: self.blocks.len(),
            uncoded_blocks: uncoded_block_count(
                &self.schema,
                self.tuple_count,
                self.config.codec.block_capacity,
            ),
        }
    }

    /// Mean fraction of each data block's capacity occupied by coded bytes.
    pub fn fill_factor(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.coded_payload_bytes() as f64
            / (self.blocks.len() * self.config.codec.block_capacity) as f64
    }

    /// The simulated device this relation lives on.
    #[inline]
    pub(crate) fn device(&self) -> &Arc<BlockDevice> {
        &self.device
    }

    /// All data-block ids in φ order.
    pub fn all_block_ids(&self) -> Vec<BlockId> {
        self.blocks.iter().map(|b| b.id).collect()
    }

    /// Hands one stored block to a reader as a shared decoded batch — the
    /// one place that happens, for every operator here and for the SQL
    /// executor in `avq-sql`. In order:
    ///
    /// 1. **Poll.** The block boundary is `ctx.gov`'s one poll point: a
    ///    cancelled query or a tripped deadline/quota surfaces
    ///    [`DbError::Governance`] before anything is served. A trip is never
    ///    block corruption — it aborts the scan under either policy.
    /// 2. **Skip.** Under [`ScanPolicy::SkipCorrupt`] a quarantined block is
    ///    `Ok(None)` without being re-read, and a block that turns out
    ///    unreadable or corrupt is quarantined and reported the same way;
    ///    [`ScanPolicy::FailFast`] returns the error.
    /// 3. **Serve.** A decoded-cache hit hands out the cached batch itself,
    ///    touching neither the pool nor the codec and copying nothing. A
    ///    miss reads the bytes through the pool (retries clamped to the
    ///    query's remaining deadline), decodes, checks φ order and caches
    ///    the batch. When `ctx.trace` is recording this runs under an
    ///    `avq.db.block_read` span (block id, cache/pool-hit flags) with the
    ///    decode in a nested `avq.codec.decode_block` span (kernel, bytes,
    ///    tuples).
    /// 4. **Charge, after success.** The budget is charged the block's
    ///    tuples, plus its coded bytes if it was decoded — a skipped or
    ///    failed block charges nothing — and the simulated clock advances
    ///    by Eq. 5.7's t₂ (`cpu_ms_per_block`).
    ///
    /// A block decoded here is cached at the most-recently-used end. A
    /// loop over many blocks reads them through [`Self::read_blocks`]
    /// instead, which serves each the same way.
    pub fn read_block(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
    ) -> Result<Option<Arc<TupleBatch>>, DbError> {
        self.serve(id, ctx, false)
    }

    /// Reads the blocks `ids` in order under `ctx`: every multi-block read
    /// loop in the engine — scans, filters, aggregates, joins, a secondary
    /// index build — goes through here. Each block is served as by
    /// [`Self::read_block`] (poll, skip, serve, charge); the iterator
    /// yields the served ones with their ids, passes over a block skipped
    /// under [`ScanPolicy::SkipCorrupt`], and yields an error where
    /// [`Self::read_block`] would return one (the caller stops there).
    ///
    /// Admission is chosen once, from the length of `ids`. A read of more
    /// blocks than the decoded cache holds would evict every block resident
    /// before it and then its own blocks before any reuse, so it admits
    /// what it decodes at the cold end: each such block evicts the previous
    /// one, and the read displaces at most one block that was resident
    /// before it. A read that fits keeps most-recently-used admission.
    pub fn read_blocks<I>(&self, ids: I, ctx: &QueryCtx) -> BlockReads<'_, I::IntoIter>
    where
        I: IntoIterator<Item = BlockId>,
        I::IntoIter: ExactSizeIterator,
    {
        let ids = ids.into_iter();
        BlockReads {
            cold: ids.len() > self.config.decoded_cache_blocks,
            rel: self,
            ids,
            ctx: ctx.clone(),
        }
    }

    /// [`Self::read_block`]'s steps, admitting a decoded block at the cold
    /// end when `cold`.
    fn serve(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
        cold: bool,
    ) -> Result<Option<Arc<TupleBatch>>, DbError> {
        ctx.gov.poll()?;
        let skip = self.config.scan_policy == ScanPolicy::SkipCorrupt;
        if skip && self.is_quarantined(id) {
            return Ok(None);
        }
        match self.serve_block(id, ctx, cold) {
            Ok((run, decoded_bytes)) => {
                ctx.gov.charge_decoded(decoded_bytes, run.len() as u64);
                self.charge_cpu(1);
                Ok(Some(run))
            }
            Err(e) if skip && is_block_corruption(&e) => {
                self.quarantine(id);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Step 3 of [`Self::read_block`]: the batch, and the coded bytes
    /// decoded to produce it (0 on a decoded-cache hit).
    fn serve_block(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
        cold: bool,
    ) -> Result<(Arc<TupleBatch>, u64), DbError> {
        let guard = ctx.trace.span(names::SPAN_DB_BLOCK_READ);
        if guard.is_recording() {
            guard.attr(names::ATTR_BLOCK, id);
        }
        if let Some(run) = self.decoded.get(id) {
            if guard.is_recording() {
                guard.attr(names::ATTR_CACHE_HIT, true);
            }
            return Ok((run, 0));
        }
        let pool_before = guard.is_recording().then(|| self.pool.stats());
        let retry = match ctx.gov.remaining_ms() {
            Some(rem) => self.config.retry.clamped_to_ms(rem),
            None => self.config.retry,
        };
        let bytes = self.pool.read_with_retry(id, retry)?;
        if let Some(before) = pool_before {
            guard.attr(names::ATTR_CACHE_HIT, false);
            let served_from_pool = self.pool.stats().since(&before).hits > 0;
            guard.attr(names::ATTR_POOL_HIT, served_from_pool);
        }
        let run = self.decode_and_cache(id, &bytes, &ctx.trace, cold)?;
        Ok((run, bytes.len() as u64))
    }

    /// Decodes `bytes`, checks φ order, and caches the batch as block `id`
    /// (at the cold end when `cold`), under an `avq.codec.decode_block`
    /// span when `trace` is recording.
    fn decode_and_cache(
        &self,
        id: BlockId,
        bytes: &[u8],
        trace: &avq_obs::TraceCtx,
        cold: bool,
    ) -> Result<Arc<TupleBatch>, DbError> {
        let mut run = TupleBatch::new(self.schema.arity());
        {
            let guard = trace.span(names::SPAN_CODEC_DECODE_BLOCK);
            let decoded = self
                .codec
                .decode_batch_into(bytes, &mut run, &mut DecodeScratch::new());
            if guard.is_recording() {
                guard.attr(names::ATTR_KERNEL, self.codec.kernel().to_string());
                guard.attr(names::ATTR_BYTES, bytes.len());
                guard.attr(names::ATTR_TUPLES, run.len());
            }
            decoded?;
        }
        check_phi_order(&run)?;
        let run = Arc::new(run);
        if cold {
            self.decoded.insert_cold(id, run.clone());
        } else {
            self.decoded.insert(id, run.clone());
        }
        Ok(run)
    }

    /// The write path's block read: the coded bytes a splice edits and the
    /// decoded rows it navigates by. A resident batch is used as it is — a
    /// warm block is not decoded to be written — and on a miss the rows are
    /// decoded, fully verified, from exactly the bytes returned. Mutations
    /// run outside any query budget or trace.
    fn read_for_update(&self, id: BlockId) -> Result<(Arc<Vec<u8>>, Arc<TupleBatch>), DbError> {
        let bytes = self.pool.read(id)?;
        let rows = match self.decoded.get(id) {
            Some(rows) => rows,
            None => self.decode_and_cache(id, &bytes, &avq_obs::TraceCtx::disabled(), false)?,
        };
        Ok((bytes, rows))
    }

    /// [`Self::read_block`] for callers that need owned tuples (the layer
    /// probes under `benchmark/`): every row of a served block is copied
    /// out as a [`Tuple`]; a block skipped under
    /// [`ScanPolicy::SkipCorrupt`] appends nothing.
    pub fn decode_block_into(&self, id: BlockId, out: &mut Vec<Tuple>) -> Result<(), DbError> {
        if let Some(run) = self.read_block(id, &QueryCtx::default())? {
            out.extend((0..run.len()).map(|i| run.tuple(i)));
        }
        Ok(())
    }

    /// True iff `id` has been quarantined by a prior [`Self::read_block`].
    pub fn is_quarantined(&self, id: BlockId) -> bool {
        self.quarantined
            .lock()
            .expect("quarantine set poisoned")
            .contains(&id)
    }

    /// Blocks quarantined so far, ascending.
    pub fn quarantined_blocks(&self) -> Vec<BlockId> {
        self.quarantined
            .lock()
            .expect("quarantine set poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Quarantines `id`, counting it in `avq_corrupt_blocks_total` the
    /// first time. The decoded-cache entry (if any) is dropped so a later
    /// repair is not masked by stale tuples.
    fn quarantine(&self, id: BlockId) {
        let newly = self
            .quarantined
            .lock()
            .expect("quarantine set poisoned")
            .insert(id);
        if newly {
            self.decoded.invalidate(id);
            avq_obs::counter!(names::CORRUPT_BLOCKS_TOTAL).inc();
        }
    }

    /// Decoded-block cache counters (hits mean zero decode calls).
    pub fn decoded_stats(&self) -> PoolStats {
        self.decoded.stats()
    }

    /// Counters of the (shared) buffer pool this relation reads through.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of decoded runs currently resident in the decoded-block
    /// cache. The SQL planner uses the resident fraction to discount the
    /// per-block cost of re-reading a warm relation.
    pub fn decoded_cache_len(&self) -> usize {
        self.decoded.len()
    }

    /// Resets the decoded-block cache counters.
    pub fn reset_decoded_stats(&self) {
        self.decoded.reset_stats();
    }

    /// Empties the decoded-block cache so the next scans decode cold.
    pub fn clear_decoded_cache(&self) {
        self.decoded.clear();
    }

    /// Candidate blocks for a secondary-index range (falls back to every
    /// block when there is no index on `attr`).
    pub fn secondary_candidate_blocks(
        &self,
        attr: usize,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<BlockId>, DbError> {
        match self.secondaries.get(&attr) {
            Some(idx) => idx.blocks_for_range(lo, hi),
            None => Ok(self.all_block_ids()),
        }
    }

    /// Builds a secondary index on attribute `attr` (Fig. 4.5) by scanning
    /// every block once and bulk-building from the postings found.
    pub fn create_secondary_index(&mut self, attr: usize) -> Result<(), DbError> {
        if self.secondaries.contains_key(&attr) {
            return Err(DbError::IndexExists { attribute: attr });
        }
        // Each block's distinct values, then one sorted bulk build.
        let mut postings = Vec::new();
        let mut values = Vec::new();
        let ids = self.blocks.iter().map(|b| b.id);
        for served in self.read_blocks(ids, &QueryCtx::default()) {
            let (block, run) = served?;
            values.clear();
            values.extend_from_slice(run.col(attr));
            values.sort_unstable();
            values.dedup();
            postings.extend(values.iter().map(|&value| Posting { value, block }));
        }
        let idx =
            SecondaryIndex::build(self.pool.clone(), self.config.index_order, attr, postings)?;
        self.secondaries.insert(attr, idx);
        Ok(())
    }

    /// True iff a secondary index exists on `attr`.
    pub fn has_secondary_index(&self, attr: usize) -> bool {
        self.secondaries.contains_key(&attr)
    }

    /// Attribute positions with secondary indexes, ascending (recorded in
    /// the durable manifest so indexes are rebuilt on open).
    pub fn secondary_attrs(&self) -> Vec<usize> {
        self.secondaries.keys().copied().collect()
    }

    /// Decodes every block in φ order (full scan without cost accounting).
    /// Under [`ScanPolicy::SkipCorrupt`] damaged blocks are quarantined and
    /// the surviving blocks' tuples are returned.
    pub fn scan_all(&self) -> Result<Vec<Tuple>, DbError> {
        let mut out = Vec::with_capacity(self.tuple_count);
        let ids = self.blocks.iter().map(|b| b.id);
        for served in self.read_blocks(ids, &QueryCtx::default()) {
            let (_, run) = served?;
            out.extend((0..run.len()).map(|i| run.tuple(i)));
        }
        Ok(out)
    }

    /// Point lookup: is `tuple` stored? Routes through the primary index
    /// (whole-tuple search key, §4.1) and decodes one block.
    pub fn contains(&self, tuple: &Tuple) -> Result<(bool, QueryCost), DbError> {
        self.schema.validate_tuple(tuple)?;
        let mut tracker = CostTracker::new(&self.device);
        let key = serialize_key(&self.schema, tuple);
        let hit = self.primary.floor(&key)?;
        tracker.end_index_phase();
        let found = match hit {
            None => false,
            Some((_, block)) => {
                let id = block as BlockId;
                let skip = self.config.scan_policy == ScanPolicy::SkipCorrupt;
                if skip && self.is_quarantined(id) {
                    false
                } else {
                    // Early-exit point probe: no full block reconstruction.
                    let probe = (|| -> Result<(bool, usize), DbError> {
                        let bytes = self.pool.read_with_retry(id, self.config.retry)?;
                        let scanned = self.codec.tuple_count(&bytes)?;
                        Ok((self.codec.contains_tuple(&bytes, tuple)?, scanned))
                    })();
                    match probe {
                        Ok((present, scanned)) => {
                            self.charge_cpu(1);
                            tracker.cost.data_blocks += 1;
                            tracker.cost.tuples_scanned += scanned;
                            present
                        }
                        Err(e) if skip && is_block_corruption(&e) => {
                            self.quarantine(id);
                            false
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        };
        tracker.cost.tuples_matched += found as usize;
        tracker.end_data_phase();
        Ok((found, tracker.cost))
    }

    /// Executes `σ_{lo ≤ A_attr ≤ hi}` and returns the matching tuples with
    /// the measured cost: [`Self::select`] of the one conjunct, so the
    /// access path is [`Selection::plan`]'s — attribute 0 is the clustering
    /// prefix of the φ order and is served by the primary index; other
    /// attributes use their secondary index when one exists, and otherwise
    /// scan every block.
    pub fn select_range(
        &self,
        attr: usize,
        lo: u64,
        hi: u64,
    ) -> Result<(Vec<Tuple>, QueryCost), DbError> {
        let selection = Selection::all().and(RangePredicate { attr, lo, hi });
        let (rows, cost, _) = self.select(&selection)?;
        Ok((rows, cost))
    }

    /// Candidate blocks for a clustered-range scan: the contiguous run of
    /// blocks whose `[min, max]` meets the φ-interval `prefix` spans (see
    /// [`Selection::clustered_prefix`]), found via the primary index.
    pub(crate) fn clustered_candidates(
        &self,
        prefix: &[(u64, u64)],
    ) -> Result<Vec<BlockId>, DbError> {
        let radix = self.schema.radix();
        let mut lo_digits = radix.min_digits();
        let mut hi_digits = radix.max_digits();
        for (attr, &(lo, hi)) in prefix.iter().enumerate() {
            let Some(&size) = radix.radices().get(attr) else {
                break;
            };
            if lo > hi || lo >= size {
                return Ok(Vec::new());
            }
            lo_digits[attr] = lo;
            hi_digits[attr] = hi.min(size - 1);
        }
        if self.blocks.is_empty() {
            return Ok(Vec::new());
        }
        let (lo, hi) = (Tuple::new(lo_digits), Tuple::new(hi_digits));
        let lo_key = serialize_key(&self.schema, &lo);
        let hi_key = serialize_key(&self.schema, &hi);

        let mut out = Vec::new();
        // The block whose run the interval starts in — its min may precede
        // the interval — unless that run ends before the interval does.
        if let Some((_, block)) = self.primary.floor(&lo_key)? {
            let block = block as BlockId;
            let ends_before = self
                .route(&lo)
                .is_some_and(|i| self.blocks[i].id == block && self.blocks[i].max < lo);
            if !ends_before {
                out.push(block);
            }
        }
        // Blocks whose min lies inside the interval.
        for (_, block) in self.primary.range(&lo_key, &hi_key)? {
            let block = block as BlockId;
            if out.last() != Some(&block) {
                out.push(block);
            }
        }
        Ok(out)
    }

    fn charge_cpu(&self, blocks: u64) {
        if self.config.cpu_ms_per_block > 0.0 {
            self.device
                .clock()
                .advance_ms(self.config.cpu_ms_per_block * blocks as f64);
        }
    }

    /// Index of the in-memory block that should hold `tuple`.
    fn route(&self, tuple: &Tuple) -> Option<usize> {
        if self.blocks.is_empty() {
            return None;
        }
        let idx = self.blocks.partition_point(|b| b.min <= *tuple);
        Some(idx.saturating_sub(1))
    }

    /// Inserts a tuple (Fig. 4.6): the tuple is spliced into the affected
    /// block's coded bytes — only the entries next to it are re-coded — and
    /// the block's resident decoded batch is replaced by the updated one;
    /// when the coded form no longer fits, the block is split.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<(), DbError> {
        self.schema.validate_tuple(tuple)?;
        let Some(bidx) = self.route(tuple) else {
            // First tuple of an empty relation.
            let coded = self.codec.encode(std::slice::from_ref(tuple))?;
            let id = self.device.allocate()?;
            self.pool.write(id, &coded)?;
            self.blocks.push(StoredBlock {
                id,
                min: tuple.clone(),
                max: tuple.clone(),
                count: 1,
                used_bytes: coded.len(),
            });
            self.primary
                .insert(&serialize_key(&self.schema, tuple), id as u64)?;
            for idx in self.secondaries.values_mut() {
                idx.add_posting(tuple.digits()[idx.attribute()], id)?;
            }
            self.tuple_count += 1;
            return Ok(());
        };

        let id = self.blocks[bidx].id;
        let (bytes, rows) = self.read_for_update(id)?;
        let capacity = self.config.codec.block_capacity;
        let spliced = insert_into_rows(&self.codec, &bytes, &rows, tuple, capacity)?;
        match spliced.bytes {
            Some(coded) => {
                self.pool.write(id, &coded)?;
                let updated = rows.with_row_inserted(spliced.pos, tuple.digits());
                self.decoded.insert(id, Arc::new(updated));
                let b = &mut self.blocks[bidx];
                b.count += 1;
                b.used_bytes = coded.len();
                if *tuple < b.min {
                    let old_key = serialize_key(&self.schema, &b.min);
                    b.min = tuple.clone();
                    self.primary.delete(&old_key)?;
                    self.primary
                        .insert(&serialize_key(&self.schema, tuple), id as u64)?;
                }
                if *tuple > b.max {
                    b.max = tuple.clone();
                }
                for idx in self.secondaries.values_mut() {
                    idx.add_posting(tuple.digits()[idx.attribute()], id)?;
                }
            }
            None => {
                let mut tuples = rows.to_tuples();
                tuples.insert(spliced.pos, tuple.clone());
                self.split_block(bidx, &tuples, tuple)?;
            }
        }
        self.tuple_count += 1;
        Ok(())
    }

    /// Re-packs an overflowing block's tuples — its old ones plus
    /// `inserted` — into as many blocks as needed, reusing the original
    /// block id for the first run.
    fn split_block(
        &mut self,
        bidx: usize,
        tuples: &[Tuple],
        inserted: &Tuple,
    ) -> Result<(), DbError> {
        let old = self.blocks[bidx].clone();

        // Split *balanced* (like a B-tree) rather than re-packing maximally:
        // a maximal re-pack yields a full block plus a sliver, and the next
        // insert into the same region immediately splits again. Each half is
        // re-packed only if it still overflows on its own.
        let packer = BlockPacker::new(self.codec.clone(), self.config.codec.block_capacity);
        let mid = tuples.len() / 2;
        let mut ranges = Vec::new();
        for (base, half) in [(0, &tuples[..mid]), (mid, &tuples[mid..])] {
            if half.is_empty() {
                continue;
            }
            if self.codec.measure(half) <= self.config.codec.block_capacity {
                ranges.push(base..base + half.len());
            } else {
                for r in packer.partition(half)? {
                    ranges.push(base + r.start..base + r.end);
                }
            }
        }
        debug_assert!(ranges.len() >= 2, "overflow must split into >= 2 blocks");
        let mut new_blocks = Vec::with_capacity(ranges.len());
        for (i, r) in ranges.into_iter().enumerate() {
            let run = &tuples[r];
            let coded = self.codec.encode(run)?;
            let id = if i == 0 {
                old.id
            } else {
                self.device.allocate()?
            };
            self.pool.write(id, &coded)?;
            self.decoded.invalidate(id);
            if i > 0 {
                self.primary
                    .insert(&serialize_key(&self.schema, &run[0]), id as u64)?;
            } else if run[0] != old.min {
                self.primary
                    .delete(&serialize_key(&self.schema, &old.min))?;
                self.primary
                    .insert(&serialize_key(&self.schema, &run[0]), id as u64)?;
            }
            new_blocks.push(StoredBlock {
                id,
                min: run[0].clone(),
                max: run[run.len() - 1].clone(),
                count: run.len(),
                used_bytes: coded.len(),
            });
        }
        // The first run kept `old.id`, so its postings move rather than
        // being rebuilt. A value that left the first run entirely moves its
        // `(v, old.id)` posting to the first new block carrying it — one
        // tree upsert when it is inline — and every other `(v, new)` is
        // added. The inserted tuple's own posting, which the old block
        // never had, is added when the tuple stayed.
        let (kept_run, moved_runs) = tuples.split_at(new_blocks[0].count);
        for idx in self.secondaries.values_mut() {
            let attr = idx.attribute();
            let kept: BTreeSet<u64> = kept_run.iter().map(|t| t.digits()[attr]).collect();
            let mut moved = BTreeSet::new();
            let mut rest = moved_runs;
            for b in &new_blocks[1..] {
                let (run, tail) = rest.split_at(b.count);
                rest = tail;
                let values: BTreeSet<u64> = run.iter().map(|t| t.digits()[attr]).collect();
                for v in values {
                    if !kept.contains(&v) && moved.insert(v) {
                        idx.move_posting(v, old.id, b.id)?;
                    } else {
                        idx.add_posting(v, b.id)?;
                    }
                }
            }
            let v = inserted.digits()[attr];
            if kept.contains(&v) {
                idx.add_posting(v, old.id)?;
            }
        }
        self.blocks.splice(bidx..bidx + 1, new_blocks);
        Ok(())
    }

    /// Deletes one occurrence of `tuple`: spliced out of the affected
    /// block's coded bytes, with the resident decoded batch replaced by the
    /// updated one — which also answers what the block's new bounds are and
    /// whether it still carries the tuple's secondary-index values.
    pub fn delete(&mut self, tuple: &Tuple) -> Result<(), DbError> {
        self.schema.validate_tuple(tuple)?;
        let Some(bidx) = self.route(tuple) else {
            return Err(DbError::TupleNotFound);
        };
        let old = self.blocks[bidx].clone();
        if *tuple < old.min || *tuple > old.max {
            return Err(DbError::TupleNotFound);
        }
        let (bytes, rows) = self.read_for_update(old.id)?;
        let spliced = delete_from_rows(&self.codec, &bytes, &rows, tuple)?;
        match spliced.bytes {
            None => {
                self.primary
                    .delete(&serialize_key(&self.schema, &old.min))?;
                for idx in self.secondaries.values_mut() {
                    idx.remove_posting(tuple.digits()[idx.attribute()], old.id)?;
                }
                self.pool.invalidate(old.id);
                self.decoded.invalidate(old.id);
                self.device.free(old.id)?;
                self.blocks.remove(bidx);
            }
            Some(coded) => {
                self.pool.write(old.id, &coded)?;
                let remaining = Arc::new(rows.with_row_removed(spliced.pos));
                self.decoded.insert(old.id, remaining.clone());
                let b = &mut self.blocks[bidx];
                b.count -= 1;
                b.used_bytes = coded.len();
                if remaining.cmp_row(0, b.min.digits()).is_ne() {
                    let old_key = serialize_key(&self.schema, &b.min);
                    b.min = remaining.tuple(0);
                    self.primary.delete(&old_key)?;
                    self.primary
                        .insert(&serialize_key(&self.schema, &b.min), old.id as u64)?;
                }
                let last = remaining.len() - 1;
                if remaining.cmp_row(last, b.max.digits()).is_ne() {
                    b.max = remaining.tuple(last);
                }
                for idx in self.secondaries.values_mut() {
                    let attr = idx.attribute();
                    let v = tuple.digits()[attr];
                    if !remaining.col(attr).contains(&v) {
                        idx.remove_posting(v, old.id)?;
                    }
                }
            }
        }
        self.tuple_count -= 1;
        Ok(())
    }

    /// Replaces `old` with `new` (§4.2: "tuple modification may simply be
    /// defined as a combination of tuple insertion and deletion").
    pub fn update(&mut self, old: &Tuple, new: &Tuple) -> Result<(), DbError> {
        self.delete(old)?;
        match self.insert(new) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Restore the deleted tuple so the relation is unchanged.
                self.insert(old).expect("re-inserting a just-deleted tuple");
                Err(e)
            }
        }
    }
}

/// A decoded run must be φ-sorted: block coding stores tuples in φ order,
/// so an out-of-order run means the bytes were silently damaged in a way
/// that still parsed (e.g. a bit flip inside an RLE count). Checked on
/// every cache-miss decode — O(n) over rows already in cache.
fn check_phi_order(run: &TupleBatch) -> Result<(), DbError> {
    if !run.is_sorted() {
        return Err(DbError::Codec(CodecError::Corrupt {
            section: "order",
            offset: 0,
            detail: "decoded run violates phi order".to_owned(),
        }));
    }
    Ok(())
}

/// True for errors that condemn a single block (unreadable media or bytes
/// that no longer decode) rather than the whole operation. Only these are
/// skippable under [`ScanPolicy::SkipCorrupt`].
fn is_block_corruption(e: &DbError) -> bool {
    matches!(
        e,
        DbError::Codec(_) | DbError::Schema(_) | DbError::Storage(StorageError::Io { .. })
    )
}

/// The governance memory budget's per-row model: a materialized row of
/// `arity` ordinals is priced at its ordinals plus 32 bytes of container
/// overhead — the price the SQL executor charges for every row of a flat
/// intermediate batch it holds.
pub fn row_mem_bytes(arity: usize) -> u64 {
    arity as u64 * 8 + 32
}

/// Serializes a tuple into its fixed-width primary-index key (byte order =
/// φ order).
pub(crate) fn serialize_key(schema: &Schema, tuple: &Tuple) -> Vec<u8> {
    let mut key = Vec::with_capacity(schema.tuple_bytes());
    schema.write_tuple(tuple, &mut key);
    key
}

/// Number of data blocks an *uncoded* (field-wise) copy of the same tuples
/// would occupy at this capacity — the paper's "No coding" baseline.
pub fn uncoded_block_count(schema: &Schema, tuple_count: usize, capacity: usize) -> usize {
    let m = schema.tuple_bytes();
    if m == 0 {
        return usize::from(tuple_count > 0);
    }
    let per_block = (capacity - avq_codec::BLOCK_HEADER_BYTES) / m;
    if per_block == 0 {
        0
    } else {
        tuple_count.div_ceil(per_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_schema::Domain;
    use avq_storage::DiskProfile;

    fn setup(
        n: u64,
        capacity: usize,
        mode: CodingMode,
    ) -> (Arc<BlockDevice>, Arc<BufferPool>, StoredRelation) {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(64).unwrap()),
            ("b", Domain::uint(64).unwrap()),
            ("c", Domain::uint(4096).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 64, (i * 29) % 4096]))
            .collect();
        let rel = Relation::from_tuples(schema, tuples).unwrap();
        let config = DbConfig {
            codec: avq_codec::CodecOptions {
                mode,
                block_capacity: capacity,
                ..Default::default()
            },
            disk: DiskProfile::paper_fixed(),
            ..Default::default()
        };
        let device = BlockDevice::new(capacity, config.disk);
        let pool = BufferPool::new(device.clone(), config.buffer_frames);
        let stored = StoredRelation::bulk_load(device.clone(), pool.clone(), &rel, config).unwrap();
        (device, pool, stored)
    }

    #[test]
    fn bulk_load_and_scan() {
        let (_, _, stored) = setup(500, 128, CodingMode::AvqChained);
        assert_eq!(stored.tuple_count(), 500);
        assert!(stored.block_count() > 1);
        let tuples = stored.scan_all().unwrap();
        assert_eq!(tuples.len(), 500);
        assert!(tuples.windows(2).all(|w| w[0] <= w[1]));
        stored.primary_index().validate().unwrap();
    }

    #[test]
    fn contains_routes_through_primary() {
        let (device, pool, stored) = setup(300, 128, CodingMode::AvqChained);
        let present = stored.scan_all().unwrap()[137].clone();
        pool.clear();
        device.reset_stats();
        let (found, cost) = stored.contains(&present).unwrap();
        assert!(found);
        assert_eq!(cost.data_reads, 1, "exactly one data block read");
        assert!(cost.index_reads >= 1);
        let absent = Tuple::from([63u64, 63, 4095]);
        let (found, _) = stored.contains(&absent).unwrap();
        assert!(!found);
    }

    #[test]
    fn clustered_selection_reads_contiguous_blocks() {
        let (device, pool, stored) = setup(1000, 256, CodingMode::AvqChained);
        pool.clear();
        device.reset_stats();
        let (rows, cost) = stored.select_range(0, 10, 20).unwrap();
        assert!(rows.iter().all(|t| (10..=20).contains(&t.digits()[0])));
        let expect = stored
            .scan_all()
            .unwrap()
            .iter()
            .filter(|t| (10..=20).contains(&t.digits()[0]))
            .count();
        assert_eq!(rows.len(), expect);
        assert!(
            (cost.data_reads as usize) < stored.block_count(),
            "prefix selection must not scan every block"
        );
    }

    #[test]
    fn secondary_selection_matches_full_scan() {
        let (_, _, mut stored) = setup(800, 256, CodingMode::AvqChained);
        stored.create_secondary_index(1).unwrap();
        assert!(stored.has_secondary_index(1));
        let (rows, cost) = stored.select_range(1, 5, 9).unwrap();
        let expect: Vec<Tuple> = stored
            .scan_all()
            .unwrap()
            .into_iter()
            .filter(|t| (5..=9).contains(&t.digits()[1]))
            .collect();
        let mut sorted_rows = rows.clone();
        sorted_rows.sort_unstable();
        assert_eq!(sorted_rows, expect);
        assert_eq!(cost.tuples_matched, expect.len());
    }

    #[test]
    fn unindexed_selection_scans_all_blocks() {
        let (device, pool, stored) = setup(400, 256, CodingMode::AvqChained);
        pool.clear();
        device.reset_stats();
        let (_, cost) = stored.select_range(2, 100, 200).unwrap();
        assert_eq!(cost.data_reads as usize, stored.block_count());
    }

    #[test]
    fn duplicate_index_rejected() {
        let (_, _, mut stored) = setup(50, 256, CodingMode::AvqChained);
        stored.create_secondary_index(1).unwrap();
        assert!(matches!(
            stored.create_secondary_index(1),
            Err(DbError::IndexExists { attribute: 1 })
        ));
    }

    #[test]
    fn insert_in_place_and_split() {
        let (_, _, mut stored) = setup(200, 128, CodingMode::AvqChained);
        let before_blocks = stored.block_count();
        // Insert many tuples clustered at one spot to force a split.
        for i in 0..50u64 {
            stored.insert(&Tuple::from([30u64, 30, i])).unwrap();
        }
        assert_eq!(stored.tuple_count(), 250);
        assert!(stored.block_count() > before_blocks, "splits happened");
        let tuples = stored.scan_all().unwrap();
        assert_eq!(tuples.len(), 250);
        assert!(tuples.windows(2).all(|w| w[0] <= w[1]));
        stored.primary_index().validate().unwrap();
        // Every inserted tuple is findable.
        for i in 0..50u64 {
            let (found, _) = stored.contains(&Tuple::from([30u64, 30, i])).unwrap();
            assert!(found, "tuple {i} lost");
        }
    }

    #[test]
    fn scattered_inserts_do_not_balloon_block_count() {
        // Regression: splits must be balanced (B-tree style). A maximal
        // re-pack leaves the split block full, so a scattered insert stream
        // would split on nearly every operation.
        let (_, _, mut stored) = setup(2000, 256, CodingMode::AvqChained);
        let before = stored.block_count();
        for i in 0..400u64 {
            let t = Tuple::from([(i * 37) % 64, (i * 53) % 64, (i * 101) % 4096]);
            stored.insert(&t).unwrap();
        }
        let after = stored.block_count();
        let grown = after - before;
        // 400 inserts over ~80 blocks of ~25 tuples each: block count may
        // grow by roughly the data growth (20%), not by one per insert.
        assert!(
            grown < 80,
            "block count grew by {grown} for 400 inserts ({before} -> {after})"
        );
        assert_eq!(stored.tuple_count(), 2400);
        // Everything still findable and ordered.
        let all = stored.scan_all().unwrap();
        assert_eq!(all.len(), 2400);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
        stored.primary_index().validate().unwrap();
    }

    #[test]
    fn insert_below_global_min() {
        let (_, _, mut stored) = setup(100, 256, CodingMode::AvqChained);
        let t = Tuple::from([0u64, 0, 0]);
        stored.insert(&t).unwrap();
        let (found, _) = stored.contains(&t).unwrap();
        assert!(found);
        assert_eq!(stored.blocks()[0].min, t);
    }

    #[test]
    fn delete_and_empty_block_reclaim() {
        let (device, _, mut stored) = setup(60, 4096, CodingMode::AvqChained);
        // Everything fits a handful of blocks; delete every tuple.
        let tuples = stored.scan_all().unwrap();
        let live_before = device.live_blocks();
        for t in &tuples {
            stored.delete(t).unwrap();
        }
        assert_eq!(stored.tuple_count(), 0);
        assert_eq!(stored.block_count(), 0);
        assert!(device.live_blocks() < live_before, "blocks were freed");
        assert!(matches!(
            stored.delete(&tuples[0]),
            Err(DbError::TupleNotFound)
        ));
    }

    #[test]
    fn delete_missing_tuple() {
        let (_, _, mut stored) = setup(100, 256, CodingMode::AvqChained);
        // In-range but absent.
        let tuples = stored.scan_all().unwrap();
        let mut ghost = tuples[0].clone();
        // Find a digit tweak that makes it absent.
        ghost.digits_mut()[2] = (ghost.digits()[2] + 1) % 4096;
        if tuples.binary_search(&ghost).is_err() {
            assert!(matches!(stored.delete(&ghost), Err(DbError::TupleNotFound)));
        }
        assert_eq!(stored.tuple_count(), 100);
    }

    #[test]
    fn update_moves_tuple() {
        let (_, _, mut stored) = setup(100, 512, CodingMode::AvqChained);
        let old = stored.scan_all().unwrap()[50].clone();
        let new = Tuple::from([63u64, 63, 4095]);
        stored.update(&old, &new).unwrap();
        assert_eq!(stored.tuple_count(), 100);
        let (found_old, _) = stored.contains(&old).unwrap();
        let (found_new, _) = stored.contains(&new).unwrap();
        assert!(!found_old);
        assert!(found_new);
    }

    #[test]
    fn secondary_stays_correct_through_updates() {
        let (_, _, mut stored) = setup(300, 128, CodingMode::AvqChained);
        stored.create_secondary_index(1).unwrap();
        // Churn: insert clustered tuples (forcing splits) and delete some.
        for i in 0..40u64 {
            stored.insert(&Tuple::from([10u64, 7, i])).unwrap();
        }
        for i in 0..20u64 {
            stored.delete(&Tuple::from([10u64, 7, i])).unwrap();
        }
        let (rows, _) = stored.select_range(1, 7, 7).unwrap();
        let expect: usize = stored
            .scan_all()
            .unwrap()
            .iter()
            .filter(|t| t.digits()[1] == 7)
            .count();
        assert_eq!(rows.len(), expect);
    }

    #[test]
    fn fieldwise_baseline_works_identically() {
        let (_, _, mut stored) = setup(300, 256, CodingMode::FieldWise);
        assert_eq!(stored.tuple_count(), 300);
        stored.create_secondary_index(1).unwrap();
        let (rows, _) = stored.select_range(1, 0, 63).unwrap();
        assert_eq!(rows.len(), 300);
        stored.insert(&Tuple::from([1u64, 1, 1])).unwrap();
        stored.delete(&Tuple::from([1u64, 1, 1])).unwrap();
        assert_eq!(stored.tuple_count(), 300);
    }

    #[test]
    fn uncoded_block_count_formula() {
        let schema = Schema::from_pairs(vec![("a", Domain::uint(256).unwrap())]).unwrap();
        // capacity 10, header 4 -> 6 tuples of 1 byte per block
        assert_eq!(uncoded_block_count(&schema, 12, 10), 2);
        assert_eq!(uncoded_block_count(&schema, 13, 10), 3);
        assert_eq!(uncoded_block_count(&schema, 0, 10), 0);
    }

    #[test]
    fn storage_stats_and_fill_factor() {
        let (_, _, stored) = setup(1000, 256, CodingMode::AvqChained);
        let st = stored.storage_stats();
        assert_eq!(st.tuple_count, 1000);
        assert_eq!(st.coded_blocks, stored.block_count());
        assert_eq!(st.coded_payload_bytes, stored.coded_payload_bytes());
        let fill = stored.fill_factor();
        assert!(fill > 0.5 && fill <= 1.0, "packer fills blocks: {fill}");
    }

    #[test]
    fn warm_rescan_decodes_nothing() {
        let (device, _, stored) = setup(1000, 256, CodingMode::AvqChained);
        stored.clear_decoded_cache();
        stored.reset_decoded_stats();

        let cold = stored.scan_all().unwrap();
        let st = stored.decoded_stats();
        assert_eq!(st.hits, 0, "cold scan cannot hit");
        assert_eq!(st.misses as usize, stored.block_count());

        device.reset_stats();
        let warm = stored.scan_all().unwrap();
        assert_eq!(warm, cold);
        let st = stored.decoded_stats();
        assert_eq!(
            st.hits as usize,
            stored.block_count(),
            "warm re-scan must be served entirely from the decoded cache"
        );
        assert_eq!(st.misses as usize, stored.block_count(), "no new misses");
        assert_eq!(
            device.io_stats().reads,
            0,
            "decoded-cache hits skip the device entirely"
        );

        // A hit is the cached batch itself, not a copy of it.
        let ctx = QueryCtx::default();
        for b in stored.blocks() {
            let first = stored.read_block(b.id, &ctx).unwrap().unwrap();
            let second = stored.read_block(b.id, &ctx).unwrap().unwrap();
            assert!(Arc::ptr_eq(&first, &second));
            assert_eq!(first.len(), b.count);
        }
    }

    /// The resident batch of `id` (if any) and a fresh decode of the bytes
    /// the device holds for it.
    fn resident_and_fresh(
        stored: &StoredRelation,
        id: BlockId,
    ) -> (Option<Arc<TupleBatch>>, TupleBatch) {
        let mut fresh = TupleBatch::new(stored.schema.arity());
        stored
            .codec
            .decode_batch_into(
                &stored.device.read(id).unwrap(),
                &mut fresh,
                &mut DecodeScratch::new(),
            )
            .unwrap();
        (stored.decoded.get(id), fresh)
    }

    #[test]
    fn mutations_write_the_decoded_cache_through() {
        // After any mutation the resident batch equals a fresh decode of
        // the bytes just written — in place, across splits and block
        // frees, with the cache enabled and (trivially) disabled.
        for mode in CodingMode::ALL {
            for cache_blocks in [64, 0] {
                let (_, _, mut stored) = setup(500, 256, mode);
                stored.decoded = DecodedCache::new(cache_blocks);
                let mut model = stored.scan_all().unwrap(); // warms the cache
                let mut state = 0x9E37_79B9_7F4A_7C15u64;
                for step in 0..400 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let r = state >> 33;
                    if step % 3 == 2 {
                        let victim = model.remove(r as usize % model.len());
                        stored.delete(&victim).unwrap();
                    } else {
                        // Clustered, so blocks split.
                        let t = Tuple::from([31 + r % 2, (r >> 1) % 64, (r >> 7) % 4096]);
                        let at = model.partition_point(|x| *x <= t);
                        model.insert(at, t.clone());
                        stored.insert(&t).unwrap();
                    }
                    for b in stored.blocks() {
                        let (resident, fresh) = resident_and_fresh(&stored, b.id);
                        assert_eq!(fresh.len(), b.count, "{mode} step {step}");
                        if let Some(resident) = resident {
                            assert_eq!(*resident, fresh, "{mode} step {step} block {}", b.id);
                        }
                    }
                }
                assert_eq!(stored.scan_all().unwrap(), model, "{mode}");
                if cache_blocks == 0 {
                    assert_eq!(stored.decoded_stats(), PoolStats::default());
                }
            }
        }
    }

    #[test]
    fn in_place_mutations_replace_the_resident_batch_without_decoding() {
        let (_, _, mut stored) = setup(500, 256, CodingMode::AvqChained);
        stored.scan_all().unwrap(); // warm the cache
        let ctx = QueryCtx::default();
        let target = stored.blocks()[stored.block_count() / 2].id;
        let cached = stored.read_block(target, &ctx).unwrap().unwrap();
        let misses = stored.decoded_stats().misses;
        let victim = cached.tuple(cached.len() / 2);
        stored.delete(&victim).unwrap();
        let after_delete = stored.read_block(target, &ctx).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&cached, &after_delete), "stale batch survived");
        assert_eq!(after_delete.len(), cached.len() - 1);
        stored.insert(&victim).unwrap();
        let after_insert = stored.read_block(target, &ctx).unwrap().unwrap();
        assert_eq!(after_insert, cached);
        assert_eq!(
            stored.decoded_stats().misses,
            misses,
            "a resident block is neither decoded to be written nor to be read back"
        );
    }

    #[test]
    fn corrupt_block_fails_the_write_and_is_not_overwritten() {
        for resident in [false, true] {
            let (device, pool, mut stored) = setup(300, 256, CodingMode::AvqChained);
            let b = stored.blocks()[1].clone();
            let ctx = QueryCtx::default();
            stored.clear_decoded_cache();
            if resident {
                stored.read_block(b.id, &ctx).unwrap().unwrap();
            }
            // A count byte larger than the tuple is wide: every splice hops
            // over it, and so does every decode.
            let mut bad = device.read(b.id).unwrap();
            bad[avq_codec::BLOCK_HEADER_BYTES + stored.schema.tuple_bytes()] = 0xFF;
            pool.write(b.id, &bad).unwrap();
            let mut inside = b.min.clone();
            inside.digits_mut()[2] = (inside.digits()[2] + 1) % 4096;
            for result in [stored.insert(&inside), stored.delete(&b.min)] {
                assert!(
                    matches!(result, Err(DbError::Codec(CodecError::Corrupt { .. }))),
                    "resident {resident}: {result:?}"
                );
            }
            assert_eq!(device.read(b.id).unwrap(), bad, "nothing was written");
            assert_eq!(stored.blocks()[1].count, b.count);
            assert_eq!(stored.tuple_count(), 300);
        }
    }

    #[test]
    fn deleted_index_values_leave_nothing_behind() {
        // N inserts then N deletes of distinct keys of a unique secondary
        // index: every value has one posting, which lives inline in the
        // tree, so the index holds no bucket page before, during or after,
        // and every tree key is deleted with its value. (Tree nodes and
        // data blocks may have split on the way; they are counted out.)
        let (device, _, mut stored) = setup(200, 256, CodingMode::AvqChained);
        stored.create_secondary_index(2).unwrap();
        let keys = |s: &StoredRelation| s.secondaries[&2].tree().stats().unwrap().entries;
        let bucket_pages = |s: &StoredRelation| {
            let tree_nodes = |t: &BPlusTree| t.stats().unwrap().nodes;
            device.live_blocks()
                - s.block_count()
                - tree_nodes(&s.primary)
                - tree_nodes(s.secondaries[&2].tree())
        };
        let keys_before = keys(&stored);
        assert_eq!(bucket_pages(&stored), 0, "a lone posting is inline");
        let taken: BTreeSet<u64> = stored
            .scan_all()
            .unwrap()
            .iter()
            .map(|t| t.digits()[2])
            .collect();
        let fresh: Vec<Tuple> = (0..4096u64)
            .filter(|v| !taken.contains(v))
            .take(300)
            .map(|v| Tuple::from([40 + v % 3, v % 64, v]))
            .collect();
        for t in &fresh {
            stored.insert(t).unwrap();
        }
        assert_eq!(keys(&stored), keys_before + fresh.len());
        assert_eq!(bucket_pages(&stored), 0, "bucket for a lone posting");
        for t in &fresh {
            stored.delete(t).unwrap();
        }
        assert_eq!(keys(&stored), keys_before, "dead tree keys");
        assert_eq!(bucket_pages(&stored), 0, "leaked bucket pages");
        let (rows, _) = stored.select_range(2, 0, 4095).unwrap();
        assert_eq!(rows.len(), 200);
    }

    #[test]
    fn postings_stay_exact_through_splits_and_deletes() {
        // A split moves the old block's postings instead of rebuilding
        // them: afterwards a value must list exactly the blocks that carry
        // it — a stale posting is wasted I/O, a missing one a lost row.
        let (_, _, mut stored) = setup(300, 128, CodingMode::AvqChained);
        stored.create_secondary_index(1).unwrap();
        let before = stored.block_count();
        for i in 0..120u64 {
            // Clustered inserts whose indexed value sometimes is new to the
            // block and sometimes is not.
            stored
                .insert(&Tuple::from([10 + i % 2, i % 9, i * 31 % 4096]))
                .unwrap();
            if i % 4 == 3 {
                let victim = stored.scan_all().unwrap()[(i as usize * 7) % 300].clone();
                stored.delete(&victim).unwrap();
            }
            let ctx = QueryCtx::default();
            for v in 0..64u64 {
                let carrying: Vec<BlockId> = {
                    let mut ids: Vec<BlockId> = stored
                        .blocks()
                        .iter()
                        .filter(|b| {
                            let rows = stored.read_block(b.id, &ctx).unwrap().unwrap();
                            rows.col(1).contains(&v)
                        })
                        .map(|b| b.id)
                        .collect();
                    ids.sort_unstable();
                    ids
                };
                assert_eq!(
                    stored.secondary_candidate_blocks(1, v, v).unwrap(),
                    carrying,
                    "value {v} after step {i}"
                );
            }
        }
        assert!(stored.block_count() > before, "splits happened");
    }

    #[test]
    fn block_read_trace_tree_is_pinned() {
        // The subtree `avqtool sql --trace` prints beneath a scan stage for
        // one block: a cold read from the device, a cold read out of the
        // buffer pool, and a warm one — names, nesting, attribute order.
        let (_, pool, stored) = setup(300, 256, CodingMode::AvqChained);
        let b = stored.blocks()[1].clone();
        let collector = avq_obs::TraceCollector::new(1, avq_obs::SamplingPolicy::Always);
        let ctx = QueryCtx::from(collector.begin());
        pool.clear();
        stored.clear_decoded_cache();
        stored.read_block(b.id, &ctx).unwrap().unwrap();
        stored.clear_decoded_cache();
        stored.read_block(b.id, &ctx).unwrap().unwrap();
        stored.read_block(b.id, &ctx).unwrap().unwrap();
        let text = collector.finish(ctx.trace).unwrap().render_text(true);
        let (header, tree) = text.split_once('\n').unwrap();
        assert!(header.ends_with("(5 spans, root -)"), "{header}");
        let (id, bytes, tuples) = (b.id, b.used_bytes, b.count);
        let decode = format!(
            "  -> avq.codec.decode_block (-) kernel=\"swar\" bytes={bytes} tuples={tuples}\n"
        );
        assert_eq!(
            tree,
            format!(
                "-> avq.db.block_read (-) block={id} cache_hit=false pool_hit=false\n{decode}\
                 -> avq.db.block_read (-) block={id} cache_hit=false pool_hit=true\n{decode}\
                 -> avq.db.block_read (-) block={id} cache_hit=true\n"
            )
        );
    }

    #[test]
    fn disabled_cache_still_scans_correctly() {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(64).unwrap()),
            ("b", Domain::uint(64).unwrap()),
            ("c", Domain::uint(4096).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..300u64)
            .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 64, (i * 29) % 4096]))
            .collect();
        let rel = Relation::from_tuples(schema, tuples).unwrap();
        let config = DbConfig {
            codec: avq_codec::CodecOptions {
                block_capacity: 256,
                ..Default::default()
            },
            decoded_cache_blocks: 0,
            ..Default::default()
        };
        let device = BlockDevice::new(256, config.disk);
        let pool = BufferPool::new(device.clone(), config.buffer_frames);
        let stored = StoredRelation::bulk_load(device, pool, &rel, config).unwrap();
        let a = stored.scan_all().unwrap();
        let b = stored.scan_all().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        let ctx = QueryCtx::default();
        let id = stored.blocks()[0].id;
        let first = stored.read_block(id, &ctx).unwrap().unwrap();
        let second = stored.read_block(id, &ctx).unwrap().unwrap();
        assert!(
            !Arc::ptr_eq(&first, &second),
            "nothing to share when disabled"
        );
        assert_eq!(first, second);
        assert_eq!(
            stored.decoded_stats(),
            avq_storage::PoolStats::default(),
            "disabled cache measures nothing"
        );
    }

    #[test]
    fn coded_beats_uncoded_on_blocks() {
        let (_, _, stored) = setup(2000, 256, CodingMode::AvqChained);
        let uncoded = uncoded_block_count(stored.schema(), 2000, 256);
        assert!(
            stored.block_count() < uncoded,
            "AVQ {} blocks must beat uncoded {} blocks",
            stored.block_count(),
            uncoded
        );
    }
}
