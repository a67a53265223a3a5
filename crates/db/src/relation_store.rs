//! A stored relation: coded data blocks + primary index + secondary indexes.
//!
//! This is the §4 system: tuples live in AVQ-coded blocks on the simulated
//! device; a primary B⁺-tree keyed on each block's serialized min tuple
//! routes point/range operations to blocks; secondary indexes with buckets
//! serve selections on non-clustering attributes; inserts and deletes
//! re-code only the affected block (splitting it when the coded form
//! outgrows the block, freeing it when emptied) and edit its resident
//! decoded batch in place.

use crate::config::{DbConfig, ScanPolicy};
use crate::cost::{CostTracker, QueryCost};
use crate::error::DbError;
use crate::query::{AccessPath, RangePredicate, Selection};
use crate::secondary::SecondaryIndex;
use crate::synopsis::{ColumnSynopsis, Synopsis};
#[cfg(test)]
use avq_codec::CodingMode;
use avq_codec::{
    delete_from_rows, insert_into_rows, BlockCodec, BlockPacker, CodecError, DecodeScratch, Section,
};
use avq_schema::{Relation, Schema, Tuple, TupleBatch};
use avq_storage::{BlockDevice, BlockId, BufferPool, DecodedCache, PoolStats, StorageError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use avq_codec::CodedRelation;
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
    /// Per-column min, max and ordinal sum, kept current by every write:
    /// what a cold read answers the block from without decoding it.
    pub synopsis: Synopsis,
}

impl StoredBlock {
    /// The bookkeeping of the non-empty φ-sorted run `run`, stored as
    /// `used_bytes` coded bytes in block `id`.
    fn of_tuples(id: BlockId, run: &[Tuple], used_bytes: usize) -> Self {
        StoredBlock {
            id,
            min: run[0].clone(),
            max: run[run.len() - 1].clone(),
            count: run.len(),
            used_bytes,
            synopsis: Synopsis::of_tuples(run),
        }
    }

    /// [`Self::of_tuples`] for a decoded block.
    fn of_batch(id: BlockId, rows: &TupleBatch, used_bytes: usize) -> Self {
        StoredBlock {
            id,
            min: rows.tuple(0),
            max: rows.tuple(rows.len() - 1),
            count: rows.len(),
            used_bytes,
            synopsis: Synopsis::of_batch(rows),
        }
    }

    /// Column `attr`'s min, max and ordinal sum over the block.
    pub fn column(&self, attr: usize) -> ColumnSynopsis {
        self.synopsis
            .column(attr, self.min.digits(), self.count as u64)
    }

    /// True iff every tuple of the block has the same value of `attr`.
    pub fn is_constant(&self, attr: usize) -> bool {
        let c = self.column(attr);
        c.min == c.max
    }
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
    /// The buffers a miss decodes into: a batch the decoded cache let go
    /// of, and one decode scratch. A read that evicts as it admits — one
    /// over more blocks than the cache holds — decodes each miss into the
    /// batch its previous miss evicted, so its steady state allocates only
    /// the hand-off. Taken with `try_lock`: a concurrent miss decodes into
    /// fresh buffers instead of waiting.
    spare: Mutex<Spare>,
    /// Blocks found unreadable or corrupt during policy-aware reads. Under
    /// [`ScanPolicy::SkipCorrupt`] these are skipped on later scans; each
    /// block is counted once in `avq_corrupt_blocks_total`.
    quarantined: Mutex<BTreeSet<BlockId>>,
    blocks: Vec<StoredBlock>,
    primary: BPlusTree,
    secondaries: BTreeMap<usize, SecondaryIndex>,
    tuple_count: usize,
}

/// The one-tuple edit that made a block outgrow its capacity.
#[derive(Debug, Clone, Copy)]
enum Overflow<'t> {
    /// The tuple was inserted.
    Inserted(&'t Tuple),
    /// The tuple was deleted, and the re-code of the rest grew: a chain
    /// difference or the representative's distances widened.
    Deleted(&'t Tuple),
}

/// [`StoredRelation`]'s reusable decode buffers.
#[derive(Debug, Default)]
struct Spare {
    batch: Option<TupleBatch>,
    scratch: DecodeScratch,
}

/// The served blocks of one [`StoredRelation::read_blocks`] call, in the
/// order asked for: each item is a block's id and its shared decoded batch,
/// or the error that ends the read. [`Self::next_or_synopsis`] serves the
/// same blocks, some of them as their synopses.
#[derive(Debug)]
pub struct BlockReads<'a, I> {
    rel: &'a StoredRelation,
    ids: I,
    ctx: QueryCtx,
    /// Admit decoded blocks at the decoded cache's cold end, and answer the
    /// blocks a caller accepts from their synopses.
    cold: bool,
    /// Where the next block's bookkeeping is looked for first.
    at: usize,
}

/// One block served by [`BlockReads::next_or_synopsis`].
#[derive(Debug)]
pub enum Served<'a> {
    /// The block's rows, decoded or resident.
    Rows(Arc<TupleBatch>),
    /// The block's bookkeeping: the read answered it from its synopsis
    /// without decoding it.
    Synopsis(&'a StoredBlock),
}

impl<'a, I: Iterator<Item = BlockId>> BlockReads<'a, I> {
    /// The next served block, as [`Iterator::next`] serves it — except that
    /// a read of more blocks than the decoded cache holds serves a block
    /// `answers` (when given) accepts as [`Served::Synopsis`]. Such a block is polled,
    /// skipped when quarantined, and read through the pool with the same
    /// retries as any other, but neither decoded nor checked, neither
    /// looked up in nor admitted to the decoded cache, and charged its
    /// tuples but no decoded bytes and no t₂. A read that fits the cache
    /// answers nothing: the block it decodes stays resident for the next
    /// statement.
    ///
    /// The bookkeeping is found in one comparison when the ids come in φ
    /// order, as a full scan's do; any other order searches the block list.
    pub fn next_or_synopsis(
        &mut self,
        answers: Option<&dyn Fn(&StoredBlock) -> bool>,
    ) -> Option<Result<(BlockId, Served<'a>), DbError>> {
        let rel = self.rel;
        for id in self.ids.by_ref() {
            let answered = match answers {
                Some(answers) if self.cold => {
                    rel.find_block(id, self.at).filter(|(_, b)| answers(b))
                }
                _ => None,
            };
            let served = match answered {
                Some((pos, b)) => {
                    self.at = pos + 1;
                    rel.answer(b, &self.ctx)
                }
                None => rel
                    .serve(id, &self.ctx, self.cold, &mut self.at)
                    .map(|ok| ok.map(Served::Rows)),
            };
            match served {
                Ok(Some(s)) => return Some(Ok((id, s))),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
        }
        None
    }
}

impl<I: Iterator<Item = BlockId>> Iterator for BlockReads<'_, I> {
    type Item = Result<(BlockId, Arc<TupleBatch>), DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            return match self.next_or_synopsis(None)? {
                Ok((id, Served::Rows(run))) => Some(Ok((id, run))),
                // Answers nothing, so every block comes as rows.
                Ok((_, Served::Synopsis(_))) => continue,
                Err(e) => Some(Err(e)),
            };
        }
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
        for r in ranges {
            let run = &tuples[r];
            let coded = codec.encode(run)?;
            let id = device.allocate()?;
            pool.write(id, &coded)?;
            blocks.push(StoredBlock::of_tuples(id, run, coded.len()));
        }
        Self::assemble(device, pool, schema, codec, config, blocks)
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
        let schema = coded.schema().clone();
        let codec =
            BlockCodec::with_options(schema.clone(), opts.mode, opts.rep).with_kernel(opts.kernel);
        // Each block is decoded once, into one reused batch, for its
        // bookkeeping; its coded size is the length of its bytes.
        let mut rows = TupleBatch::new(schema.arity());
        let mut scratch = DecodeScratch::new();
        let mut blocks = Vec::with_capacity(coded.block_count());
        for bytes in coded.blocks() {
            let id = device.allocate()?;
            pool.write(id, bytes)?;
            rows.clear();
            codec.decode_batch_into(bytes, &mut rows, &mut scratch)?;
            debug_assert!(!rows.is_empty());
            blocks.push(StoredBlock::of_batch(id, &rows, bytes.len()));
        }
        Self::assemble(device, pool, schema, codec, config, blocks)
    }

    /// Assembles a stored relation from its already-written data blocks'
    /// bookkeeping, in φ order, and bulk-builds the primary index.
    fn assemble(
        device: Arc<BlockDevice>,
        pool: Arc<BufferPool>,
        schema: Arc<Schema>,
        codec: BlockCodec,
        config: DbConfig,
        blocks: Vec<StoredBlock>,
    ) -> Result<Self, DbError> {
        let mut keys: Vec<(Vec<u8>, u64)> = blocks
            .iter()
            .map(|b| (block_key(&schema, b), b.id as u64))
            .collect();
        // Blocks that share a min are in id order in the tree, not φ order.
        keys.sort_unstable();
        let tuple_count = blocks.iter().map(|b| b.count).sum();
        let primary = BPlusTree::bulk_build(pool.clone(), config.index_order, &keys)?;
        Ok(StoredRelation {
            schema,
            codec,
            device,
            pool,
            decoded: DecodedCache::new(config.decoded_cache_blocks),
            spare: Mutex::default(),
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

    /// Bytes of the blocks' synopsis records: 24 per column past each
    /// block's constant prefix.
    pub fn synopsis_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.synopsis.bytes()).sum()
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
    ///    query's remaining deadline), decodes, checks the rows against the
    ///    block's bookkeeping (and φ order, in a mode whose decode does not
    ///    guarantee it: [`avq_codec::CodingMode::orders_by_construction`]) and caches the
    ///    batch. When `ctx.trace` is recording this runs under an
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
        self.serve(id, ctx, false, &mut 0)
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
            at: 0,
        }
    }

    /// The position and bookkeeping of block `id`, looked for at `at`
    /// first — one comparison when reads come in φ order — and otherwise
    /// searched for. Only a cold read's synopsis answers look blocks up
    /// by id alone, and those reads are full scans, in φ order; a miss
    /// finds its bookkeeping by its first row ([`Self::bookkeeping_of`]).
    fn find_block(&self, id: BlockId, at: usize) -> Option<(usize, &StoredBlock)> {
        let pos = match self.blocks.get(at) {
            Some(b) if b.id == id => at,
            _ => self.blocks.iter().position(|b| b.id == id)?,
        };
        self.blocks.get(pos).map(|b| (pos, b))
    }

    /// The position and bookkeeping of block `id`, whose decoded rows are
    /// `run`: looked for at `at` first — one comparison when reads come in
    /// φ order — and otherwise by binary search on `run`'s first row, which
    /// is the block's recorded min unless the bytes were damaged. So a miss
    /// in any order costs O(log blocks) comparisons, not a search of the
    /// block list. `None` when no block with that id has that min: the
    /// fence reports it.
    fn bookkeeping_of(
        &self,
        id: BlockId,
        run: &TupleBatch,
        at: usize,
    ) -> Option<(usize, &StoredBlock)> {
        if let Some(b) = self.blocks.get(at).filter(|b| b.id == id) {
            return Some((at, b));
        }
        if run.is_empty() {
            return None;
        }
        let first = |b: &StoredBlock| run.cmp_row(0, b.min.digits());
        let from = self.blocks.partition_point(|b| first(b).is_gt());
        // Blocks of a multiset may share a min; they sit together.
        let same_min = self.blocks.get(from..)?.iter();
        let k = same_min
            .take_while(|b| first(b).is_eq())
            .position(|b| b.id == id)?;
        self.blocks.get(from + k).map(|b| (from + k, b))
    }

    /// [`Self::read_block`]'s steps, admitting a decoded block at the cold
    /// end when `cold`. `at` is where block `id`'s bookkeeping is looked
    /// for first; it moves past the block when found, so the next block of
    /// a φ-ordered read is found in one comparison.
    fn serve(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
        cold: bool,
        at: &mut usize,
    ) -> Result<Option<Arc<TupleBatch>>, DbError> {
        self.guarded(id, ctx, || {
            let (run, decoded_bytes) = self.serve_block(id, ctx, cold, at)?;
            ctx.gov.charge_decoded(decoded_bytes, run.len() as u64);
            self.charge_cpu(1);
            Ok(run)
        })
    }

    /// Serves `block` from its synopsis (see
    /// [`BlockReads::next_or_synopsis`]): steps 1, 2 and 4 of
    /// [`Self::read_block`], and of step 3 only the pool read. Under an
    /// `avq.db.block_read` span marked `synopsis=true`.
    fn answer<'b>(
        &self,
        block: &'b StoredBlock,
        ctx: &QueryCtx,
    ) -> Result<Option<Served<'b>>, DbError> {
        self.guarded(block.id, ctx, || {
            let guard = ctx.trace.span(names::SPAN_DB_BLOCK_READ);
            if guard.is_recording() {
                guard.attr(names::ATTR_BLOCK, block.id);
                guard.attr(names::ATTR_SYNOPSIS, true);
            }
            self.fetch(block.id, ctx, &guard)?;
            avq_obs::counter!(names::DB_SYNOPSIS_BLOCKS).inc();
            ctx.gov.charge_decoded(0, block.count as u64);
            Ok(Served::Synopsis(block))
        })
    }

    /// Steps 1 and 2 of [`Self::read_block`] around `fetch`, which serves
    /// block `id` and charges it.
    fn guarded<T>(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
        fetch: impl FnOnce() -> Result<T, DbError>,
    ) -> Result<Option<T>, DbError> {
        ctx.gov.poll()?;
        let skip = self.config.scan_policy == ScanPolicy::SkipCorrupt;
        if skip && self.is_quarantined(id) {
            return Ok(None);
        }
        match fetch() {
            Ok(served) => Ok(Some(served)),
            Err(e) if skip && is_block_corruption(&e) => {
                self.quarantine(id);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads block `id`'s coded bytes through the pool, retries clamped to
    /// the query's remaining deadline, and marks on `guard` whether the
    /// pool held them.
    fn fetch(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
        guard: &avq_obs::TraceSpanGuard,
    ) -> Result<Arc<Vec<u8>>, DbError> {
        let pool_before = guard.is_recording().then(|| self.pool.stats());
        let retry = match ctx.gov.remaining_ms() {
            Some(rem) => self.config.retry.clamped_to_ms(rem),
            None => self.config.retry,
        };
        let bytes = self.pool.read_with_retry(id, retry)?;
        if let Some(before) = pool_before {
            let served_from_pool = self.pool.stats().since(&before).hits > 0;
            guard.attr(names::ATTR_POOL_HIT, served_from_pool);
        }
        Ok(bytes)
    }

    /// Step 3 of [`Self::read_block`]: the batch, and the coded bytes
    /// decoded to produce it (0 on a decoded-cache hit).
    fn serve_block(
        &self,
        id: BlockId,
        ctx: &QueryCtx,
        cold: bool,
        at: &mut usize,
    ) -> Result<(Arc<TupleBatch>, u64), DbError> {
        let guard = ctx.trace.span(names::SPAN_DB_BLOCK_READ);
        if guard.is_recording() {
            guard.attr(names::ATTR_BLOCK, id);
        }
        if let Some(run) = self.decoded.get(id) {
            if guard.is_recording() {
                guard.attr(names::ATTR_CACHE_HIT, true);
            }
            // A hit needs no bookkeeping; keep the hint in step, but do not
            // search for it.
            if self.blocks.get(*at).is_some_and(|b| b.id == id) {
                *at += 1;
            }
            return Ok((run, 0));
        }
        if guard.is_recording() {
            guard.attr(names::ATTR_CACHE_HIT, false);
        }
        let bytes = self.fetch(id, ctx, &guard)?;
        let run = Arc::new(self.decode_checked(id, at, &bytes, &ctx.trace)?);
        self.admit(id, run.clone(), cold);
        Ok((run, bytes.len() as u64))
    }

    /// Decodes `bytes`, block `id`'s coded bytes, and checks the rows
    /// against its bookkeeping, under an `avq.codec.decode_block` span
    /// when `trace` is recording. The bookkeeping is looked for at `*at`
    /// first ([`Self::bookkeeping_of`]), and `*at` moves past it. The
    /// decode goes into the spare buffers when they are free.
    ///
    /// What a miss verifies, beyond the decode's own checks (every digit
    /// in range, no carry out of the leading digit, the stream not
    /// truncated):
    ///
    /// - **Bookkeeping, every mode, O(arity).** The rows number the
    ///   block's recorded count, and the first and last are its recorded
    ///   min and max ([`check_bookkeeping`]).
    /// - **φ order, where the decode does not guarantee it.** A chained
    ///   block that decodes is φ-sorted by construction
    ///   ([`avq_codec::CodingMode::orders_by_construction`]), so only
    ///   basic AVQ and field-wise rows are walked ([`check_phi_order`]).
    ///
    /// In the chained modes a single damaged entry that still decodes
    /// moves the running sum, and with it the last row or the first, so the
    /// fence turns a silent wrong read into a typed error. Damage to two
    /// entries that cancels out (one difference up by δ, the next down by
    /// δ) keeps the count, min, max and order and still reads as other
    /// rows. Basic AVQ and field-wise code rows independently: a flip
    /// inside an interior row that keeps the order still reads as other
    /// rows. A per-page checksum is what closes both.
    fn decode_checked(
        &self,
        id: BlockId,
        at: &mut usize,
        bytes: &[u8],
        trace: &avq_obs::TraceCtx,
    ) -> Result<TupleBatch, DbError> {
        let arity = self.schema.arity();
        let mut spare = self.spare.try_lock().ok();
        let mut fresh = DecodeScratch::new();
        let (mut run, scratch) = match spare.as_deref_mut() {
            Some(Spare { batch, scratch }) => (batch.take().unwrap_or_default(), scratch),
            None => (TupleBatch::default(), &mut fresh),
        };
        run.reset(arity);
        {
            let guard = trace.span(names::SPAN_CODEC_DECODE_BLOCK);
            let decoded = self.codec.decode_batch_into(bytes, &mut run, scratch);
            if guard.is_recording() {
                guard.attr(names::ATTR_KERNEL, self.codec.kernel().to_string());
                guard.attr(names::ATTR_BYTES, bytes.len());
                guard.attr(names::ATTR_TUPLES, run.len());
            }
            decoded?;
        }
        let block = self.bookkeeping_of(id, &run, *at).map(|(pos, b)| {
            *at = pos + 1;
            b
        });
        check_bookkeeping(id, &run, block)?;
        if self.codec.mode().orders_by_construction() {
            debug_assert!(run.is_sorted(), "a chained decode came out of φ order");
        } else {
            check_phi_order(&run)?;
        }
        Ok(run)
    }

    /// Caches `run` as block `id` (at the cold end when `cold`). A batch
    /// the insert displaces becomes the next spare when nothing else holds
    /// it.
    fn admit(&self, id: BlockId, run: Arc<TupleBatch>, cold: bool) {
        let displaced = if cold {
            self.decoded.insert_cold(id, run)
        } else {
            self.decoded.insert(id, run)
        };
        if let Some(batch) = displaced.and_then(|b| Arc::try_unwrap(b).ok()) {
            if let Ok(mut spare) = self.spare.try_lock() {
                spare.batch.get_or_insert(batch);
            }
        }
    }

    /// The write path's block read: the coded bytes a splice edits and the
    /// decoded rows it navigates by and then edits in place. A resident
    /// batch is taken out of the decoded cache — a warm block is not
    /// decoded to be written, and the edit copies nothing unless a reader
    /// still holds the batch — and on a miss the rows are decoded, fully
    /// verified, from exactly the bytes returned. The edited batch goes
    /// back through [`Self::admit`]; a failed write leaves the block out of
    /// the cache. Mutations run outside any query budget or trace.
    fn take_for_update(&self, bidx: usize) -> Result<(Arc<Vec<u8>>, Arc<TupleBatch>), DbError> {
        let block = &self.blocks[bidx];
        let bytes = self.pool.read(block.id)?;
        let rows = match self.decoded.take(block.id) {
            Some(rows) => rows,
            None => Arc::new(self.decode_checked(
                block.id,
                &mut { bidx },
                &bytes,
                &avq_obs::TraceCtx::disabled(),
            )?),
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

    /// The relation as its coded blocks, in φ order, exactly as the pool
    /// holds them: what a checkpoint writes. Each block is read through
    /// the pool with the configured retry policy — a quarantined block too,
    /// under either [`ScanPolicy`] — and the whole is validated as the
    /// snapshot reader validates a file
    /// ([`CodedRelation::from_blocks`]: every block decodes, φ-sorted
    /// within and across blocks), then against this store's bookkeeping:
    /// each block's tuple count, min and max, and so the block and tuple
    /// totals, must be what the store records. A damaged block fails with
    /// a typed error instead of being left out.
    pub fn coded_relation(&self) -> Result<CodedRelation, DbError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            blocks.push(self.pool.read_with_retry(b.id, self.config.retry)?.to_vec());
        }
        let coded = CodedRelation::from_blocks(self.schema.clone(), self.config.codec, blocks)?;
        let disagrees = |(m, b): (&avq_codec::BlockMeta, &StoredBlock)| {
            (m.tuple_count, &m.min, &m.max) != (b.count, &b.min, &b.max)
        };
        if let Some(i) = coded.metas().iter().zip(&self.blocks).position(disagrees) {
            return Err(DbError::Durability {
                detail: format!(
                    "block {} decodes to other tuples than the store records",
                    self.blocks[i].id
                ),
            });
        }
        debug_assert_eq!(coded.tuple_count(), self.tuple_count);
        Ok(coded)
    }

    /// The secondary index on `attr`, if there is one.
    pub fn secondary_index(&self, attr: usize) -> Option<&SecondaryIndex> {
        self.secondaries.get(&attr)
    }

    /// Point lookup: is `tuple` stored? Routes through the primary index
    /// (whole-tuple search key, §4.1) and decodes one block.
    pub fn contains(&self, tuple: &Tuple) -> Result<(bool, QueryCost), DbError> {
        self.schema.validate_tuple(tuple)?;
        let mut tracker = CostTracker::new(&self.device);
        let key = probe_key(&self.schema, tuple, u8::MAX);
        let hit = self.primary.floor_with(&key, |_, block| block)?;
        tracker.end_index_phase();
        let found = match hit {
            None => false,
            Some(block) => {
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

    /// Executes §5.3's `σ_{lo ≤ A_attr ≤ hi}` and returns the matching
    /// tuples with the measured cost. The path is the one the paper's
    /// figures measure, not a priced choice: attribute 0 is the clustering
    /// prefix of the φ order and is served by the primary index; another
    /// attribute reads through its secondary index when one exists, and
    /// otherwise every block is scanned.
    pub fn select_range(
        &self,
        attr: usize,
        lo: u64,
        hi: u64,
    ) -> Result<(Vec<Tuple>, QueryCost), DbError> {
        let path = if attr == 0 {
            AccessPath::ClusteredRange
        } else if self.has_secondary_index(attr) {
            AccessPath::SecondaryIndex { attr }
        } else {
            AccessPath::FullScan
        };
        self.select_through(&Selection::all().and(RangePredicate { attr, lo, hi }), path)
    }

    /// Candidate blocks for a clustered-range scan: the contiguous run of
    /// blocks whose `[min, max]` meets the φ-interval `prefix` spans (see
    /// [`Selection::clustered_prefix`]; [`Self::candidate_blocks`] has
    /// answered a contradiction already), found via the primary index. The
    /// interval's two probe keys share one buffer and index entries are
    /// read in place, so besides the returned vector that buffer is the
    /// one allocation.
    pub(crate) fn clustered_candidates(
        &self,
        prefix: &[RangePredicate],
    ) -> Result<Vec<BlockId>, DbError> {
        let radices = self.schema.radix().radices();
        let prefix = &prefix[..prefix.len().min(radices.len())];
        if (prefix.iter().zip(radices)).any(|(p, &size)| p.lo >= size) {
            return Ok(Vec::new());
        }
        if self.blocks.is_empty() {
            return Ok(Vec::new());
        }
        // The interval's ends: the prefix's bounds, then every later digit
        // at its least (`lo`) or greatest (`hi`) value, written as probe
        // keys (`write_row`'s fixed-width big-endian digits, then the pad).
        let m = self.schema.tuple_bytes();
        let mut keys = Vec::with_capacity(2 * (m + KEY_SUFFIX));
        for (end, pad) in [(0, 0), (1, u8::MAX)] {
            for (attr, (&width, &size)) in self.schema.byte_widths().iter().zip(radices).enumerate()
            {
                let digit = match (prefix.get(attr), end) {
                    (Some(p), 0) => p.lo,
                    (Some(p), _) => p.hi.min(size - 1),
                    (None, 0) => 0,
                    (None, _) => size - 1,
                };
                keys.extend_from_slice(&digit.to_be_bytes()[8 - width..]);
            }
            keys.resize(keys.len() + KEY_SUFFIX, pad);
        }
        let (lo_key, hi_key) = keys.split_at(m + KEY_SUFFIX);
        // `t < lo` for a full tuple `t`: `lo` is the prefix's lower bounds
        // followed by zeros, so only the prefix decides.
        let below_lo = |t: &Tuple| t.digits().iter().lt(prefix.iter().map(|p| &p.lo));

        let mut out = Vec::new();
        // The block whose run the interval starts in — its min may precede
        // the interval — unless that run ends before the interval does: a
        // block whose key holds no spread is all one tuple, below `lo`, and
        // a spread one is the φ-last block with a min below `lo`.
        let floor = self.primary.floor_with(lo_key, |key, block| {
            let below = key.get(..m) < lo_key.get(..m);
            (block as BlockId, below, key.get(m) == Some(&0))
        })?;
        if let Some((block, below, single)) = floor {
            let before = self.blocks.partition_point(|b| below_lo(&b.min));
            let ends_before = below
                && (single
                    || self.blocks[..before]
                        .last()
                        .is_some_and(|b| b.id == block && below_lo(&b.max)));
            if !ends_before {
                out.push(block);
            }
        }
        // Blocks whose min lies inside the interval.
        self.primary.range_each(lo_key, hi_key, |_, block| {
            let block = block as BlockId;
            if out.last() != Some(&block) {
                out.push(block);
            }
            Ok(())
        })?;
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
    /// into the block's decoded batch in place; when the coded form no
    /// longer fits, the block is split.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<(), DbError> {
        self.schema.validate_tuple(tuple)?;
        let Some(bidx) = self.route(tuple) else {
            // First tuple of an empty relation.
            let coded = self.codec.encode(std::slice::from_ref(tuple))?;
            let id = self.device.allocate()?;
            self.pool.write(id, &coded)?;
            let block = StoredBlock::of_tuples(id, std::slice::from_ref(tuple), coded.len());
            self.primary
                .insert(&block_key(&self.schema, &block), id as u64)?;
            self.blocks.push(block);
            for idx in self.secondaries.values_mut() {
                idx.add_posting(tuple.digits()[idx.attribute()], id)?;
            }
            self.tuple_count += 1;
            return Ok(());
        };

        let id = self.blocks[bidx].id;
        let (bytes, mut rows) = self.take_for_update(bidx)?;
        let capacity = self.config.codec.block_capacity;
        let spliced = insert_into_rows(&self.codec, &bytes, &rows, tuple, capacity)?;
        match spliced.bytes {
            Some(coded) => {
                self.pool.write(id, &coded)?;
                Arc::make_mut(&mut rows).insert_row(spliced.pos, tuple.digits());
                self.admit(id, rows, false);
                let b = &mut self.blocks[bidx];
                let (min, max) = (b.min.digits(), b.max.digits());
                b.synopsis.insert(tuple.digits(), min, max, b.count as u64);
                b.count += 1;
                b.used_bytes = coded.len();
                let spread = b.min != b.max;
                let old_key = (*tuple < b.min).then(|| block_key(&self.schema, b));
                if *tuple < b.min {
                    b.min = tuple.clone();
                }
                if *tuple > b.max {
                    b.max = tuple.clone();
                }
                self.rekey(bidx, old_key, spread)?;
                for idx in self.secondaries.values_mut() {
                    idx.add_posting(tuple.digits()[idx.attribute()], id)?;
                }
            }
            None => {
                let mut tuples = rows.to_tuples();
                tuples.insert(spliced.pos, tuple.clone());
                self.split_block(bidx, &tuples, Overflow::Inserted(tuple))?;
            }
        }
        self.tuple_count += 1;
        Ok(())
    }

    /// Re-keys block `bidx` in the primary index after a write that kept
    /// it: `old_key` is its key from before the write when the write moved
    /// its min, and `spread` whether it held two distinct tuples before.
    /// The key changes only when the min or the spread did.
    fn rekey(
        &mut self,
        bidx: usize,
        old_key: Option<Vec<u8>>,
        spread: bool,
    ) -> Result<(), DbError> {
        let b = &self.blocks[bidx];
        let old_key = match old_key {
            Some(key) => key,
            None if (b.min != b.max) != spread => key_of(&self.schema, &b.min, spread, b.id),
            None => return Ok(()),
        };
        self.primary.delete(&old_key)?;
        self.primary
            .insert(&block_key(&self.schema, b), b.id as u64)?;
        Ok(())
    }

    /// Re-packs an overflowing block's tuples — its old ones with the
    /// `edit` applied — into as many blocks as needed, reusing the original
    /// block id for the first run. Runs under an `avq.db.split` span whose
    /// attributes, and the counters of the same names, are the secondary
    /// postings re-pointed and the index leaves their batch pass wrote.
    fn split_block(
        &mut self,
        bidx: usize,
        tuples: &[Tuple],
        edit: Overflow<'_>,
    ) -> Result<(), DbError> {
        let span = avq_obs::span!(names::SPAN_DB_SPLIT);
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
            let block = StoredBlock::of_tuples(id, run, coded.len());
            let key = block_key(&self.schema, &block);
            if i > 0 {
                self.primary.insert(&key, id as u64)?;
            } else if key != block_key(&self.schema, &old) {
                self.primary.delete(&block_key(&self.schema, &old))?;
                self.primary.insert(&key, id as u64)?;
            }
            new_blocks.push(block);
        }
        // The first run kept `old.id`, so its postings stay; each index gets
        // the postings of the other runs as one sorted batch, and re-points
        // a value that left the first run entirely in its tree's batch pass
        // (see `SecondaryIndex::split_postings`). An inserted tuple's own
        // posting, which the old block never had, is added when the tuple
        // stayed; a deleted tuple's is dropped when no run carries its
        // value any more.
        let (kept_run, moved_runs) = tuples.split_at(new_blocks[0].count);
        let (mut kept, mut moved) = (Vec::new(), Vec::new());
        let (mut postings, mut leaf_writes) = (0, 0);
        for idx in self.secondaries.values_mut() {
            let attr = idx.attribute();
            kept.clear();
            kept.extend(kept_run.iter().map(|t| t.digits()[attr]));
            kept.sort_unstable();
            kept.dedup();
            moved.clear();
            let mut rest = moved_runs;
            for b in &new_blocks[1..] {
                let (run, tail) = rest.split_at(b.count);
                rest = tail;
                moved.extend(run.iter().map(|t| Posting {
                    value: t.digits()[attr],
                    block: b.id,
                }));
            }
            moved.sort_unstable();
            moved.dedup();
            let done = idx.split_postings(old.id, &kept, &moved)?;
            postings += done.repointed;
            leaf_writes += done.leaf_writes;
            match edit {
                Overflow::Inserted(t) if kept.binary_search(&t.digits()[attr]).is_ok() => {
                    idx.add_posting(t.digits()[attr], old.id)?;
                }
                Overflow::Deleted(t) => {
                    let v = t.digits()[attr];
                    let carried = kept.binary_search(&v).is_ok()
                        || moved.binary_search_by_key(&v, |p| p.value).is_ok();
                    if !carried {
                        idx.remove_posting(v, old.id)?;
                    }
                }
                Overflow::Inserted(_) => {}
            }
        }
        self.blocks.splice(bidx..bidx + 1, new_blocks);
        span.attr(names::ATTR_POSTINGS, postings as u64);
        span.attr(names::ATTR_LEAF_WRITES, leaf_writes as u64);
        avq_obs::counter!(names::DB_SPLIT_POSTINGS).add(postings as u64);
        avq_obs::counter!(names::DB_SPLIT_LEAF_WRITES).add(leaf_writes as u64);
        Ok(())
    }

    /// Deletes one occurrence of `tuple`: spliced out of the affected
    /// block's coded bytes and out of its decoded batch in place — which
    /// then also answers what the block's new bounds are and whether it
    /// still carries the tuple's secondary-index values. A block whose
    /// re-code outgrows its capacity (removing a tuple can widen a chain
    /// difference, or move the representative) is split as an overflowing
    /// insert's is.
    pub fn delete(&mut self, tuple: &Tuple) -> Result<(), DbError> {
        self.schema.validate_tuple(tuple)?;
        let Some(bidx) = self.route(tuple) else {
            return Err(DbError::TupleNotFound);
        };
        let (id, min, max) = {
            let b = &self.blocks[bidx];
            (b.id, &b.min, &b.max)
        };
        if tuple < min || tuple > max {
            return Err(DbError::TupleNotFound);
        }
        let (bytes, mut rows) = self.take_for_update(bidx)?;
        let spliced = delete_from_rows(&self.codec, &bytes, &rows, tuple)?;
        match spliced.bytes {
            None => {
                self.primary
                    .delete(&block_key(&self.schema, &self.blocks[bidx]))?;
                for idx in self.secondaries.values_mut() {
                    idx.remove_posting(tuple.digits()[idx.attribute()], id)?;
                }
                self.pool.invalidate(id);
                self.device.free(id)?;
                self.blocks.remove(bidx);
            }
            Some(coded) if coded.len() > self.config.codec.block_capacity => {
                let mut remaining = rows.to_tuples();
                remaining.remove(spliced.pos);
                self.split_block(bidx, &remaining, Overflow::Deleted(tuple))?;
            }
            Some(coded) => {
                self.pool.write(id, &coded)?;
                Arc::make_mut(&mut rows).remove_row(spliced.pos);
                let b = &mut self.blocks[bidx];
                b.synopsis.delete(tuple.digits(), &rows);
                b.count -= 1;
                b.used_bytes = coded.len();
                let spread = b.min != b.max;
                let old_key = rows
                    .cmp_row(0, b.min.digits())
                    .is_ne()
                    .then(|| block_key(&self.schema, b));
                if old_key.is_some() {
                    b.min = rows.tuple(0);
                }
                let last = rows.len() - 1;
                if rows.cmp_row(last, b.max.digits()).is_ne() {
                    b.max = rows.tuple(last);
                }
                for idx in self.secondaries.values_mut() {
                    let attr = idx.attribute();
                    let v = tuple.digits()[attr];
                    if !rows.col(attr).contains(&v) {
                        idx.remove_posting(v, id)?;
                    }
                }
                self.admit(id, rows, false);
                self.rekey(bidx, old_key, spread)?;
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

/// The fence every decoded-cache miss passes, in O(arity): block `id`'s
/// decoded rows must be what its bookkeeping `block` records — the tuple
/// count, the min as the first row and the max as the last. Bytes that were
/// damaged and still decode to other rows fail it with a typed
/// `Corrupt { section: Section::Bookkeeping }`, which [`ScanPolicy::SkipCorrupt`]
/// quarantines. So does a block with no bookkeeping, `None`: no block of
/// its id has its first decoded row as min.
fn check_bookkeeping(
    id: BlockId,
    run: &TupleBatch,
    block: Option<&StoredBlock>,
) -> Result<(), DbError> {
    let agrees = block.is_some_and(|b| {
        run.len() == b.count
            && run.len().checked_sub(1).is_some_and(|last| {
                run.cmp_row(0, b.min.digits()).is_eq() && run.cmp_row(last, b.max.digits()).is_eq()
            })
    });
    if agrees {
        return Ok(());
    }
    let detail = match block {
        Some(b) => format!(
            "block {id} decodes to {} rows that disagree with its bookkeeping ({} rows, min, max)",
            run.len(),
            b.count
        ),
        None => format!("block {id} has no bookkeeping with its first decoded row as min"),
    };
    Err(DbError::Codec(CodecError::Corrupt {
        section: Section::Bookkeeping,
        offset: 0,
        detail,
    }))
}

/// A decoded run must be φ-sorted: block coding stores tuples in φ order,
/// so an out-of-order run means the bytes were silently damaged in a way
/// that still parsed (e.g. a bit flip inside an RLE count). Checked on a
/// cache-miss decode in the modes whose decode does not order the rows by
/// construction — O(n) over the rows.
fn check_phi_order(run: &TupleBatch) -> Result<(), DbError> {
    if !run.is_sorted() {
        return Err(DbError::Codec(CodecError::Corrupt {
            section: Section::Order,
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

/// Bytes a primary-index key adds after the serialized min: the spread
/// byte and the block id.
const KEY_SUFFIX: usize = 5;

/// The primary-index key of block `b`: its min tuple's fixed-width
/// serialization (byte order = φ order), one spread byte that is 1 when the
/// block holds more than one distinct tuple, and the block id, big-endian.
///
/// A bag can fill several blocks with copies of one tuple, so blocks may
/// share a min; the id keeps their keys apart. Of the blocks that share a
/// min only the φ-last can hold a larger tuple (the ones before it end at
/// that min), and the spread byte sorts it after the others, so the floor
/// of a probe past the min finds it, and a key-order walk over the blocks
/// yields their tuples in φ order.
fn block_key(schema: &Schema, b: &StoredBlock) -> Vec<u8> {
    key_of(schema, &b.min, b.min != b.max, b.id)
}

/// [`block_key`] from its parts.
fn key_of(schema: &Schema, min: &Tuple, spread: bool, id: BlockId) -> Vec<u8> {
    let mut key = Vec::with_capacity(schema.tuple_bytes() + KEY_SUFFIX);
    schema.write_tuple(min, &mut key);
    key.push(u8::from(spread));
    key.extend_from_slice(&id.to_be_bytes());
    key
}

/// A probe for the keys of blocks whose min is `tuple`: below all of them
/// when `pad` is 0, above all of them when it is `u8::MAX`.
fn probe_key(schema: &Schema, tuple: &Tuple, pad: u8) -> Vec<u8> {
    let mut key = Vec::with_capacity(schema.tuple_bytes() + KEY_SUFFIX);
    schema.write_tuple(tuple, &mut key);
    key.resize(key.len() + KEY_SUFFIX, pad);
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
                        assert_eq!(b.synopsis, Synopsis::of_batch(&fresh), "{mode} step {step}");
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
    fn a_miss_out_of_phi_order_finds_its_bookkeeping() {
        // A bag whose leading copies fill several blocks that share a min,
        // read back to front: no block's bookkeeping sits at the read's
        // hint, so every miss finds it by its first row.
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(64).unwrap()),
            ("b", Domain::uint(64).unwrap()),
            ("c", Domain::uint(4096).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..900u64)
            .map(|i| Tuple::from([(i * 7) % 64, (i * 13) % 64, (i * 29) % 4096]))
            .chain((0..600).map(|_| Tuple::from([0, 0, 0])))
            .collect();
        let rel = Relation::from_tuples(schema, tuples).unwrap();
        let config = DbConfig {
            codec: avq_codec::CodecOptions {
                block_capacity: 256,
                ..Default::default()
            },
            ..Default::default()
        };
        let device = BlockDevice::new(256, config.disk);
        let pool = BufferPool::new(device.clone(), config.buffer_frames);
        let stored = StoredRelation::bulk_load(device, pool, &rel, config).unwrap();
        let blocks = stored.blocks();
        assert!(blocks.windows(2).any(|w| w[0].min == w[1].min));
        let ctx = QueryCtx::default();
        let reversed: Vec<BlockId> = blocks.iter().rev().map(|b| b.id).collect();
        for served in stored.read_blocks(reversed.iter().copied(), &ctx) {
            let (id, run) = served.unwrap();
            let b = blocks.iter().find(|b| b.id == id).unwrap();
            assert_eq!((run.len(), run.tuple(0)), (b.count, b.min.clone()));
        }
        stored.clear_decoded_cache();
        for &id in &reversed {
            stored.read_block(id, &ctx).unwrap().unwrap();
        }
        assert_eq!(stored.decoded_stats().misses, 2 * reversed.len() as u64);
    }

    #[test]
    fn a_delete_whose_recode_outgrows_the_block_splits_it() {
        // Representative coding stores each tuple's φ-distance from the
        // block's median; deleting a tuple can move the median to where
        // those distances are wider, and the re-code then overflows. The
        // delete splits the block instead of failing the write.
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(8).unwrap()),
            ("b", Domain::uint(64).unwrap()),
            ("c", Domain::uint(1 << 62).unwrap()),
        ])
        .unwrap();
        let huge = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2;
        let mut model: Vec<Tuple> = (0..400u64)
            .map(|i| {
                Tuple::from([
                    i % 8,
                    (i * 13) % 64,
                    if i % 3 == 0 { huge(i) } else { i % 5 },
                ])
            })
            .collect();
        model.sort_unstable();
        let rel = Relation::from_tuples(schema, model.clone()).unwrap();
        let config = DbConfig {
            codec: avq_codec::CodecOptions {
                mode: CodingMode::Avq,
                block_capacity: 128,
                ..Default::default()
            },
            ..Default::default()
        };
        let device = BlockDevice::new(128, config.disk);
        let pool = BufferPool::new(device.clone(), config.buffer_frames);
        let mut stored = StoredRelation::bulk_load(device, pool, &rel, config).unwrap();
        stored.create_secondary_index(1).unwrap();
        let mut grew = 0;
        for step in 0..300usize {
            let victim = model.remove((step * 7919) % model.len());
            let before = stored.block_count();
            stored.delete(&victim).unwrap();
            grew += usize::from(stored.block_count() > before);
        }
        assert!(grew > 0, "no delete overflowed its block");
        assert_eq!(stored.scan_all().unwrap(), model);
        stored.primary_index().validate().unwrap();
        let ctx = QueryCtx::default();
        for v in 0..64u64 {
            let mut carrying: Vec<BlockId> = (stored.blocks().iter())
                .filter(|b| {
                    (stored.read_block(b.id, &ctx).unwrap().unwrap())
                        .col(1)
                        .contains(&v)
                })
                .map(|b| b.id)
                .collect();
            carrying.sort_unstable();
            assert_eq!(
                stored.secondary_candidate_blocks(1, v, v).unwrap(),
                carrying
            );
        }
    }

    #[test]
    fn a_written_block_is_as_long_as_its_measure() {
        // `from_coded` takes a block's coded size from its length; the
        // writer's blocks are exactly `measure` bytes long, in every mode
        // and on every block, so that is the size a re-encode would give.
        for mode in CodingMode::ALL {
            let (_, _, stored) = setup(3000, 256, mode);
            let tuples = stored.scan_all().unwrap();
            let options = avq_codec::CodecOptions {
                mode,
                block_capacity: 256,
                ..Default::default()
            };
            let coded =
                avq_codec::compress_sorted(stored.schema().clone(), &tuples, options).unwrap();
            let codec = coded.codec();
            for i in 0..coded.block_count() {
                let run = coded.decode_block(i).unwrap();
                assert_eq!(
                    codec.measure(&run),
                    coded.block(i).len(),
                    "{mode} block {i}"
                );
            }
            let device = BlockDevice::new(256, stored.config().disk);
            let pool = BufferPool::new(device.clone(), 64);
            let loaded =
                StoredRelation::from_coded(device, pool, &coded, *stored.config()).unwrap();
            assert_eq!(loaded.coded_payload_bytes(), stored.coded_payload_bytes());
            for (a, b) in loaded.blocks().iter().zip(stored.blocks()) {
                assert_eq!((&a.min, &a.max, a.count), (&b.min, &b.max, b.count));
                assert_eq!((a.used_bytes, &a.synopsis), (b.used_bytes, &b.synopsis));
            }
        }
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
