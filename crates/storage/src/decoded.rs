//! A fixed-capacity cache of *decoded* block payloads, layered above the
//! buffer pool.
//!
//! The buffer pool caches coded bytes; re-reading a warm block still pays
//! the full AVQ decode (the paper's `t₂`). This cache remembers the decoded
//! form — for the database, the tuple run of a data block — so a warm
//! re-scan performs zero decode calls. It is generic over the decoded value
//! so the storage crate stays schema-agnostic: callers decide what a
//! "decoded block" is and share results via `Arc`.
//!
//! Entries are kept in recency order and a full cache evicts the least
//! recently used one. A hit moves its entry to the most-recently-used end.
//! A new entry goes in at one of two ends, chosen by the caller:
//!
//! - [`DecodedCache::insert`] admits it at the most-recently-used end, so
//!   it outlives every entry older than it (plain LRU);
//! - [`DecodedCache::insert_cold`] admits it at the least-recently-used
//!   end, so it is the next victim. A read of more blocks than the cache
//!   holds admits this way: each of its inserts evicts the previous one,
//!   and the whole read displaces at most one entry that was resident
//!   before it, instead of flushing the cache.
//!
//! A capacity of zero disables the cache: lookups miss without counting and
//! inserts are dropped, so call sites need no `if enabled` branching.

use crate::buffer::PoolStats;
use crate::error::BlockId;
use crate::lru::LruList;
use avq_obs::names;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

#[derive(Debug)]
struct Entry<V> {
    block: BlockId,
    value: Arc<V>,
}

#[derive(Debug)]
struct CacheInner<V> {
    entries: Vec<Option<Entry<V>>>,
    map: HashMap<BlockId, usize>,
    lru: LruList,
    free: Vec<usize>,
}

/// A fixed-capacity map from [`BlockId`] to a decoded value, evicting the
/// least recently used entry (see the module docs for the two admissions).
///
/// Thread-safe; values are handed out as `Arc<V>` clones so a hit never
/// copies the decoded payload. Hit/miss/eviction counters mirror
/// [`crate::BufferPool`]'s and are reported as [`PoolStats`].
#[derive(Debug)]
pub struct DecodedCache<V> {
    inner: Mutex<CacheInner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> DecodedCache<V> {
    /// Creates a cache holding at most `capacity` decoded blocks. A
    /// capacity of zero yields a disabled cache (every lookup misses
    /// silently, inserts are no-ops).
    pub fn new(capacity: usize) -> Self {
        DecodedCache {
            inner: Mutex::new(CacheInner {
                entries: (0..capacity).map(|_| None).collect(),
                map: HashMap::with_capacity(capacity),
                lru: LruList::new(capacity),
                free: (0..capacity).rev().collect(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached blocks.
    pub fn capacity(&self) -> usize {
        self.inner
            .lock()
            .expect("cache mutex poisoned")
            .entries
            .len()
    }

    /// True iff the cache can hold anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Looks up a decoded block, refreshing its recency on a hit.
    ///
    /// Disabled caches return `None` without counting a miss; the caller
    /// never asked to cache, so there is nothing to measure.
    pub fn get(&self, id: BlockId) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        if inner.entries.is_empty() {
            return None;
        }
        match inner.map.get(&id).copied() {
            Some(slot) => {
                inner.lru.touch(slot);
                let value = inner.entries[slot]
                    .as_ref()
                    .expect("mapped slot is occupied")
                    .value
                    .clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                avq_obs::counter!(names::STORAGE_CACHE_HITS).inc();
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                avq_obs::counter!(names::STORAGE_CACHE_MISSES).inc();
                None
            }
        }
    }

    /// Inserts (or refreshes) the decoded value for a block, evicting the
    /// least recently used entry when full. Returns the value the insert
    /// displaced — the evicted entry's, or the block's previous one — so
    /// the caller drops it (or reuses it) after the cache's lock is
    /// released. No-op when disabled.
    pub fn insert(&self, id: BlockId, value: Arc<V>) -> Option<Arc<V>> {
        self.admit(id, value, false)
    }

    /// [`Self::insert`] at the cold end: a new entry becomes the least
    /// recently used, the next one evicted unless a hit promotes it first.
    /// A resident entry gets the new value and keeps its place, so a cold
    /// insert neither promotes nor demotes what is already cached. Returns
    /// the displaced value as [`Self::insert`] does. No-op when disabled.
    pub fn insert_cold(&self, id: BlockId, value: Arc<V>) -> Option<Arc<V>> {
        self.admit(id, value, true)
    }

    /// The body of [`Self::insert`] and [`Self::insert_cold`]: they differ
    /// only in the end a new entry is attached to. The displaced value
    /// leaves with the return, so it is not dropped under the lock.
    fn admit(&self, id: BlockId, value: Arc<V>, cold: bool) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        if inner.entries.is_empty() {
            return None;
        }
        if let Some(&slot) = inner.map.get(&id) {
            let old = inner.entries[slot].replace(Entry { block: id, value });
            if !cold {
                inner.lru.touch(slot);
            }
            return old.map(|e| e.value);
        }
        let (slot, old) = if let Some(slot) = inner.free.pop() {
            (slot, None)
        } else {
            let victim = inner.lru.lru().expect("full cache has LRU entries");
            inner.lru.unlink(victim);
            let old = inner.entries[victim].take().expect("victim occupied");
            inner.map.remove(&old.block);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            avq_obs::counter!(names::STORAGE_CACHE_EVICTIONS).inc();
            (victim, Some(old.value))
        };
        inner.entries[slot] = Some(Entry { block: id, value });
        inner.map.insert(id, slot);
        if cold {
            inner.lru.push_back(slot);
        } else {
            inner.lru.push_front(slot);
        }
        old
    }

    /// Drops one block's cached value (e.g. after the block is re-coded or
    /// freed). Stale decoded tuples must never survive a write.
    pub fn invalidate(&self, id: BlockId) {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        if let Some(slot) = inner.map.remove(&id) {
            inner.lru.unlink(slot);
            inner.entries[slot] = None;
            inner.free.push(slot);
        }
    }

    /// Removes one block's cached value and returns it, counting a hit or
    /// a miss as [`Self::get`] does. A write takes the value it edits, so
    /// the edit copies nothing unless a reader still holds the value, and
    /// inserts the edited value back. Disabled caches return `None`
    /// without counting.
    pub fn take(&self, id: BlockId) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        if inner.entries.is_empty() {
            return None;
        }
        let Some(slot) = inner.map.remove(&id) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            avq_obs::counter!(names::STORAGE_CACHE_MISSES).inc();
            return None;
        };
        inner.lru.unlink(slot);
        inner.free.push(slot);
        self.hits.fetch_add(1, Ordering::Relaxed);
        avq_obs::counter!(names::STORAGE_CACHE_HITS).inc();
        inner.entries[slot].take().map(|e| e.value)
    }

    /// Empties the cache (counters are kept; see [`Self::reset_stats`]).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        let cap = inner.entries.len();
        inner.map.clear();
        inner.lru = LruList::new(cap);
        inner.free = (0..cap).rev().collect();
        for e in &mut inner.entries {
            *e = None;
        }
    }

    /// Number of currently cached blocks.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache mutex poisoned").map.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets the hit/miss/eviction counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// The traffic accrued since `earlier` (a snapshot previously returned
    /// by [`Self::stats`]). Lets benchmark iterations report per-run deltas
    /// without resetting the process-lifetime counters.
    pub fn stats_since(&self, earlier: &PoolStats) -> PoolStats {
        self.stats().since(earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(cache: &DecodedCache<Vec<u64>>, pairs: &[(BlockId, u64)]) {
        for &(id, v) in pairs {
            cache.insert(id, Arc::new(vec![v]));
        }
    }

    #[test]
    fn hit_returns_shared_value() {
        let cache = DecodedCache::new(4);
        let value = Arc::new(vec![1u64, 2, 3]);
        cache.insert(7, value.clone());
        let got = cache.get(7).expect("cached");
        assert!(Arc::ptr_eq(&got, &value), "hit must not copy the payload");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 0));
    }

    #[test]
    fn take_removes_and_hands_over_the_value() {
        let cache = DecodedCache::new(2);
        runs(&cache, &[(1, 10), (2, 20)]);
        let mut taken = cache.take(1).expect("cached");
        assert_eq!(Arc::get_mut(&mut taken), Some(&mut vec![10]), "sole owner");
        assert!(cache.take(1).is_none());
        assert_eq!(cache.len(), 1);
        // The freed slot takes the next insert without evicting block 2.
        cache.insert(3, taken);
        assert!(cache.get(2).is_some());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.evictions), (2, 1, 0));
        assert!(DecodedCache::<Vec<u64>>::new(0).take(1).is_none());
    }

    #[test]
    fn miss_is_counted() {
        let cache: DecodedCache<Vec<u64>> = DecodedCache::new(2);
        assert!(cache.get(9).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let cache = DecodedCache::new(2);
        runs(&cache, &[(0, 10), (1, 11)]);
        cache.get(0).unwrap(); // 0 is now MRU
        runs(&cache, &[(2, 12)]); // evicts 1
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(0).is_some());
        assert!(cache.get(2).is_some());
        assert!(cache.get(1).is_none(), "LRU entry was evicted");
    }

    /// The residents, most recently used first (read without touching).
    fn order(cache: &DecodedCache<Vec<u64>>) -> Vec<(BlockId, u64)> {
        let inner = cache.inner.lock().unwrap();
        let slots = inner.lru.order();
        slots
            .into_iter()
            .map(|slot| {
                let e = inner.entries[slot].as_ref().expect("attached slot");
                (e.block, e.value[0])
            })
            .collect()
    }

    #[test]
    fn cold_insert_is_next_victim() {
        let cache = DecodedCache::new(3);
        runs(&cache, &[(0, 10), (1, 11), (2, 12)]);
        cache.insert_cold(3, Arc::new(vec![13])); // evicts 0, the LRU
        assert_eq!(order(&cache), vec![(2, 12), (1, 11), (3, 13)]);
        cache.insert_cold(4, Arc::new(vec![14])); // evicts 3, not 1
        assert_eq!(order(&cache), vec![(2, 12), (1, 11), (4, 14)]);
        assert_eq!(cache.stats().evictions, 2);
        // A resident entry takes the new value where it stands.
        cache.insert_cold(2, Arc::new(vec![22]));
        assert_eq!(order(&cache), vec![(2, 22), (1, 11), (4, 14)]);
        // A hit promotes a cold entry like any other.
        cache.get(4).unwrap();
        assert_eq!(order(&cache), vec![(4, 14), (2, 22), (1, 11)]);
        // Into free room a cold insert evicts nothing.
        cache.invalidate(2);
        cache.insert_cold(5, Arc::new(vec![15]));
        assert_eq!(order(&cache), vec![(4, 14), (1, 11), (5, 15)]);
        assert_eq!(cache.stats().evictions, 2);
        let disabled = DecodedCache::new(0);
        disabled.insert_cold(0, Arc::new(vec![1u64]));
        assert!(disabled.get(0).is_none());
        assert_eq!(disabled.stats(), PoolStats::default());
    }

    /// The cache against a `VecDeque` model (front = most recently used)
    /// under seeded random `insert`, `insert_cold`, `get`, `invalidate` and
    /// `clear`: each insert returns exactly the value the model displaces
    /// (the evicted entry's or the block's previous one), and after every
    /// step the residents, their order and values, and the
    /// hit/miss/eviction counts agree.
    #[test]
    fn matches_vecdeque_model() {
        use crate::fault::splitmix64;
        use std::collections::VecDeque;
        for seed in 0..64u64 {
            let cap = (seed % 7) as usize; // 0 (disabled) ..= 6
            let cache = DecodedCache::new(cap);
            let mut model: VecDeque<(BlockId, u64)> = VecDeque::new();
            let mut want = PoolStats::default();
            let mut state = seed;
            for step in 0..400u64 {
                state = splitmix64(state);
                let id = ((state >> 8) % 10) as BlockId;
                let value = step;
                let at = model.iter().position(|&(b, _)| b == id);
                match state % 16 {
                    0..=8 => {
                        let cold = state % 16 >= 5;
                        let displaced = if cold {
                            cache.insert_cold(id, Arc::new(vec![value]))
                        } else {
                            cache.insert(id, Arc::new(vec![value]))
                        };
                        // The value the model lets go of: the block's
                        // previous one, or the evicted LRU entry's.
                        let mut expect = None;
                        if cap > 0 {
                            match at {
                                Some(i) if cold => {
                                    expect = Some(model[i].1);
                                    model[i].1 = value;
                                }
                                Some(i) => {
                                    expect = model.remove(i).map(|(_, v)| v);
                                    model.push_front((id, value));
                                }
                                None => {
                                    if model.len() == cap {
                                        expect = model.pop_back().map(|(_, v)| v);
                                        want.evictions += 1;
                                    }
                                    if cold {
                                        model.push_back((id, value));
                                    } else {
                                        model.push_front((id, value));
                                    }
                                }
                            }
                        }
                        let displaced = displaced.map(|v| {
                            // Nothing else holds a displaced value here.
                            assert_eq!(Arc::strong_count(&v), 1, "seed {seed} step {step}");
                            v[0]
                        });
                        assert_eq!(displaced, expect, "seed {seed} step {step}: displaced");
                    }
                    9..=13 => {
                        let got = cache.get(id).map(|v| v[0]);
                        let expect = at.map(|i| {
                            let e = model.remove(i).expect("in model");
                            model.push_front(e);
                            e.1
                        });
                        assert_eq!(got, expect, "seed {seed} step {step}: get({id})");
                        if cap > 0 {
                            match expect {
                                Some(_) => want.hits += 1,
                                None => want.misses += 1,
                            }
                        }
                    }
                    14 => {
                        cache.invalidate(id);
                        if let Some(i) = at {
                            model.remove(i);
                        }
                    }
                    _ => {
                        if step % 4 == 0 {
                            cache.clear();
                            model.clear();
                        }
                    }
                }
                let expect: Vec<_> = model.iter().copied().collect();
                assert_eq!(order(&cache), expect, "seed {seed} step {step}");
                assert_eq!(cache.stats(), want, "seed {seed} step {step}");
            }
        }
    }

    /// The scan-resistance property: however many cold inserts follow, a
    /// full cache loses at most one of the entries it held before them.
    #[test]
    fn cold_inserts_evict_at_most_one_prior_resident() {
        use crate::fault::splitmix64;
        for seed in 0..32u64 {
            let cap = 1 + (seed % 8) as usize;
            let cache = DecodedCache::new(cap);
            let mut state = seed ^ 0xc01d;
            // Fill it with a warm mix of inserts and hits.
            while cache.len() < cap {
                state = splitmix64(state);
                let id = ((state >> 8) % (2 * cap as u64)) as BlockId;
                cache.insert(id, Arc::new(vec![id as u64]));
                cache.get(((state >> 32) % (2 * cap as u64)) as BlockId);
            }
            let before = order(&cache);
            let k = 1 + (state % (3 * cap as u64)) as usize;
            for _ in 0..k {
                state = splitmix64(state);
                // Mostly blocks the scan has not seen; now and then one
                // already resident.
                let id = ((state >> 8) % (100 * cap as u64)) as BlockId;
                cache.insert_cold(id, Arc::new(vec![id as u64]));
                let after: Vec<BlockId> = order(&cache).into_iter().map(|(b, _)| b).collect();
                let lost = before.iter().filter(|(b, _)| !after.contains(b)).count();
                assert!(lost <= 1, "seed {seed}: {lost} prior residents evicted");
            }
        }
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = DecodedCache::new(2);
        runs(&cache, &[(0, 10), (1, 11), (0, 99)]);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(*cache.get(0).unwrap(), vec![99]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_forces_miss() {
        let cache = DecodedCache::new(2);
        runs(&cache, &[(0, 10)]);
        cache.invalidate(0);
        assert!(cache.get(0).is_none());
        assert!(cache.is_empty());
        // Invalidating an absent block is a no-op.
        cache.invalidate(42);
        // The freed slot is reusable.
        runs(&cache, &[(1, 11), (2, 12)]);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = DecodedCache::new(3);
        runs(&cache, &[(0, 1), (1, 2)]);
        cache.get(0).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1, "clear keeps counters");
        assert!(cache.get(0).is_none());
        cache.reset_stats();
        assert_eq!(cache.stats(), PoolStats::default());
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let cache = DecodedCache::new(0);
        assert!(!cache.is_enabled());
        runs(&cache, &[(0, 1)]);
        assert!(cache.get(0).is_none());
        // Disabled caches measure nothing.
        assert_eq!(cache.stats(), PoolStats::default());
    }

    #[test]
    fn stats_since_reports_per_iteration_delta() {
        let cache = DecodedCache::new(4);
        runs(&cache, &[(0, 1), (1, 2)]);
        cache.get(0).unwrap();
        cache.get(9); // miss
        let iteration_start = cache.stats();
        // Second "benchmark iteration": 2 hits, 1 miss.
        cache.get(0).unwrap();
        cache.get(1).unwrap();
        cache.get(9);
        let delta = cache.stats_since(&iteration_start);
        assert_eq!((delta.hits, delta.misses, delta.evictions), (2, 1, 0));
        // The lifetime counters are untouched.
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(DecodedCache::new(8));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..100u32 {
                        let id = (t * 100 + i) % 16;
                        cache.insert(id, Arc::new(vec![id as u64]));
                        if let Some(v) = cache.get(id) {
                            assert_eq!(*v, vec![id as u64]);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 8);
    }
}
