//! An LRU buffer pool over the simulated block device.
//!
//! The paper's cost model assumes cold reads (`N · t₁`); the buffer pool
//! exists to measure how far warm caches move that model (one of the
//! DESIGN.md ablations) and to give the database layer a realistic access
//! path. Reads hit the pool first; physical transfers happen — and are
//! charged to the clock — only on misses.

use crate::device::BlockDevice;
use crate::error::{BlockId, StorageError};
use crate::lru::LruList;
use avq_obs::names;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// Buffer-pool hit/miss counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Reads served from the pool.
    pub hits: u64,
    /// Reads that went to the device.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]`; 0 when no reads happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The traffic accrued since `earlier` (saturating per-field
    /// difference) — for per-query cache attribution and benchmark
    /// iterations that must not accumulate across runs.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

impl core::fmt::Display for PoolStats {
    /// `hits=H misses=M evictions=E hit_rate=P%` — the format `avqtool`
    /// prints (and tests pin), so keep it stable. With no traffic the rate
    /// is undefined and prints as `hit_rate=-`, not a misleading `0.0%`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} hit_rate=",
            self.hits, self.misses, self.evictions,
        )?;
        if self.hits + self.misses == 0 {
            write!(f, "-")
        } else {
            write!(f, "{:.1}%", self.hit_rate() * 100.0)
        }
    }
}

#[derive(Debug)]
struct Frame {
    block: BlockId,
    data: Arc<Vec<u8>>,
}

#[derive(Debug)]
struct PoolInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<BlockId, usize>,
    lru: LruList,
    free: Vec<usize>,
}

/// A write-through LRU buffer pool of a fixed number of frames.
#[derive(Debug)]
pub struct BufferPool {
    device: Arc<BlockDevice>,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferPool {
    /// Creates a pool of `frames` frames over `device`.
    ///
    /// # Panics
    /// Panics if `frames == 0`.
    pub fn new(device: Arc<BlockDevice>, frames: usize) -> Arc<Self> {
        assert!(frames > 0, "buffer pool needs at least one frame");
        Arc::new(BufferPool {
            device,
            inner: Mutex::new(PoolInner {
                frames: (0..frames).map(|_| None).collect(),
                map: HashMap::with_capacity(frames),
                lru: LruList::new(frames),
                free: (0..frames).rev().collect(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The underlying device.
    #[inline]
    pub fn device(&self) -> &Arc<BlockDevice> {
        &self.device
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("pool mutex poisoned").frames.len()
    }

    /// Reads a block through the pool. Hits cost nothing; misses perform one
    /// physical read and cache the result.
    pub fn read(&self, id: BlockId) -> Result<Arc<Vec<u8>>, StorageError> {
        // Lock order: `inner` is scoped so it is released before the device
        // is read — the pool latch is never held across the device's locks.
        {
            let mut inner = self.inner.lock().expect("pool mutex poisoned");
            if let Some(&slot) = inner.map.get(&id) {
                inner.lru.touch(slot);
                let data = inner.frames[slot]
                    .as_ref()
                    .expect("mapped frame is occupied")
                    .data
                    .clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                avq_obs::counter!(names::STORAGE_POOL_HITS).inc();
                return Ok(data);
            }
        }
        // Miss: physical read outside the latch, then install.
        let data = Arc::new(self.device.read(id)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        avq_obs::counter!(names::STORAGE_POOL_MISSES).inc();
        self.install(id, data.clone());
        Ok(data)
    }

    /// Like [`Self::read`], but transient device faults ([`StorageError::Io`]
    /// with `transient: true`) are retried under `policy`, with exponential
    /// virtual backoff charged to the device clock. Each retry increments
    /// the `avq.io_retries.total` counter.
    pub fn read_with_retry(
        &self,
        id: BlockId,
        policy: crate::fault::RetryPolicy,
    ) -> Result<Arc<Vec<u8>>, StorageError> {
        crate::fault::retry_with_backoff(policy, self.device.clock(), || self.read(id))
    }

    /// Writes a block through the pool: the device is updated immediately
    /// (write-through) and the frame refreshed.
    pub fn write(&self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        self.device.write(id, data)?;
        self.install(id, Arc::new(data.to_vec()));
        Ok(())
    }

    /// Drops a block from the pool (e.g. after a free).
    pub fn invalidate(&self, id: BlockId) {
        let mut inner = self.inner.lock().expect("pool mutex poisoned");
        if let Some(slot) = inner.map.remove(&id) {
            inner.lru.unlink(slot);
            inner.frames[slot] = None;
            inner.free.push(slot);
        }
    }

    /// Empties the pool (counters are kept; see [`Self::reset_stats`]).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("pool mutex poisoned");
        let cap = inner.frames.len();
        inner.map.clear();
        inner.lru = LruList::new(cap);
        inner.free = (0..cap).rev().collect();
        for f in &mut inner.frames {
            *f = None;
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    fn install(&self, id: BlockId, data: Arc<Vec<u8>>) {
        let mut inner = self.inner.lock().expect("pool mutex poisoned");
        if let Some(&slot) = inner.map.get(&id) {
            // Racing install or refresh after write.
            inner.frames[slot] = Some(Frame { block: id, data });
            inner.lru.touch(slot);
            return;
        }
        let slot = if let Some(slot) = inner.free.pop() {
            slot
        } else {
            let victim = inner.lru.lru().expect("no free frames implies LRU entries");
            inner.lru.unlink(victim);
            let old = inner.frames[victim].take().expect("victim occupied");
            inner.map.remove(&old.block);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            avq_obs::counter!(names::STORAGE_POOL_EVICTIONS).inc();
            victim
        };
        inner.frames[slot] = Some(Frame { block: id, data });
        inner.map.insert(id, slot);
        inner.lru.push_front(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DiskProfile;

    fn setup(frames: usize) -> (Arc<BlockDevice>, Arc<BufferPool>, Vec<BlockId>) {
        let device = BlockDevice::new(32, DiskProfile::paper_fixed());
        let pool = BufferPool::new(device.clone(), frames);
        let ids: Vec<BlockId> = (0..6)
            .map(|i| {
                let id = device.allocate().unwrap();
                device.write(id, format!("block{i}").as_bytes()).unwrap();
                id
            })
            .collect();
        device.reset_stats();
        device.clock().reset();
        (device, pool, ids)
    }

    #[test]
    fn hit_avoids_physical_read() {
        let (device, pool, ids) = setup(4);
        let a = pool.read(ids[0]).unwrap();
        let b = pool.read(ids[0]).unwrap();
        assert_eq!(*a, *b);
        assert_eq!(device.io_stats().reads, 1, "second read must hit");
        let st = pool.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
        // Only the miss charged the clock.
        assert!((device.clock().now_ms() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_order() {
        let (device, pool, ids) = setup(2);
        pool.read(ids[0]).unwrap();
        pool.read(ids[1]).unwrap();
        pool.read(ids[0]).unwrap(); // 0 is now MRU
        pool.read(ids[2]).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        device.reset_stats();
        pool.read(ids[0]).unwrap(); // still cached
        assert_eq!(device.io_stats().reads, 0);
        pool.read(ids[1]).unwrap(); // was evicted -> physical read
        assert_eq!(device.io_stats().reads, 1);
    }

    #[test]
    fn write_through_updates_device_and_pool() {
        let (device, pool, ids) = setup(2);
        pool.write(ids[0], b"fresh").unwrap();
        assert_eq!(device.read(ids[0]).unwrap(), b"fresh");
        device.reset_stats();
        assert_eq!(*pool.read(ids[0]).unwrap(), b"fresh");
        assert_eq!(device.io_stats().reads, 0, "write installed the frame");
    }

    #[test]
    fn invalidate_forces_reread() {
        let (device, pool, ids) = setup(2);
        pool.read(ids[0]).unwrap();
        pool.invalidate(ids[0]);
        device.reset_stats();
        pool.read(ids[0]).unwrap();
        assert_eq!(device.io_stats().reads, 1);
    }

    #[test]
    fn clear_empties_pool() {
        let (device, pool, ids) = setup(4);
        for &id in &ids[..4] {
            pool.read(id).unwrap();
        }
        pool.clear();
        device.reset_stats();
        pool.read(ids[0]).unwrap();
        assert_eq!(device.io_stats().reads, 1);
    }

    #[test]
    fn single_frame_pool_thrashes() {
        let (device, pool, ids) = setup(1);
        pool.read(ids[0]).unwrap();
        pool.read(ids[1]).unwrap();
        pool.read(ids[0]).unwrap();
        assert_eq!(device.io_stats().reads, 3);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().evictions, 2);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let device = BlockDevice::new(32, DiskProfile::instant());
        let _ = BufferPool::new(device, 0);
    }

    #[test]
    fn stats_display_cold_and_warm() {
        // No traffic: the rate is undefined, printed as `-`.
        let cold = PoolStats::default();
        assert_eq!(cold.to_string(), "hits=0 misses=0 evictions=0 hit_rate=-");
        // Any traffic: percentage with one decimal.
        let warm = PoolStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(
            warm.to_string(),
            "hits=3 misses=1 evictions=0 hit_rate=75.0%"
        );
        // All misses is still traffic, so a real 0.0%.
        let all_miss = PoolStats {
            hits: 0,
            misses: 4,
            evictions: 2,
        };
        assert_eq!(
            all_miss.to_string(),
            "hits=0 misses=4 evictions=2 hit_rate=0.0%"
        );
    }

    #[test]
    fn stats_since_subtracts() {
        let earlier = PoolStats {
            hits: 5,
            misses: 2,
            evictions: 1,
        };
        let later = PoolStats {
            hits: 9,
            misses: 2,
            evictions: 1,
        };
        let d = later.since(&earlier);
        assert_eq!(
            d,
            PoolStats {
                hits: 4,
                misses: 0,
                evictions: 0
            }
        );
        // A reset in between must not underflow.
        assert_eq!(PoolStats::default().since(&later), PoolStats::default());
    }

    #[test]
    fn missing_block_error_propagates() {
        let (_, pool, _) = setup(2);
        assert!(matches!(
            pool.read(999).unwrap_err(),
            StorageError::NoSuchBlock { id: 999 }
        ));
    }
}
