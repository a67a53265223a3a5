//! The simulated block device.
//!
//! An array of fixed-size blocks with allocate/free/read/write, a
//! [`DiskProfile`] that charges every physical transfer to a shared
//! [`SimClock`], and counters for the `N` (blocks accessed) measurements of
//! §5.3.3. The device is thread-safe; clones of the surrounding `Arc` share
//! blocks, clock, and counters.

use crate::clock::SimClock;
use crate::error::{BlockId, StorageError};
use crate::fault::FaultPlan;
use crate::profile::DiskProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::RwLock;

/// Running I/O counters for a device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Number of physical block reads.
    pub reads: u64,
    /// Number of physical block writes.
    pub writes: u64,
}

impl IoStats {
    /// Total physical transfers.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

#[derive(Debug)]
struct Slot {
    data: Option<Vec<u8>>,
}

/// A simulated disk of fixed-size blocks.
#[derive(Debug)]
pub struct BlockDevice {
    block_size: usize,
    profile: DiskProfile,
    clock: Arc<SimClock>,
    slots: RwLock<Vec<Slot>>,
    free_list: RwLock<Vec<BlockId>>,
    reads: AtomicU64,
    writes: AtomicU64,
    faults: RwLock<Option<Arc<FaultPlan>>>,
}

impl BlockDevice {
    /// Creates a device with its own clock.
    pub fn new(block_size: usize, profile: DiskProfile) -> Arc<Self> {
        Self::with_clock(block_size, profile, Arc::new(SimClock::new()))
    }

    /// Creates a device charging I/O to an existing clock.
    pub fn with_clock(block_size: usize, profile: DiskProfile, clock: Arc<SimClock>) -> Arc<Self> {
        assert!(block_size > 0, "block size must be positive");
        Arc::new(BlockDevice {
            block_size,
            profile,
            clock,
            slots: RwLock::new(Vec::new()),
            free_list: RwLock::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            faults: RwLock::new(None),
        })
    }

    /// Installs a fault plan; every later read/write consults it. Replaces
    /// any previous plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) -> Arc<FaultPlan> {
        let plan = Arc::new(plan);
        *self.faults.write().expect("device lock poisoned") = Some(plan.clone());
        plan
    }

    /// Removes the installed fault plan, if any.
    pub fn clear_fault_plan(&self) {
        *self.faults.write().expect("device lock poisoned") = None;
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.read().expect("device lock poisoned").clone()
    }

    /// The device's block size in bytes.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The device's cost model.
    #[inline]
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// The clock this device charges to.
    #[inline]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Allocates a fresh (zero-length) block and returns its id. Allocation
    /// itself is free: the cost model charges transfers, not bookkeeping.
    pub fn allocate(&self) -> Result<BlockId, StorageError> {
        // Lock order: `free_list` then `slots` — the scrutinee's guard lives
        // through the `if let` body, so `free_list` is held across the
        // `slots` write. Nothing may take them the other way round.
        if let Some(id) = self.free_list.write().expect("device lock poisoned").pop() {
            self.slots.write().expect("device lock poisoned")[id as usize].data = Some(Vec::new());
            return Ok(id);
        }
        let mut slots = self.slots.write().expect("device lock poisoned");
        let id = slots.len();
        if id > u32::MAX as usize {
            return Err(StorageError::OutOfBlocks);
        }
        slots.push(Slot {
            data: Some(Vec::new()),
        });
        Ok(id as BlockId)
    }

    /// Frees a block for reuse.
    pub fn free(&self, id: BlockId) -> Result<(), StorageError> {
        let mut slots = self.slots.write().expect("device lock poisoned");
        let slot = slots
            .get_mut(id as usize)
            .ok_or(StorageError::NoSuchBlock { id })?;
        if slot.data.is_none() {
            return Err(StorageError::NoSuchBlock { id });
        }
        slot.data = None;
        // Lock order (see `allocate`): `slots` is released before
        // `free_list` is taken, never held across it.
        drop(slots);
        self.free_list
            .write()
            .expect("device lock poisoned")
            .push(id);
        Ok(())
    }

    /// Reads a block, charging one block transfer. When a fault plan is
    /// installed the attempt is still charged (the arm moved) before the
    /// plan gets to fail the read or damage the returned bytes.
    pub fn read(&self, id: BlockId) -> Result<Vec<u8>, StorageError> {
        let slots = self.slots.read().expect("device lock poisoned");
        let slot = slots
            .get(id as usize)
            .ok_or(StorageError::NoSuchBlock { id })?;
        let mut data = slot
            .data
            .as_ref()
            .ok_or(StorageError::NoSuchBlock { id })?
            .clone();
        drop(slots);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.clock
            .advance_ms(self.profile.block_time_ms(self.block_size));
        if let Some(plan) = self.fault_plan() {
            plan.on_read(id, &mut data)?;
        }
        Ok(data)
    }

    /// Writes a block, charging one block transfer. The payload may be
    /// shorter than the block size (blocks store their used prefix); longer
    /// payloads are rejected.
    pub fn write(&self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        if data.len() > self.block_size {
            return Err(StorageError::BlockTooLarge {
                got: data.len(),
                block_size: self.block_size,
            });
        }
        // A torn write truncates the payload; a write error aborts before
        // the slot is touched (and charges nothing, like other rejects).
        let payload = match self.fault_plan() {
            Some(plan) => {
                let mut copy = data.to_vec();
                plan.on_write(id, &mut copy)?;
                Some(copy)
            }
            None => None,
        };
        let mut slots = self.slots.write().expect("device lock poisoned");
        let slot = slots
            .get_mut(id as usize)
            .ok_or(StorageError::NoSuchBlock { id })?;
        let buf = slot.data.as_mut().ok_or(StorageError::NoSuchBlock { id })?;
        let payload = payload.as_deref().unwrap_or(data);
        // A slot's memory follows its payload, not the largest payload it
        // ever held: one that outgrows its buffer gets an exact copy (not a
        // doubled buffer), and one that would leave more than half of it
        // idle (an index leaf emptied by deletes) gives it back.
        if buf.capacity() < payload.len() || buf.capacity() / 2 > payload.len() {
            *buf = payload.to_vec();
        } else {
            buf.clear();
            buf.extend_from_slice(payload);
        }
        drop(slots);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.clock
            .advance_ms(self.profile.block_time_ms(self.block_size));
        Ok(())
    }

    /// Number of live (allocated, un-freed) blocks.
    pub fn live_blocks(&self) -> usize {
        self.slots
            .read()
            .expect("device lock poisoned")
            .iter()
            .filter(|s| s.data.is_some())
            .count()
    }

    /// Snapshot of the I/O counters.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets the I/O counters (the clock is reset separately).
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Arc<BlockDevice> {
        BlockDevice::new(64, DiskProfile::paper_fixed())
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let d = device();
        let id = d.allocate().unwrap();
        d.write(id, b"hello").unwrap();
        assert_eq!(d.read(id).unwrap(), b"hello");
    }

    #[test]
    fn slot_memory_follows_its_payload() {
        let d = device();
        let id = d.allocate().unwrap();
        let capacity = |d: &BlockDevice| {
            d.slots.read().unwrap()[id as usize]
                .data
                .as_ref()
                .unwrap()
                .capacity()
        };
        d.write(id, &[1; 40]).unwrap();
        d.write(id, &[2; 41]).unwrap();
        assert_eq!(capacity(&d), 41, "a growing payload is copied exactly");
        d.write(id, &[3; 30]).unwrap();
        assert_eq!(
            capacity(&d),
            41,
            "a payload that fills half keeps the buffer"
        );
        d.write(id, &[4; 3]).unwrap();
        assert_eq!(capacity(&d), 3, "a payload under half gives the rest back");
        assert_eq!(d.read(id).unwrap(), [4; 3]);
    }

    #[test]
    fn io_charges_clock_and_counters() {
        let d = device();
        let id = d.allocate().unwrap();
        d.write(id, b"x").unwrap();
        let _ = d.read(id).unwrap();
        let _ = d.read(id).unwrap();
        let st = d.io_stats();
        assert_eq!(st.reads, 2);
        assert_eq!(st.writes, 1);
        assert_eq!(st.total(), 3);
        assert!((d.clock().now_ms() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_write_rejected() {
        let d = device();
        let id = d.allocate().unwrap();
        let err = d.write(id, &[0u8; 65]).unwrap_err();
        assert_eq!(
            err,
            StorageError::BlockTooLarge {
                got: 65,
                block_size: 64
            }
        );
        // Failed writes charge nothing.
        assert_eq!(d.io_stats().writes, 0);
    }

    #[test]
    fn exact_block_size_write_allowed() {
        let d = device();
        let id = d.allocate().unwrap();
        d.write(id, &[7u8; 64]).unwrap();
        assert_eq!(d.read(id).unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn free_and_reuse() {
        let d = device();
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(d.live_blocks(), 2);
        d.free(a).unwrap();
        assert_eq!(d.live_blocks(), 1);
        assert!(d.read(a).is_err());
        assert!(d.free(a).is_err(), "double free rejected");
        let c = d.allocate().unwrap();
        assert_eq!(c, a, "freed id is reused");
        assert_eq!(d.read(c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unknown_block_rejected() {
        let d = device();
        assert_eq!(
            d.read(99).unwrap_err(),
            StorageError::NoSuchBlock { id: 99 }
        );
        assert!(d.write(99, b"x").is_err());
        assert!(d.free(99).is_err());
    }

    #[test]
    fn reset_stats_keeps_data() {
        let d = device();
        let id = d.allocate().unwrap();
        d.write(id, b"keep").unwrap();
        d.reset_stats();
        assert_eq!(d.io_stats(), IoStats::default());
        assert_eq!(d.read(id).unwrap(), b"keep");
    }

    #[test]
    fn shared_clock_across_devices() {
        let clock = Arc::new(SimClock::new());
        let d1 = BlockDevice::with_clock(64, DiskProfile::paper_fixed(), clock.clone());
        let d2 = BlockDevice::with_clock(64, DiskProfile::paper_fixed(), clock.clone());
        let a = d1.allocate().unwrap();
        let b = d2.allocate().unwrap();
        d1.write(a, b"1").unwrap();
        d2.write(b, b"2").unwrap();
        assert!((clock.now_ms() - 60.0).abs() < 1e-9);
    }
}
