//! AVQ-L009 fixture: a lock-order inversion, a blocking call under a
//! guard, a condvar field and wait, and a lock field missing from the
//! hierarchy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};

/// Fixture device mirroring the real storage device's lock fields and
/// inventoried atomics sites.
pub struct Device {
    free_list: RwLock<Vec<u64>>,
    slots: RwLock<Vec<u8>>,
    faults: Mutex<Vec<u64>>,
    extra: Mutex<u8>,
    parked: Condvar,
    ios: AtomicU64,
}

impl Device {
    /// Acquires `faults` (rank 80) and then `slots` (rank 70): inversion.
    fn inverted(&self) -> usize {
        let faults = self.faults.lock().expect("faults");
        let slots = self.slots.read().expect("slots");
        faults.len() + slots.len()
    }

    /// Correct order, but fsyncs while the guard is held.
    fn flush(&self, file: &std::fs::File) -> std::io::Result<usize> {
        let slots = self.slots.write().expect("slots");
        file.sync_data()?;
        Ok(slots.len())
    }

    /// Drop-before-reacquire is legal: no inversion here.
    fn drained(&self) -> usize {
        let slots = self.slots.read().expect("slots");
        let n = slots.len();
        drop(slots);
        let free = self.free_list.read().expect("free_list");
        free.len() + n
    }

    /// Condvar wait: production code has none.
    fn park(&self) {
        let extra = self.extra.lock().expect("extra");
        let _unused = self.parked.wait(extra).expect("wait");
    }

    /// Inventoried statistics sites, mirroring the real device.
    fn read(&self) -> u64 {
        self.ios.fetch_add(1, Ordering::Relaxed)
    }

    fn write(&self) -> u64 {
        self.ios.fetch_add(1, Ordering::Relaxed)
    }

    fn io_stats(&self) -> u64 {
        self.ios.load(Ordering::Relaxed)
    }

    fn reset_stats(&self) {
        self.ios.store(0, Ordering::Relaxed);
    }
}
