//! Allocation accounting for a warm B⁺-tree point lookup.
//!
//! `get` searches each node's bytes in place, so once the root-to-leaf
//! path is in the buffer pool a lookup — hit or miss — allocates nothing.
//! A counting global allocator pins that; it is the only test in this
//! binary so no concurrent test thread can perturb the counter.

#![allow(unsafe_code, reason = "counting GlobalAlloc")]

use avq_index::BPlusTree;
use avq_storage::{BlockDevice, BufferPool, DiskProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_get_allocates_nothing() {
    let pool = BufferPool::new(BlockDevice::new(512, DiskProfile::instant()), 1024);
    let pairs: Vec<(Vec<u8>, u64)> = (0..20_000u64)
        .map(|i| ((i * 2).to_be_bytes().to_vec(), i))
        .collect();
    let tree = BPlusTree::bulk_build(pool, usize::MAX, &pairs).unwrap();
    assert!(tree.stats().unwrap().height >= 3);
    let probes: Vec<[u8; 8]> = (0..2_000u64).map(|i| (i * 19).to_be_bytes()).collect();
    // Warm the pool and the metric handles.
    for k in &probes {
        tree.get(k).unwrap();
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut found = 0u64;
    for k in &probes {
        found += tree.get(k).unwrap().is_some() as u64;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(found, 1_000, "even probes hit, odd ones miss");
    assert_eq!(
        allocs,
        0,
        "{} warm gets allocated {allocs} times",
        probes.len()
    );
}
