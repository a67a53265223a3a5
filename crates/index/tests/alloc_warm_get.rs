//! Allocation accounting for a warm B⁺-tree point lookup.
//!
//! `get` searches each node's bytes in place, so once the root-to-leaf
//! path is in the buffer pool a lookup — hit or miss — allocates nothing.
//! A counting global allocator pins that.

use avq_index::BPlusTree;
use avq_storage::{BlockDevice, BufferPool, DiskProfile};

#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

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

    let before = counting_alloc::allocs();
    let mut found = 0u64;
    for k in &probes {
        found += tree.get(k).unwrap().is_some() as u64;
    }
    let allocs = counting_alloc::allocs() - before;
    assert_eq!(found, 1_000, "even probes hit, odd ones miss");
    assert_eq!(
        allocs,
        0,
        "{} warm gets allocated {allocs} times",
        probes.len()
    );
}
