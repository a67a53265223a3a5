//! Allocation accounting for warm B⁺-tree leaf edits.
//!
//! An upsert, an insert that fits and a delete splice the leaf's bytes in
//! place, so once the leaf is in the buffer pool each makes the same few
//! allocations (the new node image and the pool's copy of it) whatever the
//! leaf holds — decoding the leaf would cost one per key. A counting global
//! allocator pins that.

use avq_index::BPlusTree;
use avq_storage::{BlockDevice, BufferPool, DiskProfile};

#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

fn allocs(op: impl FnOnce()) -> u64 {
    counting_alloc::counted(op).0
}

/// Allocations of an insert, an upsert and a delete of one key in the
/// middle of a one-leaf tree of `keys` keys.
fn leaf_edit_allocs(keys: u64) -> [u64; 3] {
    let pool = BufferPool::new(BlockDevice::new(8192, DiskProfile::instant()), 64);
    let pairs: Vec<(Vec<u8>, u64)> = (0..keys)
        .map(|i| ((i * 2).to_be_bytes().to_vec(), i))
        .collect();
    let mut tree = BPlusTree::bulk_build(pool, usize::MAX, &pairs).unwrap();
    assert_eq!(tree.stats().unwrap().leaves, 1);
    let key = (keys | 1).to_be_bytes();
    // Warm the pool, the metric handles and the device's block buffer.
    tree.insert(&key, 0).unwrap();
    tree.delete(&key).unwrap();
    [
        allocs(|| assert_eq!(tree.insert(&key, 1).unwrap(), None)),
        allocs(|| assert_eq!(tree.insert(&key, 2).unwrap(), Some(1))),
        allocs(|| assert_eq!(tree.delete(&key).unwrap(), 2)),
    ]
}

#[test]
fn warm_leaf_edits_allocate_independently_of_the_leaf() {
    let small = leaf_edit_allocs(40);
    let large = leaf_edit_allocs(400);
    assert_eq!(
        small, large,
        "insert/upsert/delete allocations grew with the leaf"
    );
    assert!(large.iter().all(|&n| n <= 4), "{large:?}");
}
