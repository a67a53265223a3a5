//! Model-based property tests: the B⁺-tree is driven with arbitrary
//! operation sequences against a `std::collections` model.

use avq_index::BPlusTree;
use avq_storage::{BlockDevice, BufferPool, DiskProfile};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn pool(block_size: usize) -> Arc<BufferPool> {
    BufferPool::new(BlockDevice::new(block_size, DiskProfile::instant()), 256)
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u64),
    Delete(u16),
    Get(u16),
    Floor(u16),
    Range(u16, u16),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        any::<u16>().prop_map(TreeOp::Delete),
        any::<u16>().prop_map(TreeOp::Get),
        any::<u16>().prop_map(TreeOp::Floor),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

fn key(k: u16) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_matches_btreemap(
        ops in prop::collection::vec(arb_tree_op(), 1..300),
        order in prop_oneof![Just(3usize), Just(8), Just(usize::MAX)],
        block_size in prop_oneof![Just(128usize), Just(4096)],
    ) {
        let mut tree = BPlusTree::create_with_order(pool(block_size), order).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                TreeOp::Insert(k, v) => {
                    let got = tree.insert(&key(k), v).unwrap();
                    let expect = model.insert(key(k), v);
                    prop_assert_eq!(got, expect);
                }
                TreeOp::Delete(k) => {
                    let got = tree.delete(&key(k));
                    match model.remove(&key(k)) {
                        Some(v) => prop_assert_eq!(got.unwrap(), v),
                        None => prop_assert!(got.is_err()),
                    }
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&key(k)).unwrap(), model.get(&key(k)).copied());
                }
                TreeOp::Floor(k) => {
                    let got = tree.floor(&key(k)).unwrap();
                    let expect = model
                        .range(..=key(k))
                        .next_back()
                        .map(|(k, &v)| (k.clone(), v));
                    prop_assert_eq!(got, expect);
                }
                TreeOp::Range(a, b) => {
                    let got = tree.range(&key(a), &key(b)).unwrap();
                    let expect: Vec<(Vec<u8>, u64)> = model
                        .range(key(a)..=key(b))
                        .map(|(k, &v)| (k.clone(), v))
                        .collect();
                    prop_assert_eq!(got, expect);
                }
            }
        }
        tree.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.stats().unwrap().entries, model.len());
    }

    #[test]
    fn bulk_build_equals_incremental(
        mut keys in prop::collection::btree_set(any::<u16>(), 1..200),
        order in prop_oneof![Just(3usize), Just(16)],
    ) {
        let pairs: Vec<(Vec<u8>, u64)> = keys
            .iter()
            .map(|&k| (key(k), k as u64))
            .collect();
        let bulk = BPlusTree::bulk_build(pool(256), order, &pairs).unwrap();
        let mut incr = BPlusTree::create_with_order(pool(256), order).unwrap();
        for (k, v) in &pairs {
            incr.insert(k, *v).unwrap();
        }
        bulk.validate().map_err(TestCaseError::fail)?;
        incr.validate().map_err(TestCaseError::fail)?;
        // Same logical content regardless of construction path.
        let lo = key(0);
        let hi = key(u16::MAX);
        prop_assert_eq!(bulk.range(&lo, &hi).unwrap(), incr.range(&lo, &hi).unwrap());
        keys.clear();
    }
}
