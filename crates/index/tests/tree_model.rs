//! Model-based property tests: the B⁺-tree is driven with arbitrary
//! operation sequences against a `std::collections` model, over fixed-width
//! keys and over variable-length keys whose nodes split at differing key
//! counts (each node halves over an offset table of its entries).

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
    Insert(Vec<u8>, u64),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Floor(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
}

/// Operations over the keys `key` generates.
fn arb_tree_op<S>(key: S) -> impl Strategy<Value = TreeOp>
where
    S: Strategy<Value = Vec<u8>> + Clone + 'static,
{
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        key.clone().prop_map(TreeOp::Delete),
        key.clone().prop_map(TreeOp::Get),
        key.clone().prop_map(TreeOp::Floor),
        (key.clone(), key).prop_map(|(a, b)| TreeOp::Range(a.clone().min(b.clone()), a.max(b))),
    ]
}

fn key(k: u16) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// Two-byte big-endian keys: byte order is numeric order.
fn fixed_key() -> impl Strategy<Value = Vec<u8>> + Clone {
    any::<u16>().prop_map(key)
}

/// Keys of 0–11 bytes over a four-letter alphabet, so that keys collide,
/// prefix one another and differ in length inside one node, and nodes of
/// the same key count differ in size.
fn variable_key() -> impl Strategy<Value = Vec<u8>> + Clone {
    prop::collection::vec(0u8..4, 0..12)
}

/// Drives `tree` through `ops` beside a `BTreeMap`, checking every answer,
/// then the tree's structure and size.
fn matches_model(mut tree: BPlusTree, ops: &[TreeOp]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for op in ops {
        match op {
            TreeOp::Insert(k, v) => {
                let got = tree.insert(k, *v).unwrap();
                let expect = model.insert(k.clone(), *v);
                prop_assert_eq!(got, expect);
            }
            TreeOp::Delete(k) => {
                let got = tree.delete(k);
                match model.remove(k) {
                    Some(v) => prop_assert_eq!(got.unwrap(), v),
                    None => prop_assert!(got.is_err()),
                }
            }
            TreeOp::Get(k) => {
                prop_assert_eq!(tree.get(k).unwrap(), model.get(k).copied());
            }
            TreeOp::Floor(k) => {
                let got = tree.floor(k).unwrap();
                let expect = model
                    .range(..=k.clone())
                    .next_back()
                    .map(|(k, &v)| (k.clone(), v));
                prop_assert_eq!(got, expect);
            }
            TreeOp::Range(a, b) => {
                let got = tree.range(a, b).unwrap();
                let expect: Vec<(Vec<u8>, u64)> = model
                    .range(a.clone()..=b.clone())
                    .map(|(k, &v)| (k.clone(), v))
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }
    }
    tree.validate().map_err(TestCaseError::fail)?;
    prop_assert_eq!(tree.stats().unwrap().entries, model.len());
    let all = tree.range(&[], &[u8::MAX; 16]).unwrap();
    prop_assert_eq!(all.len(), model.len());
    prop_assert!(all.into_iter().eq(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_matches_btreemap(
        ops in prop::collection::vec(arb_tree_op(fixed_key()), 1..300),
        order in prop_oneof![Just(3usize), Just(8), Just(usize::MAX)],
        block_size in prop_oneof![Just(128usize), Just(4096)],
    ) {
        let tree = BPlusTree::create_with_order(pool(block_size), order).unwrap();
        matches_model(tree, &ops)?;
    }

    #[test]
    fn btree_matches_btreemap_with_variable_length_keys(
        ops in prop::collection::vec(arb_tree_op(variable_key()), 1..400),
        order in prop_oneof![Just(3usize), Just(8), Just(usize::MAX)],
        block_size in prop_oneof![Just(96usize), Just(256)],
    ) {
        let tree = BPlusTree::create_with_order(pool(block_size), order).unwrap();
        matches_model(tree, &ops)?;
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
