//! Lookups walk node bytes in place, so they must treat every node block as
//! hostile, as the codec treats coded blocks: seeded garbage, truncation and
//! byte flips of node blocks written through the device make `get`, `floor`
//! and `range` return `Ok` or `Err(CorruptNode)` — never a panic, never a
//! hang, never a storage error for a pointer that names no block.

use avq_index::{BPlusTree, IndexError};
use avq_storage::{BlockDevice, BufferPool, DiskProfile};

/// splitmix64: a seeded, dependency-free byte source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

/// Every outcome a lookup may have on a damaged tree.
fn check<T>(what: &str, seed: u64, r: Result<T, IndexError>) {
    match r {
        Ok(_) | Err(IndexError::CorruptNode { .. }) => {}
        Err(e) => panic!("seed {seed}: {what} returned {e:?}"),
    }
}

#[test]
fn damaged_nodes_yield_ok_or_corrupt_node() {
    const BLOCK: usize = 128;
    let device = BlockDevice::new(BLOCK, DiskProfile::instant());
    let pool = BufferPool::new(device.clone(), 64);
    // Inserted in a scrambled order, so splits leave part-full nodes and
    // the tree is several levels deep over small blocks.
    let mut tree = BPlusTree::create(pool.clone()).unwrap();
    for i in 0..600u64 {
        let k = (i * 7919) % 1000;
        tree.insert(&key(k), k).unwrap();
    }
    for k in (0..1000u64).step_by(5) {
        let _ = tree.delete(&key(k));
    }
    assert!(tree.stats().unwrap().height >= 3);
    let nodes = device.live_blocks() as u64;

    for seed in 0..3000u64 {
        let mut rng = Rng(seed);
        let id = rng.below(nodes as usize) as u32;
        let original = device.read(id).unwrap();
        let damaged = match seed % 3 {
            // Truncation: a prefix of the real node.
            0 => original[..rng.below(original.len().max(1))].to_vec(),
            // Garbage of any length up to the block.
            1 => (0..rng.below(BLOCK + 1))
                .map(|_| rng.next() as u8)
                .collect(),
            // A few flipped bytes, header included.
            _ => {
                let mut b = original.clone();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(b.len());
                    b[at] ^= 1 << rng.below(8);
                }
                b
            }
        };
        pool.write(id, &damaged).unwrap();
        for _ in 0..8 {
            let (a, b) = (rng.next() % 1100, rng.next() % 1100);
            check("get", seed, tree.get(&key(a)));
            check("floor", seed, tree.floor(&key(a)));
            check("range", seed, tree.range(&key(a.min(b)), &key(a.max(b))));
        }
        pool.write(id, &original).unwrap();
    }
    tree.validate().unwrap();
}
