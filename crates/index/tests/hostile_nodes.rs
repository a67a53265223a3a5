//! Lookups and leaf edits read node bytes in place, so they must treat every
//! node block as hostile, as the codec treats coded blocks: seeded garbage,
//! truncation, byte flips and a damaged offset table (an offset past the
//! entries, offsets out of order, a trailing count that disagrees with
//! `nkeys`, an offset inside an entry) of node blocks written through the
//! device make
//! `get`, `floor`, `range`, `insert`, `delete` and `patch_sorted` return
//! `Ok` or `Err(CorruptNode)` — never a panic, never a hang, never a
//! storage error for a pointer that names no block — and no edit writes
//! back a node that does not parse. A batch patch that fails writes
//! nothing at all.

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

/// Truncation, garbage or a few flipped bytes of `original`.
fn damage(rng: &mut Rng, seed: u64, original: &[u8], block: usize) -> Vec<u8> {
    match seed % 3 {
        // Truncation: a prefix of the real node.
        0 => original[..rng.below(original.len().max(1))].to_vec(),
        // Garbage of any length up to the block.
        1 => (0..rng.below(block + 1))
            .map(|_| rng.next() as u8)
            .collect(),
        // A few flipped bytes, header included.
        _ => {
            let mut b = original.to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(b.len());
                b[at] ^= 1 << rng.below(8);
            }
            b
        }
    }
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
        let damaged = damage(&mut rng, seed, &original, BLOCK);
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

#[test]
fn edits_of_damaged_nodes_yield_ok_or_corrupt_node() {
    const BLOCK: usize = 128;
    for seed in 0..1200u64 {
        // Even keys four to a node, every third one deleted so that leaves
        // have room for in-place inserts as well as splits.
        let device = BlockDevice::new(BLOCK, DiskProfile::instant());
        let pool = BufferPool::new(device.clone(), 64);
        let pairs: Vec<(Vec<u8>, u64)> = (0..120u64).map(|i| (key(2 * i).to_vec(), i)).collect();
        let mut tree = BPlusTree::bulk_build(pool.clone(), 4, &pairs).unwrap();
        for i in (0..120u64).step_by(3) {
            tree.delete(&key(2 * i)).unwrap();
        }
        let mut rng = Rng(seed);
        let id = rng.below(device.live_blocks()) as u32;
        let original = device.read(id).unwrap();
        let damaged = if seed % 4 == 3 {
            // A header that declares 65 535 entries.
            let mut b = original.clone();
            b[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
            b
        } else {
            damage(&mut rng, seed, &original, BLOCK)
        };
        pool.write(id, &damaged).unwrap();
        for _ in 0..6 {
            let k = key(rng.next() % 250);
            let before = device.read(id).unwrap();
            let (what, r) = if rng.below(2) == 0 {
                ("insert", tree.insert(&k, 7).map(drop))
            } else {
                ("delete", tree.delete(&k).map(drop))
            };
            match r {
                Ok(()) | Err(IndexError::KeyNotFound) | Err(IndexError::CorruptNode { .. }) => {}
                Err(e) => panic!("seed {seed}: {what} returned {e:?}"),
            }
            if !parses(&before) {
                assert_eq!(
                    device.read(id).unwrap(),
                    before,
                    "seed {seed}: {what} rewrote a node that does not parse"
                );
            }
        }
    }
}

#[test]
fn batch_patches_of_damaged_nodes_are_all_or_nothing() {
    const BLOCK: usize = 128;
    for seed in 0..1200u64 {
        let device = BlockDevice::new(BLOCK, DiskProfile::instant());
        let pool = BufferPool::new(device.clone(), 64);
        let pairs: Vec<(Vec<u8>, u64)> = (0..120u64).map(|i| (key(2 * i).to_vec(), i)).collect();
        let mut tree = BPlusTree::bulk_build(pool.clone(), 4, &pairs).unwrap();
        let mut rng = Rng(seed);
        let id = rng.below(device.live_blocks()) as u32;
        let original = device.read(id).unwrap();
        let damaged = if seed % 4 == 3 {
            let mut b = original.clone();
            b[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
            b
        } else {
            damage(&mut rng, seed, &original, BLOCK)
        };
        pool.write(id, &damaged).unwrap();
        let nodes: Vec<Vec<u8>> = (0..device.live_blocks() as u32)
            .map(|b| device.read(b).unwrap())
            .collect();
        let mut keys: Vec<[u8; 8]> = (0..1 + rng.below(40))
            .map(|_| key(rng.next() % 250))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let writes = device.io_stats().writes;
        match tree.patch_sorted(&keys, |_, v| Some(v + 1000)) {
            Ok(written) => {
                assert_eq!(device.io_stats().writes - writes, written as u64);
                if !parses(&damaged) {
                    assert_eq!(
                        device.read(id).unwrap(),
                        damaged,
                        "seed {seed}: the batch rewrote a node that does not parse"
                    );
                }
            }
            Err(IndexError::CorruptNode { .. }) => {
                for (b, before) in nodes.iter().enumerate() {
                    assert_eq!(
                        &device.read(b as u32).unwrap(),
                        before,
                        "seed {seed}: a failed batch wrote node {b}"
                    );
                }
            }
            Err(e) => panic!("seed {seed}: patch_sorted returned {e:?}"),
        }
    }
}

#[test]
fn damaged_offset_tables_yield_ok_or_corrupt_node() {
    const BLOCK: usize = 128;
    let mut damaged_nodes = 0;
    for seed in 0..1600u64 {
        let device = BlockDevice::new(BLOCK, DiskProfile::instant());
        let pool = BufferPool::new(device.clone(), 64);
        let pairs: Vec<(Vec<u8>, u64)> = (0..120u64).map(|i| (key(2 * i).to_vec(), i)).collect();
        let mut tree = BPlusTree::bulk_build(pool.clone(), 4, &pairs).unwrap();
        for i in (0..120u64).step_by(3) {
            tree.delete(&key(2 * i)).unwrap();
        }
        let mut rng = Rng(seed);
        let id = rng.below(device.live_blocks()) as u32;
        let original = device.read(id).unwrap();
        let Some(damaged) = damage_table(&mut rng, seed % 4, &original) else {
            continue;
        };
        assert!(
            !parses(&damaged),
            "seed {seed}: the damage left a whole node"
        );
        damaged_nodes += 1;
        pool.write(id, &damaged).unwrap();
        for _ in 0..6 {
            let (a, b) = (rng.next() % 250, rng.next() % 250);
            check("get", seed, tree.get(&key(a)));
            check("floor", seed, tree.floor(&key(a)));
            check("range", seed, tree.range(&key(a.min(b)), &key(a.max(b))));
            let before = device.read(id).unwrap();
            let (what, r) = if rng.below(2) == 0 {
                ("insert", tree.insert(&key(a), 7).map(drop))
            } else {
                ("delete", tree.delete(&key(a)).map(drop))
            };
            match r {
                Ok(()) | Err(IndexError::KeyNotFound) | Err(IndexError::CorruptNode { .. }) => {}
                Err(e) => panic!("seed {seed}: {what} returned {e:?}"),
            }
            if !parses(&before) {
                assert_eq!(
                    device.read(id).unwrap(),
                    before,
                    "seed {seed}: {what} rewrote a node that does not parse"
                );
            }
        }
        let keys: Vec<[u8; 8]> = (0..125u64).map(|i| key(2 * i)).collect();
        let nodes: Vec<Vec<u8>> = (0..device.live_blocks() as u32)
            .map(|b| device.read(b).unwrap())
            .collect();
        match tree.patch_sorted(&keys, |_, v| Some(v + 1000)) {
            Ok(_) => {}
            Err(IndexError::CorruptNode { .. }) => {
                for (b, before) in nodes.iter().enumerate() {
                    assert_eq!(&device.read(b as u32).unwrap(), before, "seed {seed}");
                }
            }
            Err(e) => panic!("seed {seed}: patch_sorted returned {e:?}"),
        }
    }
    assert!(damaged_nodes > 1200, "{damaged_nodes} nodes damaged");
}

/// Whether `bytes` hold a whole node: a known tag, a trailing count equal
/// to `nkeys`, and entries back to back from the header to the offset
/// table, each at the offset the table gives it (the layout in
/// `src/node.rs`, restated as the oracle).
fn parses(bytes: &[u8]) -> bool {
    let Some(layout) = layout(bytes) else {
        return false;
    };
    let value_len = if bytes[0] == 0 { 8 } else { 4 };
    let mut at = HEADER;
    for &off in &layout.offsets {
        if off != at {
            return false;
        }
        let Some(&[k0, k1]) = bytes.get(at..at + 2) else {
            return false;
        };
        at += 2 + u16::from_le_bytes([k0, k1]) as usize + value_len;
    }
    at == layout.table
}

const HEADER: usize = 7;

/// Where a node's offset table sits and what it holds, when its tag, its
/// trailing count and the table's extent are sound.
struct Layout {
    table: usize,
    offsets: Vec<usize>,
}

fn layout(bytes: &[u8]) -> Option<Layout> {
    let (&[tag, n0, n1, ..], _) = bytes.split_first_chunk::<HEADER>()?;
    if tag > 1 || bytes.len() < HEADER + 2 {
        return None;
    }
    let n = u16::from_le_bytes([n0, n1]) as usize;
    let end = bytes.len() - 2;
    if u16::from_le_bytes([bytes[end], bytes[end + 1]]) as usize != n {
        return None;
    }
    let table = end.checked_sub(2 * n).filter(|&t| t >= HEADER)?;
    let offsets = bytes[table..end]
        .chunks_exact(2)
        .map(|o| u16::from_le_bytes([o[0], o[1]]) as usize)
        .collect();
    Some(Layout { table, offsets })
}

/// `original` with its offset table damaged in way `kind`: an offset past
/// the entries, two offsets swapped, a trailing count that disagrees with
/// `nkeys`, or an offset moved into the middle of its entry. `None` when
/// the node has too few entries for that damage.
fn damage_table(rng: &mut Rng, kind: u64, original: &[u8]) -> Option<Vec<u8>> {
    let Layout { table, offsets } = layout(original)?;
    let mut b = original.to_vec();
    let set = |b: &mut Vec<u8>, i: usize, off: usize| {
        b[table + 2 * i..table + 2 * i + 2].copy_from_slice(&(off as u16).to_le_bytes());
    };
    let n = offsets.len();
    match kind {
        0 => {
            if n == 0 {
                return None;
            }
            let i = rng.below(n);
            set(&mut b, i, table + rng.below(u16::MAX as usize - table));
        }
        1 => {
            if n < 2 {
                return None;
            }
            let (i, j) = (rng.below(n), rng.below(n));
            let j = if i == j { (j + 1) % n } else { j };
            set(&mut b, i, offsets[j]);
            set(&mut b, j, offsets[i]);
        }
        2 => {
            let end = b.len() - 2;
            let count = (n as u16).wrapping_add(1 + rng.below(3) as u16);
            b[end..].copy_from_slice(&count.to_le_bytes());
        }
        _ => {
            if n == 0 {
                return None;
            }
            let i = rng.below(n);
            let next = offsets.get(i + 1).copied().unwrap_or(table);
            set(&mut b, i, offsets[i] + 1 + rng.below(next - offsets[i] - 1));
        }
    }
    Some(b)
}
