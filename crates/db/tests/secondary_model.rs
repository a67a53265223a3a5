//! `SecondaryIndex` against a model: seeded random `add_posting`,
//! `remove_posting`, `split_postings`, `add_block` and `remove_block` over
//! small blocks, so bucket chains span pages, checked after every step
//! against a `BTreeMap<value, BTreeSet<block>>`. Besides the lookups, the device must
//! hold exactly `Σ ⌈n / capacity⌉` bucket pages over the values with
//! `n ≥ 2` postings: no bucket for a lone posting and no leaked page.
//!
//! Then the indexes of a stored relation: block splits on a unique and on a
//! low-cardinality attribute, after each of which every index must hold
//! exactly the postings `SecondaryIndex::build` makes over the blocks.

use avq_codec::CodecOptions;
use avq_db::{Database, DbConfig, QueryCtx, SecondaryIndex};
use avq_index::Posting;
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_storage::{BlockDevice, BlockId, BufferPool, DiskProfile};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// 64-byte blocks: `(64 - 6) / 12 = 4` postings per bucket page.
const BLOCK: usize = 64;
const PER_PAGE: usize = 4;
const VALUES: u64 = 12;
const BLOCKS: u64 = 10;
/// The indexed attribute of the rows `add_block` is given.
const ATTR: usize = 1;

type Model = BTreeMap<u64, BTreeSet<BlockId>>;

/// splitmix64: a seeded, dependency-free source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn pool() -> Arc<BufferPool> {
    BufferPool::new(BlockDevice::new(BLOCK, DiskProfile::instant()), 16)
}

/// Device blocks that are neither tree nodes nor free: bucket pages.
fn bucket_pages(idx: &SecondaryIndex) -> usize {
    let tree = idx.tree();
    tree.pool().device().live_blocks() - tree.stats().unwrap().nodes
}

fn expected_pages(model: &Model) -> usize {
    model
        .values()
        .filter(|blocks| blocks.len() >= 2)
        .map(|blocks| blocks.len().div_ceil(PER_PAGE))
        .sum()
}

fn model_range(model: &Model, lo: u64, hi: u64) -> Vec<BlockId> {
    if lo > hi {
        return Vec::new();
    }
    let blocks: BTreeSet<BlockId> = model.range(lo..=hi).flat_map(|(_, b)| b).copied().collect();
    blocks.into_iter().collect()
}

fn check(idx: &SecondaryIndex, model: &Model, rng: &mut Rng, what: &str) {
    for _ in 0..4 {
        let (lo, hi) = (rng.below(VALUES + 2), rng.below(VALUES + 2));
        assert_eq!(
            idx.blocks_for_range(lo, hi).unwrap(),
            model_range(model, lo, hi),
            "{what}: range [{lo}, {hi}]"
        );
    }
    assert_eq!(
        idx.blocks_for_range(0, u64::MAX).unwrap(),
        model_range(model, 0, u64::MAX),
        "{what}: whole index"
    );
    assert_eq!(
        bucket_pages(idx),
        expected_pages(model),
        "{what}: bucket pages"
    );
}

/// Rows of a block whose indexed attribute takes a few random values,
/// some repeated.
fn rows(rng: &mut Rng) -> Vec<[u64; 2]> {
    (0..1 + rng.below(5))
        .map(|i| [i, rng.below(VALUES)])
        .collect()
}

#[test]
fn random_postings_match_the_model() {
    for seed in 0..48u64 {
        let mut rng = Rng(seed);
        let mut idx = SecondaryIndex::create(pool(), usize::MAX, ATTR).unwrap();
        let mut model = Model::new();
        for step in 0..250 {
            let block = rng.below(BLOCKS) as BlockId;
            let what = format!("seed {seed} step {step}");
            match rng.below(8) {
                // Adds outweigh removals early so chains grow past a page.
                0..=2 => {
                    let value = rng.below(VALUES);
                    idx.add_posting(value, block).unwrap();
                    model.entry(value).or_default().insert(block);
                }
                3..=4 => {
                    let value = rng.below(VALUES);
                    idx.remove_posting(value, block).unwrap();
                    if let Some(blocks) = model.get_mut(&value) {
                        blocks.remove(&block);
                    }
                }
                5 => {
                    let rows = rows(&mut rng);
                    idx.add_block(rows.iter().map(|r| r.as_slice()), block)
                        .unwrap();
                    for r in &rows {
                        model.entry(r[ATTR]).or_default().insert(block);
                    }
                }
                6 => {
                    let rows = rows(&mut rng);
                    idx.remove_block(rows.iter().map(|r| r.as_slice()), block)
                        .unwrap();
                    for r in &rows {
                        if let Some(blocks) = model.get_mut(&r[ATTR]) {
                            blocks.remove(&block);
                        }
                    }
                }
                _ => {
                    // `block` splits: some values stay, and the runs that
                    // leave carry some values, old or new, to other blocks.
                    let kept: Vec<u64> = (0..VALUES).filter(|_| rng.below(2) == 0).collect();
                    let mut moved: Vec<Posting> = Vec::new();
                    for _ in 0..1 + rng.below(2) {
                        let to = (block + 1 + rng.below(BLOCKS - 1) as BlockId) % BLOCKS as BlockId;
                        for _ in 0..1 + rng.below(4) {
                            moved.push(Posting {
                                value: rng.below(VALUES),
                                block: to,
                            });
                        }
                    }
                    moved.sort_unstable();
                    moved.dedup();
                    idx.split_postings(block, &kept, &moved).unwrap();
                    for p in &moved {
                        let blocks = model.entry(p.value).or_default();
                        blocks.insert(p.block);
                        if kept.binary_search(&p.value).is_err() {
                            blocks.remove(&block);
                        }
                    }
                }
            }
            model.retain(|_, blocks| !blocks.is_empty());
            check(&idx, &model, &mut rng, &what);
        }
        idx.tree().validate().unwrap();
    }
}

#[test]
fn build_equals_incremental_adds() {
    for seed in 0..32u64 {
        let mut rng = Rng(1_000 + seed);
        // Duplicates included: both paths must ignore them.
        let postings: Vec<Posting> = (0..rng.below(120))
            .map(|_| Posting {
                value: rng.below(VALUES * 3),
                block: rng.below(BLOCKS * 2) as BlockId,
            })
            .collect();
        let built = SecondaryIndex::build(pool(), usize::MAX, ATTR, postings.clone()).unwrap();
        let mut added = SecondaryIndex::create(pool(), usize::MAX, ATTR).unwrap();
        let mut model = Model::new();
        for p in &postings {
            added.add_posting(p.value, p.block).unwrap();
            model.entry(p.value).or_default().insert(p.block);
        }
        built.tree().validate().unwrap();
        for lo in 0..VALUES * 3 + 1 {
            for hi in lo..VALUES * 3 + 1 {
                assert_eq!(
                    built.blocks_for_range(lo, hi).unwrap(),
                    added.blocks_for_range(lo, hi).unwrap(),
                    "seed {seed}: range [{lo}, {hi}]"
                );
            }
        }
        assert_eq!(built.tree().stats().unwrap().entries, model.len());
        assert_eq!(bucket_pages(&built), expected_pages(&model), "seed {seed}");
        assert_eq!(bucket_pages(&added), expected_pages(&model), "seed {seed}");
    }
}

/// Every posting of block ids' rows on `attr`, built into a fresh index.
fn built_postings(db: &Database, attr: usize) -> Vec<Posting> {
    let rel = db.relation("t").unwrap();
    let mut postings = Vec::new();
    for b in rel.blocks() {
        let rows = rel.read_block(b.id, &QueryCtx::default()).unwrap().unwrap();
        postings.extend(
            rows.col(attr)
                .iter()
                .map(|&value| Posting { value, block: b.id }),
        );
    }
    let pool = BufferPool::new(BlockDevice::new(4096, DiskProfile::instant()), 64);
    let built = SecondaryIndex::build(pool, usize::MAX, attr, postings).unwrap();
    built.postings().unwrap()
}

#[test]
fn splits_keep_unique_and_low_cardinality_postings_exact() {
    const UNIQUE: usize = 2;
    const LOW: usize = 1;
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(8).unwrap()),
        ("low", Domain::uint(4).unwrap()),
        ("key", Domain::uint(1 << 20).unwrap()),
    ])
    .unwrap();
    let key = |i: u64| (i * 7919) % (1 << 20);
    let tuples: Vec<Tuple> = (0..1500u64)
        .map(|i| Tuple::from([i % 8, (i / 8) % 4, key(i)]))
        .collect();
    let config = DbConfig {
        codec: CodecOptions {
            block_capacity: 256,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut db = Database::new(config);
    db.create_relation("t", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db.create_secondary_index("t", LOW).unwrap();
    db.create_secondary_index("t", UNIQUE).unwrap();
    let repointed = || {
        avq_obs::global()
            .counter(avq_obs::names::DB_SPLIT_POSTINGS)
            .get()
    };
    let before = repointed();
    let mut rng = Rng(7);
    let mut live: Vec<Tuple> = db.relation("t").unwrap().scan_all().unwrap();
    let mut splits = 0;
    for step in 0..600u64 {
        let blocks = db.relation("t").unwrap().block_count();
        if step % 5 == 4 {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            db.relation_mut("t").unwrap().delete(&victim).unwrap();
        } else {
            // Clustered, so the same few blocks fill and split.
            let t = Tuple::from([3 + rng.below(2), rng.below(4), key(1500 + step)]);
            db.relation_mut("t").unwrap().insert(&t).unwrap();
            live.push(t);
        }
        if db.relation("t").unwrap().block_count() <= blocks {
            continue;
        }
        splits += 1;
        for attr in [LOW, UNIQUE] {
            let idx = db.relation("t").unwrap().secondary_index(attr).unwrap();
            assert_eq!(
                idx.postings().unwrap(),
                built_postings(&db, attr),
                "attribute {attr} after the split at step {step}"
            );
        }
    }
    assert!(splits >= 10, "{splits} splits");
    assert!(
        repointed() > before,
        "no unique posting was re-pointed in a batch"
    );
}
