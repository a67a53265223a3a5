//! Every block's synopsis equals one recomputed from its bytes.
//!
//! A seeded stream of inserts, deletes and updates runs against a durable
//! relation in every coding mode. It forces block splits, empties and frees
//! blocks, piles up duplicate tuples inside one block, deletes the tuple
//! that holds a column's minimum or maximum, drives a huge column's block
//! sums past `u64`, checkpoints, and reopens the directory (snapshot load
//! plus log replay). After every step, with both caches dropped, each
//! block's count, bounds and synopsis must equal those of a fresh decode of
//! the bytes the device holds, and the relation must equal the model.
//!
//! `AVQ_EXHAUSTIVE=1` runs more seeds.

use avq_codec::{CodecOptions, CodingMode};
use avq_db::{DbConfig, DurableDatabase, QueryCtx, SyncPolicy, Synopsis};
use avq_schema::{Domain, Relation, Schema, Tuple};
use std::path::PathBuf;
use std::sync::Arc;

/// A value of `d` large enough that four of them overflow a `u64` sum.
const HUGE: u64 = 1 << 62;

fn exhaustive() -> bool {
    std::env::var_os("AVQ_EXHAUSTIVE").is_some_and(|v| v == "1")
}

/// SplitMix64: a seeded stream, so a failing seed replays.
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

    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

fn schema() -> Arc<Schema> {
    Schema::from_pairs(vec![
        ("a", Domain::uint(8).unwrap()),
        ("b", Domain::uint(4).unwrap()),
        ("c", Domain::uint(64).unwrap()),
        ("d", Domain::uint(HUGE + 16).unwrap()),
    ])
    .unwrap()
}

/// A random tuple; `hot` puts it in the clustered region that splits.
fn tuple(rng: &mut Rng, hot: bool) -> Tuple {
    let a = if hot { 3 } else { rng.below(8) };
    let d = if rng.below(8) == 0 {
        HUGE + rng.below(16)
    } else {
        rng.below(16)
    };
    Tuple::from([a, rng.below(4), rng.below(64), d])
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avq-synopsis-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(mode: CodingMode) -> DbConfig {
    DbConfig {
        codec: CodecOptions {
            mode,
            block_capacity: 128,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Checks every block of `t` against a fresh decode of its device bytes,
/// and the relation against `model`. Leaves the caches cold when `cold`.
fn check(db: &DurableDatabase, model: &[Tuple], cold: bool, at: &str) {
    let db = db.database();
    db.drop_caches();
    let rel = db.relation("t").unwrap();
    let ctx = QueryCtx::default();
    for b in rel.blocks() {
        let fresh = rel.read_block(b.id, &ctx).unwrap().unwrap();
        assert_eq!(fresh.len(), b.count, "{at}: block {} count", b.id);
        assert_eq!(b.min, fresh.tuple(0), "{at}: block {} min", b.id);
        assert_eq!(b.max, fresh.tuple(b.count - 1), "{at}: block {} max", b.id);
        let expect = Synopsis::of_batch(&fresh);
        assert_eq!(b.synopsis, expect, "{at}: block {} synopsis", b.id);
    }
    assert_eq!(rel.scan_all().unwrap(), model, "{at}: contents");
    if cold {
        db.drop_caches();
    }
}

/// The tuple of a random block that holds a random column's minimum or
/// maximum there.
fn extreme(db: &DurableDatabase, rng: &mut Rng) -> Tuple {
    let rel = db.database().relation("t").unwrap();
    let b = &rel.blocks()[rng.index(rel.block_count())];
    let rows = rel.read_block(b.id, &QueryCtx::default()).unwrap().unwrap();
    let col = rows.col(rng.index(4));
    let want = if rng.below(2) == 0 {
        col.iter().min()
    } else {
        col.iter().max()
    };
    let i = col.iter().position(|v| Some(v) == want).unwrap();
    rows.tuple(i)
}

fn insert(db: &mut DurableDatabase, model: &mut Vec<Tuple>, t: Tuple) {
    db.insert_tuple("t", &t).unwrap();
    model.insert(model.partition_point(|x| *x <= t), t);
}

fn delete(db: &mut DurableDatabase, model: &mut Vec<Tuple>, t: &Tuple) {
    db.delete_tuple("t", t).unwrap();
    model.remove(model.binary_search(t).unwrap());
}

/// What the stream did, so the test can show it reached every case.
#[derive(Debug, Default)]
struct Tally {
    splits: usize,
    frees: usize,
    unknown_sums: usize,
    reopens: usize,
}

fn run(mode: CodingMode, seed: u64, steps: usize, tally: &mut Tally) {
    let tag = format!("{mode}-{seed}");
    let dir = tmpdir(&tag);
    let mut rng = Rng(seed);
    let mut model: Vec<Tuple> = (0..300).map(|_| tuple(&mut rng, false)).collect();
    model.sort_unstable();
    let relation = Relation::from_tuples(schema(), model.clone()).unwrap();
    let open = || DurableDatabase::open(&dir, config(mode), SyncPolicy::Manual).unwrap();
    let (mut db, _) = open();
    db.create_relation("t", &relation).unwrap();
    check(&db, &model, true, &format!("{tag} load"));

    for step in 0..steps {
        let blocks = db.database().relation("t").unwrap().block_count();
        match rng.below(16) {
            // Clustered inserts split blocks.
            0..=4 => insert(&mut db, &mut model, tuple(&mut rng, true)),
            5 => insert(&mut db, &mut model, tuple(&mut rng, false)),
            // A copy of a stored tuple lands next to it, in its block.
            6 | 7 => {
                let t = model[rng.index(model.len())].clone();
                insert(&mut db, &mut model, t);
            }
            8 | 9 => {
                let t = model[rng.index(model.len())].clone();
                delete(&mut db, &mut model, &t);
            }
            10 | 11 => {
                let t = extreme(&db, &mut rng);
                delete(&mut db, &mut model, &t);
            }
            12 | 13 => {
                let old = model[rng.index(model.len())].clone();
                let hot = rng.below(2) == 0;
                let new = tuple(&mut rng, hot);
                db.update_tuple("t", &old, &new).unwrap();
                model.remove(model.binary_search(&old).unwrap());
                model.insert(model.partition_point(|x| *x <= new), new);
            }
            // Empty the smallest block: it is freed. Emptying one whose
            // last tuple also starts the next block leaves two blocks that
            // share a min, which the primary index keys apart.
            14 => {
                let rel = db.database().relation("t").unwrap();
                let b = rel.blocks().iter().min_by_key(|b| b.count).unwrap();
                let rows = rel.read_block(b.id, &QueryCtx::default()).unwrap().unwrap();
                for t in rows.to_tuples() {
                    delete(&mut db, &mut model, &t);
                }
            }
            _ => {
                if rng.below(2) == 0 {
                    db.checkpoint().unwrap();
                } else {
                    db.sync().unwrap();
                    drop(db);
                    db = open().0;
                    tally.reopens += 1;
                }
            }
        }
        check(&db, &model, step % 2 == 0, &format!("{tag} step {step}"));
        let rel = db.database().relation("t").unwrap();
        tally.splits += usize::from(rel.block_count() > blocks);
        tally.frees += usize::from(rel.block_count() < blocks);
        let unknown = rel.blocks().iter().filter(|b| b.column(3).sum().is_none());
        tally.unknown_sums += unknown.count();
    }
    drop(db);
    let (db, _) = open();
    check(&db, &model, true, &format!("{tag} reopen"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn synopses_equal_a_fresh_decode_after_every_step() {
    let (seeds, steps) = if exhaustive() { (24, 400) } else { (3, 150) };
    for mode in CodingMode::ALL {
        let mut tally = Tally::default();
        // Field-wise seed 0x5EED_0001 empties a block whose last tuple
        // starts the next one, and then inserts below the first of the two
        // blocks that share a min.
        for seed in 0..seeds {
            run(mode, 0x5EED_0000 + seed, steps, &mut tally);
        }
        let Tally {
            splits,
            frees,
            unknown_sums,
            reopens,
        } = tally;
        assert!(
            splits > 0 && frees > 0 && unknown_sums > 0 && reopens > 0,
            "{mode}: {tally:?}"
        );
    }
}
