//! A checkpoint never drops a block.
//!
//! A checkpoint truncates the log, so a block it leaves out of the snapshot
//! is lost for good. Here one data block of a durable relation larger than
//! its decoded cache is damaged on the device — a seeded bit flip on every
//! read, or a torn write of the next edit — under both scan policies. A scan
//! first meets it: under `SkipCorrupt` it quarantines the block, under
//! `FailFast` it fails with a typed error. The checkpoint must fail with
//! a typed error and leave `MANIFEST`, the log and the snapshot files as
//! they were, and a reopen without the fault must equal the model.

use avq_codec::CodecOptions;
use avq_db::{DbConfig, DbError, DurableDatabase, ScanPolicy, SyncPolicy};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_storage::{FaultKind, FaultPlan};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avq-ckfault-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(policy: ScanPolicy) -> DbConfig {
    DbConfig {
        codec: CodecOptions {
            block_capacity: 256,
            ..Default::default()
        },
        decoded_cache_blocks: 4,
        scan_policy: policy,
        ..Default::default()
    }
}

fn relation() -> Relation {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(16).unwrap()),
        ("b", Domain::uint(64).unwrap()),
        ("c", Domain::uint(4096).unwrap()),
    ])
    .unwrap();
    let tuples = (0..2000u64)
        .map(|i| Tuple::from([i % 16, (i * 13) % 64, (i * 29) % 4096]))
        .collect();
    Relation::from_tuples(schema, tuples).unwrap()
}

/// Every file of the directory with its bytes, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Damages one block with `kind` under `policy`, fails a checkpoint on
/// it, and reopens without the fault.
fn damaged_block_fails_the_checkpoint(policy: ScanPolicy, kind: FaultKind) {
    let what = format!("{policy:?} {kind:?}");
    let dir = tmpdir(&format!("{policy:?}-{kind:?}"));
    let (mut db, _) = DurableDatabase::open(&dir, config(policy), SyncPolicy::Always).unwrap();
    db.create_relation("t", &relation()).unwrap();
    db.create_secondary_index("t", 1).unwrap();
    db.checkpoint().unwrap();
    let mut model = db.database().relation("t").unwrap().scan_all().unwrap();
    // Logged after the checkpoint: only the log holds these.
    for i in 0..40u64 {
        let t = Tuple::from([7, i % 64, 4000 + i]);
        db.insert_tuple("t", &t).unwrap();
        model.push(t);
    }
    let rel = db.database().relation("t").unwrap();
    let blocks = rel.block_count();
    assert!(blocks > 3 * 4, "{what}: the relation outgrows the cache");
    let target = rel.blocks()[blocks / 3].clone();
    let device = db.database().device().clone();
    device.set_fault_plan(FaultPlan::new(0x5EED).with_fault_on(kind, [target.id]));
    if kind == FaultKind::TornWrite {
        // The edit's write of the target block persists a prefix.
        let t = target.min.clone();
        db.insert_tuple("t", &t).unwrap();
        model.push(t);
    }
    db.database().drop_caches();
    // A read of the damaged block fails typed: a flip that still decodes
    // moves the block's rows off its recorded count, min or max, which the
    // miss checks. Under `SkipCorrupt` the scan quarantines the block and
    // goes on; under `FailFast` it stops with the error.
    let scan = db.database().relation("t").unwrap().scan_all();
    let rel = db.database().relation("t").unwrap();
    match policy {
        ScanPolicy::SkipCorrupt => {
            scan.unwrap();
            assert_eq!(rel.quarantined_blocks(), [target.id], "{what}");
        }
        ScanPolicy::FailFast => {
            let err = scan.unwrap_err();
            assert!(
                matches!(err, DbError::Codec(_) | DbError::Storage(_)),
                "{what}: {err:?}"
            );
            assert!(rel.quarantined_blocks().is_empty(), "{what}");
        }
    }
    let before = files(&dir);
    let err = db.checkpoint().unwrap_err();
    assert!(
        matches!(
            err,
            DbError::Codec(_) | DbError::Storage(_) | DbError::Durability { .. }
        ),
        "{what}: {err:?}"
    );
    assert_eq!(
        files(&dir),
        before,
        "{what}: the failed checkpoint changed the directory"
    );
    drop(db);

    let (db, _) = DurableDatabase::open(&dir, config(policy), SyncPolicy::Always).unwrap();
    model.sort_unstable();
    assert_eq!(
        db.database().relation("t").unwrap().scan_all().unwrap(),
        model,
        "{what}: reopened without the fault"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fail_fast_bit_flip() {
    damaged_block_fails_the_checkpoint(ScanPolicy::FailFast, FaultKind::BitFlip);
}

#[test]
fn fail_fast_torn_write() {
    damaged_block_fails_the_checkpoint(ScanPolicy::FailFast, FaultKind::TornWrite);
}

#[test]
fn skip_corrupt_bit_flip() {
    damaged_block_fails_the_checkpoint(ScanPolicy::SkipCorrupt, FaultKind::BitFlip);
}

#[test]
fn skip_corrupt_torn_write() {
    damaged_block_fails_the_checkpoint(ScanPolicy::SkipCorrupt, FaultKind::TornWrite);
}
