//! A durable database directory: `MANIFEST` + per-relation `.avq`
//! snapshots + `wal.log`.
//!
//! [`DurableDatabase`] wraps [`Database`] with write-ahead logging
//! (`avq-wal`): every mutation appends a logical record to the log *before*
//! applying it, so a crash at any byte loses at most the unsynced suffix
//! and never corrupts the store. [`DurableDatabase::open`] loads the newest
//! checkpoint snapshots named by the manifest, truncates any torn log tail,
//! and replays the surviving records through the ordinary mutation paths —
//! which means every invariant (block splits, index maintenance,
//! decoded-cache invalidation) is enforced by the same code as live
//! traffic. [`DurableDatabase::checkpoint`] copies each relation's coded
//! blocks, as the store holds them, into fresh snapshots via temp-file +
//! rename, atomically swaps the manifest, and truncates the log.
//!
//! Crash windows and why each is safe (DESIGN.md §9):
//!
//! * mid-append — the reader truncates the torn frame; earlier records
//!   survive because the manifest and snapshots were not touched;
//! * mid-snapshot-write — only `*.tmp` files exist; the old manifest still
//!   names the old generation and the full log replays over it;
//! * after snapshot renames, before the manifest rename — snapshots are
//!   generation-named (never overwritten in place), so the old manifest
//!   still pairs old snapshots with the old log;
//! * after the manifest rename, before log truncation — replay skips every
//!   record with `lsn <= checkpoint_lsn`, so nothing double-applies.

use crate::config::DbConfig;
use crate::database::Database;
use crate::error::DbError;
use avq_obs::names;
use avq_schema::{Relation, Tuple, Value};
use avq_wal::{
    recover, Lsn, Manifest, ManifestEntry, SyncPolicy, WalRecord, WalWriter, WalWriterStats,
    WAL_FILE,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// What [`DurableDatabase::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// LSN captured by the loaded snapshots (0 = no checkpoint yet).
    pub checkpoint_lsn: Lsn,
    /// Relations loaded from snapshot files.
    pub snapshots_loaded: usize,
    /// Log records applied on top of the snapshots.
    pub replayed: usize,
    /// Records skipped because the snapshots already contain them (or
    /// checkpoint markers, which are no-ops).
    pub skipped: usize,
    /// Records whose application failed the same way it failed at runtime
    /// (e.g. a logged delete of an absent tuple); counted, not fatal.
    pub failed: usize,
    /// Bytes of torn log tail truncated during recovery.
    pub torn_bytes: u64,
    /// Why the log's tail was considered torn, when it was.
    pub torn_reason: Option<String>,
    /// Highest LSN in the recovered log.
    pub last_lsn: Lsn,
}

/// What [`DurableDatabase::checkpoint`] wrote.
#[derive(Debug, Clone, Default)]
pub struct CheckpointReport {
    /// The LSN the snapshots capture.
    pub checkpoint_lsn: Lsn,
    /// Relations snapshotted.
    pub relations: usize,
    /// Total snapshot bytes written (before the log truncation).
    pub snapshot_bytes: u64,
}

/// A [`Database`] backed by a durable directory (snapshots + WAL).
#[derive(Debug)]
pub struct DurableDatabase {
    db: Database,
    dir: PathBuf,
    wal: WalWriter,
    checkpoint_lsn: Lsn,
}

impl DurableDatabase {
    /// Opens (creating if absent) the database directory at `dir`: loads
    /// the manifest's snapshot generation, truncates any torn log tail,
    /// and replays the remaining records. `config` supplies the runtime
    /// knobs (buffer pool, caches, disk model); each relation's coding
    /// options come from its snapshot or its `create-relation` record.
    pub fn open<P: AsRef<Path>>(
        dir: P,
        config: DbConfig,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(durability)?;
        let manifest = Manifest::read_dir(&dir)?.unwrap_or_default();
        let mut report = RecoveryReport {
            checkpoint_lsn: manifest.checkpoint_lsn,
            ..Default::default()
        };

        let mut db = Database::new(config);
        for entry in &manifest.relations {
            let coded = avq_file::load(dir.join(&entry.snapshot))?;
            db.create_relation_from_coded(&entry.name, &coded)?;
            for &attr in &entry.secondary_attrs {
                db.create_secondary_index(&entry.name, attr)?;
            }
            report.snapshots_loaded += 1;
        }

        let scan = recover(dir.join(WAL_FILE))?;
        report.torn_bytes = scan.torn_bytes;
        report.torn_reason = scan.torn_reason.clone();
        report.last_lsn = scan.last_lsn();
        for (lsn, record) in &scan.records {
            if *lsn <= manifest.checkpoint_lsn {
                report.skipped += 1;
                continue;
            }
            match apply_record(&mut db, record) {
                Ok(true) => report.replayed += 1,
                Ok(false) => report.skipped += 1,
                // Application failures that also failed at runtime (the
                // record was logged before the mutation was attempted)
                // replay deterministically: count and continue.
                Err(
                    DbError::TupleNotFound
                    | DbError::RelationExists { .. }
                    | DbError::NoSuchRelation { .. }
                    | DbError::IndexExists { .. },
                ) => report.failed += 1,
                Err(e) => return Err(e),
            }
        }

        let next_lsn = scan.last_lsn().max(manifest.checkpoint_lsn) + 1;
        let wal = WalWriter::open(dir.join(WAL_FILE), policy, next_lsn)?;
        Ok((
            DurableDatabase {
                db,
                dir,
                wal,
                checkpoint_lsn: manifest.checkpoint_lsn,
            },
            report,
        ))
    }

    /// The wrapped in-memory database (read-only: queries, stats). All
    /// mutations must go through the logged methods on `self`.
    #[inline]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The database directory.
    #[inline]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the most recently appended record.
    #[inline]
    pub fn last_lsn(&self) -> Lsn {
        self.wal.last_lsn()
    }

    /// LSN captured by the current snapshot generation.
    #[inline]
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Log-writer counters (records, bytes, fsyncs).
    #[inline]
    pub fn wal_stats(&self) -> WalWriterStats {
        self.wal.stats()
    }

    /// Forces all appended records to stable storage (useful under
    /// [`SyncPolicy::Manual`] / [`SyncPolicy::EveryN`]).
    pub fn sync(&mut self) -> Result<(), DbError> {
        self.wal.sync().map_err(DbError::from)
    }

    /// Creates and durably logs a relation. The relation is compressed
    /// with the database's coding options and the *compressed container*
    /// is logged, so the record is as small as the snapshot would be.
    pub fn create_relation(&mut self, name: &str, relation: &Relation) -> Result<(), DbError> {
        if self.db.relation(name).is_ok() {
            return Err(DbError::RelationExists {
                name: name.to_owned(),
            });
        }
        let coded = avq_codec::compress(relation, self.db.config().codec)?;
        let mut bytes = Vec::new();
        avq_file::write_coded_relation(&mut bytes, &coded)?;
        self.wal.append(&WalRecord::CreateRelation {
            name: name.to_owned(),
            coded: bytes,
        })?;
        self.db.create_relation_from_coded(name, &coded)
    }

    /// Durably drops a relation.
    pub fn drop_relation(&mut self, name: &str) -> Result<(), DbError> {
        self.wal.append(&WalRecord::DropRelation {
            name: name.to_owned(),
        })?;
        self.db.drop_relation(name)
    }

    /// Durably inserts an already-encoded tuple.
    pub fn insert_tuple(&mut self, name: &str, tuple: &Tuple) -> Result<(), DbError> {
        self.db.relation(name)?.schema().validate_tuple(tuple)?;
        self.wal.append(&WalRecord::Insert {
            relation: name.to_owned(),
            tuple: tuple.clone(),
        })?;
        self.db.relation_mut(name)?.insert(tuple)
    }

    /// Durably inserts a logical row.
    pub fn insert_row(&mut self, name: &str, row: &[Value]) -> Result<(), DbError> {
        let tuple = self.db.relation(name)?.schema().encode_row(row)?;
        self.insert_tuple(name, &tuple)
    }

    /// Durably inserts a batch of tuples under one group commit: all
    /// records are framed together and made durable with a single `fsync`
    /// (except under [`SyncPolicy::Manual`], which defers the sync).
    pub fn insert_tuples(&mut self, name: &str, tuples: &[Tuple]) -> Result<(), DbError> {
        let schema = self.db.relation(name)?.schema().clone();
        for t in tuples {
            schema.validate_tuple(t)?;
        }
        let records: Vec<WalRecord> = tuples
            .iter()
            .map(|t| WalRecord::Insert {
                relation: name.to_owned(),
                tuple: t.clone(),
            })
            .collect();
        self.wal.append_batch(&records)?;
        let rel = self.db.relation_mut(name)?;
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(())
    }

    /// Durably deletes an already-encoded tuple.
    pub fn delete_tuple(&mut self, name: &str, tuple: &Tuple) -> Result<(), DbError> {
        self.db.relation(name)?.schema().validate_tuple(tuple)?;
        self.wal.append(&WalRecord::Delete {
            relation: name.to_owned(),
            tuple: tuple.clone(),
        })?;
        self.db.relation_mut(name)?.delete(tuple)
    }

    /// Durably deletes a logical row.
    pub fn delete_row(&mut self, name: &str, row: &[Value]) -> Result<(), DbError> {
        let tuple = self.db.relation(name)?.schema().encode_row(row)?;
        self.delete_tuple(name, &tuple)
    }

    /// Durably replaces `old` with `new`.
    pub fn update_tuple(&mut self, name: &str, old: &Tuple, new: &Tuple) -> Result<(), DbError> {
        let schema = self.db.relation(name)?.schema().clone();
        schema.validate_tuple(old)?;
        schema.validate_tuple(new)?;
        self.wal.append(&WalRecord::Update {
            relation: name.to_owned(),
            old: old.clone(),
            new: new.clone(),
        })?;
        self.db.relation_mut(name)?.update(old, new)
    }

    /// Durably replaces one logical row with another.
    pub fn update_row(&mut self, name: &str, old: &[Value], new: &[Value]) -> Result<(), DbError> {
        let schema = self.db.relation(name)?.schema().clone();
        let old = schema.encode_row(old)?;
        let new = schema.encode_row(new)?;
        self.update_tuple(name, &old, &new)
    }

    /// Durably builds a secondary index (rebuilt from the manifest on
    /// open, replayed from the log before the next checkpoint).
    pub fn create_secondary_index(&mut self, name: &str, attr: usize) -> Result<(), DbError> {
        self.db.relation(name)?; // validate before logging
        self.wal.append(&WalRecord::CreateSecondaryIndex {
            relation: name.to_owned(),
            attribute: attr,
        })?;
        self.db.create_secondary_index(name, attr)
    }

    /// Checkpoints the database: copies every relation's coded blocks, as
    /// the store holds them and in φ order, into a fresh generation of
    /// snapshot files (temp-file + rename), atomically swaps the manifest,
    /// truncates the log, and deletes the old generation. No block is
    /// decoded to be re-packed; each is read through the buffer pool with
    /// its retry policy and validated as the snapshot reader validates it,
    /// and against the store's bookkeeping (see
    /// [`crate::StoredRelation::coded_relation`]). A block that fails —
    /// damaged, or quarantined by an earlier read and still damaged —
    /// fails the checkpoint with that typed error before any snapshot is
    /// renamed into place, so the manifest and the log stay as they were.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, DbError> {
        let span = avq_obs::span!(names::SPAN_DB_CHECKPOINT);
        avq_obs::counter!(names::DB_CHECKPOINTS).inc();
        self.wal.sync()?;
        let ck = self.wal.last_lsn();
        let mut snapshots = Vec::new();
        let (mut snapshot_bytes, mut blocks, mut copied) = (0u64, 0usize, 0u64);
        for (i, name) in self.db.relation_names().into_iter().enumerate() {
            let rel = self.db.relation(name)?;
            let coded = rel.coded_relation()?;
            blocks += coded.block_count();
            copied += coded.blocks().iter().map(|b| b.len() as u64).sum::<u64>();
            let mut bytes = Vec::new();
            avq_file::write_coded_relation(&mut bytes, &coded)?;
            snapshot_bytes += bytes.len() as u64;
            let entry = ManifestEntry {
                name: name.to_owned(),
                snapshot: format!("snap-{ck}-{i}.avq"),
                secondary_attrs: rel.secondary_attrs(),
            };
            snapshots.push((entry, bytes));
        }
        // Every relation validated: only now does anything reach the
        // directory.
        let mut entries = Vec::with_capacity(snapshots.len());
        for (entry, bytes) in snapshots {
            let tmp = self.dir.join(format!("{}.tmp", entry.snapshot));
            {
                let mut f = std::fs::File::create(&tmp).map_err(durability)?;
                f.write_all(&bytes).map_err(durability)?;
                f.sync_data().map_err(durability)?;
            }
            std::fs::rename(&tmp, self.dir.join(&entry.snapshot)).map_err(durability)?;
            entries.push(entry);
        }
        avq_wal::sync_dir(&self.dir);
        let relations = entries.len();
        let manifest = Manifest {
            checkpoint_lsn: ck,
            relations: entries,
        };
        manifest.write_dir(&self.dir)?;
        // The manifest now names the new generation; records at or below
        // `ck` are dead weight and the old snapshots unreachable.
        self.wal.truncate_for_checkpoint(ck)?;
        self.checkpoint_lsn = ck;
        self.remove_stale_snapshots(&manifest);
        span.attr(names::ATTR_BLOCKS, blocks as u64);
        span.attr(names::ATTR_BYTES, copied);
        Ok(CheckpointReport {
            checkpoint_lsn: ck,
            relations,
            snapshot_bytes,
        })
    }

    /// Deletes snapshot files from superseded generations (best-effort:
    /// a failure here leaves garbage, never corruption).
    fn remove_stale_snapshots(&self, manifest: &Manifest) {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            let is_snapshot = fname.starts_with("snap-")
                && (fname.ends_with(".avq") || fname.ends_with(".avq.tmp"));
            let live = manifest.relations.iter().any(|r| r.snapshot == fname);
            if is_snapshot && !live {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Applies one replayed record through the ordinary mutation paths.
/// Returns `Ok(false)` for records that are no-ops by design.
fn apply_record(db: &mut Database, record: &WalRecord) -> Result<bool, DbError> {
    match record {
        WalRecord::CreateRelation { name, coded } => {
            let rel = avq_file::read_coded_relation(&mut &coded[..])?;
            db.create_relation_from_coded(name, &rel)?;
        }
        WalRecord::Insert { relation, tuple } => db.relation_mut(relation)?.insert(tuple)?,
        WalRecord::Delete { relation, tuple } => db.relation_mut(relation)?.delete(tuple)?,
        WalRecord::Update { relation, old, new } => db.relation_mut(relation)?.update(old, new)?,
        WalRecord::CreateSecondaryIndex {
            relation,
            attribute,
        } => db.create_secondary_index(relation, *attribute)?,
        WalRecord::DropRelation { name } => db.drop_relation(name)?,
        WalRecord::Checkpoint { .. } => return Ok(false),
    }
    Ok(true)
}

fn durability(e: std::io::Error) -> DbError {
    DbError::Durability {
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_codec::CodecOptions;
    use avq_schema::{Domain, Schema};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avq-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_config() -> DbConfig {
        DbConfig {
            codec: CodecOptions {
                block_capacity: 512,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn people(n: u64) -> Relation {
        let schema = Schema::from_pairs(vec![
            (
                "dept",
                Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap(),
            ),
            ("age", Domain::uint(120).unwrap()),
            ("id", Domain::uint(10_000).unwrap()),
        ])
        .unwrap();
        let rows = (0..n).map(|i| {
            vec![
                Value::from(["eng", "hr", "ops"][(i % 3) as usize]),
                Value::Uint(20 + i % 50),
                Value::Uint(i),
            ]
        });
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn mutations_survive_reopen_without_checkpoint() {
        let dir = tmpdir("reopen");
        {
            let (mut db, report) =
                DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
            assert_eq!(report.replayed, 0);
            db.create_relation("people", &people(300)).unwrap();
            db.create_secondary_index("people", 1).unwrap();
            db.insert_row(
                "people",
                &[Value::from("hr"), Value::Uint(33), Value::Uint(9999)],
            )
            .unwrap();
            db.delete_row(
                "people",
                &[Value::from("eng"), Value::Uint(20), Value::Uint(0)],
            )
            .unwrap();
        }
        let (db, report) = DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
        assert_eq!(report.snapshots_loaded, 0, "no checkpoint happened");
        assert_eq!(report.replayed, 4);
        assert_eq!(report.torn_bytes, 0);
        let rel = db.database().relation("people").unwrap();
        assert_eq!(rel.tuple_count(), 300);
        assert!(rel.has_secondary_index(1));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_truncates_log_and_survives_reopen() {
        let dir = tmpdir("checkpoint");
        {
            let (mut db, _) =
                DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
            db.create_relation("people", &people(200)).unwrap();
            db.create_secondary_index("people", 2).unwrap();
            let ck = db.checkpoint().unwrap();
            assert_eq!(ck.relations, 1);
            assert!(ck.snapshot_bytes > 0);
            // Post-checkpoint mutations land in the fresh log.
            db.insert_row(
                "people",
                &[Value::from("ops"), Value::Uint(65), Value::Uint(7777)],
            )
            .unwrap();
        }
        let (db, report) = DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
        assert_eq!(report.snapshots_loaded, 1);
        assert_eq!(report.replayed, 1, "only the post-checkpoint insert");
        let rel = db.database().relation("people").unwrap();
        assert_eq!(rel.tuple_count(), 201);
        assert!(rel.has_secondary_index(2), "index rebuilt from manifest");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn logical_contents_identical_after_recovery() {
        let dir = tmpdir("equal");
        let mut reference = Database::new(small_config());
        reference.create_relation("people", &people(250)).unwrap();
        {
            let (mut db, _) =
                DurableDatabase::open(&dir, small_config(), SyncPolicy::EveryN(8)).unwrap();
            db.create_relation("people", &people(250)).unwrap();
            for i in 0..40u64 {
                let row = [
                    Value::from("eng"),
                    Value::Uint(20 + (i % 50)),
                    Value::Uint(5000 + i),
                ];
                db.insert_row("people", &row).unwrap();
                let t = reference
                    .relation("people")
                    .unwrap()
                    .schema()
                    .encode_row(&row)
                    .unwrap();
                reference
                    .relation_mut("people")
                    .unwrap()
                    .insert(&t)
                    .unwrap();
            }
            db.sync().unwrap();
        }
        let (db, _) = DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
        assert_eq!(
            db.database()
                .relation("people")
                .unwrap()
                .scan_all()
                .unwrap(),
            reference.relation("people").unwrap().scan_all().unwrap()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_mutations_replay_as_failures_not_errors() {
        let dir = tmpdir("failed");
        {
            let (mut db, _) =
                DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
            db.create_relation("people", &people(50)).unwrap();
            // Delete of an absent tuple: logged, then fails at runtime.
            let err = db.delete_row(
                "people",
                &[Value::from("hr"), Value::Uint(119), Value::Uint(9998)],
            );
            assert!(matches!(err, Err(DbError::TupleNotFound)));
        }
        let (db, report) = DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
        assert_eq!(report.failed, 1, "the doomed delete replays as a failure");
        assert_eq!(db.database().relation("people").unwrap().tuple_count(), 50);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = tmpdir("group");
        let (mut db, _) = DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
        db.create_relation("people", &people(100)).unwrap();
        let syncs_before = db.wal_stats().syncs;
        let schema = db.database().relation("people").unwrap().schema().clone();
        let tuples: Vec<Tuple> = (0..32u64)
            .map(|i| {
                schema
                    .encode_row(&[Value::from("hr"), Value::Uint(40), Value::Uint(6000 + i)])
                    .unwrap()
            })
            .collect();
        db.insert_tuples("people", &tuples).unwrap();
        assert_eq!(
            db.wal_stats().syncs,
            syncs_before + 1,
            "32 inserts, one fsync"
        );
        assert_eq!(db.database().relation("people").unwrap().tuple_count(), 132);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn blocks_of_copies_checkpoint_and_reopen() {
        // 5 000 copies of one tuple fill many blocks that share a min; the
        // checkpoint keeps those block boundaries, so the reopen's primary
        // index must take equal mins.
        let dir = tmpdir("copies");
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(4).unwrap()),
            ("b", Domain::uint(4).unwrap()),
        ])
        .unwrap();
        let copy = Tuple::from([1u64, 2]);
        let relation = Relation::from_tuples(schema, vec![copy.clone(); 5000]).unwrap();
        let config = DbConfig {
            codec: CodecOptions {
                block_capacity: 128,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut model = vec![copy.clone(); 5000];
        {
            let (mut db, _) = DurableDatabase::open(&dir, config, SyncPolicy::Always).unwrap();
            db.create_relation("t", &relation).unwrap();
            assert!(db.database().relation("t").unwrap().block_count() > 10);
            db.checkpoint().unwrap();
            for t in [Tuple::from([0u64, 0]), Tuple::from([3u64, 3]), copy.clone()] {
                db.insert_tuple("t", &t).unwrap();
                model.push(t);
            }
            for _ in 0..100 {
                db.delete_tuple("t", &copy).unwrap();
                model.remove(model.iter().position(|t| *t == copy).unwrap());
            }
            db.checkpoint().unwrap();
            db.insert_tuple("t", &Tuple::from([0u64, 1])).unwrap();
            model.push(Tuple::from([0u64, 1]));
        }
        model.sort_unstable();
        let (db, report) = DurableDatabase::open(&dir, config, SyncPolicy::Always).unwrap();
        assert_eq!((report.snapshots_loaded, report.replayed), (1, 1));
        let rel = db.database().relation("t").unwrap();
        assert_eq!(rel.scan_all().unwrap(), model);
        rel.primary_index().validate().unwrap();
        for t in [&copy, &Tuple::from([0u64, 0]), &Tuple::from([3u64, 3])] {
            assert!(rel.contains(t).unwrap().0, "{t:?}");
        }
        assert!(!rel.contains(&Tuple::from([2u64, 0])).unwrap().0);
        let (rows, _) = rel.select_range(0, 1, 1).unwrap();
        assert_eq!(rows.len(), 4901);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn drop_relation_is_durable() {
        let dir = tmpdir("drop");
        {
            let (mut db, _) =
                DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
            db.create_relation("a", &people(60)).unwrap();
            db.create_relation("b", &people(60)).unwrap();
            db.checkpoint().unwrap();
            db.drop_relation("a").unwrap();
        }
        let (db, _) = DurableDatabase::open(&dir, small_config(), SyncPolicy::Always).unwrap();
        assert!(db.database().relation("a").is_err());
        assert!(db.database().relation("b").is_ok());
        std::fs::remove_dir_all(dir).ok();
    }
}
