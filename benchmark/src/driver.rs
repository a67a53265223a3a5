//! The untraced driver: set-up and the timed facade call of every op.
//!
//! This file is the whole of the engine's surface that the end-to-end run
//! touches — `avq_sql::run`, `Database::{new, create_relation,
//! create_secondary_index, relation, insert_row, delete_row, update_row,
//! io_stats, pool_stats, decoded_stats}`, `StoredRelation::{scan_all,
//! tuple_count, block_count}` and `DurableDatabase::{open, create_relation,
//! create_secondary_index, insert_tuple, delete_tuple, update_tuple,
//! checkpoint, sync, database}` — so that clean-ups of the `_traced` /
//! `_governed` / `decode_*into*` families cannot break it.

use crate::refclock;
use crate::tmp::TmpDir;
use crate::workload::{Data, Op, Workload, DIM, REL};
use avq_db::{Database, DbConfig, DurableDatabase, RecoveryReport, SyncPolicy};
use avq_schema::{Schema, Tuple, Value};
use avq_sql::{QueryResult, SqlOutcome};

/// `ingest_durable`'s stated flush policy.
pub const SYNC_POLICY: SyncPolicy = SyncPolicy::EveryN(64);

/// The system under test.
pub enum Store {
    /// An in-memory [`Database`].
    Mem(Database),
    /// A WAL-backed database in a scratch directory.
    Durable(DurableDatabase, TmpDir),
}

/// Wall time of the index builds of one set-up, by indexed attribute.
pub type IndexBuilds = Vec<(usize, f64)>;

impl Store {
    /// Loads `data` and builds the workload's indexes with
    /// `DbConfig::default()` throughout — the benchmark tunes nothing.
    pub fn load(workload: Workload, data: &Data) -> Result<(Store, IndexBuilds), String> {
        let mut builds = IndexBuilds::new();
        let mut timed = |attr: usize, build: &mut dyn FnMut() -> Result<(), String>| {
            let (ns, built) = refclock::timed_build(build);
            built?;
            builds.push((attr, ns as f64 / 1e9));
            Ok::<(), String>(())
        };
        let store = if workload == Workload::IngestDurable {
            let dir = TmpDir::new(workload.name())?;
            let (mut db, _) =
                DurableDatabase::open(dir.path(), DbConfig::default(), SYNC_POLICY).map_err(err)?;
            db.create_relation(REL, &data.relation).map_err(err)?;
            for &attr in workload.indexed_attrs() {
                timed(attr, &mut || {
                    db.create_secondary_index(REL, attr).map_err(err)
                })?;
            }
            Store::Durable(db, dir)
        } else {
            let mut db = Database::new(DbConfig::default());
            db.create_relation(REL, &data.relation).map_err(err)?;
            if let Some(dim) = &data.dimension {
                db.create_relation(DIM, dim).map_err(err)?;
            }
            for &attr in workload.indexed_attrs() {
                timed(attr, &mut || {
                    db.create_secondary_index(REL, attr).map_err(err)
                })?;
            }
            Store::Mem(db)
        };
        Ok((store, builds))
    }

    /// The database that serves reads and statistics.
    pub fn db(&self) -> &Database {
        match self {
            Store::Mem(db) => db,
            Store::Durable(db, _) => db.database(),
        }
    }

    /// Forces the log to disk, drops the handle and opens the directory
    /// again. Returns the reopened store, the open's wall time and what it
    /// replayed. In-memory stores come back unchanged.
    pub fn reopen(self) -> Result<(Store, f64, RecoveryReport), String> {
        match self {
            Store::Mem(_) => Ok((self, 0.0, RecoveryReport::default())),
            Store::Durable(mut db, dir) => {
                db.sync().map_err(err)?;
                drop(db);
                let (ns, opened) = refclock::timed_build(|| {
                    DurableDatabase::open(dir.path(), DbConfig::default(), SYNC_POLICY)
                });
                let (db, report) = opened.map_err(err)?;
                Ok((Store::Durable(db, dir), ns as f64 / 1e9, report))
            }
        }
    }

    /// The relation's tuples in φ order.
    pub fn scan_all(&self) -> Result<Vec<Tuple>, String> {
        self.db()
            .relation(REL)
            .map_err(err)?
            .scan_all()
            .map_err(err)
    }

    /// `(live tuples, data blocks)` of the benchmarked relation.
    pub fn size(&self) -> Result<(usize, usize), String> {
        let rel = self.db().relation(REL).map_err(err)?;
        Ok((rel.tuple_count(), rel.block_count()))
    }
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What one op returned: a result table for reads, the snapshot size for a
/// checkpoint, nothing for other writes.
pub enum Output {
    /// A read's result table.
    Table(QueryResult),
    /// A checkpoint's snapshot bytes.
    Snapshot(u64),
    /// A completed mutation.
    Done,
}

/// An op with its arguments converted to what the facade takes.
pub enum Call<'a> {
    /// `avq_sql::run`.
    Sql(&'a str),
    /// `Database::insert_row`.
    InsertRow(Vec<Value>),
    /// `Database::delete_row`.
    DeleteRow(Vec<Value>),
    /// `Database::update_row`.
    UpdateRow(Vec<Value>, Vec<Value>),
    /// `DurableDatabase::insert_tuple`.
    InsertTuple(&'a Tuple),
    /// `DurableDatabase::delete_tuple`.
    DeleteTuple(&'a Tuple),
    /// `DurableDatabase::update_tuple`.
    UpdateTuple(&'a Tuple, &'a Tuple),
    /// `DurableDatabase::checkpoint`.
    Checkpoint,
}

/// Converts `op`'s arguments; this is outside every timed section.
pub fn prepare<'a>(store: &Store, schema: &Schema, op: &'a Op) -> Result<Call<'a>, String> {
    let row = |t: &Tuple| schema.decode_row(t).map_err(err);
    Ok(match (store, op) {
        (_, Op::Read(stmt)) => Call::Sql(&stmt.sql),
        (Store::Mem(_), Op::Insert(t)) => Call::InsertRow(row(t)?),
        (Store::Mem(_), Op::Delete(t)) => Call::DeleteRow(row(t)?),
        (Store::Mem(_), Op::Update(old, new)) => Call::UpdateRow(row(old)?, row(new)?),
        (Store::Mem(_), Op::Checkpoint) => {
            return Err("checkpoint on an in-memory store".to_owned())
        }
        (Store::Durable(..), Op::Insert(t)) => Call::InsertTuple(t),
        (Store::Durable(..), Op::Delete(t)) => Call::DeleteTuple(t),
        (Store::Durable(..), Op::Update(old, new)) => Call::UpdateTuple(old, new),
        (Store::Durable(..), Op::Checkpoint) => Call::Checkpoint,
    })
}

/// The single facade call of one op.
pub fn issue(store: &mut Store, call: &Call<'_>) -> Result<Output, String> {
    let done = |r: Result<(), avq_db::DbError>| r.map(|()| Output::Done).map_err(err);
    match (store, call) {
        (store, Call::Sql(sql)) => match avq_sql::run(store.db(), sql).map_err(err)? {
            SqlOutcome::Table(t) => Ok(Output::Table(t)),
            SqlOutcome::Plan(_) => Err("statement returned a plan, not a table".to_owned()),
        },
        (Store::Mem(db), Call::InsertRow(row)) => done(db.insert_row(REL, row)),
        (Store::Mem(db), Call::DeleteRow(row)) => done(db.delete_row(REL, row)),
        (Store::Mem(db), Call::UpdateRow(old, new)) => done(db.update_row(REL, old, new)),
        (Store::Durable(db, _), Call::InsertTuple(t)) => done(db.insert_tuple(REL, t)),
        (Store::Durable(db, _), Call::DeleteTuple(t)) => done(db.delete_tuple(REL, t)),
        (Store::Durable(db, _), Call::UpdateTuple(old, new)) => {
            done(db.update_tuple(REL, old, new))
        }
        (Store::Durable(db, _), Call::Checkpoint) => db
            .checkpoint()
            .map(|report| Output::Snapshot(report.snapshot_bytes))
            .map_err(err),
        _ => Err("the call does not fit the store".to_owned()),
    }
}

/// Issues `op` through the facade. Only the facade call itself is timed
/// (in reference nanoseconds, see [`refclock`]).
pub fn execute(store: &mut Store, schema: &Schema, op: &Op) -> (u64, Result<Output, String>) {
    match prepare(store, schema, op) {
        Ok(call) => refclock::timed(|| issue(store, &call)),
        Err(e) => (0, Err(e)),
    }
}
