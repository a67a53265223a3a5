//! Layer probes: after the traced replay, each layer's public functions
//! are timed on the workload's own data. One file per layer (= crate), so
//! a later benchmark change can re-point one probe without touching the
//! rest. Every probe is bounded in work, not in time: the same seed does
//! the same calls.

pub mod codec;
pub mod db;
pub mod file;
pub mod index;
pub mod num;
pub mod obs;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod wal;

use crate::driver::{err, Store};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::tmp::TmpDir;
use crate::workload::{Workload, REL};
use crate::Args;
use avq_db::Database;
use avq_schema::{Schema, Tuple};
use std::sync::Arc;

/// What a probe works on.
pub struct Probe<'a> {
    /// The workload that just ran.
    pub workload: Workload,
    /// Its database, in the state the run left it.
    pub db: &'a Database,
    /// The relation's schema.
    pub schema: Arc<Schema>,
    /// The relation's first tuples in φ order ([`SAMPLE_TUPLES`] at most).
    pub sample: Vec<Tuple>,
    /// A scratch directory for probes that write files.
    pub tmp: &'a TmpDir,
    /// Seeded choices (which blocks, which keys).
    pub rng: Rng,
}

/// A probe works on the whole relation when it is smaller than this, else
/// on its first tuples in φ order: probes rebuild and re-code their input,
/// which set-up already timed at full size.
pub const SAMPLE_TUPLES: usize = 65_536;

/// Runs every layer's probe.
pub fn probe_all(args: &Args, store: &Store, m: &mut Metrics) -> Result<(), String> {
    let tmp = TmpDir::new("probes")?;
    let rel = store.db().relation(REL).map_err(err)?;
    let mut sample = rel.scan_all().map_err(err)?;
    sample.truncate(SAMPLE_TUPLES);
    let mut p = Probe {
        workload: args.workload,
        db: store.db(),
        schema: rel.schema().clone(),
        sample,
        tmp: &tmp,
        rng: Rng::new(args.seed, 3),
    };
    db::probe(&mut p, m)?;
    codec::probe(&mut p, m)?;
    storage::probe(&mut p, m)?;
    index::probe(&mut p, m)?;
    wal::probe(&mut p, m)?;
    file::probe(&mut p, m)?;
    num::probe(&mut p, m)?;
    schema::probe(&mut p, m)?;
    obs::probe(&mut p, m)?;
    Ok(())
}

/// Reference nanoseconds a call took (see [`crate::refclock`]).
pub use crate::refclock::timed as time_ns;

/// Median nanoseconds of `reps` calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..reps).map(|_| time_ns(&mut f).0).collect();
    crate::stats::median(&samples)
}
