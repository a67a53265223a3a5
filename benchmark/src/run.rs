//! The closed loop: one client, one op at a time, every result checked
//! against the model outside the timed section.

use crate::driver::{Output, Store};
use crate::workload::{Generator, Op};
use avq_schema::Schema;
use std::time::{Duration, Instant};

/// Issues one op and returns `(latency in ns, what it returned)`. The
/// untraced run passes [`crate::driver::execute`]; the traced run wraps
/// the same calls in spans.
pub type Execute<'a> = dyn FnMut(&mut Store, &Schema, &Op) -> (u64, Result<Output, String>) + 'a;

/// What a stretch of ops measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every op, in issue order, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Ops that returned an error or disagreed with the model.
    pub failed: u64,
    /// Latency of the checkpoints among the ops.
    pub checkpoint_ns: Vec<u64>,
    /// Snapshot bytes those checkpoints wrote.
    pub snapshot_bytes: u64,
    /// Tuples added to or removed from the relation.
    pub mutated_tuples: u64,
}

impl Phase {
    /// Ops issued.
    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Σ op latency in seconds: the measured wall of a closed loop with no
    /// think time. Model checking and op generation are outside it.
    pub fn busy_s(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Completed ops per second of measured wall, checkpoints included.
    pub fn ops_per_s(&self) -> f64 {
        crate::stats::ratio(self.ops() as f64, self.busy_s())
    }

    /// Appends `other`'s ops to this phase.
    pub fn absorb(&mut self, other: Phase) {
        self.lat_ns.extend(other.lat_ns);
        self.failed += other.failed;
        self.checkpoint_ns.extend(other.checkpoint_ns);
        self.snapshot_bytes += other.snapshot_bytes;
        self.mutated_tuples += other.mutated_tuples;
    }

    fn step(&mut self, store: &mut Store, gen: &mut Generator, execute: &mut Execute<'_>) {
        let op = gen.next_op();
        let schema = gen.schema().clone();
        let (ns, out) = execute(store, &schema, &op);
        self.lat_ns.push(ns);
        self.mutated_tuples += op.mutated_tuples();
        let verdict = match (&op, out) {
            (Op::Read(stmt), Ok(Output::Table(table))) => stmt
                .check
                .accepts(&table, gen.model())
                .then_some(())
                .ok_or_else(|| "the result disagrees with the model".to_owned()),
            (Op::Checkpoint, Ok(Output::Snapshot(bytes))) => {
                self.checkpoint_ns.push(ns);
                self.snapshot_bytes += bytes;
                Ok(())
            }
            (Op::Insert(_) | Op::Delete(_) | Op::Update(..), Ok(Output::Done)) => Ok(()),
            (_, Ok(_)) => Err("the op returned the wrong kind of output".to_owned()),
            (_, Err(e)) => Err(e),
        };
        if let Err(why) = verdict {
            if self.failed < 5 {
                eprintln!("op failed: {} — {why}", describe(&op));
            }
            self.failed += 1;
        }
    }

    /// Runs whole rounds until `wall` has elapsed (at least one round).
    pub fn run_for(
        store: &mut Store,
        gen: &mut Generator,
        wall: Duration,
        execute: &mut Execute<'_>,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        loop {
            phase.step(store, gen, execute);
            if gen.at_round_start() && start.elapsed() >= wall {
                return phase;
            }
        }
    }

    /// Runs exactly `ops` ops.
    pub fn run_ops(
        store: &mut Store,
        gen: &mut Generator,
        ops: u64,
        execute: &mut Execute<'_>,
    ) -> Phase {
        let mut phase = Phase::default();
        for _ in 0..ops {
            phase.step(store, gen, execute);
        }
        phase
    }
}

fn describe(op: &Op) -> String {
    match op {
        Op::Read(stmt) => stmt.sql.clone(),
        Op::Insert(t) => format!("insert {t}"),
        Op::Delete(t) => format!("delete {t}"),
        Op::Update(old, new) => format!("update {old} -> {new}"),
        Op::Checkpoint => "checkpoint".to_owned(),
    }
}
