//! The four workloads: their data, their statement shapes and their op
//! streams, all generated here from `--seed`. The engine sees only the
//! generated SQL text and tuples.
//!
//! Ops are issued in *rounds*. A round has a fixed composition (so two runs
//! measure the same mix however many ops they complete) in a seeded order.
//! Read-only workloads draw a round from a fixed statement pool whose
//! expected results are computed once in set-up; write workloads generate
//! each op against the live model just before it is issued.

use crate::model::{hash_digits, matches, Check, Pred, RowHasher};
use crate::rng::Rng;
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_workload::SyntheticSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// The benchmarked relation.
pub const REL: &str = "r";
/// `scan_cold`'s 64-row dimension table, keyed on `a12`'s active values.
pub const DIM: &str = "d";

/// §5.2 attribute layout: six binary, six ternary, three 64-valued columns
/// and the unique key `a15`.
const ACTIVE: [u64; 15] = [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 64, 64, 64];
const KEY: usize = 15;
/// Clustering-prefix length that marks `mixed_rw`'s hot region: one of the
/// eight `(a00, a01, a02)` combinations, ≈ 12 % of the blocks.
const HOT_PREFIX: usize = 3;
/// Share of `mixed_rw` ops aimed at the hot region.
const HOT_PERCENT: u64 = 80;
/// `LIMIT` of the clustered-prefix statements.
const LIMIT: u64 = 20;
/// `ingest_durable` checkpoints after this many mutations.
pub const CHECKPOINT_EVERY: u64 = 2_000;
/// Mutations between `ingest_durable`'s last checkpoint and its reopen.
pub const RECOVERY_TAIL: u64 = 1_000;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Working set 2.1× the caches, SQL scans/aggregates/join.
    ScanCold,
    /// Working set that fits, SQL point and short-range reads.
    ProbeWarm,
    /// WAL-backed write stream with checkpoints and a recovery.
    IngestDurable,
    /// 70 % reads, 30 % writes on a hot region, no WAL.
    MixedRw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ScanCold,
        Workload::ProbeWarm,
        Workload::IngestDurable,
        Workload::MixedRw,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::ProbeWarm => "probe_warm",
            Workload::IngestDurable => "ingest_durable",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ScanCold => "Working set 2.1x the caches (539 blocks vs 256): every block is device read, pool miss, decode, filter; codec does most of the work, so decode and pushdown gains must show here.",
            Workload::ProbeWarm => "Working set that fits (146 blocks): zero decodes after warm-up, so time is SQL parse/plan, plan choice, index probes and decoded-cache hand-off; a decode speed-up must not move it.",
            Workload::IngestDurable => "WAL-backed write stream with checkpoints and a reopen checked against the model: shows whether a read-side gain was paid for in re-code, index upkeep, log or recovery cost.",
            Workload::MixedRw => "70% warm reads, 30% writes aimed at the blocks the reads favour, no WAL: every write invalidates a decoded block a read re-decodes, so dearer invalidation or index upkeep shows only here.",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Base relation size at `--scale 1.0`. `scan_cold` fills 539 blocks
    /// against 256 cached; the others stay under 256 for the whole run.
    fn base_tuples(self) -> usize {
        match self {
            Workload::ScanCold => 400_000,
            Workload::ProbeWarm => 100_000,
            Workload::IngestDurable => 30_000,
            Workload::MixedRw => 60_000,
        }
    }

    /// True when the op stream mutates the relation.
    pub fn writes(self) -> bool {
        matches!(self, Workload::IngestDurable | Workload::MixedRw)
    }

    /// Attributes that get a secondary index, in build order.
    pub fn indexed_attrs(self) -> &'static [usize] {
        match self {
            Workload::ScanCold => &[12],
            _ => &[KEY, 12],
        }
    }
}

/// One SQL statement and what it must return.
#[derive(Debug)]
pub struct Stmt {
    /// The statement text handed to the engine.
    pub sql: String,
    /// The oracle's expectation.
    pub check: Check,
}

/// One operation of the stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A SQL read.
    Read(Rc<Stmt>),
    /// Insert a tuple.
    Insert(Tuple),
    /// Delete a live tuple.
    Delete(Tuple),
    /// Replace a live tuple.
    Update(Tuple, Tuple),
    /// `DurableDatabase::checkpoint`, timed as an op.
    Checkpoint,
}

impl Op {
    /// Short label used for spans and the trace file.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Read(_) => "read",
            Op::Insert(_) => "insert",
            Op::Delete(_) => "delete",
            Op::Update(..) => "update",
            Op::Checkpoint => "checkpoint",
        }
    }

    /// Tuples this op adds to or removes from the relation.
    pub fn mutated_tuples(&self) -> u64 {
        match self {
            Op::Read(_) | Op::Checkpoint => 0,
            Op::Insert(_) | Op::Delete(_) => 1,
            Op::Update(..) => 2,
        }
    }
}

/// Slots of a round. Read-only rounds index the pool; write rounds name
/// the kind of op to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pool(usize),
    Point,
    FullTuple,
    PrefixLimit,
    TwoAttr,
    Insert,
    Delete,
    Update,
}

/// The generated base data of one workload.
pub struct Data {
    /// The relation as generated (load order, not φ order).
    pub relation: Relation,
    /// `scan_cold`'s dimension table.
    pub dimension: Option<Relation>,
}

fn col(attr: usize) -> String {
    format!("a{attr:02}")
}

fn where_clause(pred: &Pred) -> String {
    pred.iter()
        .map(|&(a, lo, hi)| {
            if lo == hi {
                format!("{} = {lo}", col(a))
            } else {
                format!("{} >= {lo} and {} <= {hi}", col(a), col(a))
            }
        })
        .collect::<Vec<_>>()
        .join(" and ")
}

/// Generates the base relation (and `scan_cold`'s dimension table) for
/// `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, scale: f64) -> Data {
    let tuples = ((workload.base_tuples() as f64 * scale) as usize).max(500);
    let mut spec = SyntheticSpec::section_5_2(tuples);
    spec.seed = Rng::new(seed, 1).next_u64();
    let relation = spec.generate();
    let dimension = (workload == Workload::ScanCold).then(|| {
        let schema = Schema::from_pairs(vec![
            ("k", Domain::uint(64).expect("64 >= 2")),
            ("grp", Domain::uint(8).expect("8 >= 2")),
            ("w", Domain::uint(1000).expect("1000 >= 2")),
        ])
        .expect("dimension schema is valid");
        let rows = (0..64u64)
            .map(|k| Tuple::new(vec![k, k % 8, (k * 37 + 11) % 1000]))
            .collect();
        Relation::from_tuples(schema, rows).expect("dimension tuples are valid")
    });
    Data {
        relation,
        dimension,
    }
}

/// Generates one workload's op stream and keeps the model it is checked
/// against.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    schema: Arc<Schema>,
    /// Read-only workloads: the statement pool, expectations included.
    pool: Vec<Rc<Stmt>>,
    /// The composition of one round.
    round: Vec<Slot>,
    cursor: usize,
    /// Live tuples. Empty for `scan_cold`, whose checks never need it.
    model: BTreeSet<Tuple>,
    /// Live tuples for O(1) uniform picks: `[hot, cold]`.
    live: [Vec<Tuple>; 2],
    hot: [u64; HOT_PREFIX],
    next_key: u64,
    live_tuples: usize,
    since_checkpoint: u64,
}

impl Generator {
    /// Builds the generator, the model and (for read-only workloads) the
    /// statement pool with its expected results.
    pub fn new(workload: Workload, seed: u64, data: &Data) -> Generator {
        let mut rng = Rng::new(seed, 2);
        let schema = data.relation.schema().clone();
        let tuples = data.relation.tuples();
        let hot = [rng.below(2), rng.below(2), rng.below(2)];
        let mut g = Generator {
            workload,
            rng,
            schema,
            pool: Vec::new(),
            round: Vec::new(),
            cursor: 0,
            model: BTreeSet::new(),
            live: [Vec::new(), Vec::new()],
            hot,
            next_key: tuples.len() as u64,
            live_tuples: tuples.len(),
            since_checkpoint: 0,
        };
        if workload != Workload::ScanCold {
            g.model = tuples.iter().cloned().collect();
            for t in tuples {
                let region = g.region_of(t);
                g.live[region].push(t.clone());
            }
        }
        let slots: &[(Slot, usize)] = match workload {
            Workload::ScanCold => {
                g.pool = scan_cold_pool(&mut g.rng, tuples);
                &[]
            }
            Workload::ProbeWarm => {
                for (slot, n) in [
                    (Slot::Point, 55),
                    (Slot::FullTuple, 20),
                    (Slot::PrefixLimit, 20),
                    (Slot::TwoAttr, 5),
                ] {
                    for _ in 0..n {
                        let stmt = g.read_stmt(slot);
                        g.pool.push(Rc::new(stmt));
                    }
                }
                &[]
            }
            Workload::IngestDurable => &[
                (Slot::Insert, 200),
                (Slot::Delete, 200),
                (Slot::Update, 100),
            ],
            Workload::MixedRw => &[
                (Slot::Point, 77),
                (Slot::FullTuple, 28),
                (Slot::PrefixLimit, 28),
                (Slot::TwoAttr, 7),
                (Slot::Insert, 20),
                (Slot::Delete, 20),
                (Slot::Update, 20),
            ],
        };
        g.round = if slots.is_empty() {
            (0..g.pool.len()).map(Slot::Pool).collect()
        } else {
            slots
                .iter()
                .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
                .collect()
        };
        g.cursor = g.round.len();
        g
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Tuples the relation must hold now.
    pub fn live_tuples(&self) -> usize {
        self.live_tuples
    }

    /// The live tuple set (empty for `scan_cold`).
    pub fn model(&self) -> &BTreeSet<Tuple> {
        &self.model
    }

    /// Spoils one expectation of the pool (self-check only).
    pub fn corrupt_oracle(&mut self) {
        let last = self
            .pool
            .pop()
            .expect("corrupt_oracle needs a statement pool");
        let mut check = last.check.clone();
        check.corrupt();
        self.pool.push(Rc::new(Stmt {
            sql: last.sql.clone(),
            check,
        }));
    }

    /// A checkpoint outside the schedule; the schedule restarts from it.
    pub fn checkpoint_now(&mut self) -> Op {
        self.since_checkpoint = 0;
        Op::Checkpoint
    }

    /// True at a round boundary: the next op starts a new round.
    pub fn at_round_start(&self) -> bool {
        self.cursor == self.round.len()
    }

    /// The next op of the stream. Write ops are applied to the model here,
    /// so the model always reflects every op issued so far.
    pub fn next_op(&mut self) -> Op {
        if self.workload == Workload::IngestDurable && self.since_checkpoint == CHECKPOINT_EVERY {
            self.since_checkpoint = 0;
            return Op::Checkpoint;
        }
        if self.cursor == self.round.len() {
            let mut round = std::mem::take(&mut self.round);
            self.rng.shuffle(&mut round);
            self.round = round;
            self.cursor = 0;
        }
        let slot = self.round[self.cursor];
        self.cursor += 1;
        match slot {
            Slot::Pool(i) => Op::Read(self.pool[i].clone()),
            Slot::Point | Slot::FullTuple | Slot::PrefixLimit | Slot::TwoAttr => {
                Op::Read(Rc::new(self.read_stmt(slot)))
            }
            Slot::Insert => {
                self.since_checkpoint += 1;
                let region = self.pick_region();
                let t = self.fresh_tuple(region == 0);
                self.live_tuples += 1;
                self.model.insert(t.clone());
                self.live[region].push(t.clone());
                Op::Insert(t)
            }
            Slot::Delete => {
                self.since_checkpoint += 1;
                let region = self.pick_region();
                let i = self.rng.index(self.live[region].len());
                let t = self.live[region].swap_remove(i);
                self.live_tuples -= 1;
                self.model.remove(&t);
                Op::Delete(t)
            }
            Slot::Update => {
                self.since_checkpoint += 1;
                let region = self.pick_region();
                let i = self.rng.index(self.live[region].len());
                let old = self.live[region][i].clone();
                // One measurement column changes; the clustering prefix and
                // the key stay, so the tuple keeps its region.
                let attr = 12 + self.rng.index(3);
                let mut digits = old.digits().to_vec();
                digits[attr] = (digits[attr] + 1 + self.rng.below(ACTIVE[attr] - 1)) % ACTIVE[attr];
                let new = Tuple::new(digits);
                self.model.remove(&old);
                self.model.insert(new.clone());
                self.live[region][i] = new.clone();
                Op::Update(old, new)
            }
        }
    }

    fn region_of(&self, t: &Tuple) -> usize {
        let hot = self.workload == Workload::MixedRw && t.digits()[..HOT_PREFIX] == self.hot;
        usize::from(!hot)
    }

    /// `0` (hot) for `HOT_PERCENT` of `mixed_rw`'s picks, else `1`; falls
    /// back to the other region when the chosen one has run empty.
    fn pick_region(&mut self) -> usize {
        let want_hot = self.workload == Workload::MixedRw && self.rng.percent(HOT_PERCENT);
        let region = usize::from(!want_hot);
        if self.live[region].is_empty() {
            1 - region
        } else {
            region
        }
    }

    fn pick_live(&mut self) -> Tuple {
        let region = self.pick_region();
        let i = self.rng.index(self.live[region].len());
        self.live[region][i].clone()
    }

    fn fresh_tuple(&mut self, hot: bool) -> Tuple {
        let mut digits: Vec<u64> = ACTIVE.iter().map(|&n| self.rng.below(n)).collect();
        if hot {
            digits[..HOT_PREFIX].copy_from_slice(&self.hot);
        } else if self.workload == Workload::MixedRw && digits[..HOT_PREFIX] == self.hot {
            digits[0] = 1 - digits[0];
        }
        digits.push(self.next_key);
        self.next_key += 1;
        Tuple::new(digits)
    }

    /// Builds one read statement of the `probe_warm` / `mixed_rw` shapes
    /// and its expectation from the current model.
    fn read_stmt(&mut self, slot: Slot) -> Stmt {
        match slot {
            Slot::Point => {
                let t = self.pick_live();
                Stmt {
                    sql: format!(
                        "select * from {REL} where {} = {}",
                        col(KEY),
                        t.digits()[KEY]
                    ),
                    check: Check::exact_tuples(std::iter::once(&t)),
                }
            }
            Slot::FullTuple => {
                let t = self.pick_live();
                let pred: Pred = t
                    .digits()
                    .iter()
                    .enumerate()
                    .map(|(a, &d)| (a, d, d))
                    .collect();
                Stmt {
                    sql: format!("select * from {REL} where {}", where_clause(&pred)),
                    check: Check::exact_tuples(std::iter::once(&t)),
                }
            }
            Slot::PrefixLimit => {
                let hot = self.workload == Workload::MixedRw && self.rng.percent(HOT_PERCENT);
                let pred: Pred = if hot {
                    self.hot
                        .iter()
                        .enumerate()
                        .map(|(a, &d)| (a, d, d))
                        .collect()
                } else {
                    (0..2)
                        .map(|a| {
                            let d = self.rng.below(ACTIVE[a]);
                            (a, d, d)
                        })
                        .collect()
                };
                let mut lo = vec![0u64; self.schema.arity()];
                let mut hi = vec![u64::MAX; self.schema.arity()];
                for &(a, d, _) in &pred {
                    lo[a] = d;
                    hi[a] = d;
                }
                let rows = self
                    .model
                    .range(Tuple::new(lo)..=Tuple::new(hi))
                    .take(LIMIT as usize)
                    .count() as u64;
                Stmt {
                    sql: format!(
                        "select * from {REL} where {} limit {LIMIT}",
                        where_clause(&pred)
                    ),
                    check: Check::Subset { rows, pred },
                }
            }
            Slot::TwoAttr => {
                let pred: Pred = [12usize, 13]
                    .into_iter()
                    .map(|a| {
                        let v = self.rng.below(ACTIVE[a]);
                        (a, v, v)
                    })
                    .collect();
                let check =
                    Check::exact_tuples(self.model.iter().filter(|t| matches(&pred, t.digits())));
                Stmt {
                    sql: format!("select * from {REL} where {}", where_clause(&pred)),
                    check,
                }
            }
            _ => unreachable!("read_stmt is called with read slots only"),
        }
    }
}

/// The check for `select key, count(*), sum(a13) … group by key`.
fn group_check(groups: BTreeMap<u64, (u64, i128)>) -> Check {
    Check::exact_hashes(groups.into_iter().map(|(k, (n, sum))| {
        let mut h = RowHasher::default();
        h.int(i128::from(k));
        h.int(i128::from(n));
        h.int(sum);
        h.finish()
    }))
}

/// `scan_cold`'s pool: 8 clustered-prefix ranges (½ … ¹⁄₆₄ of the blocks),
/// 5 full-scan aggregates, 4 group-bys, 2 unindexed ranges, 1 join. Large
/// results project two columns so that the result table, which the engine
/// must materialise either way, does not dominate the op.
fn scan_cold_pool(rng: &mut Rng, tuples: &[Tuple]) -> Vec<Rc<Stmt>> {
    let mut pool = Vec::new();
    let projected = |pred: &Pred| {
        let check = Check::exact_hashes(
            tuples
                .iter()
                .filter(|t| matches(pred, t.digits()))
                .map(|t| hash_digits(&[t.digits()[13], t.digits()[KEY]])),
        );
        Stmt {
            sql: format!(
                "select {}, {} from {REL} where {}",
                col(13),
                col(KEY),
                where_clause(pred)
            ),
            check,
        }
    };
    for len in [1usize, 2, 2, 3, 3, 4, 5, 6] {
        let pred: Pred = (0..len)
            .map(|a| {
                let v = rng.below(ACTIVE[a]);
                (a, v, v)
            })
            .collect();
        pool.push(projected(&pred));
    }
    for _ in 0..5 {
        let (a, b, c) = (12 + rng.index(3), 12 + rng.index(3), 12 + rng.index(3));
        let (mut min, mut max, mut sum) = (u64::MAX, 0u64, 0i128);
        for t in tuples {
            let d = t.digits();
            min = min.min(d[a]);
            max = max.max(d[b]);
            sum += i128::from(d[c]);
        }
        let n = tuples.len() as u64;
        let mut h = RowHasher::default();
        h.int(i128::from(n));
        h.int(i128::from(min));
        h.int(i128::from(max));
        h.float(sum as f64 / n as f64);
        pool.push(Stmt {
            sql: format!(
                "select count(*), min({}), max({}), avg({}) from {REL}",
                col(a),
                col(b),
                col(c)
            ),
            check: Check::exact_hashes(std::iter::once(h.finish())),
        });
    }
    let grouped = |a: usize| {
        let mut groups: BTreeMap<u64, (u64, i128)> = BTreeMap::new();
        for t in tuples {
            let g = groups.entry(t.digits()[a]).or_default();
            g.0 += 1;
            g.1 += i128::from(t.digits()[13]);
        }
        group_check(groups)
    };
    for _ in 0..4 {
        let a = 6 + rng.index(6);
        pool.push(Stmt {
            sql: format!(
                "select {}, count(*), sum({}) from {REL} group by {}",
                col(a),
                col(13),
                col(a)
            ),
            check: grouped(a),
        });
    }
    for _ in 0..2 {
        let lo = rng.below(ACTIVE[13] - 1);
        pool.push(projected(&vec![(13, lo, lo + 1)]));
    }
    // The join probes one dimension row: unrestricted, the planner picks an
    // index-nested-loop that re-decodes every block of `r` once per outer
    // key (64 × 539 decodes, ≈ 10 s), which would leave a 10-second run
    // measuring nothing else. README "seed observations" records it.
    let k = rng.below(ACTIVE[12]);
    let a = 6 + rng.index(6);
    let joined: Vec<&Tuple> = tuples.iter().filter(|t| t.digits()[12] == k).collect();
    let mut groups: BTreeMap<u64, (u64, i128)> = BTreeMap::new();
    for t in &joined {
        let g = groups.entry(t.digits()[a]).or_default();
        g.0 += 1;
        g.1 += i128::from(t.digits()[13]);
    }
    pool.push(Stmt {
        sql: format!(
            "select {REL}.{}, count(*), sum({REL}.{}) from {REL} join {DIM} on {REL}.{} = {DIM}.k where {DIM}.k = {k} group by {REL}.{}",
            col(a),
            col(13),
            col(12),
            col(a)
        ),
        check: group_check(groups),
    });
    pool.into_iter().map(Rc::new).collect()
}
