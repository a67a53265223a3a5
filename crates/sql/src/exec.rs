//! Execution of a [`PhysicalPlan`] over the stored AVQ operators.
//!
//! Rows flow between operators as ordinal rows (the φ digit encoding of
//! §3.1) in column-major [`TupleBatch`]es, each row's columns the
//! concatenation of the plan's `table_order` schemas. Stored blocks are
//! read one at a time as shared decoded batches; the column-at-a-time
//! kernel [`avq_db::Selection::filter_block`] turns each into a selection
//! vector, and projections, aggregates, sorts and joins read the columns
//! they need at the selected rows. Only the final projection/aggregation
//! decodes ordinals back to domain values.
//! Join keys are canonicalized through the internal
//! `KeyVal` so an
//! equijoin between attributes with *different* domains (say
//! `IntRange{-10,89}` and `Uint{100}`) compares semantic values, not raw
//! ordinals.
//!
//! Every operator reports a [`StageReport`] — the rows of the stage table
//! [`crate::explain::stage_table`] renders — plus per-plan-node actual row
//! counts keyed by the pre-order node numbering shared with the renderer —
//! that pairing is what lets `EXPLAIN ANALYZE` print estimated vs. actual
//! rows per node. Stages are timed with [`Stopwatch`] only when their times
//! will be read — under `EXPLAIN ANALYZE` or a recording trace; otherwise
//! the watch is inert and a stage's `elapsed` is zero, so a block read
//! costs no clock reads.

use crate::binder::{BoundItem, BoundQuery, BoundTable};
use crate::error::SqlError;
use crate::explain::{CacheMark, StageReport};
use crate::plan::{domain_of, PhysicalPlan, PlanNode};
use avq_db::{AccessPath, Database, RangePredicate, Selection, Served, StoredBlock};
use avq_obs::{names, AttrValue, QueryCtx, Stopwatch, TraceCtx};
use avq_schema::{Domain, TupleBatch, Value};
use core::time::Duration;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A join key canonicalized to its semantic value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyVal {
    /// Any numeric domain (`Uint`, `IntRange`).
    Int(i128),
    /// An enumerated member.
    Str(String),
}

/// Decodes `ord` in `domain` to its canonical key value.
fn key_of(domain: &Domain, ord: u64) -> KeyVal {
    match domain {
        Domain::Uint { .. } => KeyVal::Int(i128::from(ord)),
        Domain::IntRange { min, .. } => KeyVal::Int(i128::from(*min) + i128::from(ord)),
        Domain::Enumerated { .. } => match domain.decode(ord) {
            Ok(v) => KeyVal::Str(v.as_str().unwrap_or_default().to_owned()),
            Err(_) => KeyVal::Str(String::new()),
        },
    }
}

/// Maps a canonical key value back to an ordinal of `domain`, or `None`
/// when the value lies outside the domain (the join emits nothing).
fn ord_of(domain: &Domain, key: &KeyVal) -> Option<u64> {
    match (domain, key) {
        (Domain::Uint { size }, KeyVal::Int(v)) => {
            (*v >= 0 && *v < i128::from(*size)).then_some(*v as u64)
        }
        (Domain::IntRange { min, max }, KeyVal::Int(v)) => (*v >= i128::from(*min)
            && *v <= i128::from(*max))
        .then(|| (*v - i128::from(*min)) as u64),
        (Domain::Enumerated { .. }, KeyVal::Str(s)) => domain.encode(&Value::from(s.as_str())).ok(),
        _ => None,
    }
}

/// One result cell, decoded to a displayable value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer (base column or `COUNT`/`SUM`/integer `MIN`/`MAX`).
    Int(i128),
    /// A float (`AVG`).
    Float(f64),
    /// An enumerated member.
    Str(String),
    /// An aggregate over zero rows.
    Null,
}

impl core::fmt::Display for Cell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float(x) => write!(f, "{x:.2}"),
            Cell::Str(s) => write!(f, "{s}"),
            Cell::Null => Ok(()),
        }
    }
}

impl Cell {
    fn is_numeric(&self) -> bool {
        matches!(self, Cell::Int(_) | Cell::Float(_) | Cell::Null)
    }
}

/// The final result table of a statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Column headers in output order, shared with the bound statement.
    pub headers: Arc<[String]>,
    /// Decoded result rows.
    pub rows: Vec<Vec<Cell>>,
}

impl QueryResult {
    /// Renders the result as a fixed-width text table with a `(N rows)`
    /// footer, `psql`-style: string cells left-aligned, numbers
    /// right-aligned.
    pub fn render(&self) -> String {
        use core::fmt::Write as _;
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        let mut numeric = vec![true; cols];
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                widths[c] = widths[c].max(cell.to_string().len());
                numeric[c] = numeric[c] && cell.is_numeric();
            }
        }
        let mut out = String::new();
        for (c, h) in self.headers.iter().enumerate() {
            if c > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{h:<width$}", width = widths[c]);
        }
        out.push('\n');
        for (c, w) in widths.iter().enumerate() {
            if c > 0 {
                out.push('+');
            }
            // One extra dash each side aligns with the ` | ` separators.
            out.push_str(&"-".repeat(w + if c == 0 || c == cols - 1 { 1 } else { 2 }));
        }
        out.push('\n');
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                if c > 0 {
                    out.push_str(" | ");
                }
                let s = cell.to_string();
                if numeric[c] {
                    let _ = write!(out, "{s:>width$}", width = widths[c]);
                } else {
                    let _ = write!(out, "{s:<width$}", width = widths[c]);
                }
            }
            out.push('\n');
        }
        let n = self.rows.len();
        let _ = write!(out, "({n} row{})", if n == 1 { "" } else { "s" });
        out
    }
}

/// Everything execution produces: the result plus per-stage reports
/// (timed when asked for) and per-node actual row counts for
/// `EXPLAIN ANALYZE`.
#[derive(Debug)]
pub struct ExecOutput {
    /// The decoded result table.
    pub result: QueryResult,
    /// Stages in execution order; `elapsed` is zero unless the execution
    /// was timed.
    pub stages: Vec<StageReport>,
    /// Actual output rows per plan node, keyed by pre-order node id.
    pub actual_rows: Vec<u64>,
}

/// Intermediate batch between operators.
enum Batch {
    /// Ordinal rows in `table_order` layout.
    Ordinals(TupleBatch),
    /// Final decoded rows (after aggregation).
    Cells(Vec<Vec<Cell>>),
}

impl Batch {
    fn len(&self) -> usize {
        match self {
            Batch::Ordinals(r) => r.len(),
            Batch::Cells(r) => r.len(),
        }
    }
}

struct Exec<'a> {
    db: &'a Database,
    q: &'a BoundQuery,
    order: &'a [usize],
    ctx: &'a QueryCtx,
    /// Whether stage clocks run (else every stage's `elapsed` is zero).
    timed: bool,
    stages: Vec<StageReport>,
    actual_rows: Vec<u64>,
}

/// What a scan hands its sink for one block.
enum Sunk<'b> {
    /// The rows of a decoded block that pass the scan's conjuncts.
    Rows(&'b TupleBatch, &'b [u32]),
    /// A whole block the read answered from its synopsis.
    Synopsis(&'b StoredBlock),
}

/// Memory charged to the governance budget for `rows` materialized
/// ordinal rows of `width` columns, at [`avq_db::row_mem_bytes`] each —
/// the one per-row model SQL-level intermediates and storage-level
/// selections share.
fn batch_mem_bytes(rows: usize, width: usize) -> u64 {
    rows as u64 * avq_db::row_mem_bytes(width)
}

/// Maps an output-row column index back to its `(table, attr)` source. A
/// column past the last table is a binding error: there is no domain to
/// decode it through.
fn source_of(q: &BoundQuery, order: &[usize], col: usize) -> Result<(usize, usize), SqlError> {
    let mut off = 0usize;
    for &t in order {
        let arity = q.tables.get(t).map_or(0, |b| b.schema.arity());
        if col < off + arity {
            return Ok((t, col - off));
        }
        off += arity;
    }
    Err(SqlError::Bind {
        msg: format!("output column {col} lies past the last table's {off} columns"),
    })
}

/// Checks that the plan's column `c` exists in `arity`-wide input rows.
fn check_col(c: usize, arity: usize) -> Result<usize, SqlError> {
    if c < arity {
        Ok(c)
    } else {
        Err(SqlError::Bind {
            msg: format!("plan references column {c} of {arity}-column rows"),
        })
    }
}

/// Every row of `rows` as a selection vector.
fn all_rows(rows: &TupleBatch) -> Result<Vec<u32>, SqlError> {
    let n = u32::try_from(rows.len()).map_err(|_| SqlError::Bind {
        msg: format!(
            "{} intermediate rows exceed the row-number width",
            rows.len()
        ),
    })?;
    Ok((0..n).collect())
}

impl<'a> Exec<'a> {
    /// A stage clock: running when stage times will be read, else inert.
    fn clock(&self) -> Stopwatch {
        Stopwatch::start_if(self.timed)
    }

    /// Bound table `table` and its conjuncts.
    fn table(&self, table: usize) -> Result<(&'a BoundTable, &'a Selection), SqlError> {
        let q = self.q;
        (q.tables.get(table).zip(q.selections.get(table))).ok_or_else(|| SqlError::Bind {
            msg: "plan references an unbound table".to_owned(),
        })
    }

    /// Records the stage report and, when tracing, retroactively attaches
    /// a matching `avq.sql.stage` span covering the stage's elapsed time.
    fn stage(&mut self, stage: &'static str, rows: u64, blocks: u64, hits: u64, elapsed: Duration) {
        self.trace_stage(stage, rows, blocks, hits, elapsed);
        self.report(stage, rows, blocks, hits, elapsed);
    }

    /// The trace half of [`Self::stage`]: a completed `avq.sql.stage` span
    /// that ended now, under whatever span is open.
    fn trace_stage(
        &self,
        stage: &'static str,
        rows: u64,
        blocks: u64,
        hits: u64,
        elapsed: Duration,
    ) {
        if self.ctx.trace.is_enabled() {
            let mut attrs: Vec<(&'static str, AttrValue)> = vec![
                (names::ATTR_STAGE, AttrValue::from(stage)),
                (names::ATTR_ROWS, AttrValue::from(rows)),
            ];
            if blocks > 0 {
                attrs.push((names::ATTR_BLOCKS_READ, AttrValue::from(blocks)));
            }
            if hits > 0 {
                attrs.push((names::ATTR_CACHE_HITS, AttrValue::from(hits)));
            }
            self.ctx
                .trace
                .complete_span(names::SPAN_SQL_STAGE, elapsed, attrs);
        }
    }

    /// Pushes a [`StageReport`] without trace emission — for stages that
    /// already ran under an *open* trace span (the scan decode loop).
    fn report(
        &mut self,
        stage: &'static str,
        rows: u64,
        blocks: u64,
        hits: u64,
        elapsed: Duration,
    ) {
        self.stages.push(StageReport {
            stage,
            rows,
            blocks,
            cache_hits: hits,
            elapsed,
        });
    }

    /// Scans `table` through `path`, returning at most `limit` matching
    /// ordinal rows, gathered column by column out of their blocks.
    fn scan(
        &mut self,
        table: usize,
        path: AccessPath,
        limit: usize,
    ) -> Result<TupleBatch, SqlError> {
        let arity = self.q.tables.get(table).map_or(0, |bt| bt.schema.arity());
        let mut rows = TupleBatch::new(arity);
        let held = avq_db::row_mem_bytes(arity);
        self.scan_into(table, path, held, limit, None, None, |sunk| {
            if let Sunk::Rows(block, sel) = sunk {
                rows.extend_from(block, sel);
            }
        })?;
        Ok(rows)
    }

    /// Streams the rows of `table` that pass its conjuncts into `sink`,
    /// returning how many did.
    ///
    /// Candidate blocks are read one at a time (the `scan` stage); each
    /// block's selection vector is built by the column-at-a-time kernel
    /// [`avq_db::Selection::filter_block`] (the `filter` stage) and handed
    /// to the sink with the block, so neither the candidate set nor any
    /// unmatched tuple is ever materialized and a rejected row costs only
    /// the words of the columns its conjuncts name. Once `limit` rows are
    /// kept no further block is read; a block that meets the limit counts
    /// its rows as examined up to the one that met it. When the caller
    /// reports the sink under a stage of its own (`sink_stage`: a
    /// projection or aggregate), the sink's time is added to that stage's
    /// duration and traced as that stage nested under the open scan span,
    /// where it ran; otherwise it is part of the `scan` stage (the scan's
    /// own output). A sink that holds the rows it is
    /// given names their price in `held_row_bytes`; it is charged to the
    /// memory budget per block, so a trip overshoots by at most one block.
    ///
    /// A caller whose statement covers a block whole — an aggregate with no
    /// conjuncts — names the blocks it can fold from their synopses in
    /// `answers`. A read of more blocks than the decoded cache holds then
    /// hands those to the sink as [`Sunk::Synopsis`], undecoded (see
    /// [`avq_db::BlockReads::next_or_synopsis`]); they are reported as a
    /// `synopsis` stage of their own, whose time is their reads and folds.
    #[allow(clippy::too_many_arguments)]
    fn scan_into(
        &mut self,
        table: usize,
        path: AccessPath,
        held_row_bytes: u64,
        limit: usize,
        sink_stage: Option<(&'static str, &mut Duration)>,
        answers: Option<&dyn Fn(&StoredBlock) -> bool>,
        mut sink: impl FnMut(Sunk<'_>),
    ) -> Result<u64, SqlError> {
        let (bt, sel) = self.table(table)?;
        let rel = self.db.relation(&bt.relation)?;

        let sw = self.clock();
        let candidates = rel.candidate_blocks(sel, path)?;
        if !matches!(path, AccessPath::FullScan) {
            self.stage("index-probe", candidates.len() as u64, 0, 0, sw.elapsed());
        }

        let mark = CacheMark::take(rel);
        let (mut blocks, mut examined, mut kept) = (0u64, 0u64, 0u64);
        let mut room = limit;
        let (mut read_time, mut filter_time, mut sunk) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        // Blocks answered from their synopses: how many, their tuples, their
        // pool hits, and the time their folds and their reads took.
        let (mut answered, mut answered_rows, mut answered_hits) = (0u64, 0u64, 0u64);
        let (mut answer_time, mut answer_read_time) = (Duration::ZERO, Duration::ZERO);
        // The selection vector, reused by every block.
        let mut rows: Vec<u32> = Vec::new();
        let hits = {
            // An *open* stage span (unlike the retroactive ones from
            // `stage`) so per-block read spans — and the filter time
            // interleaved with them — nest beneath it.
            let guard = self.ctx.trace.span(names::SPAN_SQL_STAGE);
            let mut clock = self.clock();
            let mut reads = rel.read_blocks(candidates, self.ctx);
            while room > 0 {
                // Pool hits are counted per block only for a read that may
                // answer blocks from their synopses.
                let pool_hits = answers.map_or(0, |_| rel.pool_stats().hits);
                let Some(served) = reads.next_or_synopsis(answers) else {
                    break;
                };
                let block = match served?.1 {
                    Served::Rows(block) => block,
                    Served::Synopsis(b) => {
                        answer_read_time += clock.lap();
                        answered += 1;
                        answered_rows += b.count as u64;
                        answered_hits += rel.pool_stats().hits - pool_hits;
                        sink(Sunk::Synopsis(b));
                        answer_time += clock.lap();
                        kept += b.count as u64;
                        room = room.saturating_sub(b.count);
                        continue;
                    }
                };
                read_time += clock.lap();
                blocks += 1;
                sel.filter_block(&block, &mut rows);
                if rows.len() >= room {
                    examined += u64::from(rows[room - 1]) + 1;
                    rows.truncate(room);
                } else {
                    examined += block.len() as u64;
                }
                filter_time += clock.lap();
                sink(Sunk::Rows(&block, &rows));
                sunk += clock.lap();
                kept += rows.len() as u64;
                room -= rows.len();
                self.ctx.gov.charge_mem(rows.len() as u64 * held_row_bytes);
            }
            let hits = mark.hits_since(rel) - answered_hits;
            if guard.is_recording() {
                guard.attr(names::ATTR_STAGE, "scan");
                guard.attr(names::ATTR_ROWS, examined);
                guard.attr(names::ATTR_BLOCKS_READ, blocks);
                guard.attr(names::ATTR_CACHE_HITS, hits);
            }
            if answered > 0 {
                // The reads are their own `avq.db.block_read` spans above.
                let (rows, hits) = (answered_rows, answered_hits);
                self.trace_stage("synopsis", rows, answered, hits, answer_time);
            }
            self.trace_stage("filter", kept, 0, 0, filter_time);
            if let Some((stage, _)) = sink_stage {
                self.trace_stage(stage, kept, 0, 0, sunk);
            }
            hits
        };
        match sink_stage {
            Some((_, t)) => *t += sunk,
            None => read_time += sunk,
        }
        self.report("scan", examined, blocks, hits, read_time);
        if answered > 0 {
            let elapsed = answer_read_time + answer_time;
            self.report("synopsis", answered_rows, answered, answered_hits, elapsed);
        }
        self.ctx.gov.poll().map_err(avq_db::DbError::from)?;
        self.report("filter", kept, 0, 0, filter_time);
        Ok(kept)
    }

    /// Nested-loop equijoin of `outer_rows` with stored table `inner`.
    /// `index_probe` selects index-nested-loop (decode only blocks holding
    /// probed keys) over block-nested-loop (decode the inner's full
    /// candidate set once).
    #[allow(clippy::too_many_arguments)]
    fn nl_join(
        &mut self,
        outer_rows: TupleBatch,
        inner: usize,
        index_probe: bool,
        outer_key: (usize, usize),
        outer_col: usize,
        inner_attr: usize,
    ) -> Result<TupleBatch, SqlError> {
        let (bt, sel) = self.table(inner)?;
        let rel = self.db.relation(&bt.relation)?;
        let out_dom = domain_of(self.q, outer_key);
        let in_dom = domain_of(self.q, (inner, inner_attr));
        let outer_keys = outer_rows.col(check_col(outer_col, outer_rows.arity())?);
        check_col(inner_attr, bt.schema.arity())?;

        // Distinct outer key ordinals → matching inner ordinal (if any).
        let mut key_map: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for &o in outer_keys {
            key_map
                .entry(o)
                .or_insert_with(|| ord_of(in_dom, &key_of(out_dom, o)));
        }

        // Inner side: matching rows gathered into one batch, their row
        // numbers grouped by the join attribute.
        let mut matched = TupleBatch::new(bt.schema.arity());
        let mut by_key: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut rows: Vec<u32> = Vec::new();
        let sw = self.clock();
        let mark = CacheMark::take(rel);
        let mut blocks = 0u64;
        if index_probe {
            for inner_ord in key_map.values().flatten() {
                let probe_sel = sel
                    .clone()
                    .and(RangePredicate::equals(inner_attr, *inner_ord));
                let candidates = rel.candidate_blocks(
                    &probe_sel,
                    AccessPath::SecondaryIndex { attr: inner_attr },
                )?;
                for served in rel.read_blocks(candidates, self.ctx) {
                    let (_, block) = served?;
                    blocks += 1;
                    probe_sel.filter_block(&block, &mut rows);
                    let first = matched.len() as u32;
                    by_key
                        .entry(*inner_ord)
                        .or_default()
                        .extend(first..first + rows.len() as u32);
                    matched.extend_from(&block, &rows);
                }
            }
            let hits = mark.hits_since(rel);
            self.stage(
                "index-probe",
                matched.len() as u64,
                blocks,
                hits,
                sw.elapsed(),
            );
        } else {
            let candidates = rel.candidate_blocks(sel, AccessPath::FullScan)?;
            for served in rel.read_blocks(candidates, self.ctx) {
                let (_, block) = served?;
                blocks += 1;
                sel.filter_block(&block, &mut rows);
                let keys = block.col(inner_attr);
                for (m, &i) in (matched.len() as u32..).zip(&rows) {
                    by_key.entry(keys[i as usize]).or_default().push(m);
                }
                matched.extend_from(&block, &rows);
            }
            let hits = mark.hits_since(rel);
            self.stage(
                "scan-inner",
                matched.len() as u64,
                blocks,
                hits,
                sw.elapsed(),
            );
        }

        let sw = self.clock();
        let (mut li, mut ri) = (Vec::new(), Vec::new());
        for (o_row, o) in (0u32..).zip(outer_keys) {
            let Some(Some(inner_ord)) = key_map.get(o) else {
                continue;
            };
            for &m in by_key.get(inner_ord).into_iter().flatten() {
                li.push(o_row);
                ri.push(m);
            }
        }
        let out = TupleBatch::gather_joined(&outer_rows, &li, &matched, &ri);
        self.ctx
            .gov
            .charge_mem(batch_mem_bytes(out.len(), out.arity()));
        self.ctx.gov.poll().map_err(avq_db::DbError::from)?;
        self.stage("join", out.len() as u64, 0, 0, sw.elapsed());
        Ok(out)
    }

    /// Streaming hash join: build on `left_rows`, probe with a scan of
    /// `table` through `path`.
    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &mut self,
        left_rows: TupleBatch,
        table: usize,
        path: AccessPath,
        left_key: (usize, usize),
        left_col: usize,
        table_attr: usize,
    ) -> Result<TupleBatch, SqlError> {
        let left_dom = domain_of(self.q, left_key);
        let probe_dom = domain_of(self.q, (table, table_attr));

        let mut build: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let left_keys = left_rows.col(check_col(left_col, left_rows.arity())?);
        for (i, &o) in (0u32..).zip(left_keys) {
            build.entry(o).or_default().push(i);
        }
        // Left ordinal → probe-side ordinal under the canonical key.
        let probe_ord: BTreeMap<u64, Option<u64>> = build
            .keys()
            .map(|&o| (o, ord_of(probe_dom, &key_of(left_dom, o))))
            .collect();
        let by_probe_ord: BTreeMap<u64, &Vec<u32>> = build
            .iter()
            .filter_map(|(o, idxs)| probe_ord.get(o).copied().flatten().map(|p| (p, idxs)))
            .collect();

        let probe_rows = self.scan(table, path, usize::MAX)?;
        let sw = self.clock();
        let probe_keys = probe_rows.col(check_col(table_attr, probe_rows.arity())?);
        let (mut li, mut ri) = (Vec::new(), Vec::new());
        for (t_row, o) in (0u32..).zip(probe_keys) {
            for &i in by_probe_ord.get(o).into_iter().flat_map(|idxs| idxs.iter()) {
                li.push(i);
                ri.push(t_row);
            }
        }
        let out = TupleBatch::gather_joined(&left_rows, &li, &probe_rows, &ri);
        self.ctx
            .gov
            .charge_mem(batch_mem_bytes(out.len(), out.arity()));
        self.ctx.gov.poll().map_err(avq_db::DbError::from)?;
        self.stage("join", out.len() as u64, 0, 0, sw.elapsed());
        Ok(out)
    }

    /// Folds the rows of `input` into one output row per group. Each
    /// item's column and domain are resolved once; a block (or a finished
    /// batch) is then folded a selection vector at a time — a `COUNT` is
    /// its length, a `SUM`/`AVG` adds ordinals and converts once at the
    /// end, a `MIN`/`MAX` scans one column. A stored table is folded block
    /// by block straight off its scan, so the rows an aggregate consumes
    /// are never materialized; any other input arrives as a finished batch.
    fn aggregate(
        &mut self,
        input: &PlanNode,
        counter: &mut usize,
        group_col: Option<usize>,
        desc: bool,
    ) -> Result<Vec<Vec<Cell>>, SqlError> {
        let (q, order) = (self.q, self.order);
        // A stored table's scan, with its width, or the finished batch.
        let (scan, batch) = if let PlanNode::Scan { table, path, .. } = input {
            let arity = q.tables.get(*table).map_or(0, |bt| bt.schema.arity());
            (Some((*table, *path, arity)), None)
        } else {
            let Batch::Ordinals(rows) = self.exec_node(input, counter, usize::MAX)? else {
                return Err(SqlError::Bind {
                    msg: "aggregate input is not an ordinal stream".to_owned(),
                });
            };
            (None, Some(rows))
        };
        let arity = match (&scan, &batch) {
            (Some((_, _, arity)), _) => *arity,
            (None, Some(rows)) => rows.arity(),
            (None, None) => 0,
        };
        let items = q
            .items
            .iter()
            .map(|item| {
                let arg = match item {
                    BoundItem::Column { col } => Some(*col),
                    BoundItem::Aggregate { arg, .. } => *arg,
                };
                Ok(match arg {
                    Some(col) => ItemCol {
                        col: Some(check_col(crate::plan::col_in_order(q, order, col), arity)?),
                        domain: Some(domain_of(q, col)),
                    },
                    None => ItemCol {
                        col: None,
                        domain: None,
                    },
                })
            })
            .collect::<Result<Vec<_>, SqlError>>()?;
        let group_col = group_col.map(|c| check_col(c, arity)).transpose()?;

        let mut groups: BTreeMap<u64, Vec<Acc>> = BTreeMap::new();
        let fresh = || -> Vec<Acc> { q.items.iter().map(Acc::for_item).collect() };
        if group_col.is_none() {
            groups.insert(0, fresh());
        }
        // Folds rows `sel` of `rows`, one run of equal group keys at a time;
        // a block answered from its synopsis is one run.
        let mut fold = |sunk: Sunk<'_>| {
            let (rows, sel) = match sunk {
                Sunk::Rows(rows, sel) => (rows, sel),
                Sunk::Synopsis(block) => {
                    let key = group_col.map_or(0, |c| block.min.digits()[c]);
                    let accs = groups.entry(key).or_insert_with(fresh);
                    for (acc, item) in accs.iter_mut().zip(&items) {
                        acc.fold_block(item.col, block);
                    }
                    return;
                }
            };
            let keys = group_col.map(|c| rows.col(c));
            let mut rest = sel;
            while let Some(&first) = rest.first() {
                let key = keys.map_or(0, |k| k[first as usize]);
                let run = keys.map_or(rest.len(), |k| {
                    rest.iter().take_while(|&&i| k[i as usize] == key).count()
                });
                let (now, later) = rest.split_at(run);
                let accs = groups.entry(key).or_insert_with(fresh);
                for (acc, item) in accs.iter_mut().zip(&items) {
                    acc.fold(item.col.map(|c| rows.col(c)), now);
                }
                rest = later;
            }
        };
        // The statement covers a block whole when the scan has no
        // conjuncts; it folds one from its synopsis when its group key (if
        // any) is constant there and every sum it needs is kept.
        let summed: Vec<usize> = (items.iter().zip(&q.items))
            .filter(|(_, bound)| Acc::for_item(bound).needs_sum())
            .filter_map(|(item, _)| item.col)
            .collect();
        let answerable = |block: &StoredBlock| {
            group_col.is_none_or(|c| block.is_constant(c))
                && summed.iter().all(|&c| block.column(c).sum().is_some())
        };
        // The fold's time inside a scan (traced there), then the rest.
        let mut in_scan = Duration::ZERO;
        let sw = if let Some((table, path, _)) = scan {
            let scan_id = self.claim_node(counter);
            let stage = Some(("aggregate", &mut in_scan));
            let covered = self.table(table)?.1.predicates().is_empty();
            let answers = covered.then_some(&answerable as &dyn Fn(&StoredBlock) -> bool);
            let kept = self.scan_into(table, path, 0, usize::MAX, stage, answers, &mut fold)?;
            if let Some(slot) = self.actual_rows.get_mut(scan_id) {
                *slot = kept;
            }
            self.clock()
        } else {
            let sw = self.clock();
            if let Some(rows) = &batch {
                fold(Sunk::Rows(rows, &all_rows(rows)?));
            }
            sw
        };
        let finish = |accs: &Vec<Acc>| -> Vec<Cell> {
            accs.iter()
                .zip(&items)
                .map(|(a, item)| a.finish(item.domain))
                .collect()
        };
        let out: Vec<Vec<Cell>> = if desc {
            groups.values().rev().map(finish).collect()
        } else {
            groups.values().map(finish).collect()
        };
        let after = sw.elapsed();
        self.trace_stage("aggregate", out.len() as u64, 0, 0, after);
        self.report("aggregate", out.len() as u64, 0, 0, in_scan + after);
        Ok(out)
    }

    /// Claims the next pre-order node id, keeping its `actual_rows` slot —
    /// children claim theirs before a node knows its own row count.
    fn claim_node(&mut self, counter: &mut usize) -> usize {
        let id = *counter;
        *counter += 1;
        if self.actual_rows.len() <= id {
            self.actual_rows.resize(id + 1, 0);
        }
        id
    }

    /// Runs `node`, of whose rows the caller keeps at most `limit`. Only a
    /// scan uses the limit — a `LIMIT` directly over it stops reading
    /// blocks once it is met; every other node passes `usize::MAX` down.
    fn exec_node(
        &mut self,
        node: &PlanNode,
        counter: &mut usize,
        limit: usize,
    ) -> Result<Batch, SqlError> {
        let my_id = self.claim_node(counter);
        let batch = match node {
            PlanNode::Scan { table, path, .. } => Batch::Ordinals(self.scan(*table, *path, limit)?),
            PlanNode::NlJoin {
                outer,
                inner,
                strategy,
                outer_key,
                outer_col,
                inner_attr,
                ..
            } => {
                let Batch::Ordinals(outer_rows) = self.exec_node(outer, counter, usize::MAX)?
                else {
                    return Err(SqlError::Bind {
                        msg: "join input is not an ordinal stream".to_owned(),
                    });
                };
                let index_probe = matches!(strategy, avq_db::JoinStrategy::IndexNestedLoop);
                Batch::Ordinals(self.nl_join(
                    outer_rows,
                    *inner,
                    index_probe,
                    *outer_key,
                    *outer_col,
                    *inner_attr,
                )?)
            }
            PlanNode::HashJoin {
                left,
                table,
                path,
                left_key,
                left_col,
                table_attr,
                ..
            } => {
                let Batch::Ordinals(left_rows) = self.exec_node(left, counter, usize::MAX)? else {
                    return Err(SqlError::Bind {
                        msg: "join input is not an ordinal stream".to_owned(),
                    });
                };
                Batch::Ordinals(self.hash_join(
                    left_rows,
                    *table,
                    *path,
                    *left_key,
                    *left_col,
                    *table_attr,
                )?)
            }
            PlanNode::Aggregate {
                input,
                group_col,
                desc,
                ..
            } => Batch::Cells(self.aggregate(input, counter, *group_col, *desc)?),
            PlanNode::Sort {
                input, col, desc, ..
            } => {
                let Batch::Ordinals(rows) = self.exec_node(input, counter, usize::MAX)? else {
                    return Err(SqlError::Bind {
                        msg: "sort input is not an ordinal stream".to_owned(),
                    });
                };
                let sw = self.clock();
                // Ordinal order is domain order for every domain kind, so
                // sorting ordinals sorts semantic values. The (stable) sort
                // permutes row numbers by the one key column; every column
                // is then gathered once in that order.
                let keys = rows.col(check_col(*col, rows.arity())?);
                let mut order = all_rows(&rows)?;
                order.sort_by_key(|&i| keys[i as usize]);
                if *desc {
                    order.reverse();
                }
                let mut sorted = TupleBatch::new(rows.arity());
                sorted.extend_from(&rows, &order);
                self.stage("sort", sorted.len() as u64, 0, 0, sw.elapsed());
                Batch::Ordinals(sorted)
            }
            PlanNode::Limit { input, n, .. } => {
                let mut batch = self.exec_node(input, counter, *n)?;
                let sw = self.clock();
                match &mut batch {
                    Batch::Ordinals(rows) => rows.truncate(*n),
                    Batch::Cells(rows) => rows.truncate(*n),
                }
                self.stage("limit", batch.len() as u64, 0, 0, sw.elapsed());
                batch
            }
            PlanNode::Project { input, cols, .. } => {
                let q = self.q;
                // Each output column's input column and domain, once.
                let mut targets = Vec::with_capacity(cols.len());
                for &c in cols {
                    targets.push((c, domain_of(q, source_of(q, self.order, c)?)));
                }
                // The projected columns of row `i`, decoded; no other
                // column of the row is read.
                let cells = |rows: &TupleBatch, i: usize| -> Vec<Cell> {
                    targets
                        .iter()
                        .map(|&(c, domain)| decode_cell(domain, rows.get(i, c)))
                        .collect()
                };
                // A stored table is projected block by block straight off
                // its scan, so its full-width rows are never materialized
                // next to the cells; any other input arrives as a batch.
                if let PlanNode::Scan { table, path, .. } = &**input {
                    let arity = q.tables.get(*table).map_or(0, |bt| bt.schema.arity());
                    for &(c, _) in &targets {
                        check_col(c, arity)?;
                    }
                    let scan_id = self.claim_node(counter);
                    let held = avq_db::row_mem_bytes(cols.len());
                    let mut out = Vec::new();
                    let mut spent = Duration::ZERO;
                    let kept = self.scan_into(
                        *table,
                        *path,
                        held,
                        usize::MAX,
                        Some(("project", &mut spent)),
                        None,
                        |sunk| {
                            if let Sunk::Rows(block, sel) = sunk {
                                out.extend(sel.iter().map(|&i| cells(block, i as usize)));
                            }
                        },
                    )?;
                    if let Some(slot) = self.actual_rows.get_mut(scan_id) {
                        *slot = kept;
                    }
                    self.report("project", out.len() as u64, 0, 0, spent);
                    Batch::Cells(out)
                } else {
                    let Batch::Ordinals(rows) = self.exec_node(input, counter, usize::MAX)? else {
                        return Err(SqlError::Bind {
                            msg: "projection input is not an ordinal stream".to_owned(),
                        });
                    };
                    let sw = self.clock();
                    for &(c, _) in &targets {
                        check_col(c, rows.arity())?;
                    }
                    let out: Vec<Vec<Cell>> = (0..rows.len()).map(|i| cells(&rows, i)).collect();
                    self.stage("project", out.len() as u64, 0, 0, sw.elapsed());
                    Batch::Cells(out)
                }
            }
        };
        if let Some(slot) = self.actual_rows.get_mut(my_id) {
            *slot = batch.len() as u64;
        }
        Ok(batch)
    }
}

/// Decodes one ordinal to a display cell through its domain.
fn decode_cell(domain: &Domain, ord: u64) -> Cell {
    match key_of(domain, ord) {
        KeyVal::Int(n) => Cell::Int(n),
        KeyVal::Str(s) => Cell::Str(s),
    }
}

/// Where an aggregate item reads, resolved once per query.
struct ItemCol<'q> {
    /// The item's column in the input rows (`None` for `COUNT(*)`).
    col: Option<usize>,
    /// That column's domain: the item's output is decoded through it.
    domain: Option<&'q Domain>,
}

/// One aggregate accumulator, in ordinal space until [`Acc::finish`].
enum Acc {
    Count(u64),
    /// The ordinal sum of `n` rows.
    Sum {
        ords: u128,
        n: u64,
    },
    Avg {
        ords: u128,
        n: u64,
    },
    Min(Option<u64>),
    Max(Option<u64>),
    /// A plain group-key column: remember the first ordinal seen.
    Key(Option<u64>),
}

impl Acc {
    fn for_item(item: &BoundItem) -> Acc {
        use crate::ast::AggFunc;
        match item {
            BoundItem::Column { .. } => Acc::Key(None),
            BoundItem::Aggregate { func, .. } => match func {
                AggFunc::Count => Acc::Count(0),
                AggFunc::Sum => Acc::Sum { ords: 0, n: 0 },
                AggFunc::Avg => Acc::Avg { ords: 0, n: 0 },
                AggFunc::Min => Acc::Min(None),
                AggFunc::Max => Acc::Max(None),
            },
        }
    }

    /// Folds rows `sel` of the item's column `col` (`None` when the item
    /// has no argument, as `COUNT(*)`).
    fn fold(&mut self, col: Option<&[u64]>, sel: &[u32]) {
        match (self, col) {
            (Acc::Count(n), _) => *n += sel.len() as u64,
            (Acc::Sum { ords, n } | Acc::Avg { ords, n }, Some(col)) => {
                *ords += sel
                    .iter()
                    .map(|&i| u128::from(col[i as usize]))
                    .sum::<u128>();
                *n += sel.len() as u64;
            }
            (Acc::Min(cur), Some(col)) => {
                if let Some(m) = sel.iter().map(|&i| col[i as usize]).min() {
                    *cur = Some(cur.map_or(m, |c| c.min(m)));
                }
            }
            (Acc::Max(cur), Some(col)) => {
                if let Some(m) = sel.iter().map(|&i| col[i as usize]).max() {
                    *cur = Some(cur.map_or(m, |c| c.max(m)));
                }
            }
            (Acc::Key(cur @ None), Some(col)) => *cur = sel.first().map(|&i| col[i as usize]),
            _ => {}
        }
    }

    /// True for the accumulators that add up their column.
    fn needs_sum(&self) -> bool {
        matches!(self, Acc::Sum { .. } | Acc::Avg { .. })
    }

    /// Folds a whole block from its synopsis, exactly as [`Self::fold`]
    /// would fold every row of it: the count, the ordinal sum, the stored
    /// extremes, and for a key the block's first tuple. A sum the synopsis
    /// does not keep is never asked for (the block is decoded instead).
    fn fold_block(&mut self, col: Option<usize>, block: &StoredBlock) {
        let count = block.count as u64;
        match (self, col.map(|c| (c, block.column(c)))) {
            (Acc::Count(n), _) => *n += count,
            (Acc::Sum { ords, n } | Acc::Avg { ords, n }, Some((_, c))) => {
                *ords += u128::from(c.sum().unwrap_or_default());
                *n += count;
            }
            (Acc::Min(cur), Some((_, c))) => *cur = Some(cur.map_or(c.min, |m| m.min(c.min))),
            (Acc::Max(cur), Some((_, c))) => *cur = Some(cur.map_or(c.max, |m| m.max(c.max))),
            (Acc::Key(cur @ None), Some((c, _))) => *cur = Some(block.min.digits()[c]),
            _ => {}
        }
    }

    /// The output cell, converting ordinals through the item's `domain`.
    fn finish(&self, domain: Option<&Domain>) -> Cell {
        match self {
            Acc::Count(n) => Cell::Int(i128::from(*n)),
            Acc::Sum { ords, n } => Cell::Int(semantic_sum(domain, *ords, *n)),
            Acc::Avg { n: 0, .. } => Cell::Null,
            Acc::Avg { ords, n } => Cell::Float(semantic_sum(domain, *ords, *n) as f64 / *n as f64),
            Acc::Min(ord) | Acc::Max(ord) | Acc::Key(ord) => match (ord, domain) {
                (Some(o), Some(domain)) => decode_cell(domain, *o),
                _ => Cell::Null,
            },
        }
    }
}

/// The sum of the semantic values of `n` ordinals of `domain` whose
/// ordinal sum is `ords`: the identity for `Uint`, plus `n·min` for
/// `IntRange`. An enumerated member has no numeric value and adds 0.
fn semantic_sum(domain: Option<&Domain>, ords: u128, n: u64) -> i128 {
    match domain {
        Some(Domain::Uint { .. }) => ords as i128,
        Some(Domain::IntRange { min, .. }) => ords as i128 + i128::from(*min) * i128::from(n),
        _ => 0,
    }
}

/// Executes `plan` for `q` against `db` under `ctx`.
///
/// Every block read on behalf of the query goes through
/// [`avq_db::StoredRelation::read_block`] — the poll point for `ctx.gov`'s
/// deadline, cancellation and quotas, and where `ctx.trace` gets its
/// block-read spans beneath the per-stage `avq.sql.stage` spans recorded
/// here. Materialized rows — scan output block by block, join output —
/// charge the memory budget, and a trip unwinds as [`SqlError::Exec`]
/// wrapping [`avq_db::DbError::Governance`].
///
/// The stages are timed only when `ctx.trace` records; otherwise each
/// [`StageReport`] carries its rows, blocks and cache hits with a zero
/// `elapsed`.
pub fn execute(
    db: &Database,
    q: &BoundQuery,
    plan: &PhysicalPlan,
    ctx: &QueryCtx,
) -> Result<ExecOutput, SqlError> {
    run_plan(db, q, plan, ctx, false)
}

/// [`execute`], timing every stage when `timed` (as `EXPLAIN ANALYZE`
/// does) or when `ctx.trace` records.
pub(crate) fn run_plan(
    db: &Database,
    q: &BoundQuery,
    plan: &PhysicalPlan,
    ctx: &QueryCtx,
    timed: bool,
) -> Result<ExecOutput, SqlError> {
    let mut exec = Exec {
        db,
        q,
        order: &plan.table_order,
        ctx,
        timed: timed || ctx.trace.is_enabled(),
        stages: Vec::new(),
        actual_rows: Vec::new(),
    };
    let mut counter = 0usize;
    let batch = exec.exec_node(&plan.root, &mut counter, usize::MAX)?;
    let rows = match batch {
        Batch::Cells(rows) => rows,
        // An ordinal root only happens for plans without a projection tail,
        // which the planner never emits; decode defensively anyway.
        Batch::Ordinals(rows) => {
            let mut domains = Vec::with_capacity(rows.arity());
            for c in 0..rows.arity() {
                domains.push(domain_of(q, source_of(q, &plan.table_order, c)?));
            }
            (0..rows.len())
                .map(|i| {
                    (domains.iter().enumerate())
                        .map(|(c, domain)| decode_cell(domain, rows.get(i, c)))
                        .collect()
                })
                .collect()
        }
    };
    Ok(ExecOutput {
        result: QueryResult {
            headers: Arc::clone(&q.headers),
            rows,
        },
        stages: exec.stages,
        actual_rows: exec.actual_rows,
    })
}

/// [`execute`] for a caller that holds only a [`TraceCtx`] — the one
/// `_traced` name left in the workspace. `benchmark/src/trace.rs` calls it
/// and `benchmark/` compiles against this crate by path, so it stays until
/// a benchmark PR moves that call to [`execute`]; nothing else should call
/// it.
pub fn execute_traced(
    db: &Database,
    q: &BoundQuery,
    plan: &PhysicalPlan,
    ctx: &TraceCtx,
) -> Result<ExecOutput, SqlError> {
    execute(db, q, plan, &QueryCtx::from(ctx.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind, parse, Statement};
    use avq_db::DbConfig;
    use avq_obs::Stopwatch;
    use avq_schema::{Relation, Schema, Tuple};

    const ROWS: u64 = 12_000;

    /// `t(a < 8, b < 1000, c ∈ [-50, 49])`, `ROWS` rows over many blocks.
    fn db() -> Database {
        let schema = Schema::from_pairs(vec![
            ("a", Domain::uint(8).unwrap()),
            ("b", Domain::uint(1000).unwrap()),
            ("c", Domain::int_range(-50, 49).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..ROWS)
            .map(|i| Tuple::from([i % 8, (i * 7) % 1000, (i * 13) % 100]))
            .collect();
        let mut db = Database::new(DbConfig::default().with_block_capacity(512));
        db.create_relation("t", &Relation::from_tuples(schema, tuples).unwrap())
            .unwrap();
        db
    }

    fn bound(db: &Database, sql: &str) -> BoundQuery {
        let Statement::Select(select) = parse(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        bind(db, &select).unwrap()
    }

    #[test]
    fn a_column_past_the_last_table_is_a_bind_error() {
        let db = db();
        let q = bound(&db, "select a, b, c from t");
        assert_eq!(source_of(&q, &[0], 2).unwrap(), (0, 2));
        assert!(matches!(source_of(&q, &[0], 3), Err(SqlError::Bind { .. })));
        assert!(matches!(source_of(&q, &[], 0), Err(SqlError::Bind { .. })));
    }

    #[test]
    fn the_sink_of_a_scan_is_timed_apart_from_its_filter() {
        let db = db();
        let sql = "select count(*), min(b), max(c), avg(c) from t where b >= 5";
        let q = bound(&db, sql);
        let physical = crate::plan::plan(&db, &q).unwrap();
        let wall = Stopwatch::start();
        let out = run_plan(&db, &q, &physical, &QueryCtx::default(), true).unwrap();
        let wall = wall.elapsed();
        let stage = |name: &str| {
            let mut found = out.stages.iter().filter(|s| s.stage == name);
            let s = found.next().unwrap_or_else(|| panic!("no {name} stage"));
            assert!(found.next().is_none(), "one {name} stage");
            s
        };
        let (scan, filter, aggregate) = (stage("scan"), stage("filter"), stage("aggregate"));
        assert_eq!(scan.rows, ROWS);
        assert!(
            filter.rows >= 10_000,
            "{} rows reach the aggregate",
            filter.rows
        );
        assert!(
            aggregate.elapsed > Duration::ZERO,
            "the fold has its own time"
        );
        let total: Duration = out.stages.iter().map(|s| s.elapsed).sum();
        assert!(filter.elapsed + aggregate.elapsed <= total);
        assert!(
            total <= wall,
            "stages {total:?} overlap in a {wall:?} statement"
        );
        // And the answer is the row-wise one.
        let kept: Vec<u64> = (0..ROWS).filter(|i| (i * 7) % 1000 >= 5).collect();
        let min_b = kept.iter().map(|i| (i * 7) % 1000).min().unwrap();
        let max_c = kept.iter().map(|i| (i * 13) % 100).max().unwrap() as i128 - 50;
        let sum_c: i128 = kept.iter().map(|i| ((i * 13) % 100) as i128 - 50).sum();
        let row = &out.result.rows[0];
        assert_eq!(row[0], Cell::Int(kept.len() as i128));
        assert_eq!(row[1], Cell::Int(i128::from(min_b)));
        assert_eq!(row[2], Cell::Int(max_c));
        assert_eq!(row[3], Cell::Float(sum_c as f64 / kept.len() as f64));

        // A projection builds a row of cells per kept row — far more work
        // than the one compare per row its filter does — and that work is
        // the `project` stage's, not the `filter` stage's.
        let q = bound(&db, "select a, b, c from t where b >= 5");
        let physical = crate::plan::plan(&db, &q).unwrap();
        let out = run_plan(&db, &q, &physical, &QueryCtx::default(), true).unwrap();
        assert_eq!(out.result.rows.len(), kept.len());
        let elapsed = |name: &str| out.stages.iter().find(|s| s.stage == name).unwrap().elapsed;
        assert!(
            elapsed("project") > elapsed("filter"),
            "project {:?} vs filter {:?}",
            elapsed("project"),
            elapsed("filter")
        );
    }

    /// Each stage's name, rows, blocks and cache hits.
    fn counts(stages: &[StageReport]) -> Vec<(&'static str, u64, u64, u64)> {
        let counts = stages
            .iter()
            .map(|s| (s.stage, s.rows, s.blocks, s.cache_hits));
        counts.collect()
    }

    /// A stage table's lines without their elapsed column.
    fn untimed_table(text: &str) -> Vec<&str> {
        let table = text.lines().skip_while(|l| !l.starts_with("stage "));
        table
            .map(|l| l.rsplit_once(" | ").map_or(l, |(kept, _)| kept))
            .collect()
    }

    #[test]
    fn a_plain_run_reports_the_stages_explain_analyze_times() {
        let mut db = db();
        db.create_secondary_index("t", 1).unwrap();
        let statements = [
            "select a, b, c from t where b >= 5",
            "select * from t where b = 7 and c > 0",
            "select * from t where a = 3 and b <= 100 order by c desc limit 5",
            "select a, count(*), sum(c) from t where c < 0 group by a",
            "select count(*) from t",
            "select x.a, y.b from t x join t y on x.b = y.b where x.a = 1 and y.c = 7",
        ];
        for sql in statements {
            let q = bound(&db, sql);
            let physical = crate::plan::plan(&db, &q).unwrap();
            // Warm, so that both runs below see the same cache.
            execute(&db, &q, &physical, &QueryCtx::default()).unwrap();
            let plain = execute(&db, &q, &physical, &QueryCtx::default()).unwrap();
            let timed = run_plan(&db, &q, &physical, &QueryCtx::default(), true).unwrap();
            assert_eq!(counts(&plain.stages), counts(&timed.stages), "{sql}");
            assert_eq!(plain.actual_rows, timed.actual_rows, "{sql}");
            assert_eq!(plain.result.rows, timed.result.rows, "{sql}");
            assert!(
                plain.stages.iter().all(|s| s.elapsed == Duration::ZERO),
                "{sql}: an untimed stage read the clock"
            );
            assert!(
                timed.stages.iter().any(|s| s.elapsed > Duration::ZERO),
                "{sql}: no timed stage took any time"
            );

            // A recording trace reads the stage times, so they run.
            let collector = avq_obs::TraceCollector::new(4, avq_obs::SamplingPolicy::Always);
            let ctx = QueryCtx::from(collector.begin());
            let traced = execute(&db, &q, &physical, &ctx).unwrap();
            assert_eq!(counts(&traced.stages), counts(&plain.stages), "{sql}");
            assert!(traced.stages.iter().any(|s| s.elapsed > Duration::ZERO));

            // EXPLAIN ANALYZE prints the same stage table, times aside.
            let Ok(crate::SqlOutcome::Plan(analyzed)) =
                crate::run(&db, &format!("explain analyze {sql}"))
            else {
                panic!("{sql}: explain analyze renders a plan");
            };
            let rows = plain.result.rows.len() as u64;
            let table = crate::explain::stage_table(&plain.stages, rows);
            assert_eq!(untimed_table(&analyzed), untimed_table(&table), "{sql}");
        }
    }
}
