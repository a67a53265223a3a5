//! Execution of a [`PhysicalPlan`] over the stored AVQ operators.
//!
//! Rows flow between operators as ordinal rows (the φ digit encoding of
//! §3.1) in flat [`TupleBatch`]es, each row laid out as the concatenation
//! of the plan's `table_order` schemas. Stored blocks are read one at a
//! time as shared decoded batches and filtered on borrowed rows; only the
//! final projection/aggregation decodes ordinals back to domain values.
//! Join keys are canonicalized through the internal
//! `KeyVal` so an
//! equijoin between attributes with *different* domains (say
//! `IntRange{-10,89}` and `Uint{100}`) compares semantic values, not raw
//! ordinals.
//!
//! Every operator is timed with [`Stopwatch`] and reports a
//! [`StageReport`] using the same stage vocabulary as
//! `avq_db::ExplainReport`, plus per-plan-node actual row counts keyed by
//! the pre-order node numbering shared with the renderer — that pairing is
//! what lets `EXPLAIN ANALYZE` print estimated vs. actual rows per node.

use crate::binder::{BoundItem, BoundQuery};
use crate::error::SqlError;
use crate::plan::{domain_of, selection_of, PhysicalPlan, PlanNode};
use avq_db::{AccessPath, CacheMark, Database, RangePredicate, StageReport};
use avq_obs::{names, AttrValue, QueryCtx, Stopwatch, TraceCtx};
use avq_schema::{Domain, TupleBatch, Value};
use core::time::Duration;
use std::collections::BTreeMap;

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
    /// Column headers in output order.
    pub headers: Vec<String>,
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

/// Everything execution produces: the result plus per-stage timings and
/// per-node actual row counts for `EXPLAIN ANALYZE`.
#[derive(Debug)]
pub struct ExecOutput {
    /// The decoded result table.
    pub result: QueryResult,
    /// Timed stages in execution order (ExplainReport vocabulary).
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
    stages: Vec<StageReport>,
    actual_rows: Vec<u64>,
}

/// Memory charged to the governance budget for `rows` materialized
/// ordinal rows of `width` columns, at [`avq_db::row_mem_bytes`] each —
/// the one per-row model SQL-level intermediates and storage-level
/// selections share.
fn batch_mem_bytes(rows: usize, width: usize) -> u64 {
    rows as u64 * avq_db::row_mem_bytes(width)
}

/// Maps an output-row column index back to its `(table, attr)` source.
fn source_of(q: &BoundQuery, order: &[usize], col: usize) -> (usize, usize) {
    let mut off = 0usize;
    for &t in order {
        let arity = q.tables.get(t).map_or(0, |b| b.schema.arity());
        if col < off + arity {
            return (t, col - off);
        }
        off += arity;
    }
    (0, 0)
}

impl<'a> Exec<'a> {
    /// Records the stage report and, when tracing, retroactively attaches
    /// a matching `avq.sql.stage` span covering the stage's elapsed time.
    fn stage(&mut self, stage: &'static str, rows: u64, blocks: u64, hits: u64, sw: Stopwatch) {
        let elapsed = sw.elapsed();
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
    /// ordinal rows.
    fn scan(
        &mut self,
        table: usize,
        path: AccessPath,
        limit: usize,
    ) -> Result<TupleBatch, SqlError> {
        let arity = self.q.tables.get(table).map_or(0, |bt| bt.schema.arity());
        let mut rows = TupleBatch::new(arity);
        let held = avq_db::row_mem_bytes(arity);
        self.scan_into(table, path, held, limit, |row| rows.push_row(row))?;
        Ok(rows)
    }

    /// Streams the rows of `table` that pass its conjuncts into `sink`,
    /// returning how many did.
    ///
    /// Candidate blocks are read one at a time (the `scan` stage) and each
    /// block's borrowed rows filtered straight into the sink (the `filter`
    /// stage), so neither the candidate set nor any unmatched tuple is
    /// ever materialized. Once `limit` rows are kept no further row is
    /// filtered and no further block read. A sink that holds the rows it is
    /// given names their price in `held_row_bytes`; it is charged to the
    /// memory budget per block, so a trip overshoots by at most one block.
    fn scan_into(
        &mut self,
        table: usize,
        path: AccessPath,
        held_row_bytes: u64,
        limit: usize,
        mut sink: impl FnMut(&[u64]),
    ) -> Result<u64, SqlError> {
        let bt = self.q.tables.get(table).ok_or_else(|| SqlError::Bind {
            msg: "plan references an unbound table".to_owned(),
        })?;
        let rel = self.db.relation(&bt.relation)?;
        let sel = selection_of(self.q, table);

        let sw = Stopwatch::start();
        let candidates = rel.candidate_blocks(&sel, path)?;
        if !matches!(path, AccessPath::FullScan) {
            self.stage("index-probe", candidates.len() as u64, 0, 0, sw);
        }

        let sw = Stopwatch::start();
        let mark = CacheMark::take(rel);
        let (mut blocks, mut examined, mut kept) = (0u64, 0u64, 0u64);
        let mut room = limit;
        let mut read_time = Duration::ZERO;
        let (hits, filter_time) = {
            // An *open* stage span (unlike the retroactive ones from
            // `stage`) so per-block read spans — and the filter time
            // interleaved with them — nest beneath it.
            let guard = self.ctx.trace.span(names::SPAN_SQL_STAGE);
            for id in &candidates {
                if room == 0 {
                    break;
                }
                let read = Stopwatch::start();
                let block = rel.read_block(*id, self.ctx)?;
                read_time += read.elapsed();
                let Some(block) = block else {
                    continue;
                };
                blocks += 1;
                let before = kept;
                for row in block.rows() {
                    if room == 0 {
                        break;
                    }
                    examined += 1;
                    if sel.matches(row) {
                        sink(row);
                        kept += 1;
                        room -= 1;
                    }
                }
                self.ctx.gov.charge_mem((kept - before) * held_row_bytes);
            }
            let hits = mark.hits_since(rel);
            let filter_time = sw.elapsed().saturating_sub(read_time);
            if guard.is_recording() {
                guard.attr(names::ATTR_STAGE, "scan");
                guard.attr(names::ATTR_ROWS, examined);
                guard.attr(names::ATTR_BLOCKS_READ, blocks);
                guard.attr(names::ATTR_CACHE_HITS, hits);
            }
            self.trace_stage("filter", kept, 0, 0, filter_time);
            (hits, filter_time)
        };
        self.report("scan", examined, blocks, hits, read_time);
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
        let bt = self.q.tables.get(inner).ok_or_else(|| SqlError::Bind {
            msg: "plan references an unbound table".to_owned(),
        })?;
        let rel = self.db.relation(&bt.relation)?;
        let sel = selection_of(self.q, inner);
        let out_dom = domain_of(self.q, outer_key);
        let in_dom = domain_of(self.q, (inner, inner_attr));

        // Distinct outer key ordinals → matching inner ordinal (if any).
        let mut key_map: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for row in outer_rows.rows() {
            let Some(&o) = row.get(outer_col) else {
                continue;
            };
            key_map
                .entry(o)
                .or_insert_with(|| ord_of(in_dom, &key_of(out_dom, o)));
        }

        // Inner side: matching rows in one batch, their row numbers
        // grouped by the join attribute.
        let mut matched = TupleBatch::new(bt.schema.arity());
        let mut by_key: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let sw = Stopwatch::start();
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
                for id in &candidates {
                    let Some(block) = rel.read_block(*id, self.ctx)? else {
                        continue;
                    };
                    blocks += 1;
                    for row in block.rows().filter(|row| probe_sel.matches(row)) {
                        by_key.entry(*inner_ord).or_default().push(matched.len());
                        matched.push_row(row);
                    }
                }
            }
            let hits = mark.hits_since(rel);
            self.stage("index-probe", matched.len() as u64, blocks, hits, sw);
        } else {
            for id in &rel.candidate_blocks(&sel, AccessPath::FullScan)? {
                let Some(block) = rel.read_block(*id, self.ctx)? else {
                    continue;
                };
                blocks += 1;
                for row in block.rows().filter(|row| sel.matches(row)) {
                    if let Some(&o) = row.get(inner_attr) {
                        by_key.entry(o).or_default().push(matched.len());
                    }
                    matched.push_row(row);
                }
            }
            let hits = mark.hits_since(rel);
            self.stage("scan-inner", matched.len() as u64, blocks, hits, sw);
        }

        let sw = Stopwatch::start();
        let mut out = TupleBatch::new(outer_rows.arity() + matched.arity());
        for row in outer_rows.rows() {
            let Some(&o) = row.get(outer_col) else {
                continue;
            };
            let Some(Some(inner_ord)) = key_map.get(&o) else {
                continue;
            };
            for &m in by_key.get(inner_ord).into_iter().flatten() {
                out.push_joined(row, matched.row(m));
            }
        }
        self.ctx
            .gov
            .charge_mem(batch_mem_bytes(out.len(), out.arity()));
        self.ctx.gov.poll().map_err(avq_db::DbError::from)?;
        self.stage("join", out.len() as u64, 0, 0, sw);
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

        let mut build: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, row) in left_rows.rows().enumerate() {
            if let Some(&o) = row.get(left_col) {
                build.entry(o).or_default().push(i);
            }
        }
        // Left ordinal → probe-side ordinal under the canonical key.
        let probe_ord: BTreeMap<u64, Option<u64>> = build
            .keys()
            .map(|&o| (o, ord_of(probe_dom, &key_of(left_dom, o))))
            .collect();
        let by_probe_ord: BTreeMap<u64, &Vec<usize>> = build
            .iter()
            .filter_map(|(o, idxs)| probe_ord.get(o).copied().flatten().map(|p| (p, idxs)))
            .collect();

        let probe_rows = self.scan(table, path, usize::MAX)?;
        let sw = Stopwatch::start();
        let mut out = TupleBatch::new(left_rows.arity() + probe_rows.arity());
        for trow in probe_rows.rows() {
            let Some(&o) = trow.get(table_attr) else {
                continue;
            };
            for &i in by_probe_ord
                .get(&o)
                .into_iter()
                .flat_map(|idxs| idxs.iter())
            {
                out.push_joined(left_rows.row(i), trow);
            }
        }
        self.ctx
            .gov
            .charge_mem(batch_mem_bytes(out.len(), out.arity()));
        self.ctx.gov.poll().map_err(avq_db::DbError::from)?;
        self.stage("join", out.len() as u64, 0, 0, sw);
        Ok(out)
    }

    /// Folds the rows of `input` into one output row per group. A stored
    /// table is folded block by block straight off its scan, so the rows
    /// an aggregate consumes are never materialized; any other input
    /// arrives as a finished batch.
    fn aggregate(
        &mut self,
        input: &PlanNode,
        counter: &mut usize,
        group_col: Option<usize>,
        desc: bool,
    ) -> Result<Vec<Vec<Cell>>, SqlError> {
        let (q, order) = (self.q, self.order);
        let mut groups: BTreeMap<u64, Vec<Acc>> = BTreeMap::new();
        let fresh = || -> Vec<Acc> { q.items.iter().map(Acc::for_item).collect() };
        if group_col.is_none() {
            groups.insert(0, fresh());
        }
        let mut feed = |row: &[u64]| {
            let key = match group_col {
                Some(c) => row.get(c).copied().unwrap_or(0),
                None => 0,
            };
            let accs = groups.entry(key).or_insert_with(fresh);
            for (acc, item) in accs.iter_mut().zip(q.items.iter()) {
                acc.feed(q, order, item, row);
            }
        };
        let sw = if let PlanNode::Scan { table, path, .. } = input {
            let scan_id = self.claim_node(counter);
            let kept = self.scan_into(*table, *path, 0, usize::MAX, &mut feed)?;
            if let Some(slot) = self.actual_rows.get_mut(scan_id) {
                *slot = kept;
            }
            Stopwatch::start()
        } else {
            let Batch::Ordinals(rows) = self.exec_node(input, counter, usize::MAX)? else {
                return Err(SqlError::Bind {
                    msg: "aggregate input is not an ordinal stream".to_owned(),
                });
            };
            let sw = Stopwatch::start();
            rows.rows().for_each(&mut feed);
            sw
        };
        let finish = |accs: &Vec<Acc>| -> Vec<Cell> {
            accs.iter()
                .zip(q.items.iter())
                .map(|(a, item)| a.finish(q, item))
                .collect()
        };
        let out: Vec<Vec<Cell>> = if desc {
            groups.values().rev().map(finish).collect()
        } else {
            groups.values().map(finish).collect()
        };
        self.stage("aggregate", out.len() as u64, 0, 0, sw);
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
                let sw = Stopwatch::start();
                // Ordinal order is domain order for every domain kind, so
                // sorting ordinals sorts semantic values. The (stable) sort
                // permutes row numbers; rows are then gathered once.
                let mut order: Vec<usize> = (0..rows.len()).collect();
                order.sort_by_key(|&i| rows.row(i).get(*col).copied().unwrap_or(0));
                if *desc {
                    order.reverse();
                }
                let mut sorted = TupleBatch::with_capacity(rows.arity(), rows.len());
                for i in order {
                    sorted.push_row(rows.row(i));
                }
                self.stage("sort", sorted.len() as u64, 0, 0, sw);
                Batch::Ordinals(sorted)
            }
            PlanNode::Limit { input, n, .. } => {
                let mut batch = self.exec_node(input, counter, *n)?;
                let sw = Stopwatch::start();
                match &mut batch {
                    Batch::Ordinals(rows) => rows.truncate(*n),
                    Batch::Cells(rows) => rows.truncate(*n),
                }
                self.stage("limit", batch.len() as u64, 0, 0, sw);
                batch
            }
            PlanNode::Project { input, cols, .. } => {
                let q = self.q;
                let sources: Vec<(usize, usize)> =
                    cols.iter().map(|&c| source_of(q, self.order, c)).collect();
                let cells = |row: &[u64]| -> Vec<Cell> {
                    cols.iter()
                        .zip(sources.iter())
                        .map(|(&c, &src)| {
                            let ord = row.get(c).copied().unwrap_or(0);
                            decode_cell(domain_of(q, src), ord)
                        })
                        .collect()
                };
                // A stored table is projected block by block straight off
                // its scan, so its full-width rows are never materialized
                // next to the cells; any other input arrives as a batch.
                let (out, sw) = if let PlanNode::Scan { table, path, .. } = &**input {
                    let scan_id = self.claim_node(counter);
                    let held = avq_db::row_mem_bytes(cols.len());
                    let mut out = Vec::new();
                    let kept = self
                        .scan_into(*table, *path, held, usize::MAX, |row| out.push(cells(row)))?;
                    if let Some(slot) = self.actual_rows.get_mut(scan_id) {
                        *slot = kept;
                    }
                    (out, Stopwatch::start())
                } else {
                    let Batch::Ordinals(rows) = self.exec_node(input, counter, usize::MAX)? else {
                        return Err(SqlError::Bind {
                            msg: "projection input is not an ordinal stream".to_owned(),
                        });
                    };
                    let sw = Stopwatch::start();
                    (rows.rows().map(cells).collect(), sw)
                };
                self.stage("project", out.len() as u64, 0, 0, sw);
                Batch::Cells(out)
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

/// One aggregate accumulator.
enum Acc {
    Count(u64),
    Sum(i128),
    Avg {
        sum: i128,
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
                AggFunc::Sum => Acc::Sum(0),
                AggFunc::Avg => Acc::Avg { sum: 0, n: 0 },
                AggFunc::Min => Acc::Min(None),
                AggFunc::Max => Acc::Max(None),
            },
        }
    }

    /// The semantic integer value of `col`'s ordinal in `row`.
    fn semantic(q: &BoundQuery, order: &[usize], col: (usize, usize), row: &[u64]) -> i128 {
        let c = crate::plan::col_in_order(q, order, col);
        let ord = row.get(c).copied().unwrap_or(0);
        match key_of(domain_of(q, col), ord) {
            KeyVal::Int(n) => n,
            KeyVal::Str(_) => 0,
        }
    }

    fn feed(&mut self, q: &BoundQuery, order: &[usize], item: &BoundItem, row: &[u64]) {
        let arg = match item {
            BoundItem::Column { col } => Some(*col),
            BoundItem::Aggregate { arg, .. } => *arg,
        };
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(s) => {
                if let Some(col) = arg {
                    *s += Acc::semantic(q, order, col, row);
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(col) = arg {
                    *sum += Acc::semantic(q, order, col, row);
                    *n += 1;
                }
            }
            Acc::Min(cur) => {
                if let Some(col) = arg {
                    let c = crate::plan::col_in_order(q, order, col);
                    let ord = row.get(c).copied().unwrap_or(0);
                    *cur = Some(cur.map_or(ord, |m| m.min(ord)));
                }
            }
            Acc::Max(cur) => {
                if let Some(col) = arg {
                    let c = crate::plan::col_in_order(q, order, col);
                    let ord = row.get(c).copied().unwrap_or(0);
                    *cur = Some(cur.map_or(ord, |m| m.max(ord)));
                }
            }
            Acc::Key(cur) => {
                if let (Some(col), None) = (arg, &cur) {
                    let c = crate::plan::col_in_order(q, order, col);
                    *cur = row.get(c).copied();
                }
            }
        }
    }

    fn finish(&self, q: &BoundQuery, item: &BoundItem) -> Cell {
        let arg = match item {
            BoundItem::Column { col } => Some(*col),
            BoundItem::Aggregate { arg, .. } => *arg,
        };
        match self {
            Acc::Count(n) => Cell::Int(i128::from(*n)),
            Acc::Sum(s) => Cell::Int(*s),
            Acc::Avg { n: 0, .. } => Cell::Null,
            Acc::Avg { sum, n } => Cell::Float(*sum as f64 / *n as f64),
            Acc::Min(ord) | Acc::Max(ord) | Acc::Key(ord) => match (ord, arg) {
                (Some(o), Some(col)) => decode_cell(domain_of(q, col), *o),
                _ => Cell::Null,
            },
        }
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
pub fn execute(
    db: &Database,
    q: &BoundQuery,
    plan: &PhysicalPlan,
    ctx: &QueryCtx,
) -> Result<ExecOutput, SqlError> {
    let mut exec = Exec {
        db,
        q,
        order: &plan.table_order,
        ctx,
        stages: Vec::new(),
        actual_rows: Vec::new(),
    };
    let mut counter = 0usize;
    let batch = exec.exec_node(&plan.root, &mut counter, usize::MAX)?;
    let rows = match batch {
        Batch::Cells(rows) => rows,
        // An ordinal root only happens for plans without a projection tail,
        // which the planner never emits; decode defensively anyway.
        Batch::Ordinals(rows) => rows
            .rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, &o)| decode_cell(domain_of(q, source_of(q, &plan.table_order, c)), o))
                    .collect()
            })
            .collect(),
    };
    Ok(ExecOutput {
        result: QueryResult {
            headers: q.headers.clone(),
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
