//! `avq-sql` — a SQL front end and cost-based planner over the AVQ
//! operators.
//!
//! The pipeline is classic and small: a hand-rolled lexer and
//! recursive-descent parser ([`parser`]) produce an AST ([`ast`]), the
//! binder ([`binder`]) resolves names and types against the database
//! catalog and lowers `WHERE` conjuncts to inclusive ordinal ranges, the
//! planner ([`plan`]) enumerates access paths and left-deep join orders
//! priced by the §5.3 cost model (with a decoded-cache residency
//! discount), and the executor ([`exec`]) runs the chosen
//! [`PhysicalPlan`] through `avq_db`'s stored operators. `EXPLAIN`
//! renders the costed tree; `EXPLAIN ANALYZE` additionally executes and
//! pairs estimated with actual row counts per node ([`render`]).
//!
//! The dialect: `SELECT` projection or `*`, `WHERE` with `=`, ranges and
//! `AND`, `JOIN … ON` equijoins (up to three relations), `GROUP BY` with
//! `COUNT`/`SUM`/`MIN`/`MAX`/`AVG`, `ORDER BY`, `LIMIT`, and
//! `EXPLAIN [ANALYZE]` of any of the above.
//!
//! There is one entry point per operation: [`run_with`] runs a statement
//! under a [`QueryCtx`] (its trace and its budget), [`run`] is the same
//! call with the default — untraced, unlimited — context, and
//! [`exec::execute`] is the executor alone for callers that parse, bind
//! and plan themselves.
//!
//! A warm statement pays for its answer, not for text nobody reads: the
//! lexer borrows its tokens from the statement, the binder formats
//! nothing (`EXPLAIN` renders the statement and its conjuncts from the
//! parsed AST), a `select *` over one table shares its schema's header
//! list, and the executor's stage clocks run only under `EXPLAIN ANALYZE`
//! or a recording trace.

pub mod ast;
pub mod binder;
pub mod error;
pub mod exec;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod render;

pub use ast::Statement;
pub use binder::{bind, BoundQuery};
pub use error::SqlError;
pub use exec::{Cell, ExecOutput, QueryResult};
pub use explain::StageReport;
pub use parser::parse;
pub use plan::{PhysicalPlan, PlanNode};
pub use render::{render_analyze, render_explain};

use avq_db::Database;
use avq_obs::{names, QueryCtx};

/// What running one statement produced.
#[derive(Debug)]
pub enum SqlOutcome {
    /// A result table (plain `SELECT`).
    Table(QueryResult),
    /// A rendered plan (`EXPLAIN [ANALYZE]`).
    Plan(String),
}

impl SqlOutcome {
    /// Renders the outcome for a terminal.
    pub fn render(&self) -> String {
        match self {
            SqlOutcome::Table(t) => t.render(),
            SqlOutcome::Plan(p) => p.clone(),
        }
    }
}

/// Parses, plans, and runs one SQL statement against `db`, untraced and
/// unbudgeted: [`run_with`] under [`QueryCtx::default`].
pub fn run(db: &Database, sql: &str) -> Result<SqlOutcome, SqlError> {
    run_with(db, sql, &QueryCtx::default())
}

/// Parses, plans, and runs one SQL statement against `db` under `ctx`.
///
/// **Tracing.** When `ctx.trace` is recording, the statement executes
/// under a root `avq.sql.query` span (attributes: `statement`,
/// `plan_summary`, `plans_considered`) with child spans for parse, plan,
/// and execute; the executor additionally records one `avq.sql.stage` span
/// per operator stage, and storage-level block reads nest beneath the
/// stage that issued them. The query text, chosen plan summary, and
/// per-node estimated-vs-actual row counts are captured on the trace for
/// the slow-query log. The `span!` histograms and counters record either
/// way.
///
/// **Governance.** The statement executes inside `ctx.gov`'s deadline,
/// quota, and cancellation envelope: every block read on its behalf is a
/// poll point, and a trip surfaces as [`SqlError::Exec`] wrapping
/// [`avq_db::DbError::Governance`] — never a silently truncated result.
/// The budget's usage histograms are flushed (`gov.finish()`) whether the
/// statement succeeds or trips.
pub fn run_with(db: &Database, sql: &str, ctx: &QueryCtx) -> Result<SqlOutcome, SqlError> {
    let out = run_statement(db, sql, ctx);
    ctx.gov.finish();
    out
}

fn run_statement(db: &Database, sql: &str, ctx: &QueryCtx) -> Result<SqlOutcome, SqlError> {
    avq_obs::counter!(names::SQL_STATEMENTS).inc();
    let trace = &ctx.trace;
    let root = trace.span(names::SPAN_SQL_QUERY);
    if root.is_recording() {
        root.attr(names::ATTR_STATEMENT, sql);
    }
    let stmt = {
        let _span = avq_obs::span!(names::SPAN_SQL_PARSE);
        let _trace = trace.span(names::SPAN_SQL_PARSE);
        parse(sql)?
    };
    let (select, explain) = match stmt {
        Statement::Select(s) => (s, None),
        Statement::Explain { analyze, stmt } => (stmt, Some(analyze)),
    };
    let (bound, physical) = {
        let _span = avq_obs::span!(names::SPAN_SQL_PLAN);
        let _trace = trace.span(names::SPAN_SQL_PLAN);
        let bound = bind(db, &select)?;
        let physical = plan::plan(db, &bound)?;
        avq_obs::counter!(names::SQL_PLANS_CONSIDERED).add(physical.plans_considered);
        (bound, physical)
    };
    if root.is_recording() {
        root.attr(names::ATTR_PLAN_SUMMARY, physical.summary());
        root.attr(names::ATTR_PLANS_CONSIDERED, physical.plans_considered);
        trace.set_query(sql, &physical.summary());
    }
    if explain == Some(false) {
        return Ok(SqlOutcome::Plan(render_explain(&select, &bound, &physical)));
    }
    let out = {
        let _span = avq_obs::span!(names::SPAN_SQL_EXEC);
        let _trace = trace.span(names::SPAN_SQL_EXEC);
        // Only `EXPLAIN ANALYZE` (and a recording trace) reads stage times.
        exec::run_plan(db, &bound, &physical, ctx, explain.is_some())?
    };
    if trace.is_enabled() {
        let rows = render::node_rows(&select, &bound, &physical, &out.actual_rows);
        trace.set_stage_rows(rows);
    }
    Ok(match explain {
        None => SqlOutcome::Table(out.result),
        Some(_) => SqlOutcome::Plan(render_analyze(&select, &bound, &physical, &out)),
    })
}
