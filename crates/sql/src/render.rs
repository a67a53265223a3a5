//! Text rendering of costed plans for `EXPLAIN [ANALYZE]`.
//!
//! Output shape (pinned by CLI golden tests):
//!
//! ```text
//! EXPLAIN: select * from people where age >= 0
//! plan: secondary-index(attr=1)
//! -> project age, id (est_rows=150, est_blocks=0, est_cost=0.0ms)
//!   -> scan people via secondary-index(attr=1) [age >= 0] (est_rows=150, ...)
//! plans considered: 3, estimated cost: 123.0ms
//! ```
//!
//! The `plan: <summary>` second line names the access path or join
//! strategy, so tooling can grep `plan: full-scan`. `EXPLAIN ANALYZE` adds
//! `actual_rows=<n>` per node (paired by the pre-order node numbering the
//! executor uses) and appends the stage table
//! ([`crate::explain::stage_table`]).
//!
//! The statement text and each conjunct's text are rendered here, from the
//! parsed statement, only when a plan is shown: binding keeps no text.

use crate::ast::SelectStmt;
use crate::binder::BoundQuery;
use crate::exec::ExecOutput;
use crate::explain::stage_table;
use crate::plan::{PhysicalPlan, PlanNode};
use avq_db::JoinStrategy;
use core::fmt::Write as _;

/// Name of `(table, attr)` as `label.column`.
fn col_name(q: &BoundQuery, col: (usize, usize)) -> String {
    match q.tables.get(col.0) {
        Some(t) => format!("{}.{}", t.label, t.schema.attribute(col.1).name()),
        None => format!("?.{}", col.1),
    }
}

/// The `[pred and pred]` suffix for a table's conjuncts, or empty. The
/// binder keeps the table of each `WHERE` conjunct, in statement order.
fn preds_of(stmt: &SelectStmt, q: &BoundQuery, table: usize) -> String {
    let mut out = String::new();
    let conjuncts = stmt.predicates.iter().zip(&q.conjunct_tables);
    for (pred, _) in conjuncts.filter(|&(_, &t)| t == table) {
        out.push_str(if out.is_empty() { " [" } else { " and " });
        let _ = write!(out, "{pred}");
    }
    if !out.is_empty() {
        out.push(']');
    }
    out
}

fn label_of(q: &BoundQuery, table: usize) -> &str {
    q.tables.get(table).map_or("?", |t| t.label.as_str())
}

fn describe(stmt: &SelectStmt, q: &BoundQuery, node: &PlanNode) -> String {
    match node {
        PlanNode::Scan { table, path, .. } => {
            format!(
                "scan {} via {path}{}",
                label_of(q, *table),
                preds_of(stmt, q, *table)
            )
        }
        PlanNode::NlJoin {
            inner,
            strategy,
            outer_key,
            inner_attr,
            ..
        } => {
            let how = match strategy {
                JoinStrategy::IndexNestedLoop => "index-nested-loop",
                JoinStrategy::BlockNestedLoop => "block-nested-loop",
            };
            format!(
                "{how} join {} on {} = {}{}",
                label_of(q, *inner),
                col_name(q, *outer_key),
                col_name(q, (*inner, *inner_attr)),
                preds_of(stmt, q, *inner),
            )
        }
        PlanNode::HashJoin {
            table,
            path,
            left_key,
            table_attr,
            ..
        } => format!(
            "hash join {} via {path} on {} = {}{}",
            label_of(q, *table),
            col_name(q, *left_key),
            col_name(q, (*table, *table_attr)),
            preds_of(stmt, q, *table),
        ),
        PlanNode::Aggregate { group_col: _, .. } => match q.group_by {
            Some(g) => format!("aggregate group by {}", col_name(q, g)),
            None => "aggregate".to_owned(),
        },
        PlanNode::Sort { desc, .. } => match q.order_by {
            Some((col, _)) => format!(
                "sort by {}{}",
                col_name(q, col),
                if *desc { " desc" } else { "" }
            ),
            None => "sort".to_owned(),
        },
        PlanNode::Limit { n, .. } => format!("limit {n}"),
        PlanNode::Project { .. } => format!("project {}", q.headers.join(", ")),
    }
}

fn child_of(node: &PlanNode) -> Option<&PlanNode> {
    match node {
        PlanNode::Scan { .. } => None,
        PlanNode::NlJoin { outer, .. } => Some(outer),
        PlanNode::HashJoin { left, .. } => Some(left),
        PlanNode::Aggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Project { input, .. } => Some(input),
    }
}

fn render_node(
    out: &mut String,
    stmt: &SelectStmt,
    q: &BoundQuery,
    node: &PlanNode,
    depth: usize,
    counter: &mut usize,
    actuals: Option<&[u64]>,
) {
    let my_id = *counter;
    *counter += 1;
    let est = node.est();
    let _ = write!(
        out,
        "{:indent$}-> {} (est_rows={:.0}, est_blocks={:.0}, est_cost={:.1}ms",
        "",
        describe(stmt, q, node),
        est.rows,
        est.blocks,
        est.cost_ms,
        indent = depth * 2,
    );
    if let Some(actuals) = actuals {
        let _ = write!(
            out,
            ", actual_rows={}",
            actuals.get(my_id).copied().unwrap_or(0)
        );
    }
    out.push_str(")\n");
    if let Some(child) = child_of(node) {
        render_node(out, stmt, q, child, depth + 1, counter, actuals);
    }
}

/// Per-plan-node estimated vs. actual row counts in the renderer's
/// pre-order numbering, for slow-query trace capture. Labels match the
/// `EXPLAIN` node descriptions so the slow log and `EXPLAIN ANALYZE`
/// speak the same vocabulary.
pub fn node_rows(
    stmt: &SelectStmt,
    q: &BoundQuery,
    plan: &PhysicalPlan,
    actuals: &[u64],
) -> Vec<avq_obs::StageRows> {
    fn walk(
        stmt: &SelectStmt,
        q: &BoundQuery,
        node: &PlanNode,
        counter: &mut usize,
        actuals: &[u64],
        out: &mut Vec<avq_obs::StageRows>,
    ) {
        let my_id = *counter;
        *counter += 1;
        out.push(avq_obs::StageRows {
            label: describe(stmt, q, node),
            est_rows: node.est().rows.round() as u64,
            actual_rows: actuals.get(my_id).copied().unwrap_or(0),
        });
        if let Some(child) = child_of(node) {
            walk(stmt, q, child, counter, actuals, out);
        }
    }
    let mut out = Vec::new();
    let mut counter = 0usize;
    walk(stmt, q, &plan.root, &mut counter, actuals, &mut out);
    out
}

/// Renders `EXPLAIN` of `stmt`, bound as `q` (no execution: estimates
/// only).
pub fn render_explain(stmt: &SelectStmt, q: &BoundQuery, plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN: {stmt}");
    let _ = writeln!(out, "plan: {}", plan.summary());
    let mut counter = 0usize;
    render_node(&mut out, stmt, q, &plan.root, 0, &mut counter, None);
    let _ = write!(
        out,
        "plans considered: {}, estimated cost: {:.1}ms",
        plan.plans_considered, plan.est_total_ms
    );
    out
}

/// Renders `EXPLAIN ANALYZE` of `stmt`, bound as `q`: the costed tree
/// annotated with actual row counts, followed by the standard stage table.
pub fn render_analyze(
    stmt: &SelectStmt,
    q: &BoundQuery,
    plan: &PhysicalPlan,
    exec: &ExecOutput,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN ANALYZE: {stmt}");
    let _ = writeln!(out, "plan: {}", plan.summary());
    let mut counter = 0usize;
    render_node(
        &mut out,
        stmt,
        q,
        &plan.root,
        0,
        &mut counter,
        Some(&exec.actual_rows),
    );
    let _ = writeln!(
        out,
        "plans considered: {}, estimated cost: {:.1}ms",
        plan.plans_considered, plan.est_total_ms
    );
    out.push_str(&stage_table(&exec.stages, exec.result.rows.len() as u64));
    out
}
