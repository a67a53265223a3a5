//! Cost-based plan enumeration over the §5.3 model.
//!
//! Each table's access-path menu — full scan, clustering-prefix range,
//! secondary-index probe, each priced as `C = I + N·(t₁ + t₂)` (Eq. 5.7) —
//! comes from avq-db ([`TableStats::scan_alternatives`]), and a one-table
//! statement takes its [`cheapest`] entry: the same chooser behind the
//! facade's `select` and `aggregate`, so a conjunction reads the same
//! blocks whichever way it is asked. This module adds what only a
//! statement has.
//! Joins enumerate every connected left-deep order (2–3 relations):
//! the first join runs index-nested-loop (inner indexed on the join
//! attribute) or block-nested-loop (inner re-scans served by the decoded
//! cache when the inner fits), a third relation attaches by streaming hash
//! join over its own best access path. Every fully costed alternative
//! increments `avq.sql.plans_considered`; the cheapest tree wins.
//!
//! Selectivity is estimated under the uniform assumption of §5.3: a range
//! conjunct accepts `width / |domain|` of its attribute, conjuncts
//! multiply, and a join keeps `1 / max(|dom(a)|, |dom(b)|)` of the cross
//! product.

use crate::binder::{BoundItem, BoundQuery};
use crate::error::SqlError;
use avq_db::{
    cheapest, AccessPath, Database, Est, JoinStrategy, ScanAlt, TableStats, INDEX_DESCENT_BLOCKS,
};
use avq_schema::Domain;

/// A typed physical plan node.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Scan one table through an access path, filtering its conjuncts.
    Scan {
        /// Table index into [`BoundQuery::tables`].
        table: usize,
        /// The chosen access path.
        path: AccessPath,
        /// Estimates.
        est: Est,
    },
    /// Nested-loop equijoin: outer subplan × stored inner table.
    NlJoin {
        /// The outer subplan (always a `Scan`).
        outer: Box<PlanNode>,
        /// Inner table index.
        inner: usize,
        /// Index- or block-nested-loop.
        strategy: JoinStrategy,
        /// Join key on the outer side `(table, attr)`.
        outer_key: (usize, usize),
        /// Column of the join key in the outer subplan's output row.
        outer_col: usize,
        /// Join attribute of the inner table.
        inner_attr: usize,
        /// Estimates (inner-side + matching cost only).
        est: Est,
    },
    /// Streaming hash join: build on the left subplan, probe with a scan.
    HashJoin {
        /// The build-side subplan.
        left: Box<PlanNode>,
        /// Probe table index.
        table: usize,
        /// Access path for the probe table's scan.
        path: AccessPath,
        /// Join key on the build side `(table, attr)`.
        left_key: (usize, usize),
        /// Column of the join key in the build side's output row.
        left_col: usize,
        /// Join attribute of the probe table.
        table_attr: usize,
        /// Estimates.
        est: Est,
    },
    /// Fold input rows into aggregate values, optionally per group.
    Aggregate {
        /// Input subplan.
        input: Box<PlanNode>,
        /// Group key column in the input row layout.
        group_col: Option<usize>,
        /// Emit groups in descending key order.
        desc: bool,
        /// Estimates.
        est: Est,
    },
    /// Sort rows by one column's ordinal value.
    Sort {
        /// Input subplan.
        input: Box<PlanNode>,
        /// Sort column in the input row layout.
        col: usize,
        /// Descending order.
        desc: bool,
        /// Estimates.
        est: Est,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input subplan.
        input: Box<PlanNode>,
        /// Row cap.
        n: usize,
        /// Estimates.
        est: Est,
    },
    /// Map input rows to the projected columns.
    Project {
        /// Input subplan.
        input: Box<PlanNode>,
        /// Input-row column for each output column.
        cols: Vec<usize>,
        /// Estimates.
        est: Est,
    },
}

impl PlanNode {
    /// This node's estimates.
    pub fn est(&self) -> Est {
        match self {
            PlanNode::Scan { est, .. }
            | PlanNode::NlJoin { est, .. }
            | PlanNode::HashJoin { est, .. }
            | PlanNode::Aggregate { est, .. }
            | PlanNode::Sort { est, .. }
            | PlanNode::Limit { est, .. }
            | PlanNode::Project { est, .. } => *est,
        }
    }
}

/// The chosen plan plus planning metadata.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The root node.
    pub root: PlanNode,
    /// Plan-order of table indices (row layout = concatenated schemas).
    pub table_order: Vec<usize>,
    /// Fully costed alternatives enumerated before choosing.
    pub plans_considered: u64,
    /// Estimated total cost of the chosen pipeline (simulated ms).
    pub est_total_ms: f64,
}

impl PhysicalPlan {
    /// A one-word-ish summary of the chosen strategy for the `plan:` line:
    /// the access path for single-table plans, the join strategy for one
    /// join, `hash-join` for deeper trees.
    pub fn summary(&self) -> String {
        fn join_root(node: &PlanNode) -> Option<String> {
            match node {
                PlanNode::Scan { path, .. } => Some(path.to_string()),
                PlanNode::NlJoin { strategy, .. } => Some(match strategy {
                    JoinStrategy::IndexNestedLoop => "index-nested-loop".to_owned(),
                    JoinStrategy::BlockNestedLoop => "block-nested-loop".to_owned(),
                }),
                PlanNode::HashJoin { .. } => Some("hash-join".to_owned()),
                PlanNode::Aggregate { input, .. }
                | PlanNode::Sort { input, .. }
                | PlanNode::Limit { input, .. }
                | PlanNode::Project { input, .. } => join_root(input),
            }
        }
        join_root(&self.root).unwrap_or_default()
    }
}

/// Left-deep table orders where each next table is connected to the prefix
/// by some join condition.
fn connected_orders(n: usize, joins: &[(usize, usize)]) -> Vec<Vec<usize>> {
    fn extend(
        prefix: &mut Vec<usize>,
        n: usize,
        joins: &[(usize, usize)],
        out: &mut Vec<Vec<usize>>,
    ) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for t in 0..n {
            if prefix.contains(&t) {
                continue;
            }
            let connected = joins
                .iter()
                .any(|&(a, b)| (a == t && prefix.contains(&b)) || (b == t && prefix.contains(&a)));
            if connected {
                prefix.push(t);
                extend(prefix, n, joins, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    for first in 0..n {
        let mut prefix = vec![first];
        extend(&mut prefix, n, joins, &mut out);
    }
    out
}

/// Finds the bound join condition connecting `t` to some table in `prefix`,
/// returned as `(prefix_side, t_side)`.
fn connecting_join(
    q: &BoundQuery,
    prefix: &[usize],
    t: usize,
) -> Option<((usize, usize), (usize, usize))> {
    for j in &q.joins {
        if j.left.0 == t && prefix.contains(&j.right.0) {
            return Some((j.right, j.left));
        }
        if j.right.0 == t && prefix.contains(&j.left.0) {
            return Some((j.left, j.right));
        }
    }
    None
}

fn domain_size(q: &BoundQuery, col: (usize, usize)) -> f64 {
    q.tables
        .get(col.0)
        .map(|t| t.schema.attribute(col.1).domain().size() as f64)
        .unwrap_or(1.0)
        .max(1.0)
}

/// Output-row column index of `(table, attr)` under `order`.
pub(crate) fn col_in_order(q: &BoundQuery, order: &[usize], col: (usize, usize)) -> usize {
    let mut off = 0usize;
    for &t in order {
        if t == col.0 {
            return off + col.1;
        }
        off += q.tables.get(t).map_or(0, |b| b.schema.arity());
    }
    off
}

/// Plans `q` against `db`, returning the cheapest pipeline.
pub fn plan(db: &Database, q: &BoundQuery) -> Result<PhysicalPlan, SqlError> {
    let stats = (q.tables.iter())
        .map(|t| Ok(TableStats::of(db.relation(&t.relation)?)))
        .collect::<Result<Vec<_>, SqlError>>()?;
    let mut considered = 0u64;

    // Access-path menu per table.
    let menus: Vec<Vec<ScanAlt>> = (stats.iter().zip(&q.selections))
        .map(|(table, sel)| table.scan_alternatives(sel))
        .collect();

    let (mut best, order): (PlanNode, Vec<usize>) = if q.tables.len() == 1 {
        let menu = &menus[0];
        considered += menu.len() as u64;
        let chosen = cheapest(menu).ok_or_else(|| SqlError::Bind {
            msg: "no access path for the table".to_owned(),
        })?;
        (
            PlanNode::Scan {
                table: 0,
                path: chosen.path,
                est: chosen.est,
            },
            vec![0],
        )
    } else {
        let edges: Vec<(usize, usize)> = q.joins.iter().map(|j| (j.left.0, j.right.0)).collect();
        let orders = connected_orders(q.tables.len(), &edges);
        let mut best: Option<(PlanNode, Vec<usize>, f64)> = None;
        for order in orders {
            // First join: outer scan alternatives × inner strategies.
            let (o, i) = (order[0], order[1]);
            let Some((outer_key, inner_key)) = connecting_join(q, &order[..1], i) else {
                continue;
            };
            let inner_attr = inner_key.1;
            let join_size = domain_size(q, outer_key).max(domain_size(q, inner_key));
            let inner_sel = stats[i].selectivity(&q.selections[i]);
            let inner_rows = stats[i].tuples * inner_sel;
            for outer_alt in &menus[o] {
                let rows_out = outer_alt.est.rows;
                let rows12 = rows_out * inner_rows / join_size;
                let mut strategies: Vec<(JoinStrategy, Est)> = Vec::new();

                // Block-nested-loop: decode the inner once per outer block;
                // re-passes are free when the inner fits the decoded cache.
                let passes = outer_alt.est.blocks.max(1.0);
                let first = stats[i].data_ms(stats[i].blocks);
                let refit = if stats[i].blocks <= stats[i].cache_blocks {
                    0.0
                } else {
                    (passes - 1.0) * stats[i].blocks * (stats[i].transfer_ms + stats[i].cpu_ms)
                };
                let bnl_blocks = if refit > 0.0 {
                    stats[i].blocks * passes
                } else {
                    stats[i].blocks
                };
                strategies.push((
                    JoinStrategy::BlockNestedLoop,
                    Est {
                        rows: rows12,
                        blocks: bnl_blocks,
                        cost_ms: first + refit,
                    },
                ));

                // Index-nested-loop: one index descent per distinct outer
                // key, then the matching inner blocks.
                if stats[i].rel.has_secondary_index(inner_attr) {
                    let distinct = rows_out.min(domain_size(q, outer_key));
                    let tpb = (stats[i].tuples / stats[i].blocks.max(1.0)).max(1.0);
                    let per_key = (stats[i].tuples / domain_size(q, inner_key) / tpb)
                        .max(1.0)
                        .min(stats[i].blocks);
                    let n = (distinct * per_key).min(stats[i].blocks.max(distinct * per_key));
                    strategies.push((
                        JoinStrategy::IndexNestedLoop,
                        Est {
                            rows: rows12,
                            blocks: n,
                            cost_ms: distinct * INDEX_DESCENT_BLOCKS * stats[i].transfer_ms
                                + stats[i].data_ms(n),
                        },
                    ));
                }

                for (strategy, jest) in strategies {
                    considered += 1;
                    let mut node = PlanNode::NlJoin {
                        outer: Box::new(PlanNode::Scan {
                            table: o,
                            path: outer_alt.path,
                            est: outer_alt.est,
                        }),
                        inner: i,
                        strategy,
                        outer_key,
                        outer_col: col_in_order(q, &order[..1], outer_key),
                        inner_attr,
                        est: jest,
                    };
                    let mut total = outer_alt.est.cost_ms + jest.cost_ms;

                    // Optional third table: streaming hash join over its
                    // own cheapest access path.
                    if let Some(&t3) = order.get(2) {
                        let Some((left_key, t3_key)) = connecting_join(q, &order[..2], t3) else {
                            continue;
                        };
                        let menu3 = &menus[t3];
                        considered += menu3.len().saturating_sub(1) as u64;
                        let Some(alt3) = cheapest(menu3) else {
                            continue;
                        };
                        let size3 = domain_size(q, left_key).max(domain_size(q, t3_key));
                        let rows123 = jest.rows * alt3.est.rows / size3;
                        node = PlanNode::HashJoin {
                            left: Box::new(node),
                            table: t3,
                            path: alt3.path,
                            left_key,
                            left_col: col_in_order(q, &order[..2], left_key),
                            table_attr: t3_key.1,
                            est: Est {
                                rows: rows123,
                                blocks: alt3.est.blocks,
                                cost_ms: alt3.est.cost_ms,
                            },
                        };
                        total += alt3.est.cost_ms;
                    }
                    if best.as_ref().is_none_or(|(_, _, best_ms)| total < *best_ms) {
                        best = Some((node, order.clone(), total));
                    }
                }
            }
        }
        let (node, order, _) = best.ok_or_else(|| SqlError::Bind {
            msg: "tables are not connected by join conditions".to_owned(),
        })?;
        (node, order)
    };

    // Pipeline tail: aggregate / sort / limit / project.
    let mut rows = best.est().rows;
    let base_cost: f64 = pipeline_cost(&best);

    if q.grouped {
        let group_col = q.group_by.map(|g| col_in_order(q, &order, g));
        let groups = match q.group_by {
            Some(g) => rows.min(domain_size(q, g)),
            None => 1.0,
        };
        let desc = q.order_by.map(|(_, d)| d).unwrap_or(false);
        best = PlanNode::Aggregate {
            input: Box::new(best),
            group_col,
            desc,
            est: Est {
                rows: groups,
                blocks: 0.0,
                cost_ms: 0.0,
            },
        };
        rows = groups;
    } else if let Some((col, desc)) = q.order_by {
        best = PlanNode::Sort {
            input: Box::new(best),
            col: col_in_order(q, &order, col),
            desc,
            est: Est {
                rows,
                blocks: 0.0,
                cost_ms: 0.0,
            },
        };
    }

    if let Some(n) = q.limit {
        rows = rows.min(n as f64);
        best = PlanNode::Limit {
            input: Box::new(best),
            n,
            est: Est {
                rows,
                blocks: 0.0,
                cost_ms: 0.0,
            },
        };
    }

    if !q.grouped {
        let cols: Vec<usize> = q
            .items
            .iter()
            .filter_map(|item| match item {
                BoundItem::Column { col } => Some(col_in_order(q, &order, *col)),
                BoundItem::Aggregate { .. } => None,
            })
            .collect();
        best = PlanNode::Project {
            input: Box::new(best),
            cols,
            est: Est {
                rows,
                blocks: 0.0,
                cost_ms: 0.0,
            },
        };
    }

    Ok(PhysicalPlan {
        root: best,
        table_order: order,
        plans_considered: considered,
        est_total_ms: base_cost,
    })
}

/// Sum of node costs in a subtree.
fn pipeline_cost(node: &PlanNode) -> f64 {
    match node {
        PlanNode::Scan { est, .. } => est.cost_ms,
        PlanNode::NlJoin { outer, est, .. } => pipeline_cost(outer) + est.cost_ms,
        PlanNode::HashJoin { left, est, .. } => pipeline_cost(left) + est.cost_ms,
        PlanNode::Aggregate { input, est, .. }
        | PlanNode::Sort { input, est, .. }
        | PlanNode::Limit { input, est, .. }
        | PlanNode::Project { input, est, .. } => pipeline_cost(input) + est.cost_ms,
    }
}

/// The domain of `(table, attr)` in `q` (used by the executor for decode
/// and key canonicalization).
pub(crate) fn domain_of(q: &BoundQuery, col: (usize, usize)) -> &Domain {
    q.tables[col.0].schema.attribute(col.1).domain()
}
