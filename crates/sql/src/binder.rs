//! Name and type resolution against the database catalog.
//!
//! The binder turns a parsed [`Statement`](crate::ast::Statement) into a
//! [`BoundQuery`]: table
//! references resolve to stored relations, column references to
//! `(table, attribute)` pairs, and `WHERE` conjuncts to inclusive ordinal
//! ranges in each attribute's domain (§3.1 attribute encoding), intersected
//! into each table's [`Selection`] as they bind. Strict comparisons become
//! inclusive bounds by stepping one ordinal; literals outside a numeric
//! domain clamp to the domain edge (an equality against an out-of-domain
//! literal yields an empty `lo > hi` range rather than an error, matching
//! SQL semantics).

use crate::ast::{
    AggFunc, ColRef, Literal, Predicate, Projection, SelectItem, SelectStmt, TableRef,
};
use crate::error::SqlError;
use avq_db::{Database, RangePredicate, Selection};
use avq_schema::{Domain, Schema, Value};
use std::sync::Arc;

/// A resolved table in `FROM`/`JOIN` order.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Relation name in the database.
    pub relation: String,
    /// Display label: the alias when given, else the relation name.
    pub label: String,
    /// The relation's schema.
    pub schema: Arc<Schema>,
}

/// A resolved equijoin condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundJoin {
    /// `(table index, attribute index)` of the left side.
    pub left: (usize, usize),
    /// `(table index, attribute index)` of the right side.
    pub right: (usize, usize),
}

/// A resolved projection item.
#[derive(Debug, Clone)]
pub enum BoundItem {
    /// A base column.
    Column {
        /// `(table index, attribute index)`.
        col: (usize, usize),
    },
    /// An aggregate; `arg == None` is `COUNT(*)`.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// The argument column.
        arg: Option<(usize, usize)>,
    },
}

/// The fully resolved query.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// Tables in `FROM`/`JOIN` order.
    pub tables: Vec<BoundTable>,
    /// Equijoin conditions (one per `JOIN` clause).
    pub joins: Vec<BoundJoin>,
    /// Each table's `WHERE` conjuncts, by table index: what the planner
    /// prices and the executor runs.
    pub selections: Vec<Selection>,
    /// The table of each `WHERE` conjunct, in statement order.
    pub conjunct_tables: Vec<usize>,
    /// Projection items in output order.
    pub items: Vec<BoundItem>,
    /// Column headers for the result table, in output order, shared with
    /// the result (a single-table `select *` shares its schema's names).
    pub headers: Arc<[String]>,
    /// `GROUP BY` column.
    pub group_by: Option<(usize, usize)>,
    /// `ORDER BY` column and direction.
    pub order_by: Option<((usize, usize), bool)>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
    /// True when any item aggregates (the result is one row per group).
    pub grouped: bool,
}

/// Where a literal lands relative to a domain's ordinal space.
enum Clamped {
    Below,
    In(u64),
    Above,
}

fn clamp_numeric(domain: &Domain, n: i128) -> Result<Clamped, SqlError> {
    match domain {
        Domain::Uint { size } => Ok(if n < 0 {
            Clamped::Below
        } else if n >= i128::from(*size) {
            Clamped::Above
        } else {
            Clamped::In(n as u64)
        }),
        Domain::IntRange { min, max } => Ok(if n < i128::from(*min) {
            Clamped::Below
        } else if n > i128::from(*max) {
            Clamped::Above
        } else {
            Clamped::In((n - i128::from(*min)) as u64)
        }),
        Domain::Enumerated { .. } => Err(SqlError::Bind {
            msg: format!("cannot compare an enumerated column with the number {n}"),
        }),
    }
}

/// Binds a literal bound for one side of a range. Returns the clamped
/// ordinal position; enum members must match exactly.
fn clamp_literal(domain: &Domain, lit: &Literal, col: &ColRef) -> Result<Clamped, SqlError> {
    match lit {
        Literal::Number(n) => clamp_numeric(domain, *n),
        Literal::Str(s) => match domain {
            Domain::Enumerated { .. } => match domain.encode(&Value::from(s.as_str())) {
                Ok(ord) => Ok(Clamped::In(ord)),
                Err(_) => Err(SqlError::Bind {
                    msg: format!("'{s}' is not a member of the domain of column `{col}`"),
                }),
            },
            _ => Err(SqlError::Bind {
                msg: format!(
                    "cannot compare {} column `{col}` with the string '{s}'",
                    domain.type_name()
                ),
            }),
        },
    }
}

struct Binder<'a> {
    db: &'a Database,
    tables: Vec<BoundTable>,
}

impl<'a> Binder<'a> {
    fn add_table(&mut self, tref: &TableRef) -> Result<usize, SqlError> {
        let rel = self.db.relation(&tref.name).map_err(|_| SqlError::Bind {
            msg: format!("unknown relation `{}`", tref.name),
        })?;
        let label = tref.alias.clone().unwrap_or_else(|| tref.name.clone());
        if self.tables.iter().any(|t| t.label == label) {
            return Err(SqlError::Bind {
                msg: format!("duplicate table name or alias `{label}` (use aliases)"),
            });
        }
        self.tables.push(BoundTable {
            relation: tref.name.clone(),
            label,
            schema: rel.schema().clone(),
        });
        Ok(self.tables.len() - 1)
    }

    fn resolve(&self, col: &ColRef) -> Result<(usize, usize), SqlError> {
        if let Some(q) = &col.table {
            let (t, table) = self
                .tables
                .iter()
                .enumerate()
                .find(|(_, b)| b.label == *q)
                .ok_or_else(|| SqlError::Bind {
                    msg: format!("unknown table or alias `{q}` in `{col}`"),
                })?;
            let a = table
                .schema
                .position(&col.column)
                .ok_or_else(|| SqlError::Bind {
                    msg: format!("relation `{q}` has no column `{}`", col.column),
                })?;
            return Ok((t, a));
        }
        let mut found: Option<(usize, usize)> = None;
        for (t, b) in self.tables.iter().enumerate() {
            if let Some(a) = b.schema.position(&col.column) {
                if found.is_some() {
                    return Err(SqlError::Bind {
                        msg: format!("column `{}` is ambiguous (qualify it)", col.column),
                    });
                }
                found = Some((t, a));
            }
        }
        found.ok_or_else(|| SqlError::Bind {
            msg: format!("unknown column `{}`", col.column),
        })
    }

    fn domain(&self, col: (usize, usize)) -> &Domain {
        // `resolve` produced the indices, so they are in range.
        self.tables[col.0].schema.attribute(col.1).domain()
    }

    /// The table `pred` constrains and its inclusive ordinal range.
    fn bind_predicate(&self, pred: &Predicate) -> Result<(usize, RangePredicate), SqlError> {
        use crate::ast::CmpOp;
        let (Predicate::Cmp { col: colref, .. } | Predicate::Between { col: colref, .. }) = pred;
        let (t, a) = self.resolve(colref)?;
        let domain = self.domain((t, a));
        let max = domain.size().saturating_sub(1);
        // Map each conjunct to an inclusive ordinal range; `lo > hi` (1, 0)
        // admits nothing.
        const EMPTY: (u64, u64) = (1, 0);
        let (lo, hi) = match pred {
            Predicate::Cmp { op, lit, col, .. } => {
                let pos = clamp_literal(domain, lit, col)?;
                match (op, pos) {
                    (CmpOp::Eq, Clamped::In(o)) => (o, o),
                    (CmpOp::Eq, _) => EMPTY,
                    (CmpOp::Lt, Clamped::In(0)) | (CmpOp::Lt, Clamped::Below) => EMPTY,
                    (CmpOp::Lt, Clamped::In(o)) => (0, o - 1),
                    (CmpOp::Lt, Clamped::Above) => (0, max),
                    (CmpOp::Le, Clamped::Below) => EMPTY,
                    (CmpOp::Le, Clamped::In(o)) => (0, o),
                    (CmpOp::Le, Clamped::Above) => (0, max),
                    (CmpOp::Gt, Clamped::Below) => (0, max),
                    (CmpOp::Gt, Clamped::In(o)) if o == max => EMPTY,
                    (CmpOp::Gt, Clamped::In(o)) => (o + 1, max),
                    (CmpOp::Gt, Clamped::Above) => EMPTY,
                    (CmpOp::Ge, Clamped::Below) => (0, max),
                    (CmpOp::Ge, Clamped::In(o)) => (o, max),
                    (CmpOp::Ge, Clamped::Above) => EMPTY,
                }
            }
            Predicate::Between { lo, hi, col, .. } => {
                let lo_pos = clamp_literal(domain, lo, col)?;
                let hi_pos = clamp_literal(domain, hi, col)?;
                let lo_ord = match lo_pos {
                    Clamped::Below => Some(0),
                    Clamped::In(o) => Some(o),
                    Clamped::Above => None,
                };
                let hi_ord = match hi_pos {
                    Clamped::Below => None,
                    Clamped::In(o) => Some(o),
                    Clamped::Above => Some(max),
                };
                lo_ord.zip(hi_ord).unwrap_or(EMPTY)
            }
        };
        Ok((t, RangePredicate { attr: a, lo, hi }))
    }
}

/// Resolves `stmt` against `db`.
pub fn bind(db: &Database, stmt: &SelectStmt) -> Result<BoundQuery, SqlError> {
    let mut b = Binder {
        db,
        tables: Vec::new(),
    };
    b.add_table(&stmt.from)?;
    let mut joins = Vec::new();
    for j in &stmt.joins {
        let new_idx = b.add_table(&j.table)?;
        let left = b.resolve(&j.left)?;
        let right = b.resolve(&j.right)?;
        if left.0 == right.0 {
            return Err(SqlError::Bind {
                msg: format!(
                    "join condition `{} = {}` references only one table",
                    j.left, j.right
                ),
            });
        }
        // One side must be the table introduced by this JOIN clause.
        if left.0 != new_idx && right.0 != new_idx {
            return Err(SqlError::Bind {
                msg: format!(
                    "join condition `{} = {}` does not reference `{}`",
                    j.left,
                    j.right,
                    b.tables.last().map_or("", |t| t.label.as_str())
                ),
            });
        }
        joins.push(BoundJoin { left, right });
    }

    let mut selections = vec![Selection::all(); b.tables.len()];
    let mut conjunct_tables = Vec::with_capacity(stmt.predicates.len());
    for p in &stmt.predicates {
        let (t, range) = b.bind_predicate(p)?;
        selections[t] = core::mem::take(&mut selections[t]).and(range);
        conjunct_tables.push(t);
    }

    let group_by = match &stmt.group_by {
        Some(c) => Some(b.resolve(c)?),
        None => None,
    };

    // Projection.
    let mut items = Vec::new();
    let mut grouped = group_by.is_some();
    let headers: Arc<[String]> = match &stmt.projection {
        Projection::Star => {
            if group_by.is_some() {
                return Err(SqlError::Bind {
                    msg: "`select *` cannot be combined with `group by`".to_owned(),
                });
            }
            for (t, table) in b.tables.iter().enumerate() {
                items.extend((0..table.schema.arity()).map(|a| BoundItem::Column { col: (t, a) }));
            }
            match b.tables.as_slice() {
                [only] => Arc::clone(only.schema.names()),
                tables => tables
                    .iter()
                    .flat_map(|t| t.schema.names().iter().map(|n| format!("{}.{n}", t.label)))
                    .collect(),
            }
        }
        Projection::Items(list) => {
            let mut headers = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    SelectItem::Column(c) => {
                        items.push(BoundItem::Column { col: b.resolve(c)? });
                        headers.push(c.to_string());
                    }
                    SelectItem::Aggregate { func, arg } => {
                        grouped = true;
                        let arg = match arg {
                            Some(c) => {
                                let col = b.resolve(c)?;
                                if matches!(func, AggFunc::Sum | AggFunc::Avg)
                                    && matches!(b.domain(col), Domain::Enumerated { .. })
                                {
                                    return Err(SqlError::Bind {
                                        msg: format!("{}({c}) needs a numeric column", func.name()),
                                    });
                                }
                                Some(col)
                            }
                            None => None,
                        };
                        items.push(BoundItem::Aggregate { func: *func, arg });
                        headers.push(item.to_string());
                    }
                }
            }
            if grouped {
                // Plain columns in an aggregate query must be the group key.
                for (item, header) in items.iter().zip(&headers) {
                    if let BoundItem::Column { col } = item {
                        if group_by != Some(*col) {
                            return Err(SqlError::Bind {
                                msg: format!(
                                    "column `{header}` must appear in `group by` or an aggregate"
                                ),
                            });
                        }
                    }
                }
            }
            headers.into()
        }
    };
    if grouped && group_by.is_none() && items.iter().any(|i| matches!(i, BoundItem::Column { .. }))
    {
        return Err(SqlError::Bind {
            msg: "plain columns cannot mix with aggregates without `group by`".to_owned(),
        });
    }

    // ORDER BY: any column for plain queries; the group key for grouped.
    let order_by = match &stmt.order_by {
        Some(o) => {
            let col = b.resolve(&o.col)?;
            if grouped && group_by != Some(col) {
                return Err(SqlError::Bind {
                    msg: format!(
                        "`order by {}` must name the `group by` column in a grouped query",
                        o.col
                    ),
                });
            }
            Some((col, o.desc))
        }
        None => None,
    };

    let limit = match stmt.limit {
        Some(n) => Some(usize::try_from(n).map_err(|_| SqlError::Bind {
            msg: format!("limit {n} is too large"),
        })?),
        None => None,
    };

    Ok(BoundQuery {
        tables: b.tables,
        joins,
        selections,
        conjunct_tables,
        items,
        headers,
        group_by,
        order_by,
        limit,
        grouped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use avq_db::DbConfig;
    use avq_schema::{Relation, Tuple};

    fn db() -> Database {
        let schema = Schema::from_pairs(vec![
            (
                "dept",
                Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap(),
            ),
            ("age", Domain::int_range(-10, 89).unwrap()),
            ("id", Domain::uint(1000).unwrap()),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..300u64)
            .map(|i| Tuple::from([i % 3, (i * 7) % 100, i]))
            .collect();
        let rel = Relation::from_tuples(schema, tuples).unwrap();
        let mut db = Database::new(DbConfig::default());
        db.create_relation("people", &rel).unwrap();
        db
    }

    fn bound(db: &Database, sql: &str) -> Result<BoundQuery, SqlError> {
        match parse(sql).unwrap() {
            Statement::Select(s) => bind(db, &s),
            Statement::Explain { stmt, .. } => bind(db, &stmt),
        }
    }

    #[test]
    fn binds_predicates_to_ordinals() {
        let db = db();
        // age is IntRange(-10, 89): value 0 is ordinal 10.
        let q = bound(&db, "select * from people where age >= 0").unwrap();
        assert_eq!(q.selections[0].predicates().len(), 1);
        assert_eq!(q.selections[0].range_of(1), Some((10, 99)));
        let q = bound(&db, "select * from people where dept = 'hr'").unwrap();
        assert_eq!(q.selections[0].range_of(0), Some((1, 1)));
    }

    #[test]
    fn strict_ops_step_one_ordinal() {
        let db = db();
        let q = bound(&db, "select * from people where id < 5").unwrap();
        assert_eq!(q.selections[0].range_of(2), Some((0, 4)));
        let q = bound(&db, "select * from people where id > 5").unwrap();
        assert_eq!(q.selections[0].range_of(2), Some((6, 999)));
    }

    #[test]
    fn out_of_domain_clamps_or_empties() {
        let db = db();
        let q = bound(&db, "select * from people where id <= 5000").unwrap();
        assert_eq!(q.selections[0].range_of(2), Some((0, 999)));
        let q = bound(&db, "select * from people where id = 5000").unwrap();
        assert!(q.selections[0].contradicts());
        let q = bound(&db, "select * from people where age < -10").unwrap();
        assert!(q.selections[0].contradicts());
    }

    #[test]
    fn conjuncts_intersect_per_table_and_keep_their_statement_order() {
        let db = db();
        let sql = "select * from people a join people b on a.id = b.id \
                   where b.id > 5 and a.age >= 0 and b.id < 9";
        let q = bound(&db, sql).unwrap();
        assert_eq!(q.conjunct_tables, [1, 0, 1]);
        assert_eq!(q.selections[0].predicates().len(), 1);
        assert_eq!(q.selections[1].predicates().len(), 1);
        assert_eq!(q.selections[1].range_of(2), Some((6, 8)));
    }

    #[test]
    fn unknown_names_are_bind_errors() {
        let db = db();
        assert!(matches!(
            bound(&db, "select * from nope"),
            Err(SqlError::Bind { .. })
        ));
        assert!(matches!(
            bound(&db, "select nope from people"),
            Err(SqlError::Bind { .. })
        ));
        assert!(matches!(
            bound(&db, "select * from people where people.nope = 1"),
            Err(SqlError::Bind { .. })
        ));
    }

    #[test]
    fn type_mismatches_are_bind_errors() {
        let db = db();
        assert!(matches!(
            bound(&db, "select * from people where dept = 3"),
            Err(SqlError::Bind { .. })
        ));
        assert!(matches!(
            bound(&db, "select * from people where id = 'eng'"),
            Err(SqlError::Bind { .. })
        ));
        assert!(matches!(
            bound(&db, "select sum(dept) from people"),
            Err(SqlError::Bind { .. })
        ));
    }

    #[test]
    fn unlisted_enum_member_is_bind_error() {
        let db = db();
        // Comparing against a string outside the enum's member list is a
        // bind error (unlike numeric literals, which clamp) — pinned here.
        assert!(matches!(
            bound(&db, "select * from people where dept = 'sales'"),
            Err(SqlError::Bind { .. })
        ));
    }

    #[test]
    fn grouped_projection_rules() {
        let db = db();
        assert!(bound(&db, "select dept, count(*) from people group by dept").is_ok());
        assert!(matches!(
            bound(&db, "select age, count(*) from people group by dept"),
            Err(SqlError::Bind { .. })
        ));
        assert!(matches!(
            bound(&db, "select age, count(*) from people"),
            Err(SqlError::Bind { .. })
        ));
        assert!(matches!(
            bound(&db, "select * from people group by dept"),
            Err(SqlError::Bind { .. })
        ));
    }

    #[test]
    fn order_by_in_grouped_query_must_be_group_key() {
        let db = db();
        assert!(bound(
            &db,
            "select dept, count(*) from people group by dept order by dept desc"
        )
        .is_ok());
        assert!(matches!(
            bound(
                &db,
                "select dept, count(*) from people group by dept order by age"
            ),
            Err(SqlError::Bind { .. })
        ));
    }

    #[test]
    fn self_join_needs_aliases() {
        let db = db();
        assert!(matches!(
            bound(
                &db,
                "select * from people join people on people.id = people.id"
            ),
            Err(SqlError::Bind { .. })
        ));
        let q = bound(&db, "select * from people a join people b on a.id = b.id").unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(
            q.joins[0],
            BoundJoin {
                left: (0, 2),
                right: (1, 2)
            }
        );
    }
}
