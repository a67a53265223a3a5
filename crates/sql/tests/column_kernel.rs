//! The column-at-a-time filter kernel and the column-wise folds against
//! row-wise oracles, on seeded random relations.
//!
//! Each case draws an arity of 1–20, small domains (so rows tie on long
//! prefixes and blocks have constant prefixes; some cases pin the leading
//! columns outright), duplicate rows, and 0–5 conjuncts — equalities,
//! ranges, contradictions, full-domain ranges and repeated attributes —
//! plus a random `LIMIT`. Two checks per case:
//!
//! 1. [`Selection::filter_block`] over the φ-sorted rows cut into blocks,
//!    and `select * … limit L` through the whole engine, return exactly
//!    the rows a `Vec<Vec<u64>>` filtered row by row returns, in order.
//! 2. `count/sum/avg/min/max`, with and without `group by`, equal a
//!    row-wise fold over the same rows.
//!
//! The cases are seeded (reproducible) and the loop is time-boxed so the
//! test stays cheap in a debug build.

use avq_db::{Database, DbConfig, RangePredicate, Selection};
use avq_schema::{Domain, Relation, Schema, Tuple, TupleBatch};
use avq_sql::{run, Cell, SqlOutcome};
use std::collections::BTreeMap;
use std::time::Duration;

const CASES: usize = 300;
const TIME_BOX: Duration = Duration::from_secs(8);

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

/// One column: its domain size and the semantic value of ordinal 0.
#[derive(Clone, Copy)]
struct Col {
    size: u64,
    min: i64,
}

/// A conjunct in ordinal space: `lo ≤ A_attr ≤ hi`.
type Pred = (usize, u64, u64);

struct Case {
    cols: Vec<Col>,
    /// φ-sorted rows of ordinals.
    rows: Vec<Vec<u64>>,
    preds: Vec<Pred>,
    limit: Option<usize>,
}

fn gen_case(rng: &mut Rng) -> Case {
    let arity = 1 + rng.index(20);
    // The last column is wide: a bulk load rejects a run of identical
    // tuples longer than a block (two blocks would share a primary key),
    // so identical rows here are the explicit copies below.
    let cols: Vec<Col> = (0..arity)
        .map(|a| {
            let size = if a + 1 == arity {
                1000
            } else {
                [1, 2, 3, 4, 7, 1000][rng.index(6)]
            };
            let min = if rng.below(3) == 0 { -3 } else { 0 };
            Col { size, min }
        })
        .collect();
    // Some cases pin their leading columns: every block then has them as
    // a constant prefix.
    let pinned = if rng.below(2) == 0 {
        rng.index(arity)
    } else {
        0
    };
    let pin: Vec<u64> = cols.iter().map(|c| rng.below(c.size)).collect();
    let n = 1 + rng.index(300);
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(n);
    for _ in 0..n {
        if !rows.is_empty() && rng.below(5) == 0 {
            let dup = rows[rng.index(rows.len())].clone();
            rows.push(dup);
            continue;
        }
        let row = cols
            .iter()
            .enumerate()
            .map(|(a, c)| {
                if a < pinned {
                    pin[a]
                } else {
                    rng.below(c.size)
                }
            })
            .collect();
        rows.push(row);
    }
    rows.sort_unstable();
    let mut preds: Vec<Pred> = Vec::new();
    for _ in 0..rng.index(6) {
        let attr = match preds.last() {
            Some(&(a, _, _)) if rng.below(4) == 0 => a, // a repeated attribute
            _ => rng.index(arity),
        };
        let size = cols[attr].size;
        let (x, y) = (rng.below(size), rng.below(size));
        preds.push(match rng.below(5) {
            0 => (attr, x, x),
            1 => (attr, x.min(y), x.max(y)),
            2 if x != y => (attr, x.max(y), x.min(y)), // a contradiction
            3 => (attr, 0, size - 1),                  // the whole domain
            _ => (attr, x, x.max(y)),
        });
    }
    let limit = (rng.below(3) == 0).then(|| rng.index(n + 2));
    Case {
        cols,
        rows,
        preds,
        limit,
    }
}

/// The old row-wise test: `row` satisfies every conjunct.
fn matches(preds: &[Pred], row: &[u64]) -> bool {
    preds
        .iter()
        .all(|&(a, lo, hi)| row[a] >= lo && row[a] <= hi)
}

fn selection(preds: &[Pred]) -> Selection {
    preds.iter().fold(Selection::all(), |sel, &(attr, lo, hi)| {
        sel.and(RangePredicate { attr, lo, hi })
    })
}

/// Check 1 at the kernel: the rows cut into blocks of random sizes, each
/// filtered by the kernel into a reused selection vector.
fn check_kernel(case: &Case, rng: &mut Rng) {
    let arity = case.cols.len();
    let sel = selection(&case.preds);
    let mut got: Vec<Vec<u64>> = Vec::new();
    let mut picked = Vec::new();
    let mut rest = case.rows.as_slice();
    while !rest.is_empty() {
        let (block, tail) = rest.split_at(1 + rng.index(rest.len().min(64)));
        rest = tail;
        let tuples: Vec<Tuple> = block.iter().map(|r| Tuple::from(r.as_slice())).collect();
        let batch = TupleBatch::from_tuples(arity, &tuples);
        sel.filter_block(&batch, &mut picked);
        assert!(picked.windows(2).all(|w| w[0] < w[1]), "ascending");
        got.extend(picked.iter().map(|&i| block[i as usize].clone()));
    }
    let want: Vec<Vec<u64>> = case
        .rows
        .iter()
        .filter(|r| matches(&case.preds, r))
        .cloned()
        .collect();
    assert_eq!(got, want, "conjuncts {:?}", case.preds);
}

fn name(a: usize) -> String {
    format!("a{a:02}")
}

fn where_clause(case: &Case) -> String {
    if case.preds.is_empty() {
        return String::new();
    }
    let terms: Vec<String> = case
        .preds
        .iter()
        .map(|&(a, lo, hi)| {
            let min = case.cols[a].min;
            format!(
                "{} >= {} and {} <= {}",
                name(a),
                lo as i64 + min,
                name(a),
                hi as i64 + min
            )
        })
        .collect();
    format!(" where {}", terms.join(" and "))
}

fn database(case: &Case) -> Database {
    let schema = Schema::from_pairs(case.cols.iter().enumerate().map(|(a, c)| {
        let domain = if c.min == 0 {
            Domain::uint(c.size).unwrap()
        } else {
            Domain::int_range(c.min, c.min + c.size as i64 - 1).unwrap()
        };
        (name(a), domain)
    }))
    .unwrap();
    let tuples = case
        .rows
        .iter()
        .map(|r| Tuple::from(r.as_slice()))
        .collect();
    let mut db = Database::new(DbConfig::default().with_block_capacity(160));
    db.create_relation("t", &Relation::from_tuples(schema, tuples).unwrap())
        .unwrap();
    db
}

fn table(db: &Database, sql: &str) -> Vec<Vec<Cell>> {
    match run(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        SqlOutcome::Table(t) => t.rows,
        SqlOutcome::Plan(p) => panic!("{sql}: a plan, not a table:\n{p}"),
    }
}

/// Check 1 through the engine, and check 2.
fn check_sql(case: &Case, rng: &mut Rng) {
    let db = database(case);
    let arity = case.cols.len();
    let semantic = |a: usize, ord: u64| i128::from(ord as i64 + case.cols[a].min);
    let kept: Vec<&Vec<u64>> = case
        .rows
        .iter()
        .filter(|r| matches(&case.preds, r))
        .collect();
    let filter = where_clause(case);

    let limit = case.limit.map_or(String::new(), |l| format!(" limit {l}"));
    let sql = format!("select * from t{filter}{limit}");
    let want: Vec<Vec<Cell>> = kept
        .iter()
        .take(case.limit.unwrap_or(usize::MAX))
        .map(|r| (0..arity).map(|a| Cell::Int(semantic(a, r[a]))).collect())
        .collect();
    assert_eq!(table(&db, &sql), want, "{sql}");

    let (x, y) = (rng.index(arity), rng.index(arity));
    let sql = format!(
        "select count(*), sum({0}), avg({0}), min({1}), max({1}) from t{filter}",
        name(x),
        name(y)
    );
    let n = kept.len();
    let sum: i128 = kept.iter().map(|r| semantic(x, r[x])).sum();
    let extreme = |pick: fn(u64, u64) -> u64| {
        kept.iter()
            .map(|r| r[y])
            .reduce(pick)
            .map_or(Cell::Null, |o| Cell::Int(semantic(y, o)))
    };
    let want = vec![vec![
        Cell::Int(n as i128),
        Cell::Int(sum),
        if n == 0 {
            Cell::Null
        } else {
            Cell::Float(sum as f64 / n as f64)
        },
        extreme(u64::min),
        extreme(u64::max),
    ]];
    assert_eq!(table(&db, &sql), want, "{sql}");

    let g = rng.index(arity);
    let sql = format!(
        "select {0}, count(*), sum({1}), min({2}) from t{filter} group by {0}",
        name(g),
        name(x),
        name(y)
    );
    let mut groups: BTreeMap<u64, (i128, i128, u64)> = BTreeMap::new();
    for r in &kept {
        let e = groups.entry(r[g]).or_insert((0, 0, u64::MAX));
        e.0 += 1;
        e.1 += semantic(x, r[x]);
        e.2 = e.2.min(r[y]);
    }
    let want: Vec<Vec<Cell>> = groups
        .into_iter()
        .map(|(k, (count, sum, min))| {
            vec![
                Cell::Int(semantic(g, k)),
                Cell::Int(count),
                Cell::Int(sum),
                Cell::Int(semantic(y, min)),
            ]
        })
        .collect();
    assert_eq!(table(&db, &sql), want, "{sql}");
}

#[test]
fn column_kernel_and_folds_match_row_wise_oracles() {
    let mut rng = Rng(0xA5A5_2026);
    let start = avq_obs::Stopwatch::start();
    let mut ran = 0;
    while ran < CASES && start.elapsed() < TIME_BOX {
        let case = gen_case(&mut rng);
        check_kernel(&case, &mut rng);
        check_sql(&case, &mut rng);
        ran += 1;
    }
    assert!(ran >= 20, "only {ran} cases ran inside the time box");
}
