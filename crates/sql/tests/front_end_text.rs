//! EXPLAIN text and front-end errors, byte for byte.
//!
//! Binding keeps no text: `EXPLAIN` renders the statement line and each
//! scan's `[conjunct and conjunct]` from the parsed statement when a plan
//! is shown, and the lexer hands the parser borrowed slices. Both tables
//! below were captured from the renderer and lexer that stored the text at
//! bind time and copied every identifier, so any drift in how a statement,
//! a conjunct, a literal, an alias or an error is spelled fails here.
//! `EXPLAIN ANALYZE` times are masked (`*`); everything else in its stage
//! table — stages, rows, blocks, cache hits — is compared.

use avq_db::{Database, DbConfig};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_sql::SqlOutcome;

/// `people(dept enum{eng,hr,ops}, age ∈ [-10, 89], id < 1000)` with an
/// index on `id`, and `orders(pid < 1000, qty < 50)` with an index on
/// `pid`, both over several blocks.
fn db() -> Database {
    let mut db = Database::new(DbConfig::default().with_block_capacity(128));
    let people = Schema::from_pairs(vec![
        (
            "dept",
            Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap(),
        ),
        ("age", Domain::int_range(-10, 89).unwrap()),
        ("id", Domain::uint(1000).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..1000u64)
        .map(|i| Tuple::from([i % 3, (i * 7) % 100, i]))
        .collect();
    db.create_relation("people", &Relation::from_tuples(people, tuples).unwrap())
        .unwrap();
    db.create_secondary_index("people", 2).unwrap();
    let orders = Schema::from_pairs(vec![
        ("pid", Domain::uint(1000).unwrap()),
        ("qty", Domain::uint(50).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..600u64)
        .map(|i| Tuple::from([(i * 37) % 1000, i % 50]))
        .collect();
    db.create_relation("orders", &Relation::from_tuples(orders, tuples).unwrap())
        .unwrap();
    db.create_secondary_index("orders", 0).unwrap();
    db
}

/// The plan text of `sql`.
fn plan_text(db: &Database, sql: &str) -> String {
    match avq_sql::run(db, sql).unwrap() {
        SqlOutcome::Plan(p) => p,
        SqlOutcome::Table(_) => panic!("{sql} is an explain"),
    }
}

/// `text` with the elapsed column of its stage table replaced by `*`.
fn mask_times(text: &str) -> String {
    let mut out = String::new();
    let mut in_table = false;
    for line in text.lines() {
        if line.starts_with("stage ") {
            in_table = true;
        }
        let kept = match line.rfind(" | ") {
            Some(i) if in_table && !line.starts_with("stage ") => &line[..i + 3],
            _ => line,
        };
        out.push_str(kept);
        if kept.len() < line.len() {
            out.push('*');
        }
        out.push('\n');
    }
    out
}

/// `(statement, EXPLAIN text, EXPLAIN ANALYZE text with times masked)`,
/// run in this order against one database (the cache hits depend on it).
const EXPLAINED: &[(&str, &str, &str)] = &[
    (
        "select * from people where age >= 0",
        r#"EXPLAIN: select * from people where age >= 0
plan: full-scan
-> project dept, age, id (est_rows=900, est_blocks=0, est_cost=0.0ms)
  -> scan people via full-scan [age >= 0] (est_rows=900, est_blocks=25, est_cost=346.2ms)
plans considered: 1, estimated cost: 346.2ms"#,
        r#"EXPLAIN ANALYZE: select * from people where age >= 0
plan: full-scan
-> project dept, age, id (est_rows=900, est_blocks=0, est_cost=0.0ms, actual_rows=900)
  -> scan people via full-scan [age >= 0] (est_rows=900, est_blocks=25, est_cost=346.2ms, actual_rows=900)
plans considered: 1, estimated cost: 346.2ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
scan          |       1000 |       25 |         25 | *
filter        |        900 |        0 |          0 | *
project       |        900 |        0 |          0 | *
total         |        900 |       25 |         25 | *
"#,
    ),
    (
        "select p.dept, p.id from people as p where p.age between -5 and 20",
        r#"EXPLAIN: select p.dept, p.id from people p where p.age between -5 and 20
plan: full-scan
-> project p.dept, p.id (est_rows=260, est_blocks=0, est_cost=0.0ms)
  -> scan p via full-scan [p.age between -5 and 20] (est_rows=260, est_blocks=25, est_cost=346.2ms)
plans considered: 1, estimated cost: 346.2ms"#,
        r#"EXPLAIN ANALYZE: select p.dept, p.id from people p where p.age between -5 and 20
plan: full-scan
-> project p.dept, p.id (est_rows=260, est_blocks=0, est_cost=0.0ms, actual_rows=260)
  -> scan p via full-scan [p.age between -5 and 20] (est_rows=260, est_blocks=25, est_cost=346.2ms, actual_rows=260)
plans considered: 1, estimated cost: 346.2ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
scan          |       1000 |       25 |         25 | *
filter        |        260 |        0 |          0 | *
project       |        260 |        0 |          0 | *
total         |        260 |       25 |         25 | *
"#,
    ),
    (
        "select id from people where id < 10 and age > 80",
        r#"EXPLAIN: select id from people where id < 10 and age > 80
plan: secondary-index(attr=2)
-> project id (est_rows=1, est_blocks=0, est_cost=0.0ms)
  -> scan people via secondary-index(attr=2) [id < 10 and age > 80] (est_rows=1, est_blocks=10, est_cost=198.5ms)
plans considered: 2, estimated cost: 198.5ms"#,
        r#"EXPLAIN ANALYZE: select id from people where id < 10 and age > 80
plan: secondary-index(attr=2)
-> project id (est_rows=1, est_blocks=0, est_cost=0.0ms, actual_rows=0)
  -> scan people via secondary-index(attr=2) [id < 10 and age > 80] (est_rows=1, est_blocks=10, est_cost=198.5ms, actual_rows=0)
plans considered: 2, estimated cost: 198.5ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
index-probe   |         10 |        0 |          0 | *
scan          |        413 |       10 |         10 | *
filter        |          0 |        0 |          0 | *
project       |          0 |        0 |          0 | *
total         |          0 |       10 |         10 | *
"#,
    ),
    (
        "select * from people where dept = 'hr' order by id desc limit 5",
        r#"EXPLAIN: select * from people where dept = 'hr' order by id desc limit 5
plan: clustered-range
-> project dept, age, id (est_rows=5, est_blocks=0, est_cost=0.0ms)
  -> limit 5 (est_rows=5, est_blocks=0, est_cost=0.0ms)
    -> sort by people.id desc (est_rows=333, est_blocks=0, est_cost=0.0ms)
      -> scan people via clustered-range [dept = 'hr'] (est_rows=333, est_blocks=8, est_cost=175.4ms)
plans considered: 2, estimated cost: 175.4ms"#,
        r#"EXPLAIN ANALYZE: select * from people where dept = 'hr' order by id desc limit 5
plan: clustered-range
-> project dept, age, id (est_rows=5, est_blocks=0, est_cost=0.0ms, actual_rows=5)
  -> limit 5 (est_rows=5, est_blocks=0, est_cost=0.0ms, actual_rows=5)
    -> sort by people.id desc (est_rows=333, est_blocks=0, est_cost=0.0ms, actual_rows=333)
      -> scan people via clustered-range [dept = 'hr'] (est_rows=333, est_blocks=8, est_cost=175.4ms, actual_rows=333)
plans considered: 2, estimated cost: 175.4ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
index-probe   |          9 |        0 |          0 | *
scan          |        370 |        9 |          9 | *
filter        |        333 |        0 |          0 | *
sort          |        333 |        0 |          0 | *
limit         |          5 |        0 |          0 | *
project       |          5 |        0 |          0 | *
total         |          5 |        9 |          9 | *
"#,
    ),
    (
        "select * from people where id = 5000",
        r#"EXPLAIN: select * from people where id = 5000
plan: secondary-index(attr=2)
-> project dept, age, id (est_rows=0, est_blocks=0, est_cost=0.0ms)
  -> scan people via secondary-index(attr=2) [id = 5000] (est_rows=0, est_blocks=0, est_cost=60.0ms)
plans considered: 2, estimated cost: 60.0ms"#,
        r#"EXPLAIN ANALYZE: select * from people where id = 5000
plan: secondary-index(attr=2)
-> project dept, age, id (est_rows=0, est_blocks=0, est_cost=0.0ms, actual_rows=0)
  -> scan people via secondary-index(attr=2) [id = 5000] (est_rows=0, est_blocks=0, est_cost=60.0ms, actual_rows=0)
plans considered: 2, estimated cost: 60.0ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
index-probe   |          0 |        0 |          0 | *
scan          |          0 |        0 |          0 | *
filter        |          0 |        0 |          0 | *
project       |          0 |        0 |          0 | *
total         |          0 |        0 |          0 | *
"#,
    ),
    (
        "select dept from people where age < -10",
        r#"EXPLAIN: select dept from people where age < -10
plan: full-scan
-> project dept (est_rows=0, est_blocks=0, est_cost=0.0ms)
  -> scan people via full-scan [age < -10] (est_rows=0, est_blocks=25, est_cost=346.2ms)
plans considered: 1, estimated cost: 346.2ms"#,
        r#"EXPLAIN ANALYZE: select dept from people where age < -10
plan: full-scan
-> project dept (est_rows=0, est_blocks=0, est_cost=0.0ms, actual_rows=0)
  -> scan people via full-scan [age < -10] (est_rows=0, est_blocks=25, est_cost=346.2ms, actual_rows=0)
plans considered: 1, estimated cost: 346.2ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
scan          |          0 |        0 |          0 | *
filter        |          0 |        0 |          0 | *
project       |          0 |        0 |          0 | *
total         |          0 |        0 |          0 | *
"#,
    ),
    (
        "select p.dept, count(*) from people p join orders o on p.id = o.pid where o.qty >= 40 group by p.dept order by p.dept desc",
        r#"EXPLAIN: select p.dept, count(*) from people p join orders o on p.id = o.pid where o.qty >= 40 group by p.dept order by p.dept desc
plan: block-nested-loop
-> aggregate group by p.dept (est_rows=3, est_blocks=0, est_cost=0.0ms)
  -> block-nested-loop join o on p.id = o.pid [o.qty >= 40] (est_rows=120, est_blocks=13, est_cost=180.0ms)
    -> scan p via full-scan (est_rows=1000, est_blocks=25, est_cost=346.2ms)
plans considered: 4, estimated cost: 526.3ms"#,
        r#"EXPLAIN ANALYZE: select p.dept, count(*) from people p join orders o on p.id = o.pid where o.qty >= 40 group by p.dept order by p.dept desc
plan: block-nested-loop
-> aggregate group by p.dept (est_rows=3, est_blocks=0, est_cost=0.0ms, actual_rows=3)
  -> block-nested-loop join o on p.id = o.pid [o.qty >= 40] (est_rows=120, est_blocks=13, est_cost=180.0ms, actual_rows=120)
    -> scan p via full-scan (est_rows=1000, est_blocks=25, est_cost=346.2ms, actual_rows=1000)
plans considered: 4, estimated cost: 526.3ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
scan          |       1000 |       25 |         25 | *
filter        |       1000 |        0 |          0 | *
scan-inner    |        120 |       13 |         13 | *
join          |        120 |        0 |          0 | *
aggregate     |          3 |        0 |          0 | *
total         |          3 |       38 |         38 | *
"#,
    ),
    (
        "select count(*), sum(qty), avg(qty), min(pid), max(pid) from orders where pid between 10 and 200",
        r#"EXPLAIN: select count(*), sum(qty), avg(qty), min(pid), max(pid) from orders where pid between 10 and 200
plan: clustered-range
-> aggregate (est_rows=1, est_blocks=0, est_cost=0.0ms)
  -> scan orders via clustered-range [pid between 10 and 200] (est_rows=115, est_blocks=2, est_cost=94.4ms)
plans considered: 2, estimated cost: 94.4ms"#,
        r#"EXPLAIN ANALYZE: select count(*), sum(qty), avg(qty), min(pid), max(pid) from orders where pid between 10 and 200
plan: clustered-range
-> aggregate (est_rows=1, est_blocks=0, est_cost=0.0ms, actual_rows=1)
  -> scan orders via clustered-range [pid between 10 and 200] (est_rows=115, est_blocks=2, est_cost=94.4ms, actual_rows=115)
plans considered: 2, estimated cost: 94.4ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
index-probe   |          3 |        0 |          0 | *
scan          |        146 |        3 |          3 | *
filter        |        115 |        0 |          0 | *
aggregate     |          1 |        0 |          0 | *
total         |          1 |        3 |          3 | *
"#,
    ),
    (
        "select * from people a join people b on a.id = b.id where a.age = 3 limit 4",
        r#"EXPLAIN: select * from people a join people b on a.id = b.id where a.age = 3 limit 4
plan: block-nested-loop
-> project a.dept, a.age, a.id, b.dept, b.age, b.id (est_rows=4, est_blocks=0, est_cost=0.0ms)
  -> limit 4 (est_rows=4, est_blocks=0, est_cost=0.0ms)
    -> block-nested-loop join b on a.id = b.id (est_rows=10, est_blocks=25, est_cost=346.2ms)
      -> scan a via full-scan [a.age = 3] (est_rows=10, est_blocks=25, est_cost=346.2ms)
plans considered: 4, estimated cost: 692.5ms"#,
        r#"EXPLAIN ANALYZE: select * from people a join people b on a.id = b.id where a.age = 3 limit 4
plan: block-nested-loop
-> project a.dept, a.age, a.id, b.dept, b.age, b.id (est_rows=4, est_blocks=0, est_cost=0.0ms, actual_rows=4)
  -> limit 4 (est_rows=4, est_blocks=0, est_cost=0.0ms, actual_rows=4)
    -> block-nested-loop join b on a.id = b.id (est_rows=10, est_blocks=25, est_cost=346.2ms, actual_rows=10)
      -> scan a via full-scan [a.age = 3] (est_rows=10, est_blocks=25, est_cost=346.2ms, actual_rows=10)
plans considered: 4, estimated cost: 692.5ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
scan          |       1000 |       25 |         25 | *
filter        |         10 |        0 |          0 | *
scan-inner    |       1000 |       25 |         25 | *
join          |         10 |        0 |          0 | *
limit         |          4 |        0 |          0 | *
project       |          4 |        0 |          0 | *
total         |          4 |       50 |         50 | *
"#,
    ),
    (
        "SELECT id FROM people WHERE id >= 990 ORDER BY id",
        r#"EXPLAIN: select id from people where id >= 990 order by id
plan: secondary-index(attr=2)
-> project id (est_rows=10, est_blocks=0, est_cost=0.0ms)
  -> sort by people.id (est_rows=10, est_blocks=0, est_cost=0.0ms)
    -> scan people via secondary-index(attr=2) [id >= 990] (est_rows=10, est_blocks=10, est_cost=198.5ms)
plans considered: 2, estimated cost: 198.5ms"#,
        r#"EXPLAIN ANALYZE: select id from people where id >= 990 order by id
plan: secondary-index(attr=2)
-> project id (est_rows=10, est_blocks=0, est_cost=0.0ms, actual_rows=10)
  -> sort by people.id (est_rows=10, est_blocks=0, est_cost=0.0ms, actual_rows=10)
    -> scan people via secondary-index(attr=2) [id >= 990] (est_rows=10, est_blocks=10, est_cost=198.5ms, actual_rows=10)
plans considered: 2, estimated cost: 198.5ms
stage         |       rows |   blocks | cache_hits |    elapsed
--------------+------------+----------+------------+-----------
index-probe   |         10 |        0 |          0 | *
scan          |        413 |       10 |         10 | *
filter        |         10 |        0 |          0 | *
sort          |         10 |        0 |          0 | *
project       |         10 |        0 |          0 | *
total         |         10 |       10 |         10 | *
"#,
    ),
];

/// `(statement, byte position, message)` for every error the lexer and
/// parser raise.
const ERRORS: &[(&str, usize, &str)] = &[
    (
        "select 'oops",
        7,
        "lex error at byte 7: unterminated string literal",
    ),
    (
        "select * from t where a = 99999999999999999999",
        26,
        "lex error at byte 26: integer literal `99999999999999999999` does not fit in 64 bits",
    ),
    (
        "select @x",
        7,
        "lex error at byte 7: unexpected character `@`",
    ),
    (
        "select from @",
        12,
        "lex error at byte 12: unexpected character `@`",
    ),
    (
        "select * from t garbage extra",
        24,
        "parse error at byte 24: unexpected trailing input `extra`",
    ),
    (
        "select * from t where a = 1 )",
        28,
        "parse error at byte 28: unexpected trailing input `)`",
    ),
    (
        "select * from t limit 5 5",
        24,
        "parse error at byte 24: unexpected trailing input `5`",
    ),
    (
        "select * from t where a = 'x' 'y'",
        30,
        "parse error at byte 30: unexpected trailing input `'y'`",
    ),
    (
        "select * from t;;",
        16,
        "parse error at byte 16: unexpected trailing input `;`",
    ),
    (
        "from t",
        0,
        "parse error at byte 0: expected `select`, found `from`",
    ),
    (
        "",
        0,
        "parse error at byte 0: expected `select`, found `end of input`",
    ),
    (
        "explain",
        7,
        "parse error at byte 7: expected `select`, found `end of input`",
    ),
    (
        "explain analyze from t",
        16,
        "parse error at byte 16: expected `select`, found `from`",
    ),
    (
        "SELECT * FORM t",
        9,
        "parse error at byte 9: expected `from`, found `FORM`",
    ),
    (
        "select a b from t",
        9,
        "parse error at byte 9: expected `from`, found `b`",
    ),
    (
        "select * from a join b where a.x = b.y",
        23,
        "parse error at byte 23: expected `on`, found `where`",
    ),
    (
        "select * from a join b on a.x < b.y",
        30,
        "parse error at byte 30: expected `=`, found `<`",
    ),
    (
        "select a from t group a",
        22,
        "parse error at byte 22: expected `by`, found `a`",
    ),
    (
        "select a from t order a",
        22,
        "parse error at byte 22: expected `by`, found `a`",
    ),
    (
        "select * from t where a between 1 or 2",
        34,
        "parse error at byte 34: expected `and`, found `or`",
    ),
    (
        "select * from t limit x",
        22,
        "parse error at byte 22: expected a row count after `limit`, found `x`",
    ),
    (
        "select * from t limit -1",
        22,
        "parse error at byte 22: expected a row count after `limit`, found `-`",
    ),
    (
        "select median(x) from t",
        7,
        "parse error at byte 7: unknown function `median` (expected count/sum/min/max/avg)",
    ),
    (
        "select sum(*) from t",
        7,
        "parse error at byte 7: `sum(*)` is not valid; only count(*)",
    ),
    (
        "select count(x y) from t",
        15,
        "parse error at byte 15: expected `)`, found `y`",
    ),
    (
        "select count(*",
        14,
        "parse error at byte 14: expected `)`, found `end of input`",
    ),
    (
        "select , from t",
        7,
        "parse error at byte 7: expected a column name, found `,`",
    ),
    (
        "select t.* from t",
        9,
        "parse error at byte 9: expected a column name after `.`, found `*`",
    ),
    (
        "select * from 5",
        14,
        "parse error at byte 14: expected a table name, found `5`",
    ),
    (
        "select * from t as",
        18,
        "parse error at byte 18: expected an alias after `as`, found `end of input`",
    ),
    (
        "select * from t where a = b",
        26,
        "parse error at byte 26: expected a literal, found `b`",
    ),
    (
        "select * from t where a = -'x'",
        27,
        "parse error at byte 27: expected a literal, found `'x'`",
    ),
    (
        "select * from t where a = -",
        27,
        "parse error at byte 27: expected a literal, found `end of input`",
    ),
    (
        "select * from t where a 3",
        24,
        "parse error at byte 24: expected a comparison operator, found `3`",
    ),
    (
        "select * from t where a >= <= 1",
        27,
        "parse error at byte 27: expected a literal, found `<=`",
    ),
    (
        "select * from t where = 1",
        22,
        "parse error at byte 22: expected a column name, found `=`",
    ),
    (
        "select * from t where a = > 1",
        26,
        "parse error at byte 26: expected a literal, found `>`",
    ),
    (
        "select * from t where a = >= 1",
        26,
        "parse error at byte 26: expected a literal, found `>=`",
    ),
    (
        "select * from t where a = < 1",
        26,
        "parse error at byte 26: expected a literal, found `<`",
    ),
    (
        "select * from t where a = ( 1",
        26,
        "parse error at byte 26: expected a literal, found `(`",
    ),
    (
        "select * from t where . = 1",
        22,
        "parse error at byte 22: expected a column name, found `.`",
    ),
    (
        "select * from t where a",
        23,
        "parse error at byte 23: expected a comparison operator, found `end of input`",
    ),
    (
        "select * from t where a.",
        24,
        "parse error at byte 24: expected a column name after `.`, found `end of input`",
    ),
];

#[test]
fn explain_and_explain_analyze_text_is_unchanged() {
    let db = db();
    for (sql, explain, analyze) in EXPLAINED {
        assert_eq!(plan_text(&db, &format!("explain {sql}")), *explain, "{sql}");
        let got = mask_times(&plan_text(&db, &format!("explain analyze {sql}")));
        assert_eq!(got, *analyze, "{sql}");
    }
}

#[test]
fn every_lexer_and_parser_error_keeps_its_position_and_message() {
    for &(sql, pos, msg) in ERRORS {
        let err = avq_sql::parse(sql).expect_err(sql);
        assert_eq!(err.position(), Some(pos), "{sql}");
        assert_eq!(err.to_string(), msg, "{sql}");
    }
}
