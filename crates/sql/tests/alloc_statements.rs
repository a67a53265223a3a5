//! Allocation ceilings per statement class, stage by stage.
//!
//! The four read classes of a warm probe — a point read on the unique key,
//! a sixteen-equality full tuple, a clustering-prefix `LIMIT 20` and a
//! two-attribute conjunction — over `SyntheticSpec::section_5_2(20_000)`
//! with secondary indexes on `a15` and `a12`, every block resident in the
//! decoded cache. Each statement's allocations are counted separately for
//! parse, bind + plan, and execute, and through `run` as a whole; a warm
//! statement should pay for its answer (its result rows, its candidate
//! list), not for text nobody reads or clocks nobody looks at. The
//! ceilings are the counts measured when they were set: a change that adds
//! an allocation to a warm statement fails here. A counting global
//! allocator keeps the tally.

use avq_db::{Database, DbConfig};
use avq_obs::QueryCtx;
use avq_sql::{SqlOutcome, Statement};
use counting_alloc::counted;

#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// What one statement allocates in each stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocs {
    parse: u64,
    bind_plan: u64,
    execute: u64,
    run: u64,
}

impl Allocs {
    const fn new(parse: u64, bind_plan: u64, execute: u64, run: u64) -> Allocs {
        Allocs {
            parse,
            bind_plan,
            execute,
            run,
        }
    }
}

/// Counts `sql`'s allocations stage by stage, then through `run`, and
/// returns them with the number of result rows.
fn measure(db: &Database, sql: &str) -> (Allocs, usize) {
    let (parse, stmt) = counted(|| avq_sql::parse(sql).unwrap());
    let Statement::Select(select) = stmt else {
        panic!("{sql} is a select");
    };
    let (bind_plan, (bound, physical)) = counted(|| {
        let bound = avq_sql::bind(db, &select).unwrap();
        let physical = avq_sql::plan::plan(db, &bound).unwrap();
        (bound, physical)
    });
    let ctx = QueryCtx::default();
    let (execute, out) = counted(|| avq_sql::exec::execute(db, &bound, &physical, &ctx).unwrap());
    let rows = out.result.rows.len();
    drop(out);
    let (run, outcome) = counted(|| avq_sql::run(db, sql).unwrap());
    let SqlOutcome::Table(table) = outcome else {
        panic!("{sql} returns a table");
    };
    assert_eq!(table.rows.len(), rows, "{sql}");
    (Allocs::new(parse, bind_plan, execute, run), rows)
}

#[test]
fn warm_statements_allocate_within_their_ceilings() {
    let relation = avq_workload::SyntheticSpec::section_5_2(20_000).generate();
    let t = relation.tuples()[7_777].digits().to_vec();
    let mut db = Database::new(DbConfig::default());
    db.create_relation("r", &relation).unwrap();
    db.create_secondary_index("r", 15).unwrap();
    db.create_secondary_index("r", 12).unwrap();
    drop(relation);
    let rel = db.relation("r").unwrap();
    assert!(
        rel.block_count() <= DbConfig::default().decoded_cache_blocks,
        "the relation must fit the decoded cache"
    );

    let eq = |a: usize| format!("a{a:02} = {}", t[a]);
    let full: Vec<String> = (0..16).map(eq).collect();
    // Each class with its ceilings: parse, bind + plan, execute, and the
    // whole statement through `run`. The result rows are most of what
    // execute still allocates (one vector per row, and the growth of the
    // list): the point and full-tuple reads return one row, the prefix
    // read 20, the two-attribute read 8.
    let classes = [
        (
            "point",
            format!("select * from r where {}", eq(15)),
            Allocs::new(4, 15, 7, 26),
        ),
        (
            "full tuple",
            format!("select * from r where {}", full.join(" and ")),
            Allocs::new(21, 17, 7, 45),
        ),
        (
            "prefix limit",
            format!("select * from r where {} and {} limit 20", eq(0), eq(1)),
            Allocs::new(5, 16, 31, 52),
        ),
        (
            "two-attribute",
            format!("select * from r where {} and {}", eq(12), eq(13)),
            Allocs::new(5, 15, 19, 39),
        ),
    ];
    // Warm the decoded cache, the metric handles and the planner's paths.
    avq_sql::run(&db, "select count(*) from r").unwrap();
    for (_, sql, _) in &classes {
        avq_sql::run(&db, sql).unwrap();
    }
    let misses = rel.decoded_stats().misses;

    let mut over = Vec::new();
    for (class, sql, ceiling) in &classes {
        let (got, rows) = measure(&db, sql);
        assert!(
            rows >= 1,
            "{class}: `{sql}` finds the tuple it was built from"
        );
        eprintln!("{class}: {got:?} for {rows} rows");
        let stages = [
            ("parse", got.parse, ceiling.parse),
            ("bind + plan", got.bind_plan, ceiling.bind_plan),
            ("execute", got.execute, ceiling.execute),
            ("run", got.run, ceiling.run),
        ];
        for (stage, n, max) in stages {
            if n > max {
                over.push(format!("{class} {stage}: {n} allocations (ceiling {max})"));
            }
        }
    }
    assert_eq!(rel.decoded_stats().misses, misses, "a statement decoded");
    assert!(over.is_empty(), "{}", over.join("\n"));
}
