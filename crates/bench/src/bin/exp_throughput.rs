//! Extension experiment — query-stream throughput: a reproducible mix of
//! point lookups and range selections over every attribute, run against the
//! uncoded and AVQ-coded copies of the §5.2 relation. Reports simulated
//! 1994 time (the paper's cost model) and actual host CPU time.
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_throughput [n] [queries]`

#![allow(
    clippy::disallowed_methods,
    reason = "the paper-figure bins report host wall time next to the model's"
)]

use avq_bench::harness;
use avq_bench::report::Table;
use avq_codec::CodingMode;
use avq_workload::{QueryShape, QueryWorkload};
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("usage: exp_throughput [n] [queries]\n{e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let n = harness::arg(1, "n", 50_000)?;
    let queries = harness::arg(2, "queries", 160)?;

    let (spec, relation) = harness::timing_relation(n);
    eprintln!("loading databases ({n} tuples)...");
    let sides = [
        ("uncoded", CodingMode::FieldWise, 1.34),
        ("AVQ", CodingMode::AvqChained, 13.85),
    ];

    let mut table = Table::new([
        "store",
        "shape",
        "queries",
        "rows",
        "blocks read",
        "sim time (s)",
        "host time (ms)",
    ]);
    for (label, mode, cpu_ms) in sides {
        let db = harness::load_database(&relation, mode, cpu_ms);
        for (shape_name, shape) in [
            ("point lookups", QueryShape::PointLookups),
            ("1% ranges", QueryShape::Ranges { selectivity: 0.01 }),
            ("25% ranges", QueryShape::Ranges { selectivity: 0.25 }),
        ] {
            let workload = QueryWorkload::new(&spec, shape, 42);
            let mix = workload.generate_mix(queries);
            db.drop_caches();
            db.reset_measurements();
            let host_start = Instant::now();
            let mut rows = 0usize;
            let mut blocks = 0u64;
            for q in &mix {
                let (hits, cost) = db
                    .select_range_ordinal(harness::REL, q.attr, q.lo, q.hi)
                    .unwrap();
                rows += hits.len();
                blocks += cost.data_blocks;
            }
            let host_ms = host_start.elapsed().as_secs_f64() * 1000.0;
            table.row([
                label.to_string(),
                shape_name.to_string(),
                mix.len().to_string(),
                rows.to_string(),
                blocks.to_string(),
                format!("{:.1}", db.clock().now_secs()),
                format!("{host_ms:.0}"),
            ]);
        }
    }
    table.print();
    println!("\n(simulated time charges 30 ms/block + t2/t3 CPU per block; AVQ reads ~3x");
    println!(" fewer blocks, so its 1994 wall-clock advantage holds across query shapes,");
    println!(" while host time shows the modern-CPU decode overhead in isolation)");
    Ok(())
}
