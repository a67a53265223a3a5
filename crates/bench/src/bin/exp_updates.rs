//! Extension experiment — update overhead: §4.2 claims insertions and
//! deletions stay confined to one block under AVQ. This experiment
//! quantifies the price: random single-tuple inserts and deletes against
//! the coded and uncoded stores, reporting host CPU time, simulated I/O,
//! and how often blocks split.
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_updates [n] [ops]`

#![allow(
    clippy::disallowed_methods,
    reason = "the paper-figure bins report host wall time next to the model's"
)]

use avq_bench::harness;
use avq_bench::report::Table;
use avq_codec::CodingMode;
use avq_schema::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("usage: exp_updates [n] [ops]\n{e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let n = harness::arg(1, "n", 50_000)?;
    let ops = harness::arg(2, "ops", 2_000)?;
    let (spec, relation) = harness::timing_relation(n);
    let sizes = spec.domain_sizes();

    let mut table = Table::new([
        "store",
        "op",
        "count",
        "host ms/op",
        "sim I/O (s)",
        "blocks before",
        "blocks after",
    ]);

    for (label, mode) in [
        ("uncoded", CodingMode::FieldWise),
        ("AVQ", CodingMode::AvqChained),
        ("AVQ-bits", CodingMode::AvqChainedBits),
    ] {
        let mut db = harness::load_database(&relation, mode, 0.0);
        let mut rng = StdRng::seed_from_u64(0xF00D);

        // Fresh tuples to insert (unique key keeps them distinct).
        let inserts: Vec<Tuple> = (0..ops)
            .map(|i| {
                let digits: Vec<u64> = sizes
                    .iter()
                    .enumerate()
                    .map(|(a, &size)| {
                        if a == sizes.len() - 1 {
                            (n + i) as u64 // beyond the loaded key range
                        } else {
                            rng.random_range(0..size.min(64))
                        }
                    })
                    .collect();
                Tuple::new(digits)
            })
            .collect();

        let before = db.relation(harness::REL).unwrap().block_count();
        db.reset_measurements();
        let start = Instant::now();
        for t in &inserts {
            db.relation_mut(harness::REL).unwrap().insert(t).unwrap();
        }
        let insert_ms = start.elapsed().as_secs_f64() * 1000.0 / ops as f64;
        let insert_io = db.clock().now_secs();
        let mid = db.relation(harness::REL).unwrap().block_count();
        table.row([
            label.to_string(),
            "insert".to_string(),
            ops.to_string(),
            format!("{insert_ms:.3}"),
            format!("{insert_io:.1}"),
            before.to_string(),
            mid.to_string(),
        ]);

        db.reset_measurements();
        let start = Instant::now();
        for t in &inserts {
            db.relation_mut(harness::REL).unwrap().delete(t).unwrap();
        }
        let delete_ms = start.elapsed().as_secs_f64() * 1000.0 / ops as f64;
        let delete_io = db.clock().now_secs();
        let after = db.relation(harness::REL).unwrap().block_count();
        table.row([
            label.to_string(),
            "delete".to_string(),
            ops.to_string(),
            format!("{delete_ms:.3}"),
            format!("{delete_io:.1}"),
            mid.to_string(),
            after.to_string(),
        ]);
        assert_eq!(db.relation(harness::REL).unwrap().tuple_count(), n);
    }
    table.print();
    println!("\n(§4.2 / Fig. 4.6: an update splices the affected block — only the entries");
    println!(" next to the tuple are re-coded, and a block is decoded only when it is not");
    println!(" resident; the bit-aligned mode re-encodes the block from its decoded rows.");
    println!(" The block-count delta shows split frequency under insertion pressure.)");
    Ok(())
}
