//! Experiment E5 — Fig. 5.7: compression efficiency.
//!
//! Generates the four relation characteristics of Fig. 5.7 (a) — {skew} ×
//! {domain-size variance} with 15 attributes — across relation sizes, codes
//! each with the paper's AVQ configuration, and prints the percentage
//! reduction in disk blocks, `100·(1 − a/b)`.
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_compression [sizes...]`
//! (default sizes: 1000 10000 100000)

use avq_bench::harness;
use avq_bench::report::Table;
use avq_codec::{compress, CodecOptions};
use avq_workload::SyntheticSpec;

fn main() {
    if let Err(e) = run() {
        eprintln!("usage: exp_compression [sizes...]\n{e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let argc = std::env::args().len();
    let sizes: Vec<usize> = if argc < 2 {
        vec![1_000, 10_000, 100_000]
    } else {
        (1..argc)
            .map(|k| harness::arg(k, "size", 0))
            .collect::<Result<_, _>>()?
    };

    println!("Fig 5.7 — percentage reduction in size (blocks), 8192-byte blocks\n");
    let mut table = Table::new(["No. of tuples", "Test 1", "Test 2", "Test 3", "Test 4"]);
    for &n in &sizes {
        let mut cells = vec![format!("{n}")];
        for (_, spec) in SyntheticSpec::fig_5_7_tests(n) {
            let relation = spec.generate();
            let coded = compress(&relation, CodecOptions::default()).unwrap();
            cells.push(format!("{:.1}%", coded.stats().block_reduction_percent()));
        }
        table.row(cells);
    }
    table.print();
    println!("\npaper (Fig 5.7 b): Test 1 = 73.0%, Test 2 = 65.6%, Test 3 = 73.2%, Test 4 = 65.6%");
    println!("paper observations: (1) large reduction everywhere; (2) homogeneous domain");
    println!("sizes compress better (Tests 1,3 > Tests 2,4); (3) skew has no effect");
    println!("(Test 1 ≈ Test 3, Test 2 ≈ Test 4).");

    // Payload-level detail for the largest size.
    let n = *sizes.last().unwrap();
    println!("\ndetail at {n} tuples:");
    let mut detail = Table::new([
        "test",
        "m (B)",
        "uncoded blocks",
        "coded blocks",
        "block red.",
        "payload red.",
        "B/tuple",
    ]);
    for (name, spec) in SyntheticSpec::fig_5_7_tests(n) {
        let relation = spec.generate();
        let m = relation.schema().tuple_bytes();
        let coded = compress(&relation, CodecOptions::default()).unwrap();
        let st = coded.stats();
        detail.row([
            name.to_string(),
            m.to_string(),
            st.uncoded_blocks.to_string(),
            st.coded_blocks.to_string(),
            format!("{:.1}%", st.block_reduction_percent()),
            format!("{:.1}%", st.payload_reduction_percent()),
            format!("{:.2}", st.bytes_per_tuple()),
        ]);
    }
    detail.print();
    Ok(())
}
