//! Experiment E8 — Fig. 5.9: the full response-time table.
//!
//! `C₁ = I + N(t₁ + t₂)` (AVQ-coded) vs `C₂ = I + N(t₁ + t₃)` (uncoded),
//! with every term *measured* on the simulated device: `N` and `I` come from
//! the per-attribute query suite of Fig. 5.8 averaged over all attributes,
//! `t₁` is the 30 ms/block disk model, and `t₂`/`t₃` are the paper's
//! per-machine CPU times charged per block (rows 2 and 4 of the figure).
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_response_time [n]`

use avq_bench::harness;
use avq_bench::report::Table;
use avq_codec::CodingMode;
use avq_storage::MachineProfile;

struct Side {
    blocks: usize,
    avg_n: f64,
    avg_index_ms: f64,
}

fn measure_side(
    relation: &avq_schema::Relation,
    spec: &avq_workload::SyntheticSpec,
    mode: CodingMode,
) -> Side {
    let db = harness::load_database(relation, mode, 0.0);
    let blocks = db.relation(harness::REL).unwrap().block_count();
    let results = harness::blocks_accessed(&db, spec);
    let avg_n = results.iter().map(|&(n, _)| n as f64).sum::<f64>() / results.len() as f64;
    let avg_i = results.iter().map(|&(_, i)| i as f64).sum::<f64>() / results.len() as f64;
    Side {
        blocks,
        avg_n,
        avg_index_ms: avg_i * 30.0,
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("usage: exp_response_time [n]\n{e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let n = harness::arg(1, "n", 100_000)?;
    let (spec, relation) = harness::timing_relation(n);

    eprintln!("measuring uncoded and AVQ sides in parallel...");
    let (uncoded, coded) = std::thread::scope(|s| {
        let u = s.spawn(|| measure_side(&relation, &spec, CodingMode::FieldWise));
        let c = s.spawn(|| measure_side(&relation, &spec, CodingMode::AvqChained));
        (u.join().expect("uncoded side"), c.join().expect("AVQ side"))
    });

    println!(
        "relation: {n} tuples; data blocks {} uncoded / {} AVQ ({:.1}% reduction)\n",
        uncoded.blocks,
        coded.blocks,
        100.0 * (1.0 - coded.blocks as f64 / uncoded.blocks as f64)
    );

    let t1 = 30.0f64;
    let mut table = Table::new([
        "No.",
        "Description",
        "HP 9000/735",
        "Sun 4/50",
        "Dec 5000/120",
        "paper (HP)",
    ]);
    let machines = MachineProfile::paper_machines();
    let per_machine =
        |f: &dyn Fn(&MachineProfile) -> String| -> Vec<String> { machines.iter().map(f).collect() };

    let row = |no: &str, desc: &str, vals: Vec<String>, paper: &str| {
        let mut cells = vec![no.to_string(), desc.to_string()];
        cells.extend(vals);
        cells.push(paper.to_string());
        cells
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    rows.push(row(
        "2",
        "Block decoding time (ms), t2",
        per_machine(&|m| format!("{:.2}", m.paper_decode_ms)),
        "13.85",
    ));
    rows.push(row(
        "3",
        "Single block I/O time (ms), t1",
        per_machine(&|_| format!("{t1:.2}")),
        "30.00",
    ));
    rows.push(row(
        "4",
        "Time to extract tuples (ms), t3",
        per_machine(&|m| format!("{:.2}", m.paper_extract_ms)),
        "1.34",
    ));
    rows.push(row(
        "5",
        "Index search time uncoded (s), I",
        per_machine(&|_| format!("{:.3}", uncoded.avg_index_ms / 1000.0)),
        "0.283",
    ));
    rows.push(row(
        "6",
        "Index search time AVQ (s), I",
        per_machine(&|_| format!("{:.3}", coded.avg_index_ms / 1000.0)),
        "0.096",
    ));
    rows.push(row(
        "7",
        "Blocks accessed uncoded, N",
        per_machine(&|_| format!("{:.1}", uncoded.avg_n)),
        "153.6",
    ));
    rows.push(row(
        "8",
        "Blocks accessed AVQ, N",
        per_machine(&|_| format!("{:.1}", coded.avg_n)),
        "55.0",
    ));
    let c2: Vec<f64> = machines
        .iter()
        .map(|m| uncoded.avg_index_ms + uncoded.avg_n * (t1 + m.paper_extract_ms))
        .collect();
    let c1: Vec<f64> = machines
        .iter()
        .map(|m| coded.avg_index_ms + coded.avg_n * (t1 + m.paper_decode_ms))
        .collect();
    rows.push(row(
        "9",
        "Total I/O time uncoded (s), C2",
        c2.iter().map(|v| format!("{:.3}", v / 1000.0)).collect(),
        "5.093",
    ));
    rows.push(row(
        "10",
        "Total I/O time AVQ (s), C1",
        c1.iter().map(|v| format!("{:.3}", v / 1000.0)).collect(),
        "2.506",
    ));
    rows.push(row(
        "11",
        "Improvement 100(1 - C1/C2)",
        c1.iter()
            .zip(&c2)
            .map(|(a, b)| format!("{:.1}%", 100.0 * (1.0 - a / b)))
            .collect(),
        "50.8%",
    ));

    for r in rows {
        table.row(r);
    }
    table.print();

    println!("\npaper row 11: HP 50.8%, Sun 34.0%, DEC 20.1%.");
    println!("shape checks: (1) AVQ wins on every machine; (2) the win grows with CPU");
    println!("speed (HP > Sun > DEC), the paper's core claim about technology trends.");
    Ok(())
}
