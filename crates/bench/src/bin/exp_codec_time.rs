//! Experiment E6 — Fig. 5.9 rows 1–2: average block coding and decoding
//! time on the §5.2 relation (16 attributes, 38-byte tuples, 10⁵ tuples,
//! 8192-byte blocks), 100 repetitions each, data resident in memory.
//!
//! Host times are reported raw and scaled to the paper's three machines via
//! the calibrated `cpu_scale` factors (HP 9000/735 ≡ 1).
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_codec_time [n] [reps]`

use avq_bench::harness;
use avq_bench::measure::avg_ms;
use avq_bench::report::Table;
use avq_codec::{BlockCodec, BlockPacker, CodingMode, RepChoice};
use avq_storage::MachineProfile;

fn main() {
    if let Err(e) = run() {
        eprintln!("usage: exp_codec_time [n] [reps]\n{e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let n = harness::arg(1, "n", 100_000)?;
    let reps = harness::arg(2, "reps", 100)?;

    let (_, relation) = harness::timing_relation(n);
    let schema = relation.schema().clone();
    let mut tuples = relation.into_tuples();
    tuples.sort_unstable();

    println!(
        "relation: {n} tuples × {} bytes, 8192-byte blocks, {reps} reps\n",
        schema.tuple_bytes()
    );

    // Host-measured per-block times for each of the three techniques.
    let mut host = Table::new([
        "technique",
        "blocks",
        "code ms/block (host)",
        "decode ms/block (host)",
    ]);
    let mut avq_decode_host = 0.0f64;
    for mode in CodingMode::ALL {
        let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
        let packer = BlockPacker::new(codec.clone(), 8192);
        let ranges = packer.partition(&tuples).unwrap();
        let nblocks = ranges.len();

        // Encode all blocks, repeatedly; report per-block average.
        let ranges_enc = ranges.clone();
        let encode_ms = avg_ms(2, reps, || {
            for r in &ranges_enc {
                let coded = codec.encode(&tuples[r.clone()]).unwrap();
                std::hint::black_box(&coded);
            }
        }) / nblocks as f64;

        let blocks: Vec<Vec<u8>> = ranges
            .iter()
            .map(|r| codec.encode(&tuples[r.clone()]).unwrap())
            .collect();
        let mut scratch = Vec::new();
        let decode_ms = avg_ms(2, reps, || {
            for b in &blocks {
                scratch.clear();
                codec.decode_into(b, &mut scratch).unwrap();
                std::hint::black_box(&scratch);
            }
        }) / nblocks as f64;

        if mode == CodingMode::AvqChained {
            avq_decode_host = decode_ms;
        }
        host.row([
            mode.to_string(),
            nblocks.to_string(),
            format!("{encode_ms:.4}"),
            format!("{decode_ms:.4}"),
        ]);
    }
    host.print();

    // The paper's published per-machine values, with the scale factors the
    // response-time experiment uses (HP 9000/735 ≡ 1).
    println!("\nFig 5.9 rows 1-2 — the paper's machines (used by exp_response_time):");
    let mut scaled = Table::new([
        "machine",
        "cpu scale",
        "code ms (paper)",
        "decode ms (paper t2)",
        "extract ms (paper t3)",
    ]);
    for m in MachineProfile::paper_machines() {
        scaled.row([
            m.name.to_string(),
            format!("{:.2}", m.cpu_scale),
            format!("{:.2}", m.paper_encode_ms),
            format!("{:.2}", m.paper_decode_ms),
            format!("{:.2}", m.paper_extract_ms),
        ]);
    }
    scaled.print();
    println!(
        "\nhost AVQ decode: {avq_decode_host:.4} ms/block (the 1994 HP 9000/735 took 13.85 ms —\n\
         a ~{:.0}× hardware speedup, which is the paper's own point: CPU outpaces disk)",
        13.85 / avq_decode_host
    );
    Ok(())
}
