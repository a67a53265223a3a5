//! Experiment E12 — decode-path performance: scalar vs SWAR decode
//! kernels, streaming per-block decode with a reused scratch vs. a fresh
//! scratch per block, whole-relation parallel decompression through the
//! work-stealing block queue, and the cold-vs-warm full
//! scan through the decoded-block cache (a warm re-scan performs zero
//! decode calls, asserted via the cache's hit/miss counters).
//!
//! Results are printed as tables and recorded as JSON in
//! `results/BENCH_decode.json` (override the path with the second
//! argument).
//!
//! With `AVQ_PERF_SMOKE=1` the run additionally acts as a CI guard: it
//! exits nonzero if the sequential SWAR kernel is slower than the scalar
//! reference (with 5% slack for timer noise).
//!
//! Usage: `cargo run --release -p avq-bench --bin exp_decode [n] [json_path]`

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avq_bench::harness;
use avq_bench::measure::avg_ms;
use avq_bench::report::Table;
use avq_codec::{compress, decode_blocks_parallel, CodecOptions, DecodeKernel, DecodeScratch};
use avq_db::{Database, DbConfig};
use avq_schema::Tuple;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let json_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "results/BENCH_decode.json".to_owned());
    let reps = if n >= 50_000 { 20 } else { 50 };
    let obs_before = avq_obs::global().snapshot();

    let (_, relation) = harness::timing_relation(n);
    let coded = compress(&relation, CodecOptions::default()).unwrap();
    let blocks = coded.block_count();
    println!(
        "relation: {n} tuples × {} bytes -> {blocks} coded blocks, {reps} reps\n",
        relation.schema().tuple_bytes()
    );

    // Sequential per-block decode through each kernel, one reused scratch
    // (the zero-allocation path). The scalar kernel is the reference; the
    // SWAR kernel must beat it.
    let mut out: Vec<Tuple> = Vec::new();
    let mut scratch = DecodeScratch::new();
    let mut kernel_ms = [0.0f64; 2];
    let mut t = Table::new(["kernel", "total ms", "ms/block", "speedup"]);
    for kernel in DecodeKernel::ALL {
        let codec = coded.codec().with_kernel(kernel);
        let ms = avg_ms(1, reps, || {
            out.clear();
            for i in 0..blocks {
                codec
                    .decode_into_scratch(coded.block(i), &mut out, &mut scratch)
                    .unwrap();
            }
            std::hint::black_box(&out);
        });
        kernel_ms[kernel.tag() as usize] = ms;
    }
    let scalar_ms = kernel_ms[DecodeKernel::Scalar.tag() as usize];
    let swar_ms = kernel_ms[DecodeKernel::Swar.tag() as usize];
    for kernel in DecodeKernel::ALL {
        let ms = kernel_ms[kernel.tag() as usize];
        t.row([
            kernel.to_string(),
            format!("{ms:.3}"),
            format!("{:.4}", ms / blocks as f64),
            format!("{:.2}", scalar_ms / ms),
        ]);
    }
    t.print();
    println!();

    // Fresh scratch per call vs. the reused scratch (default kernel) —
    // the allocation cost of not reusing the staging buffers.
    let codec = coded.codec();
    let fresh_ms = avg_ms(1, reps, || {
        out.clear();
        for i in 0..blocks {
            codec.decode_into(coded.block(i), &mut out).unwrap();
        }
        std::hint::black_box(&out);
    });
    let reused_ms = avg_ms(1, reps, || {
        out.clear();
        for i in 0..blocks {
            codec
                .decode_into_scratch(coded.block(i), &mut out, &mut scratch)
                .unwrap();
        }
        std::hint::black_box(&out);
    });

    let mut t = Table::new(["decode path", "total ms", "ms/block"]);
    t.row([
        "fresh scratch".to_owned(),
        format!("{fresh_ms:.3}"),
        format!("{:.4}", fresh_ms / blocks as f64),
    ]);
    t.row([
        "reused scratch".to_owned(),
        format!("{reused_ms:.3}"),
        format!("{:.4}", reused_ms / blocks as f64),
    ]);
    t.print();
    println!();

    // Whole-relation decompression: sequential, then the work-stealing
    // block queue at each thread count.
    let seq_ms = avg_ms(1, reps, || {
        std::hint::black_box(coded.decompress().unwrap());
    });
    let thread_counts = [1usize, 2, 4, 8];
    let mut par_stealing = Vec::new();
    let mut t = Table::new(["threads", "stealing ms", "speedup (stealing)"]);
    t.row(["seq".to_owned(), format!("{seq_ms:.3}"), "1.00".to_owned()]);
    for &threads in &thread_counts {
        let stealing_ms = avg_ms(1, reps, || {
            std::hint::black_box(decode_blocks_parallel(&codec, coded.blocks(), threads).unwrap());
        });
        t.row([
            threads.to_string(),
            format!("{stealing_ms:.3}"),
            format!("{:.2}", seq_ms / stealing_ms),
        ]);
        par_stealing.push((threads, stealing_ms));
    }
    t.print();
    println!();

    // Cold vs. warm full scan through the decoded-block cache.
    let config = DbConfig::default().with_decoded_cache_blocks(blocks.max(1) * 2);
    let mut db = Database::new(config);
    db.create_relation(harness::REL, &relation).unwrap();
    let rel = db.relation(harness::REL).unwrap();

    // Cold scans are made repeatable by dropping all caches before each
    // repetition; warm scans repeat naturally once the cache is populated.
    let cold_ms = avg_ms(1, reps, || {
        db.drop_caches();
        std::hint::black_box(rel.scan_all().unwrap());
    });
    let warm_ms = avg_ms(1, reps, || {
        std::hint::black_box(rel.scan_all().unwrap());
    });

    // Counter contract: one cold scan misses every block; the warm
    // re-scan — measured as the traffic *since* the cold pass, so the
    // cold misses cannot leak into the warm window — hits every block and
    // performs zero decode calls.
    db.drop_caches();
    rel.reset_decoded_stats();
    let cold_scan = rel.scan_all().unwrap();
    let cold_stats = rel.decoded_stats();
    assert_eq!(cold_stats.hits, 0, "cold scan cannot hit the decoded cache");
    assert_eq!(
        cold_stats.misses as usize,
        rel.block_count(),
        "cold scan must decode every block"
    );
    let warm_scan = rel.scan_all().unwrap();
    let warm_stats = rel.decoded_stats().since(&cold_stats);
    assert_eq!(warm_scan, cold_scan);
    assert_eq!(
        warm_stats.hits as usize,
        rel.block_count(),
        "warm re-scan must be served entirely from the decoded cache"
    );
    assert_eq!(
        warm_stats.misses, 0,
        "warm re-scan performs zero decode calls"
    );

    let mut t = Table::new(["scan", "ms", "cache hits", "cache misses"]);
    t.row([
        "cold".to_owned(),
        format!("{cold_ms:.3}"),
        cold_stats.hits.to_string(),
        cold_stats.misses.to_string(),
    ]);
    t.row([
        "warm".to_owned(),
        format!("{warm_ms:.3}"),
        warm_stats.hits.to_string(),
        warm_stats.misses.to_string(),
    ]);
    t.print();

    let par_json = |runs: &[(usize, f64)]| -> String {
        runs.iter()
            .map(|&(threads, ms)| {
                format!(
                    "{{\"threads\": {threads}, \"ms\": {ms:.3}, \"speedup\": {:.3}}}",
                    seq_ms / ms
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Per-block latency percentiles from the metrics registry: everything
    // recorded since the experiment started.
    let obs_delta = avq_obs::global().snapshot().since(&obs_before);
    let families = [
        format!("{}.ns", avq_obs::names::SPAN_CODEC_ENCODE_BLOCK),
        format!("{}.ns", avq_obs::names::SPAN_CODEC_DECODE_BLOCK),
    ];
    let family_refs: Vec<&str> = families.iter().map(String::as_str).collect();
    let latency = avq_bench::report::latency_json(&obs_delta, &family_refs);
    let json = format!(
        "{{\n  \"experiment\": \"decode\",\n  \"tuples\": {n},\n  \"blocks\": {blocks},\n  \
         \"host_threads\": {host_threads},\n  \
         \"sequential_scalar_ms\": {scalar_ms:.3},\n  \"sequential_swar_ms\": {swar_ms:.3},\n  \
         \"swar_speedup\": {:.3},\n  \
         \"fresh_scratch_ms\": {fresh_ms:.3},\n  \"reused_scratch_ms\": {reused_ms:.3},\n  \
         \"sequential_decompress_ms\": {seq_ms:.3},\n  \
         \"parallel_decompress\": [{}],\n  \
         \"scan_cold_ms\": {cold_ms:.3},\n  \"scan_warm_ms\": {warm_ms:.3},\n  \
         \"cold_cache_misses\": {},\n  \
         \"warm_cache_hits\": {},\n  \"warm_cache_misses\": {},\n  \
         \"latency_ns\": {latency}\n}}\n",
        scalar_ms / swar_ms,
        par_json(&par_stealing),
        cold_stats.misses,
        warm_stats.hits,
        warm_stats.misses,
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap();
        }
    }
    std::fs::write(&json_path, json).unwrap();
    println!("\nwrote {json_path}");

    if std::env::var("AVQ_PERF_SMOKE").is_ok_and(|v| v == "1") {
        let slack = 1.05;
        if swar_ms > scalar_ms * slack {
            eprintln!(
                "perf smoke FAILED: swar {swar_ms:.3} ms > scalar {scalar_ms:.3} ms × {slack}"
            );
            std::process::exit(1);
        }
        println!(
            "perf smoke ok: swar {swar_ms:.3} ms vs scalar {scalar_ms:.3} ms ({:.2}×)",
            scalar_ms / swar_ms
        );
    }
}
