//! Criterion micro-benchmarks for the decode path: per-block decode with a
//! fresh scratch vs. the reusable [`DecodeScratch`], whole-relation
//! sequential vs. parallel decompression, and the decoded-block cache's
//! warm-hit path.

use avq_codec::{
    compress, decompress_parallel, BlockCodec, CodecOptions, CodingMode, DecodeScratch, RepChoice,
};
use avq_schema::{Schema, Tuple};
use avq_workload::SyntheticSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn sorted_tuples(n: usize) -> (Arc<Schema>, Vec<Tuple>) {
    let spec = SyntheticSpec::section_5_2(n);
    let schema = spec.schema();
    let mut tuples = spec.generate().into_tuples();
    tuples.sort_unstable();
    tuples.dedup();
    (schema, tuples)
}

/// Per-block streaming decode: allocating a scratch per call vs. reusing
/// one across calls. The delta is the zero-allocation path's win.
fn bench_decode_scratch(c: &mut Criterion) {
    let (schema, tuples) = sorted_tuples(4096);
    let run = &tuples[..400.min(tuples.len())];

    let mut g = c.benchmark_group("decode_scratch");
    g.throughput(Throughput::Elements(run.len() as u64));
    for mode in CodingMode::ALL {
        let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
        let coded = codec.encode(run).unwrap();
        g.bench_with_input(BenchmarkId::new("fresh", mode), &codec, |b, codec| {
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                codec.decode_into(black_box(&coded), &mut out).unwrap();
                black_box(&out);
            })
        });
        g.bench_with_input(BenchmarkId::new("reused", mode), &codec, |b, codec| {
            let mut out = Vec::new();
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                out.clear();
                codec
                    .decode_into_scratch(black_box(&coded), &mut out, &mut scratch)
                    .unwrap();
                black_box(&out);
            })
        });
    }
    g.finish();
}

/// Whole-relation decompression: sequential vs. striped across threads.
fn bench_decompress_parallel(c: &mut Criterion) {
    let spec = SyntheticSpec::section_5_2(20_000);
    let relation = spec.generate();
    let coded = compress(&relation, CodecOptions::default()).unwrap();

    let mut g = c.benchmark_group("decompress");
    g.throughput(Throughput::Elements(coded.tuple_count() as u64));
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(black_box(&coded).decompress().unwrap()))
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(decompress_parallel(black_box(&coded), threads).unwrap()))
            },
        );
    }
    g.finish();
}

/// The decoded-block cache hit path — the cached batch handed over and its
/// borrowed rows examined — vs. decoding the block from coded bytes.
fn bench_decoded_cache_hit(c: &mut Criterion) {
    use avq_schema::TupleBatch;
    use avq_storage::DecodedCache;

    let (schema, tuples) = sorted_tuples(4096);
    let run = &tuples[..400.min(tuples.len())];
    let arity = schema.arity();
    let codec = BlockCodec::new(schema);
    let coded = codec.encode(run).unwrap();
    let cache: DecodedCache<TupleBatch> = DecodedCache::new(4);
    cache.insert(0, Arc::new(TupleBatch::from_tuples(arity, run)));

    let mut g = c.benchmark_group("decoded_cache");
    g.throughput(Throughput::Elements(run.len() as u64));
    g.bench_function("hit_scan_rows", |b| {
        b.iter(|| {
            let cached = cache.get(black_box(0)).unwrap();
            let matched = cached.rows().filter(|row| row[arity - 1] == 7).count();
            black_box(matched);
        })
    });
    g.bench_function("miss_decode_block", |b| {
        let mut out = TupleBatch::new(arity);
        let mut scratch = DecodeScratch::new();
        b.iter(|| {
            out.clear();
            codec
                .decode_batch_into(black_box(&coded), &mut out, &mut scratch)
                .unwrap();
            black_box(&out);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_decode_scratch,
    bench_decompress_parallel,
    bench_decoded_cache_hit
);
criterion_main!(benches);
