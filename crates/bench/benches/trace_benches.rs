//! Criterion benchmarks pinning the cost of the tracing layer on the
//! decode hot path: per-block decode through the untraced entry point vs.
//! the traced entry point with a disabled context (must be free — this is
//! what every untraced query pays after the tracing refactor) vs. a live
//! recording context (the sampled-in cost), plus a counting-allocator
//! check that the disabled-context path keeps the steady-state budget of
//! at most one heap allocation per decoded *block*.

use avq_codec::{BlockCodec, CodingMode, DecodeKernel, DecodeScratch, RepChoice};
use avq_obs::{GovCtx, SamplingPolicy, TraceCollector, TraceCtx};
use avq_schema::{Schema, Tuple, TupleBatch};
use avq_workload::SyntheticSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Heap allocations observed process-wide, for the allocation-budget check.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`] with an allocation counter in front.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sorted_tuples(n: usize) -> (Arc<Schema>, Vec<Tuple>) {
    let spec = SyntheticSpec::section_5_2(n);
    let schema = spec.schema();
    let mut tuples = spec.generate().into_tuples();
    tuples.sort_unstable();
    tuples.dedup();
    (schema, tuples)
}

/// The query-facing decode entry point with *disabled* contexts must keep
/// the steady-state allocation budget of the plain batch path: at most one
/// heap allocation per block, in every mode under both kernels.
fn assert_disabled_trace_alloc_budget() {
    let (schema, tuples) = sorted_tuples(4096);
    let run = &tuples[..400.min(tuples.len())];
    let (ctx, gov) = (TraceCtx::disabled(), GovCtx::unlimited());
    for mode in CodingMode::ALL {
        for kernel in DecodeKernel::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median)
                .with_kernel(kernel);
            let coded = codec.encode(run).unwrap();
            let mut out = TupleBatch::new(schema.arity());
            let mut scratch = DecodeScratch::new();
            // Warm every buffer (scratch staging, output capacity).
            for _ in 0..3 {
                out.clear();
                codec
                    .decode_batch_into_governed(&coded, &mut out, &mut scratch, &ctx, &gov)
                    .unwrap();
            }
            const ROUNDS: u64 = 16;
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..ROUNDS {
                out.clear();
                codec
                    .decode_batch_into_governed(&coded, &mut out, &mut scratch, &ctx, &gov)
                    .unwrap();
                black_box(&out);
            }
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            let per_block = allocs as f64 / ROUNDS as f64;
            println!("traced-off {kernel} {mode} steady-state: {per_block:.2} allocs/block");
            assert!(
                per_block <= 1.0,
                "disabled-trace {kernel} decode ({mode}) allocated {per_block:.2} heap blocks per block (> 1)"
            );
        }
    }
}

/// Per-block SWAR decode: untraced vs. traced-with-disabled-context vs. a
/// live recording context. The first two are the comparison the <3%
/// tracing-off overhead budget is judged against.
fn bench_trace_overhead(c: &mut Criterion) {
    assert_disabled_trace_alloc_budget();

    let (schema, tuples) = sorted_tuples(4096);
    let run = &tuples[..400.min(tuples.len())];
    let codec = BlockCodec::with_options(schema.clone(), CodingMode::AvqChained, RepChoice::Median)
        .with_kernel(DecodeKernel::Swar);
    let coded = codec.encode(run).unwrap();

    let mut g = c.benchmark_group("trace_overhead");
    g.throughput(Throughput::Elements(run.len() as u64));

    g.bench_with_input(
        BenchmarkId::new("decode", "untraced"),
        &codec,
        |b, codec| {
            let mut out = TupleBatch::new(schema.arity());
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                out.clear();
                codec
                    .decode_batch_into(black_box(&coded), &mut out, &mut scratch)
                    .unwrap();
                black_box(&out);
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("decode", "disabled"),
        &codec,
        |b, codec| {
            let (ctx, gov) = (TraceCtx::disabled(), GovCtx::unlimited());
            let mut out = TupleBatch::new(schema.arity());
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                out.clear();
                codec
                    .decode_batch_into_governed(
                        black_box(&coded),
                        &mut out,
                        &mut scratch,
                        &ctx,
                        &gov,
                    )
                    .unwrap();
                black_box(&out);
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("decode", "recording"),
        &codec,
        |b, codec| {
            let collector = TraceCollector::new(4, SamplingPolicy::Always);
            let gov = GovCtx::unlimited();
            let mut out = TupleBatch::new(schema.arity());
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                let ctx = collector.begin();
                out.clear();
                codec
                    .decode_batch_into_governed(
                        black_box(&coded),
                        &mut out,
                        &mut scratch,
                        &ctx,
                        &gov,
                    )
                    .unwrap();
                black_box(collector.finish(ctx));
                black_box(&out);
            })
        },
    );

    g.finish();
}

/// Collector begin/record/finish round trip per sampling policy — the
/// fixed per-query cost of arming a trace before any work runs.
fn bench_collector_round_trip(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_collector");
    for (label, policy) in [
        ("always", SamplingPolicy::Always),
        ("one-in-64", SamplingPolicy::OneIn(64)),
    ] {
        g.bench_function(BenchmarkId::new("round_trip", label), |b| {
            let collector = TraceCollector::new(16, policy);
            b.iter(|| {
                let ctx = collector.begin();
                {
                    let span = ctx.span("bench.root");
                    span.attr("rows", 42u64);
                }
                black_box(collector.finish(ctx));
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_trace_overhead, bench_collector_round_trip);
criterion_main!(benches);
