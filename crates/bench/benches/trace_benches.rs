//! Criterion benchmarks pinning the cost of the tracing layer on the query
//! path: one cold full-scan statement through `avq_sql::run_with` under the
//! default context (what every untraced query pays — each span site is one
//! branch) vs. a live recording context (the sampled-in cost: a span per
//! block read and per decode), plus the collector's fixed per-query cost.
//! The allocation budget of the disabled-context block read is a tier-1
//! test (`crates/db/tests/alloc_read_block.rs`).

use avq_bench::harness;
use avq_codec::CodingMode;
use avq_obs::{QueryCtx, SamplingPolicy, TraceCollector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// A cold `count(*)` scan: default context vs. a recording one. The <3%
/// tracing-off budget is the first against its pre-tracing baseline; the
/// gap between the two is what sampling a query in costs.
fn bench_trace_overhead(c: &mut Criterion) {
    let (_, relation) = harness::timing_relation(4096);
    let db = harness::load_database(&relation, CodingMode::AvqChained, 0.0);
    let stmt = format!("select count(*) from {}", harness::REL);

    let mut g = c.benchmark_group("trace_overhead");
    g.throughput(Throughput::Elements(relation.len() as u64));

    g.bench_function(BenchmarkId::new("cold_scan", "disabled"), |b| {
        let ctx = QueryCtx::default();
        b.iter(|| {
            db.drop_caches();
            black_box(avq_sql::run_with(&db, &stmt, &ctx).unwrap());
        })
    });

    g.bench_function(BenchmarkId::new("cold_scan", "recording"), |b| {
        let collector = TraceCollector::new(4, SamplingPolicy::Always);
        b.iter(|| {
            db.drop_caches();
            let ctx = QueryCtx::from(collector.begin());
            black_box(avq_sql::run_with(&db, &stmt, &ctx).unwrap());
            black_box(collector.finish(ctx.trace));
        })
    });

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
