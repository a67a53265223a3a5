//! Criterion micro-benchmarks for the decode kernels: scalar vs SWAR
//! per-block decode across coding modes, and a counting-allocator
//! check that the steady-state batch decode path performs at most one heap
//! allocation per *block* in every mode under both kernels — and its
//! `Vec<Tuple>` adapter at most one per decoded tuple (the tuple's own
//! digit storage).

use avq_codec::{BlockCodec, CodingMode, DecodeKernel, DecodeScratch, RepChoice};
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

/// Steady-state allocation budget: with a warmed scratch and a reused
/// output, decoding a block into a [`TupleBatch`] must allocate at most
/// once per block (steady state needs nothing at all), and through the
/// `Vec<Tuple>` adapter at most one heap block per tuple (each `Tuple`'s
/// digit storage) — staging buffers are reused, never reallocated.
fn assert_decode_alloc_budget() {
    let (schema, tuples) = sorted_tuples(4096);
    let run = &tuples[..400.min(tuples.len())];
    const ROUNDS: u64 = 16;
    for mode in CodingMode::ALL {
        for kernel in DecodeKernel::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median)
                .with_kernel(kernel);
            let coded = codec.encode(run).unwrap();
            let mut rows = TupleBatch::new(schema.arity());
            let mut out: Vec<Tuple> = Vec::new();
            let mut scratch = DecodeScratch::new();
            // Warm every buffer (scratch staging, output capacity).
            for _ in 0..3 {
                rows.clear();
                out.clear();
                codec
                    .decode_batch_into(&coded, &mut rows, &mut scratch)
                    .unwrap();
                codec
                    .decode_into_scratch(&coded, &mut out, &mut scratch)
                    .unwrap();
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..ROUNDS {
                rows.clear();
                codec
                    .decode_batch_into(&coded, &mut rows, &mut scratch)
                    .unwrap();
                black_box(&rows);
            }
            let per_block = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / ROUNDS as f64;
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..ROUNDS {
                out.clear();
                codec
                    .decode_into_scratch(&coded, &mut out, &mut scratch)
                    .unwrap();
                black_box(&out);
            }
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            let per_tuple = allocs as f64 / (ROUNDS * run.len() as u64) as f64;
            println!(
                "{kernel} {mode} steady-state: {per_block:.2} allocs/block (batch), \
                 {per_tuple:.3} allocs/tuple (Vec<Tuple> adapter)"
            );
            assert!(
                per_block <= 1.0,
                "{kernel} batch decode ({mode}) allocated {per_block:.2} heap blocks per block (> 1)"
            );
            assert!(
                per_tuple <= 1.0,
                "{kernel} adapter decode ({mode}) allocated {per_tuple:.3} heap blocks per tuple (> 1)"
            );
        }
    }
}

/// Per-block decode under each kernel, for every coding mode.
fn bench_kernel_decode(c: &mut Criterion) {
    assert_decode_alloc_budget();

    let (schema, tuples) = sorted_tuples(4096);
    let run = &tuples[..400.min(tuples.len())];

    let mut g = c.benchmark_group("kernel_decode");
    g.throughput(Throughput::Elements(run.len() as u64));
    for mode in CodingMode::ALL {
        for kernel in DecodeKernel::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median)
                .with_kernel(kernel);
            let coded = codec.encode(run).unwrap();
            g.bench_with_input(BenchmarkId::new(kernel, mode), &codec, |b, codec| {
                let mut out = TupleBatch::new(schema.arity());
                let mut scratch = DecodeScratch::new();
                b.iter(|| {
                    out.clear();
                    codec
                        .decode_batch_into(black_box(&coded), &mut out, &mut scratch)
                        .unwrap();
                    black_box(&out);
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_kernel_decode);
criterion_main!(benches);
