//! Shared by the counting-allocator tests: the allocator, the relation
//! they code, and the per-block bound of the batch decode path. Each test is the
//! only one in its binary so no concurrent test thread can perturb the
//! counters.

use avq_codec::{compress, CodecOptions, CodedRelation, CodingMode};
use avq_schema::{Domain, Relation, Schema, Tuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (alloc + realloc) so far.
#[allow(dead_code)] // alloc_untrusted bounds sizes, not counts
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The largest single alloc/realloc request, in bytes, since the last
/// call; reading it starts a new window.
#[allow(dead_code)] // only alloc_untrusted bounds sizes
pub fn take_largest_request() -> u64 {
    LARGEST.swap(0, Ordering::Relaxed)
}

pub const N: u64 = 100_000;

/// Allocations the batch path may spend per block once its scratch and
/// output batch are warm. Steady state needs none; one is slack for a
/// buffer that still has to grow.
#[allow(dead_code)] // the encode twin has its own bound
pub const PER_BLOCK: u64 = 1;

/// The 10⁵-tuple relation the tests code and decode.
pub fn relation() -> Relation {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(256).unwrap()),
        ("c", Domain::uint(4096).unwrap()),
        ("d", Domain::uint(65536).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..N)
        .map(|i| {
            Tuple::from([
                (i / 4096) % 64,
                (i * 7) % 256,
                (i * 31) % 4096,
                (i * 131) % 65536,
            ])
        })
        .collect();
    Relation::from_tuples(schema, tuples).unwrap()
}

/// `rel` coded in `mode` (the decode kernel is chosen on the codec).
pub fn coded(rel: &Relation, mode: CodingMode) -> CodedRelation {
    let options = CodecOptions {
        mode,
        ..CodecOptions::default()
    };
    let coded = compress(rel, options).unwrap();
    assert_eq!(coded.tuple_count(), N as usize);
    assert!(coded.block_count() > 1);
    coded
}
