//! Allocation accounting for the *governed* decode path with governance
//! disabled: `decode_batch_into_governed` under an unlimited
//! [`avq_obs::GovCtx`] and a disabled [`avq_obs::TraceCtx`] must cost the
//! same small constant per block as the plain batch path — a disabled
//! context is one branch per block, never an allocation.
//! Counting-allocator twin of `alloc_decode.rs`.

mod alloc_common;

use alloc_common::{allocs, coded, relation, CountingAlloc, PER_BLOCK};
use avq_codec::{CodingMode, DecodeKernel, DecodeScratch};
use avq_obs::{GovCtx, TraceCtx};
use avq_schema::TupleBatch;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_governance_decode_allocates_one_vec_per_tuple() {
    let ctx = TraceCtx::disabled();
    let gov = GovCtx::unlimited();

    let rel = relation();
    let coded_modes = CodingMode::ALL.map(|mode| (mode, coded(&rel, mode)));
    for ((mode, coded), kernel) in coded_modes
        .iter()
        .flat_map(|m| DecodeKernel::ALL.map(|kernel| (m, kernel)))
    {
        let codec = coded.codec().with_kernel(kernel);
        let blocks = coded.block_count() as u64;
        let mut scratch = DecodeScratch::new();
        let mut rows = TupleBatch::new(coded.schema().arity());
        let largest = (0..coded.block_count())
            .max_by_key(|&i| codec.tuple_count(coded.block(i)).unwrap())
            .unwrap();
        codec
            .decode_batch_into_governed(coded.block(largest), &mut rows, &mut scratch, &ctx, &gov)
            .unwrap();

        let before = allocs();
        for i in 0..coded.block_count() {
            rows.clear();
            codec
                .decode_batch_into_governed(coded.block(i), &mut rows, &mut scratch, &ctx, &gov)
                .unwrap();
        }
        let during = allocs() - before;
        assert!(
            during <= PER_BLOCK * blocks,
            "{mode} / {kernel}: governed batch decode allocated {during} times for {blocks} blocks"
        );
    }
}
