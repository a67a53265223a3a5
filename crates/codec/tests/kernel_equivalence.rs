//! Differential tests pinning the scalar and SWAR decode kernels to each
//! other. The scalar kernel is the reference oracle: for every input —
//! valid, truncated, or bit-flipped — the SWAR kernel must return exactly
//! the same tuples on success and exactly the same [`CodecError`]
//! classification on failure. No input may make one kernel panic while the
//! other errors (both deny clippy's panic family).
//!
//! The same corpus pins the two decoded representations to each other: the
//! column-major [`TupleBatch`] path is the decoder, `decode()` / `decode_into()`
//! are materializing adapters over it, and both must report the same rows,
//! the same error, and leave their output exactly as it was on failure.

use avq_codec::{BlockCodec, CodecError, CodingMode, DecodeKernel, DecodeScratch, RepChoice};
use avq_schema::{Domain, Schema, Tuple, TupleBatch};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary schema (1–8 attributes, domain sizes 1–5000) together with
/// a sorted bag of valid tuples for it.
fn arb_schema_and_tuples() -> impl Strategy<Value = (Arc<Schema>, Vec<Tuple>)> {
    prop::collection::vec(1u64..5000, 1..8).prop_flat_map(|sizes| {
        let schema = Schema::from_pairs(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| (format!("a{i}"), Domain::uint(s).unwrap())),
        )
        .unwrap();
        let digit_strats: Vec<_> = sizes.iter().map(|&s| 0..s).collect();
        let tuples = prop::collection::vec(digit_strats, 1..120).prop_map(|rows| {
            let mut ts: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
            ts.sort_unstable();
            ts
        });
        (Just(schema), tuples)
    })
}

/// The same codec under both kernels, for every mode × representative.
fn kernel_pairs(schema: &Arc<Schema>) -> Vec<(BlockCodec, BlockCodec)> {
    let mut v = Vec::new();
    for mode in CodingMode::ALL {
        for rep in RepChoice::ALL {
            let base = BlockCodec::with_options(schema.clone(), mode, rep);
            v.push((
                base.clone().with_kernel(DecodeKernel::Scalar),
                base.with_kernel(DecodeKernel::Swar),
            ));
        }
    }
    v
}

/// Decodes `bytes` through the batch path onto a batch that already holds
/// a sentinel row and checks the error contract: the sentinel is never
/// disturbed, and a failed decode leaves nothing else behind.
fn decode_batch(
    codec: &BlockCodec,
    bytes: &[u8],
    scratch: &mut DecodeScratch,
    context: &str,
) -> Result<Result<Vec<Tuple>, CodecError>, TestCaseError> {
    let arity = codec.schema().arity();
    let sentinel = Tuple::new(vec![0; arity]);
    let mut batch = TupleBatch::from_tuples(arity, std::slice::from_ref(&sentinel));
    let result = codec.decode_batch_into(bytes, &mut batch, scratch);
    let rows = batch.to_tuples();
    prop_assert_eq!(&rows[0], &sentinel, "sentinel row disturbed ({})", context);
    if result.is_err() {
        prop_assert_eq!(rows.len(), 1, "failed decode left rows ({})", context);
    }
    Ok(result.map(|()| rows[1..].to_vec()))
}

/// Checks the `Vec<Tuple>` adapters against `expected`, the batch path's
/// outcome on the same bytes: same rows or same error, and on failure the
/// adapter's output is exactly what it was.
fn assert_adapters_match(
    codec: &BlockCodec,
    bytes: &[u8],
    scratch: &mut DecodeScratch,
    expected: &Result<Vec<Tuple>, CodecError>,
    context: &str,
) -> Result<(), TestCaseError> {
    let sentinel = Tuple::new(vec![0; codec.schema().arity()]);
    let mut out = vec![sentinel.clone()];
    let result = codec.decode_into_scratch(bytes, &mut out, scratch);
    prop_assert_eq!(
        &out[0],
        &sentinel,
        "adapter sentinel disturbed ({})",
        context
    );
    prop_assert_eq!(&result.map(|()| out.split_off(1)), expected, "{}", context);
    prop_assert_eq!(out.len(), 1, "adapter output disturbed ({})", context);
    prop_assert_eq!(&codec.decode(bytes), expected, "decode() ({})", context);
    Ok(())
}

/// Decodes `bytes` under both kernels and asserts the full results —
/// decoded tuples or error values — are identical; with `adapters`, also
/// that each kernel's `Vec<Tuple>` adapters agree with its batch path.
fn assert_kernels_agree(
    scalar: &BlockCodec,
    swar: &BlockCodec,
    bytes: &[u8],
    scratch: &mut DecodeScratch,
    adapters: bool,
    context: &str,
) -> Result<(), TestCaseError> {
    let ra = decode_batch(scalar, bytes, scratch, context)?;
    let rb = decode_batch(swar, bytes, scratch, context)?;
    prop_assert_eq!(
        &ra,
        &rb,
        "kernel divergence ({}, mode {:?})",
        context,
        scalar.mode()
    );
    if adapters {
        assert_adapters_match(scalar, bytes, scratch, &ra, context)?;
        assert_adapters_match(swar, bytes, scratch, &rb, context)?;
    }
    Ok(())
}

/// Byte positions the flip matrix (and the truncation test's adapter check)
/// visits in a `len`-byte block: every one under `AVQ_EXHAUSTIVE=1` (run
/// once in CI); otherwise the header and first representative bytes plus
/// ~24 evenly strided positions whose phase varies with the block, which
/// keeps the debug-build suite short while every region of the stream is
/// still hit across cases.
fn sampled_positions(len: usize) -> Vec<usize> {
    if std::env::var_os("AVQ_EXHAUSTIVE").is_some_and(|v| v == "1") {
        return (0..len).collect();
    }
    let step = (len / 24).max(1);
    (0..len)
        .filter(|i| *i < 8 || i % step == len % step)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On valid encodings, both kernels decode to exactly the input run —
    /// for every coding mode and representative policy.
    #[test]
    fn kernels_agree_on_valid_input((schema, tuples) in arb_schema_and_tuples()) {
        let mut scratch = DecodeScratch::new();
        for (scalar, swar) in kernel_pairs(&schema) {
            let coded = scalar.encode(&tuples).unwrap();
            assert_kernels_agree(&scalar, &swar, &coded, &mut scratch, true, "valid")?;
            let rows = decode_batch(&swar, &coded, &mut scratch, "valid")?;
            prop_assert_eq!(rows.as_ref(), Ok(&tuples), "mode {:?}", swar.mode());
        }
    }

    /// Byte-flip corruption matrix: flipping a byte of a valid encoding
    /// (both a full complement and a single-bit flip) must produce the
    /// same outcome from both kernels — same decoded tuples when the
    /// damage goes unnoticed, same `CodecError` (section, offset, and
    /// detail) when it is caught. No panics either way. Positions are
    /// sampled per case ([`sampled_positions`]); `AVQ_EXHAUSTIVE=1` sweeps
    /// every byte.
    #[test]
    fn kernels_agree_on_every_byte_flip((schema, tuples) in arb_schema_and_tuples()) {
        let mut scratch = DecodeScratch::new();
        for (scalar, swar) in kernel_pairs(&schema) {
            let coded = scalar.encode(&tuples).unwrap();
            let mut bad = coded.clone();
            for i in sampled_positions(coded.len()) {
                for mask in [0xFFu8, 0x01] {
                    bad[i] ^= mask;
                    assert_kernels_agree(
                        &scalar, &swar, &bad, &mut scratch, true,
                        &format!("byte {i} ^ {mask:#04x}"),
                    )?;
                    bad[i] = coded[i];
                }
            }
        }
    }

    /// Truncation at every length: both kernels must agree on every prefix
    /// of a valid encoding (the adapters are checked at sampled lengths).
    #[test]
    fn kernels_agree_on_truncation((schema, tuples) in arb_schema_and_tuples()) {
        let mut scratch = DecodeScratch::new();
        for (scalar, swar) in kernel_pairs(&schema) {
            let coded = scalar.encode(&tuples).unwrap();
            let sampled = sampled_positions(coded.len());
            for cut in 0..coded.len() {
                assert_kernels_agree(
                    &scalar, &swar, &coded[..cut], &mut scratch,
                    sampled.contains(&cut),
                    &format!("truncated to {cut}"),
                )?;
            }
        }
    }

    /// Fully arbitrary bytes: whatever the scalar kernel makes of them, the
    /// SWAR kernel must make of them too.
    #[test]
    fn kernels_agree_on_garbage(
        (schema, _tuples) in arb_schema_and_tuples(),
        bytes in prop::collection::vec(any::<u8>(), 0..384),
    ) {
        let mut scratch = DecodeScratch::new();
        for (scalar, swar) in kernel_pairs(&schema) {
            assert_kernels_agree(&scalar, &swar, &bytes, &mut scratch, true, "garbage")?;
        }
    }
}

/// Deterministic spot check: a wide-domain schema whose φ-distances exceed
/// one machine word, forcing the SWAR bit path through its big-value
/// (non-batched) branch as well as the batched one.
#[test]
fn kernels_agree_on_wide_domains() {
    let schema = Schema::from_pairs(vec![
        ("hi", Domain::uint(u64::MAX).unwrap()),
        ("mid", Domain::uint(u64::MAX).unwrap()),
        ("lo", Domain::uint(65536).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..200u64)
        .map(|i| {
            Tuple::from([
                i / 50,
                (i % 50).wrapping_mul(0x0123_4567_89AB_CDEF),
                i * 31 % 65536,
            ])
        })
        .collect();
    let mut sorted = tuples;
    sorted.sort_unstable();
    let mut scratch = DecodeScratch::new();
    for mode in CodingMode::ALL {
        let base = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
        let scalar = base.clone().with_kernel(DecodeKernel::Scalar);
        let swar = base.with_kernel(DecodeKernel::Swar);
        let coded = scalar.encode(&sorted).unwrap();
        let arity = schema.arity();
        let (mut a, mut b) = (TupleBatch::new(arity), TupleBatch::new(arity));
        scalar
            .decode_batch_into(&coded, &mut a, &mut scratch)
            .unwrap();
        swar.decode_batch_into(&coded, &mut b, &mut scratch)
            .unwrap();
        assert_eq!(a.to_tuples(), sorted, "scalar mode {mode:?}");
        assert_eq!(b.to_tuples(), sorted, "swar mode {mode:?}");
    }
}
