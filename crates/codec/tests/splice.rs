//! Differential tests for the block splice (`update.rs`).
//!
//! The write path used to decode the block into `Vec<Tuple>`, edit the
//! vector, `measure` it and re-`encode` it. That body survives here as the
//! oracle: for every coding mode × representative policy × decode kernel, a
//! spliced block must decode to exactly what the oracle's block decodes to,
//! and in the modes whose coded size does not depend on the representative
//! (field-wise and the two chained ones) it must have the same length and
//! make the same overflow decision.

use avq_codec::{
    delete_from_block, delete_from_rows, insert_into_block, insert_into_rows, BlockCodec,
    CodecError, CodingMode, DecodeKernel, DecodeScratch, DeleteOutcome, InsertOutcome, RepChoice,
};
use avq_schema::{Domain, Schema, Tuple, TupleBatch};
use proptest::prelude::*;
use std::sync::Arc;

fn oracle_insert(
    codec: &BlockCodec,
    block: &[u8],
    tuple: &Tuple,
    capacity: usize,
) -> Result<InsertOutcome, CodecError> {
    let mut tuples = codec.decode(block)?;
    let pos = tuples.partition_point(|t| t <= tuple);
    tuples.insert(pos, tuple.clone());
    if codec.measure(&tuples) > capacity {
        return Ok(InsertOutcome::Overflow(tuples));
    }
    Ok(InsertOutcome::InPlace(codec.encode(&tuples)?))
}

fn oracle_delete(
    codec: &BlockCodec,
    block: &[u8],
    tuple: &Tuple,
) -> Result<DeleteOutcome, CodecError> {
    let mut tuples = codec.decode(block)?;
    let pos = tuples
        .binary_search(tuple)
        .map_err(|_| CodecError::TupleNotFound)?;
    tuples.remove(pos);
    if tuples.is_empty() {
        return Ok(DeleteOutcome::Emptied);
    }
    Ok(DeleteOutcome::InPlace(codec.encode(&tuples)?))
}

/// Every mode × representative policy × kernel for `schema`.
fn all_codecs(schema: &Arc<Schema>) -> Vec<BlockCodec> {
    let mut v = Vec::new();
    for mode in CodingMode::ALL {
        for rep in RepChoice::ALL {
            for kernel in DecodeKernel::ALL {
                v.push(BlockCodec::with_options(schema.clone(), mode, rep).with_kernel(kernel));
            }
        }
    }
    v
}

/// True for the modes whose coded size is independent of the
/// representative, where splice and oracle must agree byte count for byte
/// count.
fn size_is_rep_free(codec: &BlockCodec) -> bool {
    codec.mode() != CodingMode::Avq
}

fn rows_of(codec: &BlockCodec, block: &[u8]) -> TupleBatch {
    let mut rows = TupleBatch::new(codec.schema().arity());
    codec
        .decode_batch_into(block, &mut rows, &mut DecodeScratch::new())
        .unwrap();
    rows
}

/// Checks one insert of `t` into `block` (which holds `model`) against the
/// oracle and returns the spliced block when it fit.
fn check_insert(
    codec: &BlockCodec,
    block: &[u8],
    model: &[Tuple],
    t: &Tuple,
    capacity: usize,
) -> Option<Vec<u8>> {
    let ctx = format!(
        "{} / {} / {}",
        codec.mode(),
        codec.rep_choice(),
        codec.kernel()
    );
    let mut expect = model.to_vec();
    let pos = expect.partition_point(|x| x <= t);
    expect.insert(pos, t.clone());

    let rows = rows_of(codec, block);
    let spliced = insert_into_rows(codec, block, &rows, t, capacity).unwrap();
    assert_eq!(
        spliced.pos, pos,
        "{ctx}: a duplicate lands after its equals"
    );

    let got = insert_into_block(codec, block, t, capacity).unwrap();
    assert_eq!(
        spliced.bytes.as_ref(),
        match &got {
            InsertOutcome::InPlace(bytes) => Some(bytes),
            InsertOutcome::Overflow(_) => None,
        },
        "{ctx}: both entry points run the same core"
    );
    let oracle = oracle_insert(codec, block, t, capacity).unwrap();
    match (&got, &oracle) {
        (InsertOutcome::InPlace(a), InsertOutcome::InPlace(b)) => {
            assert_eq!(codec.decode(a).unwrap(), codec.decode(b).unwrap(), "{ctx}");
            if size_is_rep_free(codec) {
                assert_eq!(a.len(), b.len(), "{ctx}: coded length");
            }
        }
        (InsertOutcome::Overflow(a), InsertOutcome::Overflow(b)) => assert_eq!(a, b, "{ctx}"),
        _ => assert!(
            !size_is_rep_free(codec),
            "{ctx}: overflow decision differs from the oracle's"
        ),
    }
    match got {
        InsertOutcome::InPlace(bytes) => {
            assert!(bytes.len() <= capacity, "{ctx}");
            assert_eq!(codec.decode(&bytes).unwrap(), expect, "{ctx}");
            Some(bytes)
        }
        InsertOutcome::Overflow(tuples) => {
            assert_eq!(tuples, expect, "{ctx}");
            None
        }
    }
}

/// Checks one delete of `model[pos]` from `block` against the oracle and
/// returns the spliced block unless it emptied.
fn check_delete(codec: &BlockCodec, block: &[u8], model: &[Tuple], pos: usize) -> Option<Vec<u8>> {
    let ctx = format!(
        "{} / {} / {}",
        codec.mode(),
        codec.rep_choice(),
        codec.kernel()
    );
    let t = &model[pos];
    let mut expect = model.to_vec();
    expect.remove(pos);

    let got = delete_from_block(codec, block, t).unwrap();
    let oracle = oracle_delete(codec, block, t).unwrap();
    match (got, oracle) {
        (DeleteOutcome::Emptied, DeleteOutcome::Emptied) => {
            assert!(expect.is_empty(), "{ctx}");
            None
        }
        (DeleteOutcome::InPlace(a), DeleteOutcome::InPlace(b)) => {
            assert_eq!(codec.decode(&a).unwrap(), expect, "{ctx}");
            assert_eq!(codec.decode(&b).unwrap(), expect, "{ctx}");
            if size_is_rep_free(codec) {
                assert_eq!(a.len(), b.len(), "{ctx}: coded length");
            }
            Some(a)
        }
        (got, oracle) => panic!("{ctx}: splice {got:?}, oracle {oracle:?}"),
    }
}

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
        let tuples = prop::collection::vec(digit_strats, 1..80).prop_map(|rows| {
            let mut ts: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
            ts.sort_unstable();
            ts
        });
        (Just(schema), tuples)
    })
}

/// One step of an edit script: insert a tuple built from `digits` (or a
/// copy of an existing one), or delete the tuple at an index.
#[derive(Debug, Clone)]
enum Step {
    InsertNew(Vec<u64>),
    InsertCopy(prop::sample::Index),
    Delete(prop::sample::Index),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        prop::collection::vec(any::<u64>(), 8).prop_map(Step::InsertNew),
        any::<prop::sample::Index>().prop_map(Step::InsertCopy),
        any::<prop::sample::Index>().prop_map(Step::Delete),
    ];
    prop::collection::vec(step, 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A script of splices, each checked against the oracle, with the block
    /// carried from step to step — so the representative drifts off the
    /// policy's position the way it does between splits in a live block.
    #[test]
    fn spliced_blocks_match_the_oracle(
        (schema, tuples) in arb_schema_and_tuples(),
        steps in arb_steps(),
        slack in 0usize..48,
    ) {
        let radices = schema.radix().radices().to_vec();
        for codec in all_codecs(&schema) {
            let mut model = tuples.clone();
            let mut block = codec.encode(&model).unwrap();
            for step in &steps {
                let t = match step {
                    Step::InsertNew(digits) => Some(Tuple::new(
                        radices.iter().zip(digits).map(|(r, d)| d % r).collect(),
                    )),
                    Step::InsertCopy(i) => Some(model[i.index(model.len())].clone()),
                    Step::Delete(_) => None,
                };
                match (step, t) {
                    (Step::Delete(i), _) => {
                        let pos = i.index(model.len());
                        match check_delete(&codec, &block, &model, pos) {
                            Some(next) => {
                                model.remove(pos);
                                block = next;
                            }
                            // Emptied: start the next step from a fresh block.
                            None => {
                                model = tuples.clone();
                                block = codec.encode(&model).unwrap();
                            }
                        }
                    }
                    (_, Some(t)) => {
                        // A capacity near the current size exercises both
                        // outcomes; an overflow leaves the block as it was.
                        let capacity = block.len() + slack;
                        if let Some(next) = check_insert(&codec, &block, &model, &t, capacity) {
                            let pos = model.partition_point(|x| *x <= t);
                            model.insert(pos, t);
                            block = next;
                        }
                    }
                    (_, None) => unreachable!("inserts carry a tuple"),
                }
                if size_is_rep_free(&codec) {
                    prop_assert_eq!(block.len(), codec.measure(&model));
                }
            }
        }
    }

    /// Insert-then-delete restores the tuple set, wherever the tuple lands.
    #[test]
    fn insert_then_delete_restores_the_tuple_set(
        (schema, tuples) in arb_schema_and_tuples(),
        digits in prop::collection::vec(any::<u64>(), 8),
    ) {
        let t = Tuple::new(
            schema.radix().radices().iter().zip(&digits).map(|(r, d)| d % r).collect(),
        );
        for codec in all_codecs(&schema) {
            let block = codec.encode(&tuples).unwrap();
            let InsertOutcome::InPlace(with_t) =
                insert_into_block(&codec, &block, &t, usize::MAX).unwrap()
            else {
                panic!("capacity is unbounded");
            };
            let DeleteOutcome::InPlace(back) = delete_from_block(&codec, &with_t, &t).unwrap()
            else {
                panic!("block had at least two tuples");
            };
            prop_assert_eq!(codec.decode(&back).unwrap(), tuples.clone());
        }
    }
}

fn employee_schema() -> Arc<Schema> {
    Schema::from_pairs(vec![
        ("a1", Domain::uint(8).unwrap()),
        ("a2", Domain::uint(16).unwrap()),
        ("a3", Domain::uint(64).unwrap()),
        ("a4", Domain::uint(64).unwrap()),
        ("a5", Domain::uint(64).unwrap()),
    ])
    .unwrap()
}

/// `n` tuples of the employee schema spread over its 2²⁵-point space with
/// uneven gaps, plus a few duplicates.
fn employee_run(n: u64) -> Vec<Tuple> {
    let schema = employee_schema();
    let stretch = (1 << 24) / (n * n);
    let mut tuples: Vec<Tuple> = (0..n)
        .map(|i| {
            let phi = avq_num::BigUnsigned::from_u64(1_000 + i * i * stretch + (i % 3) * 4_099);
            Tuple::new(schema.radix().unrank(&phi).unwrap())
        })
        .collect();
    tuples.extend_from_slice(&tuples.clone()[..n as usize / 8]);
    tuples.sort_unstable();
    tuples
}

#[test]
fn pinned_deletes_of_representative_first_last_and_only() {
    let schema = employee_schema();
    let tuples = employee_run(40);
    for codec in all_codecs(&schema) {
        let block = codec.encode(&tuples).unwrap();
        let rep = match codec.mode() {
            CodingMode::FieldWise => 0,
            _ => codec.rep_choice().index(tuples.len()),
        };
        for pos in [rep, 0, tuples.len() - 1] {
            check_delete(&codec, &block, &tuples, pos).expect("39 tuples remain");
        }
        // Delete the representative again and again until one tuple is
        // left: every promotion (successor, then predecessor at the end of
        // the run) and every re-base is exercised.
        let (mut model, mut cur) = (tuples.clone(), block);
        while model.len() > 1 {
            let (_, rep_idx) = header(&cur);
            let at = if codec.mode() == CodingMode::FieldWise {
                model.len() - 1
            } else {
                rep_idx
            };
            cur = check_delete(&codec, &cur, &model, at).expect("not yet empty");
            model.remove(at);
        }
        assert_eq!(check_delete(&codec, &cur, &model, 0), None, "only tuple");
    }
}

fn header(block: &[u8]) -> (usize, usize) {
    (
        u16::from_le_bytes([block[0], block[1]]) as usize,
        u16::from_le_bytes([block[2], block[3]]) as usize,
    )
}

/// Every splice position of one block, per codec: a copy of each tuple
/// (lands after its equals), a tuple strictly inside each gap, one below
/// the first and one above the last; then every delete position. Tier-1
/// sweeps a 40-tuple block; `AVQ_EXHAUSTIVE=1` a 700-tuple one (the decode
/// kernel does not reach the splice, so one kernel suffices).
#[test]
fn every_splice_position_of_one_block() {
    let schema = employee_schema();
    let exhaustive = std::env::var_os("AVQ_EXHAUSTIVE").is_some();
    let tuples = employee_run(if exhaustive { 700 } else { 40 });
    let radix = schema.radix();
    let default_kernel = |c: &BlockCodec| c.kernel() == DecodeKernel::default();
    for codec in all_codecs(&schema).into_iter().filter(default_kernel) {
        let block = codec.encode(&tuples).unwrap();
        let mut inserts = vec![
            Tuple::new(radix.min_digits()),
            Tuple::new(radix.max_digits()),
        ];
        for w in tuples.windows(2) {
            inserts.push(w[0].clone());
            if let Some(between) = radix.successor(w[0].digits()).map(Tuple::new) {
                if between < w[1] {
                    inserts.push(between);
                }
            }
        }
        for t in &inserts {
            let with_t = check_insert(&codec, &block, &tuples, t, usize::MAX).expect("unbounded");
            // Exact-fit capacity is in place, one byte less overflows —
            // where the size does not depend on the representative.
            if size_is_rep_free(&codec) {
                assert!(check_insert(&codec, &block, &tuples, t, with_t.len()).is_some());
                assert!(check_insert(&codec, &block, &tuples, t, with_t.len() - 1).is_none());
            }
        }
        for pos in 0..tuples.len() {
            check_delete(&codec, &block, &tuples, pos).expect("others remain");
        }
    }
}

#[test]
fn corrupt_blocks_yield_typed_errors_never_a_block() {
    let schema = employee_schema();
    let tuples = employee_run(24);
    let m = schema.tuple_bytes();
    let t = tuples[5].clone();
    for codec in all_codecs(&schema) {
        let ctx = format!("{} / {}", codec.mode(), codec.rep_choice());
        let good = codec.encode(&tuples).unwrap();
        let rows = rows_of(&codec, &good);
        let mut damaged: Vec<(&str, Vec<u8>)> = Vec::new();
        // The header disagrees with the rows the caller holds.
        let mut bad = good.clone();
        bad[0] += 1;
        damaged.push(("count", bad));
        damaged.push(("short header", good[..3].to_vec()));
        if codec.mode() != CodingMode::FieldWise {
            let mut bad = good.clone();
            bad[2..4].copy_from_slice(&(tuples.len() as u16).to_le_bytes());
            damaged.push(("rep_idx >= count", bad));
        }
        if matches!(codec.mode(), CodingMode::Avq | CodingMode::AvqChained) {
            // The first entry's count byte claims more zeros than a tuple
            // has bytes.
            let mut bad = good.clone();
            bad[4 + m] = m as u8 + 1;
            damaged.push(("count byte > m", bad));
            damaged.push(("truncated tail", good[..good.len() - 1].to_vec()));
            damaged.push(("truncated representative", good[..4 + m - 1].to_vec()));
        }
        if codec.mode() == CodingMode::FieldWise {
            damaged.push(("truncated body", good[..good.len() - 1].to_vec()));
        }
        for (what, bad) in &damaged {
            for result in [
                insert_into_rows(&codec, bad, &rows, &t, usize::MAX).map(|s| s.bytes),
                delete_from_rows(&codec, bad, &rows, &t).map(|s| s.bytes),
            ] {
                assert!(
                    matches!(result, Err(CodecError::Corrupt { .. })),
                    "{ctx}: {what}: {result:?}"
                );
            }
            // Through the byte-only signatures the decode rejects it first.
            assert!(
                insert_into_block(&codec, bad, &t, usize::MAX).is_err(),
                "{ctx}: {what}"
            );
            assert!(delete_from_block(&codec, bad, &t).is_err(), "{ctx}: {what}");
        }
        // Untouched bytes still splice.
        assert!(insert_into_rows(&codec, &good, &rows, &t, usize::MAX).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary damage to the bytes under valid rows: an error or a block,
    /// never a panic, and a block never longer than the capacity.
    #[test]
    fn mutated_bytes_under_valid_rows_never_panic(
        (schema, tuples) in arb_schema_and_tuples(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
        cut in any::<prop::sample::Index>(),
        pick in any::<prop::sample::Index>(),
    ) {
        let t = tuples[pick.index(tuples.len())].clone();
        for codec in all_codecs(&schema) {
            let good = codec.encode(&tuples).unwrap();
            let rows = rows_of(&codec, &good);
            let mut bad = good.clone();
            for (at, mask) in &flips {
                let i = at.index(bad.len());
                bad[i] ^= mask;
            }
            for bytes in [&bad[..], &good[..cut.index(good.len())]] {
                let capacity = good.len() + 8;
                if let Ok(s) = insert_into_rows(&codec, bytes, &rows, &t, capacity) {
                    prop_assert!(s.bytes.is_none_or(|b| b.len() <= capacity));
                }
                let _ = delete_from_rows(&codec, bytes, &rows, &t);
                let _ = insert_into_block(&codec, bytes, &t, capacity);
                let _ = delete_from_block(&codec, bytes, &t);
            }
        }
    }
}
