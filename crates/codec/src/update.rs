//! In-block tuple insertion and deletion (§4.2, Fig. 4.6).
//!
//! An update is confined to the affected block and, inside it, to the
//! entries next to the tuple — Fig. 4.6 marks every other entry
//! "unchanged". Given the block's bytes and its decoded rows, [`splice`]
//! finds the tuple's φ position by binary search over the rows, builds the
//! at most two new difference entries from the two neighbours, finds the
//! affected entries' byte range by hopping count bytes, and emits
//! prefix ‖ new entries ‖ suffix with the header patched:
//!
//! * field-wise — one fixed-width record moves in or out;
//! * [`CodingMode::AvqChained`] — an insert replaces the gap it lands in by
//!   two, a delete merges two gaps into one; the entries do not depend on
//!   which tuple is the representative, so the header's `rep_idx` and the
//!   representative row move to the edited run's
//!   [`crate::RepChoice::index`] at no extra cost;
//! * [`CodingMode::Avq`] — one entry against the unchanged representative
//!   is added or removed while that representative stays at the edited
//!   run's [`crate::RepChoice::index`]; when it would not (about every
//!   other edit, and always when the representative itself is deleted)
//!   every entry is re-based, so the block is re-encoded;
//! * [`CodingMode::AvqChainedBits`] — entries are not byte-aligned, so the
//!   block is re-encoded from the rows.
//!
//! Every mode's result is therefore byte-identical to a fresh encode of the
//! edited run: a block a write left behind verifies like one bulk load
//! wrote, so a checkpoint can copy it as it is.
//!
//! Nothing on this path builds a `Vec<Tuple>`. If the spliced stream no
//! longer fits the block capacity the caller decides placement (typically a
//! block split at the storage layer).

use crate::block::{read_header, write_header, BlockCodec, DecodeScratch, BLOCK_HEADER_BYTES};
use crate::error::{CodecError, Section};
use crate::mode::CodingMode;
use crate::rle;
use avq_obs::names;
use avq_schema::{Tuple, TupleBatch};
use core::cmp::Ordering;

/// Result of inserting into a coded block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The re-coded block fits the capacity.
    InPlace(Vec<u8>),
    /// The updated tuple set no longer fits one block; the caller must
    /// re-pack these (φ-sorted) tuples into multiple blocks.
    Overflow(Vec<Tuple>),
}

/// Result of deleting from a coded block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The re-coded block (still non-empty).
    InPlace(Vec<u8>),
    /// The deleted tuple was the block's last; the block should be freed.
    Emptied,
}

/// What [`insert_into_rows`] / [`delete_from_rows`] did to a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spliced {
    /// Row index the tuple was inserted before (after any equal rows), or
    /// the row index that was deleted.
    pub pos: usize,
    /// The block's new bytes. `None` when there is no such block: the
    /// insert overflowed the capacity (or the tuple-count field), or the
    /// delete removed the last tuple.
    pub bytes: Option<Vec<u8>>,
}

/// Inserts `tuple` into a coded block whose decoded `rows` the caller
/// already holds (a resident decoded-cache entry), preserving φ order
/// (Fig. 4.6). `rows` must be the φ-sorted decode of `block`. Duplicates
/// are allowed (relations are bags); the new tuple is placed after any
/// equal tuples.
pub fn insert_into_rows(
    codec: &BlockCodec,
    block: &[u8],
    rows: &TupleBatch,
    tuple: &Tuple,
    capacity: usize,
) -> Result<Spliced, CodecError> {
    codec
        .schema()
        .validate_tuple(tuple)
        .map_err(|e| CodecError::InvalidTuple {
            position: 0,
            detail: e.to_string(),
        })?;
    let row = tuple.digits();
    let pos = rows.partition_point(row, Ordering::is_le);
    let bytes = splice(codec, block, rows, pos, Some(row), capacity)?;
    Ok(Spliced { pos, bytes })
}

/// Deletes one occurrence of `tuple` from a coded block whose decoded
/// `rows` the caller already holds. `rows` must be the φ-sorted decode of
/// `block`.
pub fn delete_from_rows(
    codec: &BlockCodec,
    block: &[u8],
    rows: &TupleBatch,
    tuple: &Tuple,
) -> Result<Spliced, CodecError> {
    let row = tuple.digits();
    let pos = rows.partition_point(row, Ordering::is_lt);
    if pos >= rows.len() || rows.cmp_row(pos, row) != Ordering::Equal {
        return Err(CodecError::TupleNotFound);
    }
    let bytes = splice(codec, block, rows, pos, None, usize::MAX)?;
    Ok(Spliced { pos, bytes })
}

/// Inserts `tuple` into a coded block, preserving φ order (Fig. 4.6).
/// Duplicates are allowed (relations are bags); the new tuple is placed
/// after any equal tuples.
pub fn insert_into_block(
    codec: &BlockCodec,
    block: &[u8],
    tuple: &Tuple,
    capacity: usize,
) -> Result<InsertOutcome, CodecError> {
    let rows = decode_rows(codec, block)?;
    let Spliced { pos, bytes } = insert_into_rows(codec, block, &rows, tuple, capacity)?;
    Ok(match bytes {
        Some(coded) => InsertOutcome::InPlace(coded),
        None => {
            let mut tuples = rows.to_tuples();
            tuples.insert(pos, tuple.clone());
            InsertOutcome::Overflow(tuples)
        }
    })
}

/// Deletes one occurrence of `tuple` from a coded block.
pub fn delete_from_block(
    codec: &BlockCodec,
    block: &[u8],
    tuple: &Tuple,
) -> Result<DeleteOutcome, CodecError> {
    let rows = decode_rows(codec, block)?;
    Ok(match delete_from_rows(codec, block, &rows, tuple)?.bytes {
        Some(coded) => DeleteOutcome::InPlace(coded),
        None => DeleteOutcome::Emptied,
    })
}

/// Row `i` of `rows`, gathered out of its columns.
fn row_of(rows: &TupleBatch, i: usize) -> Vec<u64> {
    // lint: bounded(one row of ordinals, schema arity)
    let mut row = vec![0; rows.arity()];
    rows.row_into(i, &mut row);
    row
}

fn decode_rows(codec: &BlockCodec, block: &[u8]) -> Result<TupleBatch, CodecError> {
    let mut rows = TupleBatch::new(codec.schema().arity());
    codec.decode_batch_into(block, &mut rows, &mut DecodeScratch::new())?;
    Ok(rows)
}

/// The one write core: `block` with `insert` spliced in before row `pos`,
/// or — when `insert` is `None` — with row `pos` spliced out. Returns
/// `None` when the edited run has no coded block: it is empty, or it
/// exceeds `capacity` or the header's 16-bit tuple count.
///
/// `rows` is trusted (it came from a verified decode or an earlier splice);
/// `block` is not: its header must agree with `rows` and every count byte
/// hopped over must fit the tuple width and the buffer.
fn splice(
    codec: &BlockCodec,
    block: &[u8],
    rows: &TupleBatch,
    pos: usize,
    insert: Option<&[u64]>,
    capacity: usize,
) -> Result<Option<Vec<u8>>, CodecError> {
    let _span = avq_obs::span!(names::SPAN_CODEC_SPLICE_BLOCK);
    let schema = codec.schema();
    debug_assert_eq!(rows.arity(), schema.arity());
    let m = schema.tuple_bytes();
    let (count, rep_idx) = read_header(block)?;
    let u = rows.len();
    if count != u || u == 0 {
        return Err(CodecError::Corrupt {
            section: Section::Header,
            offset: 0,
            detail: format!("block of {count} tuples spliced with {u} decoded rows"),
        });
    }
    let new_u = if insert.is_some() { u + 1 } else { u - 1 };
    if new_u == 0 || new_u > u16::MAX as usize {
        return Ok(None);
    }
    // The splice point's neighbours.
    let next_at = pos + usize::from(insert.is_none());
    // Both gathered into one buffer: `prev` then `next`.
    let n = rows.arity();
    // lint: bounded(three rows of ordinals, schema arity)
    let mut around = vec![0; 3 * n];
    let (prev_buf, rest) = around.split_at_mut(n);
    let (next_buf, rep_buf) = rest.split_at_mut(n);
    let prev = pos.checked_sub(1).map(|i| {
        rows.row_into(i, prev_buf);
        &*prev_buf
    });
    let next = (next_at < u).then(|| {
        rows.row_into(next_at, next_buf);
        &*next_buf
    });

    if codec.mode() == CodingMode::FieldWise {
        let body = block
            .get(BLOCK_HEADER_BYTES..BLOCK_HEADER_BYTES + u * m)
            .ok_or_else(|| CodecError::Corrupt {
                section: Section::Body,
                offset: BLOCK_HEADER_BYTES,
                detail: format!("field-wise body truncated: need {} bytes", u * m),
            })?;
        let new_len = BLOCK_HEADER_BYTES + new_u * m;
        if new_len > capacity {
            return Ok(None);
        }
        // lint: bounded(at most capacity, checked above)
        let mut out = Vec::with_capacity(new_len);
        write_header(&mut out, new_u, 0);
        out.extend_from_slice(body.get(..pos * m).unwrap_or_default());
        if let Some(row) = insert {
            schema.write_row(row, &mut out);
        }
        out.extend_from_slice(body.get(next_at * m..).unwrap_or_default());
        return Ok(Some(out));
    }

    if rep_idx >= u {
        return Err(CodecError::Corrupt {
            section: Section::Header,
            offset: 2,
            detail: format!("rep_idx {rep_idx} out of range for {u} tuples"),
        });
    }
    // Where the representative lands in the edited run when it stays the
    // same tuple, and where a fresh encode would put it.
    let kept_rep_idx = match insert {
        Some(_) => Some(rep_idx + usize::from(pos <= rep_idx)),
        None if pos == rep_idx => None,
        None => Some(rep_idx - usize::from(pos < rep_idx)),
    };
    let canonical = codec.rep_choice().index(new_u);
    let rebase = codec.mode() == CodingMode::Avq && kept_rep_idx != Some(canonical);
    let entries_at = BLOCK_HEADER_BYTES + m;
    if rebase {
        // The re-encode reads only the rows, but the bytes it replaces are
        // checked as a splice checks them: every entry must be hopped.
        let mut at = entries_at;
        for _ in 1..u {
            at = rle::skip_entry(schema, block, at)?;
        }
    }
    if codec.mode() == CodingMode::AvqChainedBits || rebase {
        // The edited run, gathered row after row for the encoder.
        // lint: bounded(the edited run: at most u16::MAX rows, checked above)
        let mut flat = Vec::with_capacity(new_u * n);
        // lint: bounded(one row of ordinals, schema arity)
        let mut row = vec![0; n];
        for i in (0..pos).chain(next_at..u) {
            if i == next_at {
                flat.extend(insert.unwrap_or_default());
            }
            rows.row_into(i, &mut row);
            flat.extend_from_slice(&row);
        }
        if next_at == u {
            flat.extend(insert.unwrap_or_default());
        }
        let edited = (0..new_u).map(|k| flat.get(k * n..(k + 1) * n).unwrap_or_default());
        let mut out = Vec::new();
        codec.encode_rows(new_u, edited, &mut out);
        return Ok((out.len() <= capacity).then_some(out));
    }

    let rep_bytes =
        block
            .get(BLOCK_HEADER_BYTES..entries_at)
            .ok_or_else(|| CodecError::Corrupt {
                section: Section::Representative,
                offset: BLOCK_HEADER_BYTES,
                detail: "representative tuple truncated".into(),
            })?;
    // The representative row, which an un-chained entry is measured from.
    let rep_row = match codec.mode() {
        CodingMode::Avq => row_of(rows, rep_idx),
        _ => Vec::new(),
    };
    // Old entries [first, first + replaced) give way to the differences of
    // `fresh` (each pair in either order).
    let (first, replaced, fresh) = if codec.mode() == CodingMode::AvqChained {
        // Entry k is the gap between rows k and k + 1.
        let first = pos.saturating_sub(1);
        match insert {
            Some(row) => (
                first,
                usize::from(prev.is_some() && next.is_some()),
                [prev.map(|p| (p, row)), next.map(|nx| (row, nx))],
            ),
            None => (
                first,
                usize::from(prev.is_some()) + usize::from(next.is_some()),
                [prev.zip(next), None],
            ),
        }
    } else {
        // Entry k is row k's distance from the representative before it,
        // row k + 1's after it.
        match insert {
            Some(row) => (
                pos - usize::from(pos > rep_idx),
                0,
                [Some((row, rep_row.as_slice())), None],
            ),
            None => (pos - usize::from(pos > rep_idx), 1, [None, None]),
        }
    };
    // Un-chained, the representative stays the same tuple, which the
    // re-base above left only where it is canonical. Chained, the
    // canonical row of the edited run becomes the representative.
    let new_rep = match (codec.mode(), insert) {
        (CodingMode::Avq, _) => None,
        (_, Some(row)) if canonical == pos => Some(row),
        _ => {
            let from = match insert {
                _ if canonical < pos => canonical,
                Some(_) => canonical - 1,
                None => canonical + 1,
            };
            rows.row_into(from, rep_buf);
            Some(&*rep_buf)
        }
    };

    let (mut at, mut lo, mut hi) = (entries_at, entries_at, entries_at);
    for k in 0..u {
        if k == first {
            lo = at;
        }
        if k == first + replaced {
            hi = at;
        }
        if k + 1 < u {
            at = rle::skip_entry(schema, block, at)?;
        }
    }
    let end = at;

    let mut diff = Vec::new();
    let mut coded = Vec::new();
    for (a, b) in fresh.into_iter().flatten() {
        schema.radix().abs_diff_into(a, b, &mut diff);
        rle::write_entry(schema, &diff, &mut coded);
    }
    let new_len = end - (hi - lo) + coded.len();
    if new_len > capacity {
        return Ok(None);
    }
    // lint: bounded(at most capacity, checked above)
    let mut out = Vec::with_capacity(new_len);
    write_header(&mut out, new_u, canonical);
    match new_rep {
        Some(row) => schema.write_row(row, &mut out),
        None => out.extend_from_slice(rep_bytes),
    }
    out.extend_from_slice(block.get(entries_at..lo).unwrap_or_default());
    out.extend_from_slice(&coded);
    out.extend_from_slice(block.get(hi..end).unwrap_or_default());
    debug_assert_eq!(out.len(), new_len);
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_HEADER_BYTES;
    use avq_schema::{Domain, Schema};
    use std::sync::Arc;

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

    /// The 4th block of Fig. 2.2 (c), which Fig. 4.6 inserts into.
    fn paper_block_tuples() -> Vec<Tuple> {
        vec![
            Tuple::from([3u64, 8, 32, 25, 19]),
            Tuple::from([3u64, 8, 32, 34, 12]),
            Tuple::from([3u64, 8, 36, 39, 35]),
            Tuple::from([3u64, 9, 24, 32, 0]),
            Tuple::from([3u64, 9, 26, 27, 37]),
        ]
    }

    #[test]
    fn fig4_6_insertion() {
        // The paper inserts "(3,08,32,25,64)" with φ = 14 812 800. Digit 64
        // is outside |A₅| = 64 — the figure uses a non-normalized digit
        // vector; its normalized equivalent at the same φ is (3,08,32,26,00).
        // After insertion the figure shows the re-coded block
        //   (0,00,00,00,45) (0,00,00,08,12) (0,00,04,05,23)
        //   rep (3,08,36,39,35)
        //   (0,00,51,56,29) (0,00,01,59,37)
        let codec = BlockCodec::new(employee_schema());
        let block = codec.encode(&paper_block_tuples()).unwrap();
        let new_tuple = Tuple::from([3u64, 8, 32, 26, 0]);
        assert_eq!(
            codec.schema().phi(&new_tuple).to_u64(),
            Some(14_812_800),
            "normalized tuple sits at the paper's φ"
        );
        let out = insert_into_block(&codec, &block, &new_tuple, 8192).unwrap();
        let InsertOutcome::InPlace(recoded) = out else {
            panic!("expected in-place insertion");
        };
        // Representative is still (3,08,36,39,35): the median of 6 tuples is
        // index 3, which is the old representative — exactly Fig. 4.6.
        assert_eq!(
            codec.read_representative(&recoded).unwrap(),
            Tuple::from([3u64, 8, 36, 39, 35])
        );
        let body = &recoded[BLOCK_HEADER_BYTES..];
        assert_eq!(
            body,
            &[
                3, 8, 36, 39, 35, // representative
                4, 45, // (0,00,00,00,45) = φ 45
                3, 8, 12, // (0,00,00,08,12) = φ 524
                2, 4, 5, 23, // (0,00,04,05,23) = φ 16727 (unchanged)
                2, 51, 56, 29, // unchanged after the representative
                2, 1, 59, 37,
            ]
        );
        // And the block decodes to the six tuples in φ order.
        let tuples = codec.decode(&recoded).unwrap();
        assert_eq!(tuples.len(), 6);
        assert_eq!(tuples[1], new_tuple);
    }

    #[test]
    fn every_splice_equals_a_fresh_encode() {
        // A block a write left behind must verify like one bulk load wrote:
        // in every mode and under every representative choice, each insert
        // and each delete yields exactly the bytes of encoding its result.
        let base = paper_block_tuples();
        let extra = [
            Tuple::from([0u64, 0, 0, 0, 0]),
            Tuple::from([3u64, 8, 32, 25, 19]),
            Tuple::from([3u64, 8, 40, 0, 1]),
            Tuple::from([7u64, 15, 63, 63, 63]),
        ];
        for mode in CodingMode::ALL {
            for rep in crate::RepChoice::ALL {
                let codec = BlockCodec::with_options(employee_schema(), mode, rep);
                let block = codec.encode(&base).unwrap();
                for t in &extra {
                    let InsertOutcome::InPlace(grown) =
                        insert_into_block(&codec, &block, t, 8192).unwrap()
                    else {
                        panic!("fits");
                    };
                    let mut run = base.clone();
                    run.insert(run.partition_point(|x| x <= t), t.clone());
                    assert_eq!(grown, codec.encode(&run).unwrap(), "{mode} {rep} +{t:?}");
                }
                for (i, t) in base.iter().enumerate() {
                    let DeleteOutcome::InPlace(shrunk) =
                        delete_from_block(&codec, &block, t).unwrap()
                    else {
                        panic!("not emptied");
                    };
                    let mut run = base.clone();
                    run.remove(i);
                    assert_eq!(shrunk, codec.encode(&run).unwrap(), "{mode} {rep} -{t:?}");
                }
            }
        }
    }

    #[test]
    fn insert_then_delete_restores_block() {
        let codec = BlockCodec::new(employee_schema());
        let original = paper_block_tuples();
        let block = codec.encode(&original).unwrap();
        let t = Tuple::from([3u64, 9, 0, 0, 0]);
        let InsertOutcome::InPlace(with_t) = insert_into_block(&codec, &block, &t, 8192).unwrap()
        else {
            panic!("fits easily");
        };
        let DeleteOutcome::InPlace(back) = delete_from_block(&codec, &with_t, &t).unwrap() else {
            panic!("block not emptied");
        };
        assert_eq!(codec.decode(&back).unwrap(), original);
    }

    #[test]
    fn insert_duplicate_allowed() {
        let codec = BlockCodec::new(employee_schema());
        let original = paper_block_tuples();
        let block = codec.encode(&original).unwrap();
        let dup = original[2].clone();
        let InsertOutcome::InPlace(recoded) =
            insert_into_block(&codec, &block, &dup, 8192).unwrap()
        else {
            panic!("fits");
        };
        let tuples = codec.decode(&recoded).unwrap();
        assert_eq!(tuples.len(), 6);
        assert_eq!(tuples.iter().filter(|t| **t == dup).count(), 2);
    }

    #[test]
    fn insert_overflow_returns_tuples() {
        let codec = BlockCodec::new(employee_schema());
        let original = paper_block_tuples();
        let block = codec.encode(&original).unwrap();
        // Capacity exactly the current size: any insertion overflows.
        let cap = block.len();
        let t = Tuple::from([0u64, 0, 0, 0, 1]);
        match insert_into_block(&codec, &block, &t, cap).unwrap() {
            InsertOutcome::Overflow(tuples) => {
                assert_eq!(tuples.len(), 6);
                assert!(tuples.windows(2).all(|w| w[0] <= w[1]));
                assert_eq!(tuples[0], t);
            }
            InsertOutcome::InPlace(_) => panic!("must overflow"),
        }
    }

    #[test]
    fn delete_missing_tuple_errors() {
        let codec = BlockCodec::new(employee_schema());
        let block = codec.encode(&paper_block_tuples()).unwrap();
        let ghost = Tuple::from([0u64, 0, 0, 0, 0]);
        assert_eq!(
            delete_from_block(&codec, &block, &ghost).unwrap_err(),
            CodecError::TupleNotFound
        );
    }

    #[test]
    fn delete_last_tuple_empties_block() {
        let codec = BlockCodec::new(employee_schema());
        let only = Tuple::from([1u64, 2, 3, 4, 5]);
        let block = codec.encode(std::slice::from_ref(&only)).unwrap();
        assert_eq!(
            delete_from_block(&codec, &block, &only).unwrap(),
            DeleteOutcome::Emptied
        );
    }

    #[test]
    fn insert_invalid_tuple_rejected() {
        let codec = BlockCodec::new(employee_schema());
        let block = codec.encode(&paper_block_tuples()).unwrap();
        let bad = Tuple::from([8u64, 0, 0, 0, 0]);
        assert!(matches!(
            insert_into_block(&codec, &block, &bad, 8192).unwrap_err(),
            CodecError::InvalidTuple { .. }
        ));
    }
}
