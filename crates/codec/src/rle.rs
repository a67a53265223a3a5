//! Leading-zero run-length entry coding (§3.4, Fig. 3.3 (d)).
//!
//! A difference tuple serialized at fixed per-attribute widths starts with a
//! run of zero bytes precisely because differences are small (that is the
//! whole point of AVQ). Each coded entry is
//!
//! ```text
//! ┌───────────┬──────────────────────────┐
//! │ count: u8 │ m − count trailing bytes │
//! └───────────┴──────────────────────────┘
//! ```
//!
//! where `count` is the number of leading zero *bytes* elided from the
//! fixed-width serialization (Golomb-style run-length coding of the zero
//! run [4]). When a tuple is wider than 255 bytes the count saturates and
//! the remaining zeros travel explicitly.

use crate::error::{CodecError, Section};
use avq_schema::{BatchSlots, Schema};

/// Number of leading zero bytes in the fixed-width serialization of
/// `digits`, computed without serializing.
pub(crate) fn leading_zero_bytes(schema: &Schema, digits: &[u64]) -> usize {
    debug_assert_eq!(digits.len(), schema.arity());
    let mut lz = 0usize;
    for (i, &d) in digits.iter().enumerate() {
        let w = schema.byte_width(i);
        if d == 0 {
            lz += w;
        } else {
            // Bytes of this digit's fixed-width cell that are still zero.
            let used = (64 - d.leading_zeros() as usize).div_ceil(8);
            lz += w - used;
            break;
        }
    }
    lz
}

/// Coded size in bytes of one difference entry: the count byte plus the
/// non-elided tail.
#[inline]
pub(crate) fn entry_cost(schema: &Schema, digits: &[u64]) -> usize {
    let m = schema.tuple_bytes();
    let lz = leading_zero_bytes(schema, digits).min(255);
    1 + m - lz
}

/// Appends one coded entry for `digits` to `out`: the count byte, then the
/// fixed-width serialization minus its first `count` (zero) bytes, written
/// cell by cell with no staging buffer.
pub(crate) fn write_entry(schema: &Schema, digits: &[u64], out: &mut Vec<u8>) {
    let lz = leading_zero_bytes(schema, digits).min(255);
    out.push(lz as u8);
    let mut skip = lz;
    for (i, &d) in digits.iter().enumerate() {
        let w = schema.byte_width(i);
        let cell = d.to_be_bytes();
        // Widths are at most 8 and `drop <= w`, so both slices exist.
        let drop = skip.min(w);
        out.extend_from_slice(cell.get(8 - w + drop..).unwrap_or(&[]));
        skip -= drop;
    }
}

/// Splits the coded entry at `buf[pos]` into its count of elided zero bytes
/// and its `m − count` tail bytes, checking that the count fits the tuple
/// width and the tail lies inside `buf`. Inlined: the block decode loops
/// call it once per entry.
#[inline(always)]
fn entry_parts<'a>(
    schema: &Schema,
    buf: &'a [u8],
    pos: usize,
) -> Result<(usize, &'a [u8]), CodecError> {
    let m = schema.tuple_bytes();
    // ok_or_else (not ok_or) keeps the error construction — and its String
    // allocation — off the success path, which the decode loops rely on.
    let count = *buf.get(pos).ok_or_else(|| CodecError::Corrupt {
        section: Section::Entries,
        offset: pos,
        detail: "missing count byte".into(),
    })? as usize;
    if count > m {
        return Err(CodecError::Corrupt {
            section: Section::Entries,
            offset: pos,
            detail: format!("count {count} exceeds tuple width {m}"),
        });
    }
    let tail_len = m - count;
    let tail = buf
        .get(pos + 1..pos + 1 + tail_len)
        .ok_or_else(|| CodecError::Corrupt {
            section: Section::Entries,
            offset: pos + 1,
            detail: format!("entry tail truncated: need {tail_len} bytes"),
        })?;
    Ok((count, tail))
}

/// Position one past the coded entry at `buf[pos]`, read from its count
/// byte alone (validated as [`read_entry_append`] validates it) — how a
/// block splice finds an entry without parsing the ones before it.
pub(crate) fn skip_entry(schema: &Schema, buf: &[u8], pos: usize) -> Result<usize, CodecError> {
    entry_parts(schema, buf, pos).map(|(_, tail)| pos + 1 + tail.len())
}

/// Reads one coded entry starting at `buf[pos]`, appending the difference's
/// `arity` digits to `digits`. Returns the position one past the entry. On
/// error `digits` is left exactly as it was.
///
/// Digits are reassembled straight from the count byte and the tail — byte
/// `p` of the fixed-width serialization is an elided zero when `p < count` —
/// so no staging buffer and no per-entry allocation is needed.
pub(crate) fn read_entry_append(
    schema: &Schema,
    buf: &[u8],
    pos: usize,
    digits: &mut Vec<u64>,
) -> Result<usize, CodecError> {
    let (count, tail) = entry_parts(schema, buf, pos)?;
    let start = digits.len();
    for i in 0..schema.arity() {
        let off = schema.byte_offset(i);
        let w = schema.byte_width(i);
        let mut d = 0u64;
        for p in off..off + w {
            // `p < m` and `tail` holds the `m - count` non-elided bytes, so
            // `p - count` is always in bounds when `p ≥ count`.
            let b = if p < count {
                0
            } else {
                tail.get(p - count).copied().unwrap_or(0)
            };
            d = d << 8 | b as u64;
        }
        digits.push(d);
    }
    // A difference is expressed in 𝓡-space digits (φ⁻¹ of the distance), so
    // every digit must respect its radix; anything else is corruption.
    if let Err(e) = schema.radix().validate(digits.get(start..).unwrap_or(&[])) {
        digits.truncate(start);
        return Err(CodecError::Corrupt {
            section: Section::Entries,
            offset: pos,
            detail: format!("entry digits invalid: {e}"),
        });
    }
    Ok(pos + 1 + tail.len())
}

/// Big-endian load of `len ≤ 8` bytes starting at `bytes[start]`, as the
/// low bytes of a u64.
///
/// The hot path reads a full 8-byte word and shifts the wanted prefix down,
/// so a whole attribute cell costs one unaligned load instead of a per-byte
/// shift loop; only the last few bytes of a buffer fall back to the loop.
/// Missing bytes (out-of-range `start..start + len`) read as zero, matching
/// the scalar decoder's zero padding.
#[inline]
pub(crate) fn load_be(bytes: &[u8], start: usize, len: usize) -> u64 {
    debug_assert!(len <= 8);
    if len == 0 {
        return 0;
    }
    if let Some(win) = bytes.get(start..).and_then(|s| s.first_chunk::<8>()) {
        return u64::from_be_bytes(*win) >> ((8 - len) * 8);
    }
    let mut d = 0u64;
    for p in start..start + len {
        d = d << 8 | bytes.get(p).copied().unwrap_or(0) as u64;
    }
    d
}

/// How [`read_entry_swar_into`] reads a coded entry, looked up by its
/// count byte: built once per codec from the schema, so an entry costs one
/// table lookup and one [`load_be`] per cell it stores, with no per-entry
/// slicing of the schema's tables.
///
/// For a count `c`, the entry's first cell is [`Schema::cell_at_byte`]`(c)`;
/// its stored bytes start the tail and number `off + w − c` (the elided
/// prefix is its high zero bytes). Every later cell starts at tail offset
/// `off − c` and is `w` bytes wide. So the plan holds, per count, the first
/// cell and how many of its bytes are stored, and per cell its serialized
/// offset, its width and its radix — O(m + arity) in all.
#[derive(Debug, Clone)]
pub(crate) struct EntryPlan {
    /// Per count byte `c ≤ min(m, 255)`: every count [`entry_parts`]
    /// accepts.
    counts: Vec<CountPlan>,
    /// Per cell, in attribute order.
    cells: Vec<CellPlan>,
}

#[derive(Debug, Clone, Copy, Default)]
struct CountPlan {
    /// The first cell the entry's tail reaches (the arity when none does).
    first: usize,
    /// How many of the first cell's bytes the tail stores.
    stored: usize,
}

#[derive(Debug, Clone, Copy)]
struct CellPlan {
    /// Offset of the cell's first byte in the fixed-width serialization.
    off: usize,
    /// The cell's byte width.
    width: usize,
    /// The attribute's radix: a digit at or above it is corrupt.
    radix: u64,
}

impl EntryPlan {
    /// The plan for `schema`'s entries.
    pub(crate) fn new(schema: &Schema) -> Self {
        let cells = schema
            .byte_offsets()
            .iter()
            .zip(schema.byte_widths())
            .zip(schema.radix().radices())
            .map(|((&off, &width), &radix)| CellPlan { off, width, radix })
            .collect::<Vec<_>>();
        let counts = (0..=schema.tuple_bytes().min(255))
            .map(|c| {
                let first = schema.cell_at_byte(c);
                let stored = cells
                    .get(first)
                    .map_or(0, |cell| cell.off + cell.width - c.max(cell.off));
                CountPlan { first, stored }
            })
            .collect();
        EntryPlan { counts, cells }
    }
}

/// SWAR variant of [`read_entry_append`] that writes the difference's
/// digits straight into row `row` of `out`'s columns, reading the entry
/// through `plan`, the codec's [`EntryPlan`] for `schema`: identical
/// inputs, positions and error classifications (the count and the tail
/// are checked as [`entry_parts`] checks them, the digits are range-checked
/// as they are written, and a bad row is re-read through the same
/// validation so the error names the same digit). Returns the position one
/// past the entry and the entry's *first cell*: the first attribute its
/// tail reaches ([`Schema::cell_at_byte`] of the count byte).
///
/// Only the cells from the first cell on are written; every earlier digit
/// of the difference is zero, and the caller's pass 2 fills those slots.
/// Each written cell is one [`load_be`] window on the block buffer `buf`
/// itself, so the window runs over into the next entry's bytes (and is
/// shifted out) instead of falling back to the byte loop at the end of
/// every entry; only an entry within 8 bytes of the block's end does. On
/// error the row's slots hold garbage, which the caller's rollback
/// discards.
#[inline]
pub(crate) fn read_entry_swar_into(
    schema: &Schema,
    plan: &EntryPlan,
    buf: &[u8],
    pos: usize,
    out: &mut BatchSlots<'_>,
    row: usize,
) -> Result<(usize, usize), CodecError> {
    let (count, tail) = entry_parts(schema, buf, pos)?;
    let at = pos + 1;
    // `entry_parts` accepts only counts the plan has a row for.
    let CountPlan { first, stored } = plan.counts.get(count).copied().unwrap_or_default();
    let mut cells = plan.cells.get(first..).unwrap_or_default().iter();
    let mut valid = true;
    // The first cell's stored bytes start the tail; its elided prefix
    // contributes zero high bytes, which the shorter load reproduces.
    if let Some(cell) = cells.next() {
        let d = load_be(buf, at, stored);
        // A difference is expressed in 𝓡-space digits (φ⁻¹ of the
        // distance), so every digit must respect its radix.
        valid &= d < cell.radix;
        out.set(row, first, d);
    }
    // Every later cell starts after the count: at tail offset `off − count`.
    for (a, cell) in (first + 1..).zip(cells) {
        let d = load_be(buf, at + cell.off - count, cell.width);
        valid &= d < cell.radix;
        out.set(row, a, d);
    }
    if !valid {
        let digits: Vec<u64> = (0..schema.arity())
            .map(|i| if i < first { 0 } else { out.get(row, i) })
            .collect();
        if let Err(e) = schema.radix().validate(&digits) {
            return Err(CodecError::Corrupt {
                section: Section::Entries,
                offset: pos,
                detail: format!("entry digits invalid: {e}"),
            });
        }
    }
    Ok((at + tail.len(), first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_schema::Domain;
    use std::sync::Arc;

    /// Reads one coded entry starting at `buf[pos]`, returning the difference
    /// digit vector and the position one past the entry.
    fn read_entry(
        schema: &Schema,
        buf: &[u8],
        pos: usize,
    ) -> Result<(Vec<u64>, usize), CodecError> {
        let mut digits = Vec::new();
        let next = read_entry_append(schema, buf, pos, &mut digits)?;
        Ok((digits, next))
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

    #[test]
    fn leading_zeros_counted_without_serialization() {
        let s = employee_schema();
        assert_eq!(leading_zero_bytes(&s, &[0, 0, 0, 8, 57]), 3);
        assert_eq!(leading_zero_bytes(&s, &[0, 0, 4, 5, 23]), 2);
        assert_eq!(leading_zero_bytes(&s, &[3, 8, 36, 39, 35]), 0);
        assert_eq!(leading_zero_bytes(&s, &[0, 0, 0, 0, 0]), 5);
    }

    #[test]
    fn leading_zeros_partial_cell() {
        // A 2-byte attribute whose digit fits one byte leaves one zero byte
        // inside the cell.
        let s = Schema::from_pairs(vec![
            ("wide", Domain::uint(70000).unwrap()), // 3 bytes
            ("narrow", Domain::uint(256).unwrap()), // 1 byte
        ])
        .unwrap();
        assert_eq!(leading_zero_bytes(&s, &[0, 5]), 3);
        assert_eq!(leading_zero_bytes(&s, &[5, 0]), 2); // 5 uses 1 of 3 bytes
        assert_eq!(leading_zero_bytes(&s, &[0x1_00_00, 0]), 0);
    }

    #[test]
    fn entry_cost_matches_written_length() {
        let s = employee_schema();
        for digits in [
            vec![0u64, 0, 0, 8, 57],
            vec![0, 0, 4, 5, 23],
            vec![3, 8, 36, 39, 35],
            vec![0, 0, 0, 0, 0],
        ] {
            let mut out = Vec::new();
            write_entry(&s, &digits, &mut out);
            assert_eq!(out.len(), entry_cost(&s, &digits), "digits {digits:?}");
        }
    }

    #[test]
    fn paper_entry_bytes() {
        // Example 3.3 / §3.4: the diff (0,00,00,08,57) codes as [3, 8, 57].
        let s = employee_schema();
        let mut out = Vec::new();
        write_entry(&s, &[0, 0, 0, 8, 57], &mut out);
        assert_eq!(out, vec![3, 8, 57]);
    }

    #[test]
    fn roundtrip() {
        let s = employee_schema();
        for digits in [
            vec![0u64, 0, 0, 8, 57],
            vec![7, 15, 63, 63, 63],
            vec![0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 1],
        ] {
            let mut out = Vec::new();
            write_entry(&s, &digits, &mut out);
            let (back, next) = read_entry(&s, &out, 0).unwrap();
            assert_eq!(back, digits);
            assert_eq!(next, out.len());
        }
    }

    #[test]
    fn read_append_accumulates() {
        let s = employee_schema();
        let mut out = Vec::new();
        write_entry(&s, &[0, 0, 0, 8, 57], &mut out);
        write_entry(&s, &[0, 0, 4, 5, 23], &mut out);
        let mut digits = Vec::new();
        let pos = read_entry_append(&s, &out, 0, &mut digits).unwrap();
        let end = read_entry_append(&s, &out, pos, &mut digits).unwrap();
        assert_eq!(digits, vec![0, 0, 0, 8, 57, 0, 0, 4, 5, 23]);
        assert_eq!(end, out.len());
        // Hopping by count byte lands on the same boundaries as parsing.
        assert_eq!(skip_entry(&s, &out, 0).unwrap(), pos);
        assert_eq!(skip_entry(&s, &out, pos).unwrap(), end);
        assert!(skip_entry(&s, &out, end).is_err());
        assert!(skip_entry(&s, &[6], 0).is_err());
        assert!(skip_entry(&s, &[2, 42], 0).is_err());
    }

    #[test]
    fn read_append_error_leaves_digits_unchanged() {
        let s = employee_schema();
        let mut digits = vec![1u64, 2, 3];
        // count 2 promises 3 tail bytes but only 1 present
        assert!(read_entry_append(&s, &[2, 42], 0, &mut digits).is_err());
        assert_eq!(digits, vec![1, 2, 3]);
        // digit out of radix range: a1 has radix 8, first tail byte 9 at
        // offset 0 puts digit 9 there
        assert!(read_entry_append(&s, &[0, 9, 0, 0, 0, 0], 0, &mut digits).is_err());
        assert_eq!(digits, vec![1, 2, 3]);
    }

    #[test]
    fn read_rejects_bad_count() {
        let s = employee_schema();
        // count 6 > m = 5
        let err = read_entry(&s, &[6], 0).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt { .. }));
    }

    #[test]
    fn read_rejects_truncated_tail() {
        let s = employee_schema();
        // count 2 promises 3 tail bytes but only 1 present
        let err = read_entry(&s, &[2, 42], 0).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt { .. }));
    }

    #[test]
    fn read_rejects_empty() {
        let s = employee_schema();
        assert!(read_entry(&s, &[], 0).is_err());
    }

    #[test]
    fn zero_width_schema() {
        // All domains of size 1: m = 0, every entry is a lone zero count.
        let s = Schema::from_pairs(vec![
            ("x", Domain::uint(1).unwrap()),
            ("y", Domain::uint(1).unwrap()),
        ])
        .unwrap();
        assert_eq!(s.tuple_bytes(), 0);
        let mut out = Vec::new();
        write_entry(&s, &[0, 0], &mut out);
        assert_eq!(out, vec![0]);
        let (digits, next) = read_entry(&s, &out, 0).unwrap();
        assert_eq!(digits, vec![0, 0]);
        assert_eq!(next, 1);
    }
}
