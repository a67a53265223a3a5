//! Block coding and decoding (§3.4 of the paper).
//!
//! A *block* is a φ-sorted run of tuples coded as a single byte stream that
//! fits one disk block. The stream layout is the paper's (§3.4) plus a
//! four-byte header that records what the paper leaves implicit (the tuple
//! count and the representative's position, which stops being exactly the
//! middle after in-place insertions, Fig. 4.6):
//!
//! ```text
//! ┌────────────┬───────────────┬───────────────┬────────────────────────┐
//! │ count: u16 │ rep_idx: u16  │ rep: m bytes  │ entries (RLE, §3.4) …  │
//! └────────────┴───────────────┴───────────────┴────────────────────────┘
//! ```
//!
//! Entries appear in φ order with the representative elided; entry `k`
//! describes tuple `k` when `k < rep_idx` and tuple `k + 1` otherwise. For
//! [`CodingMode::FieldWise`] the representative and entries are replaced by
//! `count` fixed-width tuples.

use crate::bitio::{gamma_len, BitReader, BitWriter, WordReader};
use crate::error::{CodecError, Section};
use crate::kernel::DecodeKernel;
use crate::mode::{CodingMode, RepChoice};
use crate::rle;
use avq_num::{add_digit, sub_digit, BigUnsigned};
use avq_obs::names;
use avq_schema::{BatchSlots, Schema, Tuple, TupleBatch};
use std::sync::Arc;

/// Size in bytes of the block header (`count: u16 LE`, `rep_idx: u16 LE`).
pub const BLOCK_HEADER_BYTES: usize = 4;

/// Reusable work buffers for block decode.
///
/// Rows are reconstructed in place in the output [`TupleBatch`] — its
/// buffer is the parsed-difference arena — so what lives here is only the
/// per-entry working state. Reuse one scratch across blocks (as
/// [`crate::CodedRelation::decompress`] and the parallel decode workers do)
/// and the buffers reach a steady-state capacity after the first block;
/// a scratch is cheap enough to create per call where none is at hand.
#[derive(Debug, Default, Clone)]
pub struct DecodeScratch {
    /// The block's representative tuple.
    rep: Vec<u64>,
    /// One entry's digits between parse and scatter into the columns.
    tmp: Vec<u64>,
    /// Per-row carry (borrow) into the column being reconstructed.
    carries: Vec<u8>,
    /// Per-row first cell the SWAR kernel's pass 1 wrote: every digit of
    /// the row's difference before it is zero.
    first: Vec<u32>,
    /// The rows SWAR pass 2 computes in the current column, ascending: those
    /// whose difference reaches it or that carry into it.
    live: Vec<u16>,
    /// Machine-word φ-distances staged for batched unranking (SWAR bit
    /// mode): a run of consecutive small entries is collected here, then
    /// unranked in one [`avq_num::MixedRadix::unrank_u64_batch_into`] call.
    values: Vec<u64>,
    /// Work bignum for oversized (≥ 2⁶⁴) bit-mode entries; divided down to
    /// zero by each unrank, so only its limb capacity persists.
    big: BigUnsigned,
    /// Big-endian staging bytes backing `big` between read and parse.
    big_bytes: Vec<u8>,
    /// The batch the `Vec<Tuple>` adapters decode into before they
    /// materialize owned tuples.
    staging: TupleBatch,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Codes and decodes blocks of φ-sorted tuples for one schema.
///
/// The codec is cheap to clone (it shares the schema and its entry plan)
/// and holds no per-block state; scratch buffers are created per call so a
/// codec can be used from multiple threads.
#[derive(Debug, Clone)]
pub struct BlockCodec {
    schema: Arc<Schema>,
    mode: CodingMode,
    rep: RepChoice,
    kernel: DecodeKernel,
    /// How the SWAR kernel reads a byte-aligned entry, by its count byte;
    /// built once here, never per block.
    plan: Arc<rle::EntryPlan>,
}

impl BlockCodec {
    /// Creates a codec with the paper's defaults (chained AVQ, median
    /// representative) and the default decode kernel.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::with_options(schema, CodingMode::default(), RepChoice::default())
    }

    /// Creates a codec with explicit mode and representative policy (and
    /// the default decode kernel; see [`Self::with_kernel`]).
    pub fn with_options(schema: Arc<Schema>, mode: CodingMode, rep: RepChoice) -> Self {
        BlockCodec {
            plan: Arc::new(rle::EntryPlan::new(&schema)),
            schema,
            mode,
            rep,
            kernel: DecodeKernel::default(),
        }
    }

    /// Selects the decode kernel (builder style). Encoding is unaffected.
    #[must_use]
    pub fn with_kernel(mut self, kernel: DecodeKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The schema this codec codes for.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The coding mode.
    #[inline]
    pub fn mode(&self) -> CodingMode {
        self.mode
    }

    /// The representative policy.
    #[inline]
    pub fn rep_choice(&self) -> RepChoice {
        self.rep
    }

    /// The decode kernel this codec routes through.
    #[inline]
    pub fn kernel(&self) -> DecodeKernel {
        self.kernel
    }

    fn check_input(&self, tuples: &[Tuple]) -> Result<(), CodecError> {
        if tuples.is_empty() {
            return Err(CodecError::EmptyBlock);
        }
        if tuples.len() > u16::MAX as usize {
            return Err(CodecError::TooManyTuples { got: tuples.len() });
        }
        for (i, t) in tuples.iter().enumerate() {
            self.schema
                .validate_tuple(t)
                .map_err(|e| CodecError::InvalidTuple {
                    position: i,
                    detail: e.to_string(),
                })?;
        }
        if let Some(pos) = tuples.windows(2).position(|w| matches!(w, [a, b] if a > b)) {
            return Err(CodecError::UnsortedInput { position: pos + 1 });
        }
        Ok(())
    }

    /// Encodes a φ-sorted run of tuples into a fresh byte stream.
    pub fn encode(&self, tuples: &[Tuple]) -> Result<Vec<u8>, CodecError> {
        self.check_input(tuples)?;
        // lint: bounded(measure() is the exact coded size of this run)
        let mut out = Vec::with_capacity(self.measure(tuples));
        self.encode_rows(tuples.len(), tuples.iter().map(Tuple::digits), &mut out);
        Ok(out)
    }

    /// Encodes a φ-sorted run of tuples, appending to `out`.
    pub fn encode_into(&self, tuples: &[Tuple], out: &mut Vec<u8>) -> Result<(), CodecError> {
        self.check_input(tuples)?;
        self.encode_rows(tuples.len(), tuples.iter().map(Tuple::digits), out);
        Ok(())
    }

    /// Appends the coded block of `u ≥ 1` rows — φ-sorted, schema-valid,
    /// `u ≤ u16::MAX`; the caller has checked — to `out`. Rows are borrowed
    /// digit slices, so a tuple run, a decoded batch and a batch with one
    /// row spliced in or out all encode through here, and differences are
    /// taken in one reused buffer and serialized directly: the only
    /// allocations are that buffer and `out`'s growth.
    pub(crate) fn encode_rows<'a, I>(&self, u: usize, rows: I, out: &mut Vec<u8>)
    where
        I: Iterator<Item = &'a [u64]> + Clone,
    {
        let _span = avq_obs::span!(names::SPAN_CODEC_ENCODE_BLOCK);
        let start_len = out.len();
        let rep_idx = match self.mode {
            CodingMode::FieldWise => 0,
            _ => self.rep.index(u),
        };
        write_header(out, u, rep_idx);

        let radix = self.schema.radix();
        let mut diff = Vec::new();
        // rep.index(u) < u = the number of rows, so the representative exists.
        let rep = rows.clone().nth(rep_idx).unwrap_or_default();
        // The chained entries are exactly the adjacent gaps in φ order:
        // before the representative entry k is the gap to the successor,
        // after it the gap to the predecessor (Example 3.3) — both
        // enumerate every window once.
        let gaps = rows.clone().zip(rows.clone().skip(1));
        match self.mode {
            CodingMode::FieldWise => {
                for row in rows {
                    self.schema.write_row(row, out);
                }
            }
            CodingMode::Avq => {
                self.schema.write_row(rep, out);
                for (i, row) in rows.enumerate() {
                    if i != rep_idx {
                        radix.abs_diff_into(row, rep, &mut diff);
                        rle::write_entry(&self.schema, &diff, out);
                    }
                }
            }
            CodingMode::AvqChained => {
                self.schema.write_row(rep, out);
                for (prev, next) in gaps {
                    radix.abs_diff_into(next, prev, &mut diff);
                    rle::write_entry(&self.schema, &diff, out);
                }
            }
            CodingMode::AvqChainedBits => {
                self.schema.write_row(rep, out);
                let mut bw = BitWriter::new();
                for (prev, next) in gaps {
                    radix.abs_diff_into(next, prev, &mut diff);
                    // Nearly every gap fits a machine word; rank those
                    // without building a bignum.
                    if let Some(value) = radix.rank_u64(&diff) {
                        let bl = 64 - value.leading_zeros();
                        bw.push_gamma(bl as u64 + 1);
                        bw.push_bits_u64(value, bl);
                    } else {
                        let value = radix.rank(&diff);
                        let bl = value.bit_len();
                        bw.push_gamma(bl as u64 + 1);
                        bw.push_bits_big(&value, bl);
                    }
                }
                out.extend_from_slice(&bw.into_bytes());
            }
        }
        avq_obs::counter!(names::CODEC_ENCODE_BLOCKS).inc();
        avq_obs::counter!(names::CODEC_ENCODE_TUPLES).add(u as u64);
        avq_obs::counter!(names::CODEC_ENCODE_BYTES_OUT).add((out.len() - start_len) as u64);
        match self.mode {
            CodingMode::FieldWise => avq_obs::counter!(names::CODEC_ENCODE_MODE_FIELDWISE).inc(),
            CodingMode::Avq => avq_obs::counter!(names::CODEC_ENCODE_MODE_AVQ).inc(),
            CodingMode::AvqChained => avq_obs::counter!(names::CODEC_ENCODE_MODE_AVQ_CHAINED).inc(),
            CodingMode::AvqChainedBits => {
                avq_obs::counter!(names::CODEC_ENCODE_MODE_AVQ_CHAINED_BITS).inc()
            }
        }
    }

    /// Exact coded size in bytes of a φ-sorted run, without encoding.
    ///
    /// The input is assumed sorted and schema-valid (checked in debug
    /// builds); this is the hot path of the block packer, so every
    /// difference is taken in one reused buffer.
    pub fn measure(&self, tuples: &[Tuple]) -> usize {
        debug_assert!(self.check_input(tuples).is_ok() || tuples.is_empty());
        let u = tuples.len();
        if u == 0 {
            return BLOCK_HEADER_BYTES;
        }
        let m = self.schema.tuple_bytes();
        let mut diff = Vec::new();
        let gaps = tuples.iter().zip(tuples.iter().skip(1));
        match self.mode {
            CodingMode::FieldWise => BLOCK_HEADER_BYTES + u * m,
            CodingMode::Avq => {
                let rep_idx = self.rep.index(u);
                // rep.index(u) < u and u > 0 was checked above.
                let rep = tuples.get(rep_idx).map(Tuple::digits).unwrap_or_default();
                let radix = self.schema.radix();
                let mut size = BLOCK_HEADER_BYTES + m;
                for (i, t) in tuples.iter().enumerate() {
                    if i != rep_idx {
                        radix.abs_diff_into(t.digits(), rep, &mut diff);
                        size += rle::entry_cost(&self.schema, &diff);
                    }
                }
                size
            }
            // Chained coded size is rep + the adjacent gaps, so it does not
            // depend on which tuple is the representative.
            CodingMode::AvqChained => {
                let entries: usize = gaps
                    .map(|(prev, next)| self.gap_cost(prev.digits(), next.digits(), &mut diff))
                    .sum();
                BLOCK_HEADER_BYTES + m + entries
            }
            CodingMode::AvqChainedBits => {
                let bits: usize = gaps
                    .map(|(prev, next)| self.gap_bits(prev.digits(), next.digits(), &mut diff))
                    .sum();
                BLOCK_HEADER_BYTES + m + bits.div_ceil(8)
            }
        }
    }

    /// Bit cost of the chained entry between adjacent rows `prev ≤ next` in
    /// [`CodingMode::AvqChainedBits`]; `diff` is a work buffer.
    pub(crate) fn gap_bits(&self, prev: &[u64], next: &[u64], diff: &mut Vec<u64>) -> usize {
        let radix = self.schema.radix();
        radix.abs_diff_into(next, prev, diff);
        let bl = match radix.rank_u64(diff) {
            Some(value) => 64 - value.leading_zeros() as usize,
            None => radix.rank(diff).bit_len(),
        };
        gamma_len(bl as u64 + 1) + bl
    }

    /// Byte cost of the entry between adjacent rows `prev ≤ next` in the
    /// byte-aligned chained mode — or of one more record, field-wise;
    /// `diff` is a work buffer.
    pub(crate) fn gap_cost(&self, prev: &[u64], next: &[u64], diff: &mut Vec<u64>) -> usize {
        match self.mode {
            CodingMode::FieldWise => self.schema.tuple_bytes(),
            _ => {
                self.schema.radix().abs_diff_into(next, prev, diff);
                rle::entry_cost(&self.schema, diff)
            }
        }
    }

    /// Decodes a block stream, appending its tuples to `out` in φ order.
    ///
    /// This is the decoder every other decode entry point runs. Rows are
    /// reconstructed in place in `out`'s buffer — in the chained modes each
    /// parsed difference is overwritten by the running sum — so a block
    /// costs a constant number of allocations however many tuples it
    /// holds. On error `out` is left exactly as it was. `out` must have
    /// the schema's arity.
    pub fn decode_batch_into(
        &self,
        bytes: &[u8],
        out: &mut TupleBatch,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CodecError> {
        debug_assert_eq!(out.arity(), self.schema.arity());
        let _span = avq_obs::span!(names::SPAN_CODEC_DECODE_BLOCK);
        let (u, rep_idx) = read_header(bytes)?;
        // u is a wire u16, so the slots try_extend reserves for it hold at
        // most 64Ki * arity words (asserted by tests/alloc_untrusted.rs).
        out.try_extend(u, |slots| {
            self.decode_rows(bytes, u, rep_idx, slots, scratch)
        })?;
        avq_obs::counter!(names::CODEC_DECODE_BLOCKS).inc();
        avq_obs::counter!(names::CODEC_DECODE_TUPLES).add(u as u64);
        avq_obs::counter!(names::CODEC_DECODE_BYTES_IN).add(bytes.len() as u64);
        match self.kernel {
            DecodeKernel::Scalar => avq_obs::counter!(names::CODEC_DECODE_KERNEL_SCALAR).inc(),
            DecodeKernel::Swar => avq_obs::counter!(names::CODEC_DECODE_KERNEL_SWAR).inc(),
        }
        Ok(())
    }

    /// Decodes a block stream into owned tuples, in φ order.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<Tuple>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(bytes, &mut out)?;
        Ok(out)
    }

    /// Decodes a block stream, appending owned tuples to `out` in φ order.
    ///
    /// On error `out` is left exactly as it was. Allocates fresh scratch
    /// buffers; decode loops should use [`Self::decode_into_scratch`] to
    /// reuse them across blocks.
    pub fn decode_into(&self, bytes: &[u8], out: &mut Vec<Tuple>) -> Result<(), CodecError> {
        self.decode_into_scratch(bytes, out, &mut DecodeScratch::new())
    }

    /// [`Self::decode_batch_into`] for callers that need owned tuples
    /// (whole-relation decompression): the block is
    /// decoded into `scratch`'s staging batch and each row is then copied
    /// out as a [`Tuple`] — one allocation per tuple, all of them the
    /// tuples themselves. On error `out` is left exactly as it was.
    pub fn decode_into_scratch(
        &self,
        bytes: &[u8],
        out: &mut Vec<Tuple>,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CodecError> {
        let mut rows = std::mem::take(&mut scratch.staging);
        rows.reset(self.schema.arity());
        let result = self.decode_batch_into(bytes, &mut rows, scratch);
        if result.is_ok() {
            out.extend((0..rows.len()).map(|i| rows.tuple(i)));
        }
        scratch.staging = rows;
        result
    }

    /// Writes a block's `u` tuples into the column slots of `out` in two
    /// passes: pass 1 parses each entry's difference digits into the slots
    /// of the row it describes (the representative written into its own
    /// row at `rep_idx`); pass 2 runs the running sum over those slots one
    /// column at a time, overwriting each difference digit by the tuple
    /// digit it stands for. No row-major copy of the block exists at any
    /// point; the per-row state is one carry byte, and for the SWAR kernel
    /// the row's first cell.
    ///
    /// The scalar kernel parses and sums every cell ([`sum_columns`]). The
    /// SWAR kernel's byte-aligned pass 1 writes only the cells an entry's
    /// tail reaches, through the codec's per-count entry plan, and records
    /// the first of them; its pass 2
    /// ([`sum_live_rows`]) computes only those cells and the carries out of
    /// them, and fills every other slot. So a SWAR decode costs what the
    /// block stores, not `u × arity`.
    fn decode_rows(
        &self,
        bytes: &[u8],
        u: usize,
        rep_idx: usize,
        out: &mut BatchSlots<'_>,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CodecError> {
        if u == 0 {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 0,
                detail: "block with zero tuples".into(),
            });
        }
        let m = self.schema.tuple_bytes();
        let n = self.schema.arity();
        let mut pos = BLOCK_HEADER_BYTES;
        let DecodeScratch {
            rep,
            tmp,
            carries,
            first,
            live,
            values,
            big,
            big_bytes,
            ..
        } = scratch;

        if self.mode == CodingMode::FieldWise {
            let need = u * m;
            let Some(body) = bytes.get(pos..pos + need) else {
                return Err(CodecError::Corrupt {
                    section: Section::Body,
                    offset: pos,
                    detail: format!("field-wise body truncated: need {need} bytes"),
                });
            };
            if m == 0 {
                // Zero-width tuples: the body is empty and every record
                // reads as the all-zero digit vector.
                tmp.clear();
                tmp.resize(n, 0);
                for r in 0..u {
                    out.set_row(r, tmp);
                }
            } else if self.kernel == DecodeKernel::Swar {
                // One whole-word load per attribute cell instead of the
                // per-byte shift loop inside read_digits_into.
                for (r, rec) in body.chunks_exact(m).enumerate() {
                    for i in 0..n {
                        let d = rle::load_be(
                            rec,
                            self.schema.byte_offset(i),
                            self.schema.byte_width(i),
                        );
                        out.set(r, i, d);
                    }
                }
            } else {
                for (r, rec) in body.chunks_exact(m).enumerate() {
                    tmp.clear();
                    self.schema.read_digits_into(rec, tmp);
                    out.set_row(r, tmp);
                }
            }
            return Ok(());
        }

        if rep_idx >= u {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 2,
                detail: format!("rep_idx {rep_idx} out of range for {u} tuples"),
            });
        }
        let Some(rep_bytes) = bytes.get(pos..pos + m) else {
            return Err(CodecError::Corrupt {
                section: Section::Representative,
                offset: pos,
                detail: "representative tuple truncated".into(),
            });
        };
        rep.clear();
        self.schema.read_digits_into(rep_bytes, rep);
        self.schema
            .validate_row(rep)
            .map_err(|e| CodecError::Corrupt {
                section: Section::Representative,
                offset: pos,
                detail: format!("representative invalid: {e}"),
            })?;
        pos += m;

        if n == 0 {
            // Zero-arity schema: every difference is empty, so every tuple
            // is the representative. Nothing to parse and nothing can fail.
            return Ok(());
        }
        let radix = self.schema.radix();
        out.set_row(rep_idx, rep);
        // Entry k describes row k before the representative and row k + 1
        // after it.
        let row_of = |k: usize| k + usize::from(k >= rep_idx);
        tmp.clear();
        tmp.resize(n, 0);
        // The SWAR kernel's pass 2 computes only the cells at or after each
        // row's first cell. Bit mode unranks every cell, so all are live;
        // the byte-aligned modes record each entry's first cell below.
        first.clear();
        first.resize(u, 0);
        match (self.mode, self.kernel) {
            (CodingMode::AvqChainedBits, DecodeKernel::Scalar) => {
                let mut br = BitReader::new(bytes.get(pos..).unwrap_or(&[]));
                for k in 0..u - 1 {
                    let bl = br
                        .read_gamma()
                        .ok_or_else(|| CodecError::Corrupt {
                            section: Section::Entries,
                            offset: pos,
                            detail: format!("bit entry {k}: truncated gamma length"),
                        })?
                        // Gamma codes are structurally >= 1.
                        .saturating_sub(1) as usize;
                    // Nearly every difference fits a machine word; unrank
                    // those without building a bignum.
                    let ok = if bl < 64 {
                        let value =
                            br.read_bits_u64(bl as u32)
                                .ok_or_else(|| CodecError::Corrupt {
                                    section: Section::Entries,
                                    offset: pos,
                                    detail: format!("bit entry {k}: truncated payload"),
                                })?;
                        radix.unrank_u64_into(value, tmp)
                    } else {
                        br.read_bits_big_into(bl, big_bytes, big).ok_or_else(|| {
                            CodecError::Corrupt {
                                section: Section::Entries,
                                offset: pos,
                                detail: format!("bit entry {k}: truncated payload"),
                            }
                        })?;
                        radix.unrank_assign_into(big, tmp)
                    };
                    if !ok {
                        return Err(CodecError::DifferenceOutOfSpace { entry: k });
                    }
                    out.set_row(row_of(k), tmp);
                }
            }
            (CodingMode::AvqChainedBits, DecodeKernel::Swar) => {
                // Word-at-a-time gamma decoding plus batched unranking:
                // machine-word φ-distances are collected per run of
                // consecutive small entries and unranked together straight
                // into the columns, sharing the high-order division work
                // across the run. Validity is pre-checked per value (O(1)
                // against ‖𝓡‖), so errors surface at the same entry index
                // as the scalar kernel.
                let mut wr = WordReader::new(bytes.get(pos..).unwrap_or(&[]));
                values.clear();
                // First row of the current run of small entries; a run is
                // flushed wherever its rows stop being contiguous: at the
                // representative's row and at a bignum-sized entry.
                let mut run_row = 0usize;
                let flush = |run_row: usize, values: &mut Vec<u64>, out: &mut BatchSlots<'_>| {
                    let (cols, stride) = out.strided_from(run_row);
                    let ok = radix.unrank_u64_batch_into_columns(values, cols, stride);
                    values.clear();
                    if ok {
                        Ok(())
                    } else {
                        let entry = run_row - usize::from(run_row > rep_idx);
                        Err(CodecError::DifferenceOutOfSpace { entry })
                    }
                };
                for k in 0..u - 1 {
                    if k == rep_idx {
                        flush(run_row, values, out)?;
                        run_row = k + 1;
                    }
                    let bl = wr
                        .read_gamma()
                        .ok_or_else(|| CodecError::Corrupt {
                            section: Section::Entries,
                            offset: pos,
                            detail: format!("bit entry {k}: truncated gamma length"),
                        })?
                        // Gamma codes are structurally >= 1.
                        .saturating_sub(1) as usize;
                    if bl < 64 {
                        let value =
                            wr.read_bits_u64(bl as u32)
                                .ok_or_else(|| CodecError::Corrupt {
                                    section: Section::Entries,
                                    offset: pos,
                                    detail: format!("bit entry {k}: truncated payload"),
                                })?;
                        if !radix.value_in_space(value) {
                            return Err(CodecError::DifferenceOutOfSpace { entry: k });
                        }
                        values.push(value);
                    } else {
                        flush(run_row, values, out)?;
                        let row = row_of(k);
                        run_row = row + 1;
                        wr.read_bits_big_into(bl, big_bytes, big).ok_or_else(|| {
                            CodecError::Corrupt {
                                section: Section::Entries,
                                offset: pos,
                                detail: format!("bit entry {k}: truncated payload"),
                            }
                        })?;
                        if !radix.unrank_assign_into(big, tmp) {
                            return Err(CodecError::DifferenceOutOfSpace { entry: k });
                        }
                        out.set_row(row, tmp);
                    }
                }
                flush(run_row, values, out)?;
            }
            (_, DecodeKernel::Scalar) => {
                for k in 0..u - 1 {
                    tmp.clear();
                    pos = rle::read_entry_append(&self.schema, bytes, pos, tmp)?;
                    out.set_row(row_of(k), tmp);
                }
            }
            (_, DecodeKernel::Swar) => {
                for k in 0..u - 1 {
                    let row = row_of(k);
                    let (next, cell) =
                        rle::read_entry_swar_into(&self.schema, &self.plan, bytes, pos, out, row)?;
                    pos = next;
                    if let Some(slot) = first.get_mut(row) {
                        *slot = cell as u32;
                    }
                }
            }
        }

        let chained = self.mode != CodingMode::Avq;
        carries.clear();
        carries.resize(u, 0);
        match self.kernel {
            DecodeKernel::Scalar => {
                sum_columns(out, radix.radices(), rep, rep_idx, chained, carries)
            }
            DecodeKernel::Swar => sum_live_rows(
                out,
                radix.radices(),
                rep,
                rep_idx,
                chained,
                first,
                live,
                carries,
            ),
        }
        // A carry (borrow) out of the leading digit means the tuple left the
        // space; the error names the first such entry in the order the rows
        // are reconstructed — away from the representative when chained,
        // ascending otherwise — rows before the representative first.
        let (before_c, rest_c) = carries.split_at_checked(rep_idx).unwrap_or_default();
        let failed_before = if chained {
            before_c.iter().rposition(|&c| c != 0)
        } else {
            before_c.iter().position(|&c| c != 0)
        };
        if let Some(entry) = failed_before {
            return Err(CodecError::DifferenceOutOfSpace { entry });
        }
        if let Some(k) = rest_c.iter().skip(1).position(|&c| c != 0) {
            return Err(CodecError::DifferenceOutOfSpace { entry: rep_idx + k });
        }
        Ok(())
    }

    /// Point lookup inside a coded block without decoding it fully.
    ///
    /// Field-wise blocks are binary-searched over their fixed-width records
    /// (`O(log u)` comparisons, zero reconstruction); AVQ blocks exploit the
    /// φ order of entries to stop as soon as the scan passes the target —
    /// and skip reconstructing the half of the block on the wrong side of
    /// the representative entirely.
    pub fn contains_tuple(&self, bytes: &[u8], tuple: &Tuple) -> Result<bool, CodecError> {
        let (u, rep_idx) = read_header(bytes)?;
        if u == 0 {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 0,
                detail: "block with zero tuples".into(),
            });
        }
        let m = self.schema.tuple_bytes();
        let body = BLOCK_HEADER_BYTES;

        if self.mode == CodingMode::FieldWise {
            let Some(records) = bytes.get(body..body + u * m) else {
                return Err(CodecError::Corrupt {
                    section: Section::Body,
                    offset: body,
                    detail: "field-wise body truncated".into(),
                });
            };
            // lint: bounded(one serialized tuple, schema tuple_bytes)
            let mut key = Vec::with_capacity(m);
            self.schema.write_tuple(tuple, &mut key);
            // Fixed-width records in φ order: serialized comparison is
            // φ comparison, so binary search applies directly.
            let mut lo = 0usize;
            let mut hi = u;
            while lo < hi {
                let mid = (lo + hi) / 2;
                // `mid < u` keeps the range inside `records`; an empty
                // fallback can only order Less/Greater and end the search.
                let rec = records.get(mid * m..(mid + 1) * m).unwrap_or(&[]);
                match rec.cmp(key.as_slice()) {
                    core::cmp::Ordering::Equal => return Ok(true),
                    core::cmp::Ordering::Less => lo = mid + 1,
                    core::cmp::Ordering::Greater => hi = mid,
                }
            }
            return Ok(false);
        }

        if rep_idx >= u {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 2,
                detail: "bad representative".into(),
            });
        }
        let Some(rep_bytes) = bytes.get(body..body + m) else {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 2,
                detail: "bad representative".into(),
            });
        };
        // lint: bounded(one row of ordinals, schema arity)
        let mut rep = Vec::with_capacity(self.schema.arity());
        self.schema.read_digits_into(rep_bytes, &mut rep);
        // Untrusted bytes can spell digits outside their radices; arithmetic
        // below assumes validity, so reject here (as full decode does).
        self.schema
            .validate_row(&rep)
            .map_err(|e| CodecError::Corrupt {
                section: Section::Representative,
                offset: body,
                detail: format!("representative invalid: {e}"),
            })?;
        let target = tuple.digits();
        let side = target.cmp(rep.as_slice());
        if side == core::cmp::Ordering::Equal {
            return Ok(true);
        }
        let diffs = self.parse_entries(bytes, body + m, u - 1)?;
        // Entry k's difference; `max(1)` keeps a zero-arity schema (which
        // returned above: its target always equals the representative)
        // from asking for zero-width chunks.
        let entries = || diffs.chunks_exact(rep.len().max(1));
        let radix = self.schema.radix();
        let chained = self.mode != CodingMode::Avq;
        // One running buffer: the chain position in the chained modes, the
        // representative plus or minus one entry in the un-chained mode.
        let mut cur = rep.clone();
        if side == core::cmp::Ordering::Less {
            // Target precedes the representative: only the first rep_idx
            // entries matter. Chained entries unwind backward from the
            // representative, stopping once below the target; un-chained
            // ones are t = rep − d, ascending in φ as k grows.
            let before = entries().take(rep_idx).enumerate();
            if chained {
                for (i, d) in before.rev() {
                    if !radix.sub_assign(&mut cur, d) {
                        return Err(CodecError::DifferenceOutOfSpace { entry: i });
                    }
                    match cur.as_slice().cmp(target) {
                        core::cmp::Ordering::Equal => return Ok(true),
                        core::cmp::Ordering::Less => return Ok(false),
                        core::cmp::Ordering::Greater => {}
                    }
                }
            } else {
                for (k, d) in before {
                    cur.copy_from_slice(&rep);
                    if !radix.sub_assign(&mut cur, d) {
                        return Err(CodecError::DifferenceOutOfSpace { entry: k });
                    }
                    match cur.as_slice().cmp(target) {
                        core::cmp::Ordering::Equal => return Ok(true),
                        core::cmp::Ordering::Greater => return Ok(false),
                        core::cmp::Ordering::Less => {}
                    }
                }
            }
            return Ok(false);
        }
        // Target follows the representative: reconstruct forward from it
        // with early exit (the first-half entries are parsed but never
        // reconstructed).
        for (k, d) in entries().enumerate().skip(rep_idx) {
            if !chained {
                cur.copy_from_slice(&rep);
            }
            if !radix.add_assign(&mut cur, d) {
                return Err(CodecError::DifferenceOutOfSpace { entry: k });
            }
            match cur.as_slice().cmp(target) {
                core::cmp::Ordering::Equal => return Ok(true),
                core::cmp::Ordering::Greater => return Ok(false),
                core::cmp::Ordering::Less => {}
            }
        }
        Ok(false)
    }

    /// Parses all difference entries of a non-field-wise block, each
    /// entry's `arity` digits after the last (the early-exit walk of
    /// [`Self::contains_tuple`] reads them as differences, never as rows).
    fn parse_entries(
        &self,
        bytes: &[u8],
        mut pos: usize,
        count: usize,
    ) -> Result<Vec<u64>, CodecError> {
        let radix = self.schema.radix();
        let mut out = Vec::new();
        {
            if self.mode == CodingMode::AvqChainedBits {
                let mut br = BitReader::new(bytes.get(pos..).unwrap_or(&[]));
                for k in 0..count {
                    let bl = br
                        .read_gamma()
                        .ok_or_else(|| CodecError::Corrupt {
                            section: Section::Entries,
                            offset: pos,
                            detail: format!("bit entry {k}: truncated gamma length"),
                        })?
                        // Gamma codes are structurally >= 1.
                        .saturating_sub(1) as usize;
                    let value = br.read_bits_big(bl).ok_or_else(|| CodecError::Corrupt {
                        section: Section::Entries,
                        offset: pos,
                        detail: format!("bit entry {k}: truncated payload"),
                    })?;
                    let digits = radix
                        .unrank(&value)
                        .ok_or(CodecError::DifferenceOutOfSpace { entry: k })?;
                    out.extend_from_slice(&digits);
                }
            } else {
                for _ in 0..count {
                    pos = rle::read_entry_append(&self.schema, bytes, pos, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// Reads only the representative tuple of a coded block — the index key
    /// of §4.1 — without decoding the block. For field-wise blocks this is
    /// the first tuple.
    pub fn read_representative(&self, bytes: &[u8]) -> Result<Tuple, CodecError> {
        let (u, rep_idx) = read_header(bytes)?;
        if u == 0 {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 0,
                detail: "block with zero tuples".into(),
            });
        }
        let m = self.schema.tuple_bytes();
        let pos = BLOCK_HEADER_BYTES;
        if self.mode != CodingMode::FieldWise && rep_idx >= u {
            return Err(CodecError::Corrupt {
                section: Section::Header,
                offset: 2,
                detail: "rep_idx out of range".into(),
            });
        }
        let Some(rep_bytes) = bytes.get(pos..pos + m) else {
            return Err(CodecError::Corrupt {
                section: Section::Representative,
                offset: pos,
                detail: "representative tuple truncated".into(),
            });
        };
        Ok(self.schema.read_tuple(rep_bytes))
    }

    /// Number of tuples recorded in a coded block's header.
    pub fn tuple_count(&self, bytes: &[u8]) -> Result<usize, CodecError> {
        read_header(bytes).map(|(u, _)| u)
    }
}

/// Pass 2 of the scalar kernel, the reference the SWAR kernel's
/// [`sum_live_rows`] is checked against: one column at a time from the
/// least significant, a row's digit is its neighbour's nearer the
/// representative (chained) or the representative's (un-chained), plus or
/// minus its difference digit and the carry its own less significant digit
/// produced, kept per row in `carries` (all zero on entry). Every column is
/// walked contiguously, every slot of every row is read, and a step with a
/// zero digit and no carry in is a copy.
fn sum_columns(
    out: &mut BatchSlots<'_>,
    radices: &[u64],
    rep: &[u64],
    rep_idx: usize,
    chained: bool,
    carries: &mut [u8],
) {
    for (a, (&radix_a, &rep_a)) in radices.iter().zip(rep).enumerate().rev() {
        let col = out.col_mut(a);
        // rep_idx < u, checked by the caller: both splits exist.
        let (before, rest) = col.split_at_mut_checked(rep_idx).unwrap_or_default();
        let (before_c, rest_c) = carries.split_at_mut_checked(rep_idx).unwrap_or_default();
        let after = rest.get_mut(1..).unwrap_or_default();
        let after_c = rest_c.get_mut(1..).unwrap_or_default();
        let mut prev = rep_a;
        for (slot, borrow) in before.iter_mut().zip(before_c.iter_mut()).rev() {
            let from = if chained { prev } else { rep_a };
            prev = if *slot == 0 && *borrow == 0 {
                from
            } else {
                let (digit, out) = sub_digit(from, *slot, *borrow, radix_a);
                *borrow = out;
                digit
            };
            *slot = prev;
        }
        let mut prev = rep_a;
        for (slot, carry) in after.iter_mut().zip(after_c.iter_mut()) {
            let from = if chained { prev } else { rep_a };
            prev = if *slot == 0 && *carry == 0 {
                from
            } else {
                let (digit, out) = add_digit(from, *slot, *carry, radix_a);
                *carry = out;
                digit
            };
            *slot = prev;
        }
    }
}

/// Pass 2 of the SWAR kernel: [`sum_columns`]' running sum, computed only
/// where it can change a digit. Row `r`'s difference is zero before its
/// first cell `first[r]`, and pass 1 wrote no slot there. So column `a`
/// computes only its *live* rows — those with `first[r] ≤ a`, and those a
/// carry (borrow) from column `a + 1` reaches — each in one branch-free
/// step that reads an unwritten slot as a zero digit. Every other row
/// copies the digit before it. Live rows only become fewer from column to
/// column: a row drops out once its difference and its carry are spent.
///
/// The trailing columns, where most rows are live, are swept whole. From
/// the first column fewer than half the rows reach on, the live rows are
/// kept in a list, and every run of rows between two of them is one
/// `fill`. So a block costs the cells its entries store plus one fill per
/// leading column. `carries` is all zero on entry; on return it holds each
/// row's carry out of the leading digit, as after [`sum_columns`].
#[expect(
    clippy::too_many_arguments,
    reason = "a column kernel takes each buffer it reads or writes as its own argument"
)]
fn sum_live_rows(
    out: &mut BatchSlots<'_>,
    radices: &[u64],
    rep: &[u64],
    rep_idx: usize,
    chained: bool,
    first: &[u32],
    live: &mut Vec<u16>,
    carries: &mut [u8],
) {
    let u = first.len();
    let mut swept = true;
    for (a, (&radix_a, &rep_a)) in radices.iter().zip(rep).enumerate().rev() {
        // a < arity, and first cells are stored as u32.
        let a32 = a as u32;
        let col = out.col_mut(a);
        if swept {
            let live_next =
                sweep_column(col, radix_a, rep_a, rep_idx, chained, first, carries, a32);
            if live_next * 2 < u && a > 0 {
                swept = false;
                live.clear();
                // u ≤ u16::MAX, so every row index fits.
                live.extend((0..rep_idx).chain(rep_idx + 1..u).map(|r| r as u16));
                keep_live(live, first, carries, a32 - 1);
            }
            continue;
        }
        let (before, after) = live.split_at(live.partition_point(|&r| usize::from(r) < rep_idx));
        // Rows before the representative, walking down from it.
        let mut prev = rep_a;
        let mut end = rep_idx;
        for &r in before.iter().rev() {
            let r = usize::from(r);
            if r + 1 < end {
                col.get_mut(r + 1..end).unwrap_or_default().fill(prev);
            }
            let (Some(slot), Some(borrow), Some(&f)) =
                (col.get_mut(r), carries.get_mut(r), first.get(r))
            else {
                break;
            };
            let d = *slot & u64::from(f <= a32).wrapping_neg();
            let (digit, b) = sub_digit(prev, d, *borrow, radix_a);
            (*slot, *borrow) = (digit, b);
            prev = if chained { digit } else { rep_a };
            end = r;
        }
        col.get_mut(..end).unwrap_or_default().fill(prev);
        // Rows after it, walking up.
        let mut prev = rep_a;
        let mut start = rep_idx + 1;
        for &r in after {
            let r = usize::from(r);
            if start < r {
                col.get_mut(start..r).unwrap_or_default().fill(prev);
            }
            let (Some(slot), Some(carry), Some(&f)) =
                (col.get_mut(r), carries.get_mut(r), first.get(r))
            else {
                break;
            };
            let d = *slot & u64::from(f <= a32).wrapping_neg();
            let (digit, c) = add_digit(prev, d, *carry, radix_a);
            (*slot, *carry) = (digit, c);
            prev = if chained { digit } else { rep_a };
            start = r + 1;
        }
        col.get_mut(start.min(u)..).unwrap_or_default().fill(prev);
        if let Some(next) = a32.checked_sub(1) {
            keep_live(live, first, carries, next);
        }
    }
}

/// One column of [`sum_live_rows`] swept over every row: a row's digit is
/// its neighbour's nearer the representative (chained) or the
/// representative's, plus or minus its difference digit — zero before the
/// row's first cell, where its slot is unwritten — and its carry in.
/// Returns how many rows are live in the column before, `a − 1`.
#[expect(
    clippy::too_many_arguments,
    reason = "a column kernel takes each buffer it reads or writes as its own argument"
)]
fn sweep_column(
    col: &mut [u64],
    radix_a: u64,
    rep_a: u64,
    rep_idx: usize,
    chained: bool,
    first: &[u32],
    carries: &mut [u8],
    a: u32,
) -> usize {
    let mask = |f: u32| u64::from(f <= a).wrapping_neg();
    let reaches_next = |f: u32| f < a;
    let mut live_next = 0usize;
    // rep_idx < u, checked by the caller: every split exists.
    let (before, rest) = col.split_at_mut_checked(rep_idx).unwrap_or_default();
    let (before_c, rest_c) = carries.split_at_mut_checked(rep_idx).unwrap_or_default();
    let (before_f, rest_f) = first.split_at_checked(rep_idx).unwrap_or_default();
    let after = rest.get_mut(1..).unwrap_or_default();
    let after_c = rest_c.get_mut(1..).unwrap_or_default();
    let after_f = rest_f.get(1..).unwrap_or_default();
    let mut prev = rep_a;
    for ((slot, borrow), &f) in before.iter_mut().zip(before_c).zip(before_f).rev() {
        let (digit, b) = sub_digit(prev, *slot & mask(f), *borrow, radix_a);
        (*slot, *borrow) = (digit, b);
        prev = if chained { digit } else { rep_a };
        live_next += usize::from(reaches_next(f) | (b != 0));
    }
    let mut prev = rep_a;
    for ((slot, carry), &f) in after.iter_mut().zip(after_c).zip(after_f) {
        let (digit, c) = add_digit(prev, *slot & mask(f), *carry, radix_a);
        (*slot, *carry) = (digit, c);
        prev = if chained { digit } else { rep_a };
        live_next += usize::from(reaches_next(f) | (c != 0));
    }
    live_next
}

/// Keeps the rows of `live` that column `a` computes — first cell at or
/// before it, or a carry in — in order, compacting in place without a
/// branch per row: which rows stay is data.
fn keep_live(live: &mut Vec<u16>, first: &[u32], carries: &[u8], a: u32) {
    let rows = live.as_mut_slice();
    let mut kept = 0usize;
    for j in 0..rows.len() {
        let Some(&r) = rows.get(j) else { break };
        let row = usize::from(r);
        let keep =
            first.get(row).is_some_and(|&f| f <= a) | carries.get(row).is_some_and(|&c| c != 0);
        if let Some(slot) = rows.get_mut(kept) {
            *slot = r;
        }
        kept += usize::from(keep);
    }
    live.truncate(kept);
}

/// Appends the block header for `u ≤ u16::MAX` tuples with the
/// representative at `rep_idx`.
pub(crate) fn write_header(out: &mut Vec<u8>, u: usize, rep_idx: usize) {
    out.extend_from_slice(&(u as u16).to_le_bytes());
    out.extend_from_slice(&(rep_idx as u16).to_le_bytes());
}

pub(crate) fn read_header(bytes: &[u8]) -> Result<(usize, usize), CodecError> {
    let Some((&[c0, c1, r0, r1], _)) = bytes.split_first_chunk::<BLOCK_HEADER_BYTES>() else {
        return Err(CodecError::Corrupt {
            section: Section::Header,
            offset: 0,
            detail: "block shorter than header".into(),
        });
    };
    let u = u16::from_le_bytes([c0, c1]) as usize;
    let rep_idx = u16::from_le_bytes([r0, r1]) as usize;
    Ok((u, rep_idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_schema::Domain;

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

    /// The 4th block of Fig. 2.2 (c) / Fig. 3.3 (a).
    fn paper_block() -> Vec<Tuple> {
        vec![
            Tuple::from([3u64, 8, 32, 25, 19]),
            Tuple::from([3u64, 8, 32, 34, 12]),
            Tuple::from([3u64, 8, 36, 39, 35]), // representative (median)
            Tuple::from([3u64, 9, 24, 32, 0]),
            Tuple::from([3u64, 9, 26, 27, 37]),
        ]
    }

    #[test]
    fn fig3_3_stream_matches_paper() {
        // §3.4 prints the coded block as the digit stream
        //   3 08 36 39 35 | 3 08 57 | 2 04 05 23 | 2 51 56 29 | 2 01 59 37
        let codec = BlockCodec::new(employee_schema());
        let coded = codec.encode(&paper_block()).unwrap();
        let body = &coded[BLOCK_HEADER_BYTES..];
        assert_eq!(
            body,
            &[
                3, 8, 36, 39, 35, // representative
                3, 8, 57, // (0,00,00,08,57): 3 leading zeros elided
                2, 4, 5, 23, // (0,00,04,05,23)
                2, 51, 56, 29, // (0,00,51,56,29)
                2, 1, 59, 37, // (0,00,01,59,37)
            ]
        );
        // Header: 5 tuples, representative at index 2 (the median).
        assert_eq!(&coded[..4], &[5, 0, 2, 0]);
    }

    #[test]
    fn fig3_3_basic_avq_differences() {
        // Fig. 3.3 (b): differences from the representative (un-chained).
        let codec = BlockCodec::with_options(employee_schema(), CodingMode::Avq, RepChoice::Median);
        let coded = codec.encode(&paper_block()).unwrap();
        let body = &coded[BLOCK_HEADER_BYTES..];
        // diffs from rep: 17296 = (0,00,04,14,16), 16727 = (0,00,04,05,23),
        //                 212509 = (0,00,51,56,29), 220418 = (0,00,53,52,02)
        assert_eq!(
            body,
            &[
                3, 8, 36, 39, 35, // representative
                2, 4, 14, 16, // φ-diff 17296
                2, 4, 5, 23, // φ-diff 16727
                2, 51, 56, 29, // φ-diff 212509
                2, 53, 52, 2, // φ-diff 220418
            ]
        );
    }

    #[test]
    fn roundtrip_all_modes() {
        let schema = employee_schema();
        let tuples = paper_block();
        for mode in CodingMode::ALL {
            for rep in RepChoice::ALL {
                let codec = BlockCodec::with_options(schema.clone(), mode, rep);
                let coded = codec.encode(&tuples).unwrap();
                assert_eq!(
                    codec.decode(&coded).unwrap(),
                    tuples,
                    "mode {mode} rep {rep}"
                );
            }
        }
    }

    #[test]
    fn measure_matches_encode() {
        let schema = employee_schema();
        let tuples = paper_block();
        for mode in CodingMode::ALL {
            for rep in RepChoice::ALL {
                let codec = BlockCodec::with_options(schema.clone(), mode, rep);
                let coded = codec.encode(&tuples).unwrap();
                assert_eq!(codec.measure(&tuples), coded.len(), "mode {mode} rep {rep}");
            }
        }
    }

    #[test]
    fn chained_measure_independent_of_rep() {
        let schema = employee_schema();
        let tuples = paper_block();
        let sizes: Vec<usize> = RepChoice::ALL
            .iter()
            .map(|&rep| {
                BlockCodec::with_options(schema.clone(), CodingMode::AvqChained, rep)
                    .measure(&tuples)
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn single_tuple_block() {
        let schema = employee_schema();
        let tuples = vec![Tuple::from([1u64, 2, 3, 4, 5])];
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
            let coded = codec.encode(&tuples).unwrap();
            assert_eq!(codec.decode(&coded).unwrap(), tuples);
            assert_eq!(codec.read_representative(&coded).unwrap(), tuples[0]);
        }
    }

    #[test]
    fn duplicate_tuples_roundtrip() {
        let schema = employee_schema();
        let t = Tuple::from([2u64, 5, 10, 10, 10]);
        let tuples = vec![t.clone(), t.clone(), t.clone()];
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
            let coded = codec.encode(&tuples).unwrap();
            assert_eq!(codec.decode(&coded).unwrap(), tuples, "mode {mode}");
        }
    }

    #[test]
    fn extreme_tuples_roundtrip() {
        let schema = employee_schema();
        let tuples = vec![
            Tuple::from([0u64, 0, 0, 0, 0]),
            Tuple::from([7u64, 15, 63, 63, 63]),
        ];
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
            let coded = codec.encode(&tuples).unwrap();
            assert_eq!(codec.decode(&coded).unwrap(), tuples, "mode {mode}");
        }
    }

    #[test]
    fn empty_input_rejected() {
        let codec = BlockCodec::new(employee_schema());
        assert_eq!(codec.encode(&[]).unwrap_err(), CodecError::EmptyBlock);
    }

    #[test]
    fn unsorted_input_rejected() {
        let codec = BlockCodec::new(employee_schema());
        let tuples = vec![
            Tuple::from([3u64, 9, 0, 0, 0]),
            Tuple::from([3u64, 8, 0, 0, 0]),
        ];
        assert_eq!(
            codec.encode(&tuples).unwrap_err(),
            CodecError::UnsortedInput { position: 1 }
        );
    }

    #[test]
    fn invalid_tuple_rejected() {
        let codec = BlockCodec::new(employee_schema());
        let tuples = vec![Tuple::from([8u64, 0, 0, 0, 0])];
        assert!(matches!(
            codec.encode(&tuples).unwrap_err(),
            CodecError::InvalidTuple { position: 0, .. }
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let codec = BlockCodec::new(employee_schema());
        let coded = codec.encode(&paper_block()).unwrap();
        for cut in [0, 2, 5, coded.len() - 1] {
            assert!(
                codec.decode(&coded[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn failed_decode_leaves_out_unchanged() {
        // The error contract of decode_into / decode_into_scratch: any
        // failure — truncation, corrupt entries, out-of-space differences —
        // must leave `out` exactly as it was, even when the failure is
        // detected after some tuples were already reconstructed.
        let schema = employee_schema();
        let sentinel = vec![Tuple::from([7u64, 7, 7, 7, 7])];
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
            let coded = codec.encode(&paper_block()).unwrap();
            let mut scratch = DecodeScratch::new();
            for cut in 0..coded.len() {
                let mut out = sentinel.clone();
                assert!(
                    codec
                        .decode_into_scratch(&coded[..cut], &mut out, &mut scratch)
                        .is_err(),
                    "mode {mode}: truncation at {cut} must fail"
                );
                assert_eq!(
                    out, sentinel,
                    "mode {mode} cut {cut}: out must be untouched"
                );
            }
        }
        // A forward-chain overflow fails after the first half was pushed.
        let codec = BlockCodec::with_options(schema, CodingMode::Avq, RepChoice::First);
        let mut bytes = vec![2, 0, 0, 0];
        bytes.extend_from_slice(&[7, 15, 63, 63, 63]);
        bytes.extend_from_slice(&[4, 1]);
        let mut out = sentinel.clone();
        assert!(codec.decode_into(&bytes, &mut out).is_err());
        assert_eq!(out, sentinel);
    }

    #[test]
    fn batch_decode_appends_and_restores_on_error() {
        let schema = employee_schema();
        let tuples = paper_block();
        let mut scratch = DecodeScratch::new();
        for mode in CodingMode::ALL {
            for kernel in [DecodeKernel::Scalar, DecodeKernel::Swar] {
                let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median)
                    .with_kernel(kernel);
                let coded = codec.encode(&tuples).unwrap();
                let mut rows = TupleBatch::new(schema.arity());
                codec
                    .decode_batch_into(&coded, &mut rows, &mut scratch)
                    .unwrap();
                codec
                    .decode_batch_into(&coded, &mut rows, &mut scratch)
                    .unwrap();
                let twice = [tuples.clone(), tuples.clone()].concat();
                assert_eq!(rows.to_tuples(), twice, "mode {mode} kernel {kernel}");
                for cut in 0..coded.len() {
                    assert!(codec
                        .decode_batch_into(&coded[..cut], &mut rows, &mut scratch)
                        .is_err());
                    assert_eq!(rows.to_tuples(), twice, "mode {mode} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn zero_width_rows_decode_to_all_zero_batch() {
        // Domains of size one serialize to zero bytes: m = 0 but arity 2.
        let schema = Schema::from_pairs(vec![
            ("x", Domain::uint(1).unwrap()),
            ("y", Domain::uint(1).unwrap()),
        ])
        .unwrap();
        let tuples = vec![Tuple::from([0u64, 0]); 3];
        for mode in CodingMode::ALL {
            for kernel in [DecodeKernel::Scalar, DecodeKernel::Swar] {
                let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median)
                    .with_kernel(kernel);
                let coded = codec.encode(&tuples).unwrap();
                let mut rows = TupleBatch::new(2);
                codec
                    .decode_batch_into(&coded, &mut rows, &mut DecodeScratch::new())
                    .unwrap();
                assert_eq!(rows.to_tuples(), tuples, "mode {mode} kernel {kernel}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_blocks_and_modes() {
        let schema = employee_schema();
        let tuples = paper_block();
        let mut scratch = DecodeScratch::new();
        for mode in CodingMode::ALL {
            let codec = BlockCodec::with_options(schema.clone(), mode, RepChoice::Median);
            let coded = codec.encode(&tuples).unwrap();
            for _ in 0..3 {
                let mut out = Vec::new();
                codec
                    .decode_into_scratch(&coded, &mut out, &mut scratch)
                    .unwrap();
                assert_eq!(out, tuples, "mode {mode}");
            }
        }
    }

    #[test]
    fn decode_rejects_bad_rep_idx() {
        let codec = BlockCodec::new(employee_schema());
        let mut coded = codec.encode(&paper_block()).unwrap();
        coded[2] = 9; // rep_idx 9 >= count 5
        assert!(matches!(
            codec.decode(&coded).unwrap_err(),
            CodecError::Corrupt { .. }
        ));
    }

    #[test]
    fn decode_rejects_out_of_space_difference() {
        // rep = max tuple, entry claims rep + diff -> escapes the space.
        let schema = employee_schema();
        let codec = BlockCodec::with_options(schema, CodingMode::Avq, RepChoice::First);
        // count=2, rep_idx=0, rep = (7,15,63,63,63), one entry after rep with
        // diff 1.
        let mut bytes = vec![2, 0, 0, 0];
        bytes.extend_from_slice(&[7, 15, 63, 63, 63]);
        bytes.extend_from_slice(&[4, 1]); // 4 leading zeros + final byte 1
        assert_eq!(
            codec.decode(&bytes).unwrap_err(),
            CodecError::DifferenceOutOfSpace { entry: 0 }
        );
    }

    #[test]
    fn read_representative_without_decode() {
        let codec = BlockCodec::new(employee_schema());
        let coded = codec.encode(&paper_block()).unwrap();
        assert_eq!(
            codec.read_representative(&coded).unwrap(),
            Tuple::from([3u64, 8, 36, 39, 35])
        );
        assert_eq!(codec.tuple_count(&coded).unwrap(), 5);
    }

    #[test]
    fn fieldwise_block_is_plain_tuples() {
        let schema = employee_schema();
        let codec =
            BlockCodec::with_options(schema.clone(), CodingMode::FieldWise, RepChoice::Median);
        let tuples = paper_block();
        let coded = codec.encode(&tuples).unwrap();
        assert_eq!(coded.len(), BLOCK_HEADER_BYTES + 5 * schema.tuple_bytes());
        assert_eq!(codec.decode(&coded).unwrap(), tuples);
    }
}
