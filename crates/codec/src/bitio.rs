//! Bit-level I/O and Elias-gamma codes for the bit-aligned coding mode.
//!
//! The paper's §3.4 run-length coder is *byte*-aligned: a difference costs
//! `1 + (m − leading-zero-bytes)` whole bytes, wasting up to 7 bits at each
//! end. [`crate::CodingMode::AvqChainedBits`] (a DESIGN.md extension)
//! removes that slack: each difference is stored as
//! `gamma(bitlen + 1) ‖ bitlen raw bits` of its φ-distance, where `gamma`
//! is the Elias-gamma prefix code. This module supplies the MSB-first
//! [`BitWriter`]/[`BitReader`] pair and the gamma code.

use avq_num::BigUnsigned;

/// Writes bits MSB-first into a byte vector.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final byte (0 ⇒ byte boundary).
    used: u8,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bits written so far.
    #[cfg(test)]
    pub fn bit_len(&self) -> usize {
        // `used` counts the free bits remaining in the last byte.
        self.bytes.len() * 8 - self.used as usize
    }

    /// Writes a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
            self.used = 8;
        }
        self.used -= 1;
        if bit {
            if let Some(last) = self.bytes.last_mut() {
                *last |= 1 << self.used;
            }
        }
    }

    /// Writes the low `n` bits of `v`, MSB first.
    pub fn push_bits_u64(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        for i in (0..n).rev() {
            self.push_bit(v >> i & 1 == 1);
        }
    }

    /// Writes the `n` low bits of a bignum, MSB first (`n ≥ v.bit_len()`).
    pub fn push_bits_big(&mut self, v: &BigUnsigned, n: usize) {
        debug_assert!(n >= v.bit_len());
        let bytes = v.to_bytes_be();
        let total = bytes.len() * 8;
        // Leading padding zeros.
        for _ in 0..n.saturating_sub(total) {
            self.push_bit(false);
        }
        let skip = total.saturating_sub(n);
        for i in skip..total {
            // `i < total = bytes.len() * 8`, so the byte always exists.
            let byte = bytes.get(i / 8).copied().unwrap_or(0);
            self.push_bit(byte >> (7 - i % 8) & 1 == 1);
        }
    }

    /// Elias-gamma code of `v` (`v ≥ 1`): ⌊log₂ v⌋ zeros then the binary
    /// representation of `v`.
    pub fn push_gamma(&mut self, v: u64) {
        debug_assert!(v >= 1, "gamma codes positive integers only");
        let n = 63 - v.leading_zeros();
        for _ in 0..n {
            self.push_bit(false);
        }
        self.push_bits_u64(v, n + 1);
    }

    /// Finishes, returning the padded byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits consumed so far.
    #[cfg(test)]
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Reads one bit; `None` past the end.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = byte >> (7 - self.pos % 8) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits into a u64, MSB first.
    pub fn read_bits_u64(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        for _ in 0..n {
            v = v << 1 | self.read_bit()? as u64;
        }
        Some(v)
    }

    /// Bits left before the end of the input.
    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.pos)
    }

    /// Reads `n` bits into a bignum, MSB first.
    ///
    /// `n` may come straight from an attacker-controlled gamma code, so the
    /// read refuses (returns `None`) before allocating anything when the
    /// input cannot possibly hold `n` more bits.
    pub fn read_bits_big(&mut self, n: usize) -> Option<BigUnsigned> {
        let mut staging = Vec::new();
        let mut out = BigUnsigned::zero();
        self.read_bits_big_into(n, &mut staging, &mut out)?;
        Some(out)
    }

    /// [`Self::read_bits_big`] into a caller-provided bignum, staging the
    /// bytes in `staging` (same refuse-before-allocating contract): both
    /// buffers are reused across calls, so the steady-state decode of
    /// oversized entries never touches the allocator.
    pub fn read_bits_big_into(
        &mut self,
        n: usize,
        staging: &mut Vec<u8>,
        out: &mut BigUnsigned,
    ) -> Option<()> {
        if n > self.remaining_bits() {
            return None;
        }
        let nbytes = n.div_ceil(8);
        staging.clear();
        // The resize is bounded: n was checked against remaining_bits above.
        staging.resize(nbytes, 0);
        let lead = nbytes * 8 - n;
        for i in 0..n {
            let bit = self.read_bit()? as u8;
            let at = lead + i;
            // `at < nbytes * 8`, so the byte always exists.
            if let Some(b) = staging.get_mut(at / 8) {
                *b |= bit << (7 - at % 8);
            }
        }
        out.set_from_bytes_be(staging);
        Some(())
    }

    /// Reads an Elias-gamma-coded positive integer.
    pub fn read_gamma(&mut self) -> Option<u64> {
        let mut zeros = 0u32;
        loop {
            if self.read_bit()? {
                break;
            }
            zeros += 1;
            if zeros > 63 {
                return None; // malformed: would overflow u64
            }
        }
        let rest = self.read_bits_u64(zeros)?;
        Some(1u64 << zeros | rest)
    }
}

/// Word-at-a-time MSB-first bit reader — the SWAR counterpart of
/// [`BitReader`].
///
/// Bits are staged in a 64-bit buffer whose *most significant* `bits` bits
/// are valid (everything below them is zero, an invariant every refill and
/// consume preserves). Refilling loads up to eight input bytes with one
/// `u64::from_be_bytes`, so a gamma length + payload pair is usually
/// decoded with two shifts and one `leading_zeros` instead of dozens of
/// per-bit pulls. Reads yield bit-identical results to [`BitReader`] on
/// every input, including truncated and malformed streams (a property test
/// below enforces this).
#[derive(Debug)]
pub(crate) struct WordReader<'a> {
    bytes: &'a [u8],
    /// Next input byte not yet staged in `buf`.
    byte_pos: usize,
    /// Staging buffer; the `bits` MSBs are valid, the rest are zero.
    buf: u64,
    /// Number of valid bits in `buf` (0..=64).
    bits: u32,
}

impl<'a> WordReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        WordReader {
            bytes,
            byte_pos: 0,
            buf: 0,
            bits: 0,
        }
    }

    /// Bits left in the buffer plus the unread input.
    pub fn remaining_bits(&self) -> usize {
        self.bits as usize + 8 * (self.bytes.len().saturating_sub(self.byte_pos))
    }

    /// Tops the buffer up to at least 57 valid bits (or until the input is
    /// exhausted), loading whole bytes only.
    #[inline]
    fn refill(&mut self) {
        if self.bits > 56 {
            return;
        }
        if let Some(win) = self
            .bytes
            .get(self.byte_pos..)
            .and_then(|s| s.first_chunk::<8>())
        {
            // Fast path: stage the leading (64 − bits)/8 whole bytes of the
            // next word; the masked load keeps the below-`bits` region zero.
            let take = (64 - self.bits) / 8;
            let w = u64::from_be_bytes(*win) & (!0u64 << (64 - 8 * take));
            self.buf |= w >> self.bits;
            self.bits += 8 * take;
            self.byte_pos += take as usize;
            return;
        }
        // Tail: fewer than 8 input bytes left, load them one at a time.
        while self.bits <= 56 {
            let Some(&b) = self.bytes.get(self.byte_pos) else {
                return;
            };
            self.byte_pos += 1;
            self.buf |= (b as u64) << (56 - self.bits);
            self.bits += 8;
        }
    }

    /// Reads one bit; `None` past the end.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits_u64(1).map(|v| v == 1)
    }

    /// Reads `n ≤ 64` bits into a u64, MSB first; `None` when fewer than
    /// `n` bits remain.
    pub fn read_bits_u64(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        if n > 57 {
            // Two buffered reads; each half is ≤ 32 bits.
            let hi = self.read_bits_u64(32)?;
            let lo = self.read_bits_u64(n - 32)?;
            return Some(hi << (n - 32) | lo);
        }
        self.refill();
        if self.bits < n {
            return None;
        }
        if n == 0 {
            return Some(0);
        }
        let v = self.buf >> (64 - n);
        self.buf <<= n;
        self.bits -= n;
        Some(v)
    }

    /// Reads `n` bits into a bignum, MSB first.
    ///
    /// `n` may come straight from an attacker-controlled gamma code, so the
    /// read refuses (returns `None`) before allocating anything when the
    /// input cannot possibly hold `n` more bits.
    #[cfg(test)]
    pub fn read_bits_big(&mut self, n: usize) -> Option<BigUnsigned> {
        let mut staging = Vec::new();
        let mut out = BigUnsigned::zero();
        self.read_bits_big_into(n, &mut staging, &mut out)?;
        Some(out)
    }

    /// Reads `n` bits MSB first into a caller-provided bignum, staging the
    /// bytes in `staging`. Equivalent to [`Self::read_bits_big`] (including
    /// the refuse-before-allocating contract on truncated input), but both
    /// buffers are reused across calls, so the steady-state decode of
    /// oversized entries never touches the allocator.
    pub fn read_bits_big_into(
        &mut self,
        n: usize,
        staging: &mut Vec<u8>,
        out: &mut BigUnsigned,
    ) -> Option<()> {
        if n > self.remaining_bits() {
            return None;
        }
        let nbytes = n.div_ceil(8);
        staging.clear();
        // The resize is bounded: n was checked against remaining_bits above.
        staging.resize(nbytes, 0);
        let mut i = 0usize;
        // A partial leading byte keeps the value right-aligned, matching
        // BigUnsigned::from_bytes_be.
        let lead = n % 8;
        if lead != 0 {
            if let Some(b) = staging.get_mut(0) {
                *b = self.read_bits_u64(lead as u32)? as u8;
            }
            i = 1;
        }
        while i < nbytes {
            if let Some(b) = staging.get_mut(i) {
                *b = self.read_bits_u64(8)? as u8;
            }
            i += 1;
        }
        out.set_from_bytes_be(staging);
        Some(())
    }

    /// Reads an Elias-gamma-coded positive integer.
    ///
    /// Fast path: after a refill the buffer holds ≥ 57 bits (when input
    /// remains), so any code with ≤ 28 leading zeros — every length the
    /// encoder emits for payloads under 2²⁹ bits — is decoded with one
    /// `leading_zeros` and one shift.
    pub fn read_gamma(&mut self) -> Option<u64> {
        self.refill();
        let lz = self.buf.leading_zeros();
        let total = 2 * lz + 1;
        if lz < self.bits && total <= self.bits {
            // The whole code is buffered: `total` MSBs are `lz` zeros, the
            // marker one, and `lz` payload bits — exactly the value.
            let v = self.buf >> (64 - total);
            self.buf <<= total;
            self.bits -= total;
            return Some(v);
        }
        // Slow path: the run of zeros reaches past the buffer (huge or
        // malformed code) or the input is nearly exhausted.
        let mut zeros = 0u32;
        loop {
            if self.read_bit()? {
                break;
            }
            zeros += 1;
            if zeros > 63 {
                return None; // malformed: would overflow u64
            }
        }
        let rest = self.read_bits_u64(zeros)?;
        Some(1u64 << zeros | rest)
    }
}

/// Bits needed for the gamma code of `v ≥ 1`.
pub(crate) fn gamma_len(v: u64) -> usize {
    debug_assert!(v >= 1);
    (2 * (63 - v.leading_zeros()) + 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn u64_fields_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bits_u64(0b101, 3);
        w.push_bits_u64(u64::MAX, 64);
        w.push_bits_u64(0, 5);
        w.push_bits_u64(42, 17);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits_u64(3), Some(0b101));
        assert_eq!(r.read_bits_u64(64), Some(u64::MAX));
        assert_eq!(r.read_bits_u64(5), Some(0));
        assert_eq!(r.read_bits_u64(17), Some(42));
    }

    #[test]
    fn gamma_roundtrip() {
        let mut w = BitWriter::new();
        let values = [1u64, 2, 3, 4, 7, 8, 100, 1_000_000, u32::MAX as u64];
        for &v in &values {
            w.push_gamma(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_gamma(), Some(v), "value {v}");
        }
    }

    #[test]
    fn gamma_len_matches_written() {
        for v in [1u64, 2, 3, 7, 8, 255, 256, 12345] {
            let mut w = BitWriter::new();
            w.push_gamma(v);
            assert_eq!(w.bit_len(), gamma_len(v), "value {v}");
        }
        assert_eq!(gamma_len(1), 1);
        assert_eq!(gamma_len(2), 3);
        assert_eq!(gamma_len(4), 5);
    }

    #[test]
    fn bignum_fields_roundtrip() {
        let vals = [
            BigUnsigned::zero(),
            BigUnsigned::from_u64(1),
            BigUnsigned::from_u64(0xDEAD_BEEF),
            BigUnsigned::from_u128(u128::MAX),
            BigUnsigned::from_bytes_be(&[0x7F; 20]),
        ];
        let mut w = BitWriter::new();
        for v in &vals {
            // Write with 3 bits of left padding.
            w.push_bits_big(v, v.bit_len() + 3);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in &vals {
            assert_eq!(r.read_bits_big(v.bit_len() + 3), Some(v.clone()));
        }
    }

    #[test]
    fn reads_past_end_are_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits_u64(8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits_u64(1), None);
        assert_eq!(r.read_gamma(), None);
    }

    #[test]
    fn malformed_gamma_rejected() {
        // 64+ leading zeros cannot be a valid u64 gamma code.
        let zeros = [0u8; 10];
        let mut r = BitReader::new(&zeros);
        assert_eq!(r.read_gamma(), None);
    }

    #[test]
    fn bit_positions_track() {
        let mut w = BitWriter::new();
        w.push_gamma(5); // 5 bits: 00101
        assert_eq!(w.bit_len(), 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_gamma().unwrap();
        assert_eq!(r.bit_pos(), 5);
    }

    /// A deterministic mix of gamma codes and raw fields that stresses
    /// refill boundaries (values straddling the 57-bit fast-path limit,
    /// runs of tiny codes, maximal codes).
    fn stress_stream() -> (Vec<u8>, Vec<(u64, u32)>) {
        let mut w = BitWriter::new();
        let mut script = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..400u64 {
            // xorshift: cheap deterministic pseudo-randomness.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let gamma = 1 + (x % [1, 2, 30, 1 << 20, u32::MAX as u64][(i % 5) as usize]);
            w.push_gamma(gamma);
            let bits = 1 + (x >> 32) as u32 % 64;
            let raw = if bits == 64 { x } else { x & ((1 << bits) - 1) };
            w.push_bits_u64(raw, bits);
            script.push((gamma, bits));
            script.push((raw, bits));
        }
        (w.into_bytes(), script)
    }

    #[test]
    fn word_reader_matches_bit_reader() {
        let (bytes, script) = stress_stream();
        let mut bit = BitReader::new(&bytes);
        let mut word = WordReader::new(&bytes);
        for (i, &(expected, bits)) in script.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(bit.read_gamma(), Some(expected), "gamma {i}");
                assert_eq!(word.read_gamma(), Some(expected), "gamma {i} (word)");
            } else {
                assert_eq!(bit.read_bits_u64(bits), Some(expected), "raw {i}");
                assert_eq!(word.read_bits_u64(bits), Some(expected), "raw {i} (word)");
            }
            assert_eq!(bit.remaining_bits(), word.remaining_bits(), "pos {i}");
        }
    }

    #[test]
    fn word_reader_matches_bit_reader_on_truncated_input() {
        let (bytes, _) = stress_stream();
        // Truncate at every length; both readers must agree on every read
        // until (and including) the first failure.
        for cut in 0..bytes.len().min(64) {
            let slice = &bytes[..cut];
            let mut bit = BitReader::new(slice);
            let mut word = WordReader::new(slice);
            loop {
                let a = bit.read_gamma();
                let b = word.read_gamma();
                assert_eq!(a, b, "gamma at cut {cut}");
                if a.is_none() {
                    break;
                }
                let a = bit.read_bits_u64(13);
                let b = word.read_bits_u64(13);
                assert_eq!(a, b, "raw at cut {cut}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn word_reader_matches_bit_reader_on_big_fields() {
        let vals = [
            BigUnsigned::zero(),
            BigUnsigned::from_u64(1),
            BigUnsigned::from_u64(0xDEAD_BEEF),
            BigUnsigned::from_u128(u128::MAX),
            BigUnsigned::from_bytes_be(&[0x7F; 20]),
        ];
        let mut w = BitWriter::new();
        for v in &vals {
            w.push_gamma(v.bit_len() as u64 + 1);
            w.push_bits_big(v, v.bit_len() + 3);
        }
        let bytes = w.into_bytes();
        let mut bit = BitReader::new(&bytes);
        let mut word = WordReader::new(&bytes);
        for v in &vals {
            assert_eq!(bit.read_gamma(), word.read_gamma());
            let a = bit.read_bits_big(v.bit_len() + 3);
            let b = word.read_bits_big(v.bit_len() + 3);
            assert_eq!(a, b);
            assert_eq!(a, Some(v.clone()));
        }
    }

    #[test]
    fn word_reader_rejects_malformed_gamma() {
        let zeros = [0u8; 10];
        let mut r = WordReader::new(&zeros);
        assert_eq!(r.read_gamma(), None);
    }
}
