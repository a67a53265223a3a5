//! Mixed-radix arithmetic over attribute-domain digit vectors.
//!
//! A relation scheme `𝓡 = A₁ × … × Aₙ` defines a mixed-radix number system:
//! a tuple `(a₁, …, aₙ)` with `aᵢ ∈ {0 … |Aᵢ|−1}` is a digit vector whose
//! value is the φ mapping of the paper (Eq. 2.2):
//!
//! ```text
//! φ(a₁ … aₙ) = Σᵢ aᵢ · Π_{j>i} |Aⱼ|
//! ```
//!
//! [`MixedRadix`] implements φ ([`MixedRadix::rank`]) and φ⁻¹
//! ([`MixedRadix::unrank`]) and — crucially for performance — addition,
//! subtraction, and comparison *directly in digit space* with per-digit
//! carry/borrow, so the per-tuple coding path never materializes a bignum.
//! Digit-space results are bit-identical to converting through
//! [`BigUnsigned`]; a property test in this module enforces that.

use crate::biguint::BigUnsigned;
use core::cmp::Ordering;
use core::fmt;

/// Errors arising from mixed-radix construction or digit validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadixError {
    /// A radix (domain size) of zero was supplied; every domain must have at
    /// least one value.
    ZeroRadix {
        /// Index of the offending radix.
        position: usize,
    },
    /// No radices were supplied.
    Empty,
    /// A digit vector had the wrong number of digits.
    ArityMismatch {
        /// Arity of the number system.
        expected: usize,
        /// Arity of the supplied digit vector.
        got: usize,
    },
    /// A digit was out of range for its radix.
    DigitOutOfRange {
        /// Index of the offending digit.
        position: usize,
        /// The digit value found.
        digit: u64,
        /// The radix it must be strictly less than.
        radix: u64,
    },
}

impl fmt::Display for RadixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadixError::ZeroRadix { position } => {
                write!(f, "radix at position {position} is zero")
            }
            RadixError::Empty => write!(f, "no radices supplied"),
            RadixError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} digits, got {got}")
            }
            RadixError::DigitOutOfRange {
                position,
                digit,
                radix,
            } => write!(
                f,
                "digit {digit} at position {position} out of range for radix {radix}"
            ),
        }
    }
}

impl std::error::Error for RadixError {}

/// A mixed-radix number system defined by the per-attribute domain sizes.
///
/// Position 0 is the most significant digit (attribute `A₁`), matching the
/// paper's lexicographic ordering: comparing digit vectors lexicographically
/// is the same as comparing their φ values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedRadix {
    radices: Vec<u64>,
    /// `weights[i] = Π_{j>i} radices[j]` — the place value of digit `i`.
    weights: Vec<BigUnsigned>,
    /// `‖𝓡‖ = Π radices` — one past the largest representable value.
    space_size: BigUnsigned,
    /// `‖𝓡‖` as a machine word when it fits (`None` for huge spaces).
    space_size_u64: Option<u64>,
    /// Index of the first digit of the longest suffix of `radices` whose
    /// product fits a u64 (the batched-unrank split point).
    low_split: usize,
    /// `Π radices[low_split..]` — always ≥ 1 and always a valid u64.
    low_prod: u64,
}

impl MixedRadix {
    /// Builds a number system from domain sizes. Every radix must be ≥ 1 and
    /// at least one radix must be supplied.
    pub fn new(radices: Vec<u64>) -> Result<Self, RadixError> {
        if radices.is_empty() {
            return Err(RadixError::Empty);
        }
        for (position, &r) in radices.iter().enumerate() {
            if r == 0 {
                return Err(RadixError::ZeroRadix { position });
            }
        }
        let n = radices.len();
        let mut weights = vec![BigUnsigned::one(); n];
        for i in (0..n - 1).rev() {
            weights[i] = weights[i + 1].mul_u64(radices[i + 1]);
        }
        let space_size = weights[0].mul_u64(radices[0]);
        let space_size_u64 = space_size.to_u64();
        // Longest suffix whose radix product fits a machine word: the
        // division chain for those digits can run entirely in u64.
        let mut low_split = n;
        let mut low_prod = 1u64;
        while low_split > 0 {
            let Some(p) = low_prod.checked_mul(radices[low_split - 1]) else {
                break;
            };
            low_prod = p;
            low_split -= 1;
        }
        Ok(MixedRadix {
            radices,
            weights,
            space_size,
            space_size_u64,
            low_split,
            low_prod,
        })
    }

    /// The number of digits (attributes).
    #[inline]
    pub fn arity(&self) -> usize {
        self.radices.len()
    }

    /// The per-position radices (domain sizes).
    #[inline]
    pub fn radices(&self) -> &[u64] {
        &self.radices
    }

    /// The place value `Π_{j>i} |Aⱼ|` of digit `i`.
    #[inline]
    pub fn weight(&self, i: usize) -> &BigUnsigned {
        &self.weights[i]
    }

    /// `‖𝓡‖ = Π |Aᵢ|`, the size of the tuple space.
    #[inline]
    pub fn space_size(&self) -> &BigUnsigned {
        &self.space_size
    }

    /// Validates arity and digit ranges.
    pub fn validate(&self, digits: &[u64]) -> Result<(), RadixError> {
        if digits.len() != self.radices.len() {
            return Err(RadixError::ArityMismatch {
                expected: self.radices.len(),
                got: digits.len(),
            });
        }
        for (position, (&digit, &radix)) in digits.iter().zip(&self.radices).enumerate() {
            if digit >= radix {
                return Err(RadixError::DigitOutOfRange {
                    position,
                    digit,
                    radix,
                });
            }
        }
        Ok(())
    }

    /// φ (Eq. 2.2): the ordinal position of a digit vector in the tuple
    /// space. Digits must be valid (checked in debug builds only; call
    /// [`Self::validate`] first for untrusted input).
    pub fn rank(&self, digits: &[u64]) -> BigUnsigned {
        debug_assert!(self.validate(digits).is_ok(), "invalid digits");
        // Horner evaluation: ((a₁·r₂ + a₂)·r₃ + a₃)·…
        let mut acc = BigUnsigned::zero();
        for (&digit, &radix) in digits.iter().zip(&self.radices) {
            acc = acc.mul_u64(radix).add_u64(digit);
        }
        acc
    }

    /// φ⁻¹ (Eq. 2.3–2.5): recovers the digit vector from an ordinal, or
    /// `None` if `value ≥ ‖𝓡‖`.
    pub fn unrank(&self, value: &BigUnsigned) -> Option<Vec<u64>> {
        if *value >= self.space_size {
            return None;
        }
        let mut digits = vec![0u64; self.radices.len()];
        let mut cur = value.clone();
        for i in (0..self.radices.len()).rev() {
            let (q, r) = cur.divmod_u64(self.radices[i]);
            digits[i] = r;
            cur = q;
        }
        debug_assert!(cur.is_zero());
        Some(digits)
    }

    /// φ⁻¹ into a caller-provided buffer: writes the digit vector of `value`
    /// into `out` and returns `true`, or returns `false` (leaving `out`
    /// unspecified) when `value ≥ ‖𝓡‖` or `out` has the wrong arity.
    ///
    /// Consumes `value` so the division chain can run in place — the
    /// allocation-free counterpart of [`Self::unrank`] used by streaming
    /// block decoding.
    pub fn unrank_into(&self, mut value: BigUnsigned, out: &mut [u64]) -> bool {
        self.unrank_assign_into(&mut value, out)
    }

    /// φ⁻¹ through a borrowed work value: divides `value` down to zero in
    /// place, writing the digit vector into `out`. Semantics match
    /// [`Self::unrank_into`], but the caller keeps `value` (left at zero,
    /// limb capacity intact) so one bignum can serve every oversized entry
    /// of a decode stream without reallocating.
    pub fn unrank_assign_into(&self, value: &mut BigUnsigned, out: &mut [u64]) -> bool {
        if out.len() != self.radices.len() || *value >= self.space_size {
            return false;
        }
        for i in (0..self.radices.len()).rev() {
            out[i] = value.div_assign_u64(self.radices[i]);
        }
        debug_assert!(value.is_zero());
        true
    }

    /// φ⁻¹ for values that fit a machine word, written into `out` without
    /// touching the heap. Returns `false` (leaving `out` unspecified) when
    /// `value ≥ ‖𝓡‖` or `out` has the wrong arity.
    pub fn unrank_u64_into(&self, mut value: u64, out: &mut [u64]) -> bool {
        if out.len() != self.radices.len() {
            return false;
        }
        for i in (0..self.radices.len()).rev() {
            let r = self.radices[i];
            out[i] = value % r;
            value /= r;
        }
        value == 0
    }

    /// True iff a machine-word ordinal lies inside the tuple space — the
    /// O(1) validity pre-check behind [`Self::unrank_u64_batch_into`].
    #[inline]
    pub fn value_in_space(&self, value: u64) -> bool {
        match self.space_size_u64 {
            Some(size) => value < size,
            // ‖𝓡‖ > u64::MAX: every machine word is representable.
            None => true,
        }
    }

    /// Batched φ⁻¹ for machine-word ordinals: unranks `values[k]` into
    /// `out[k·n .. (k+1)·n]` for every `k`, exploiting that consecutive
    /// ordinals usually share their high-order digits.
    ///
    /// The radix vector is split at construction time into the longest
    /// suffix whose product `P` fits a u64 and the prefix above it. Each
    /// value needs one `/ P` and one `% P`; the low digits always run their
    /// (u64-only) division chain, but the high-prefix chain is skipped
    /// whenever `values[k] / P` equals the previous value's quotient — for
    /// φ-sorted difference streams that is almost always (small gaps rarely
    /// disturb high-order digits), so the per-value cost collapses to the
    /// suffix chain. When the whole space fits a u64 the prefix is empty
    /// and the suffix chain is the entire (cheap) division ladder.
    ///
    /// Returns `false` — leaving `out` unspecified — when `out.len()` is not
    /// `values.len() · arity` or any value is outside the tuple space
    /// (use [`Self::value_in_space`] to pre-screen values one at a time).
    pub fn unrank_u64_batch_into(&self, values: &[u64], out: &mut [u64]) -> bool {
        let n = self.radices.len();
        out.len() == values.len().saturating_mul(n)
            && self.unrank_u64_batch_steps(values, out, n, 1)
    }

    /// [`Self::unrank_u64_batch_into`] into column-major slots: digit `i`
    /// of `values[k]` goes to `out[i·stride + k]`, so a run of decoded
    /// rows lands straight in the columns of a batch whose columns are
    /// `stride` apart. Returns `false` — leaving `out` unspecified — when
    /// `stride < values.len()`, `out` is too short for the last digit, or
    /// any value is outside the tuple space.
    pub fn unrank_u64_batch_into_columns(
        &self,
        values: &[u64],
        out: &mut [u64],
        stride: usize,
    ) -> bool {
        let n = self.radices.len();
        let fits = match (values.len(), n) {
            (0, _) | (_, 0) => true,
            (len, n) => {
                stride >= len
                    && (n - 1)
                        .checked_mul(stride)
                        .and_then(|last| last.checked_add(len))
                        .is_some_and(|end| end <= out.len())
            }
        };
        fits && self.unrank_u64_batch_steps(values, out, 1, stride)
    }

    /// The batched unrank both layouts share: digit `i` of `values[k]` goes
    /// to `out[k·row_step + i·digit_step]` (bounds checked by the callers).
    #[inline(always)]
    fn unrank_u64_batch_steps(
        &self,
        values: &[u64],
        out: &mut [u64],
        row_step: usize,
        digit_step: usize,
    ) -> bool {
        let n = self.radices.len();
        let split = self.low_split;
        let mut prev_hi = 0u64;
        let mut have_prev = false;
        for (k, &v) in values.iter().enumerate() {
            let base = k * row_step;
            let (hi, mut lo) = (v / self.low_prod, v % self.low_prod);
            if have_prev && hi == prev_hi {
                // Same high-order prefix as the previous value: reuse its
                // digits instead of re-running the prefix division chain.
                for i in 0..split {
                    out[base + i * digit_step] = out[base - row_step + i * digit_step];
                }
            } else {
                let mut cur = hi;
                for i in (0..split).rev() {
                    let r = self.radices[i];
                    out[base + i * digit_step] = cur % r;
                    cur /= r;
                }
                if cur != 0 {
                    // v ≥ ‖𝓡‖ (covers the split == 0 case too, where
                    // low_prod is the whole space and hi must be zero).
                    return false;
                }
                prev_hi = hi;
                have_prev = true;
            }
            for i in (split..n).rev() {
                let r = self.radices[i];
                out[base + i * digit_step] = lo % r;
                lo /= r;
            }
            // lo < low_prod by construction, so the suffix chain consumed it.
            debug_assert_eq!(lo, 0);
        }
        true
    }

    /// Lexicographic comparison of digit vectors; by construction this equals
    /// comparing φ values (the `≺` total order of §2.2).
    pub fn cmp_digits(&self, a: &[u64], b: &[u64]) -> Ordering {
        debug_assert_eq!(a.len(), self.radices.len());
        debug_assert_eq!(b.len(), self.radices.len());
        a.cmp(b)
    }

    /// In-place digit-space addition with carry: `a += b`.
    ///
    /// Returns `false` when the sum overflows the tuple space; `a` then holds
    /// the wrapped (mod-‖𝓡‖) digits, each still valid for its radix. This is
    /// the allocation-free core of [`Self::checked_add`].
    pub fn add_assign(&self, a: &mut [u64], b: &[u64]) -> bool {
        debug_assert!(self.validate(a).is_ok() && self.validate(b).is_ok());
        let mut carry = 0;
        for i in (0..self.radices.len()).rev() {
            (a[i], carry) = add_digit(a[i], b[i], carry, self.radices[i]);
        }
        carry == 0
    }

    /// In-place digit-space subtraction with borrow: `a -= b`.
    ///
    /// Returns `false` when `a < b` (the true difference is negative); `a`
    /// then holds the wrapped digits, each still valid for its radix.
    pub fn sub_assign(&self, a: &mut [u64], b: &[u64]) -> bool {
        debug_assert!(self.validate(a).is_ok() && self.validate(b).is_ok());
        let mut borrow = 0;
        for i in (0..self.radices.len()).rev() {
            (a[i], borrow) = sub_digit(a[i], b[i], borrow, self.radices[i]);
        }
        borrow == 0
    }

    /// Digit-space addition with carry: `a + b`, or `None` on overflow of the
    /// tuple space. Equivalent to `unrank(rank(a) + rank(b))`.
    pub fn checked_add(&self, a: &[u64], b: &[u64]) -> Option<Vec<u64>> {
        let mut out = a.to_vec();
        if self.add_assign(&mut out, b) {
            Some(out)
        } else {
            None
        }
    }

    /// Digit-space subtraction with borrow: `a − b`, or `None` if `a < b`.
    /// Equivalent to `unrank(rank(a) − rank(b))`.
    pub fn checked_sub(&self, a: &[u64], b: &[u64]) -> Option<Vec<u64>> {
        let mut out = a.to_vec();
        if self.sub_assign(&mut out, b) {
            Some(out)
        } else {
            None
        }
    }

    /// `|a − b|` in digit space — the difference measure `d(tᵢ, tⱼ)` of
    /// Eq. 2.6, expressed back in 𝓡-space digits as §3.4 does.
    pub fn abs_diff(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len());
        self.abs_diff_into(a, b, &mut out);
        out
    }

    /// [`Self::abs_diff`] into a caller-provided buffer (cleared first), so
    /// a loop over a block's gaps reuses one allocation.
    pub fn abs_diff_into(&self, a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        let (hi, lo) = match self.cmp_digits(a, b) {
            Ordering::Less => (b, a),
            _ => (a, b),
        };
        out.clear();
        out.extend_from_slice(hi);
        let ok = self.sub_assign(out, lo);
        debug_assert!(ok, "hi >= lo");
    }

    /// φ of a digit vector as a machine word, or `None` when it needs more
    /// than 64 bits — the allocation-free [`Self::rank`] for the small
    /// differences block coding produces.
    pub fn rank_u64(&self, digits: &[u64]) -> Option<u64> {
        debug_assert!(self.validate(digits).is_ok(), "invalid digits");
        digits
            .iter()
            .zip(&self.radices)
            .try_fold(0u64, |acc, (&digit, &radix)| {
                acc.checked_mul(radix)?.checked_add(digit)
            })
    }

    /// Adds a machine-word delta to a digit vector, or `None` on overflow.
    pub fn checked_add_value(&self, a: &[u64], delta: u64) -> Option<Vec<u64>> {
        debug_assert!(self.validate(a).is_ok());
        let n = self.radices.len();
        let mut out = vec![0u64; n];
        let mut carry = delta as u128;
        for i in (0..n).rev() {
            let r = self.radices[i] as u128;
            let sum = a[i] as u128 + carry;
            out[i] = (sum % r) as u64;
            carry = sum / r;
        }
        if carry != 0 {
            None
        } else {
            Some(out)
        }
    }

    /// The all-zeros digit vector (φ = 0).
    pub fn min_digits(&self) -> Vec<u64> {
        vec![0; self.radices.len()]
    }

    /// The largest digit vector (φ = ‖𝓡‖ − 1).
    pub fn max_digits(&self) -> Vec<u64> {
        self.radices.iter().map(|&r| r - 1).collect()
    }

    /// The successor in the ≺ order, or `None` at the top of the space.
    pub fn successor(&self, a: &[u64]) -> Option<Vec<u64>> {
        self.checked_add_value(a, 1)
    }
}

/// One digit of a mixed-radix addition: `a + d + carry` in radix `r`
/// (`a, d < r`, `carry ≤ 1`), as the digit and the carry out.
///
/// Branch-free, and short on `a`: the decode kernels chain it down a
/// column, each row's `a` the previous row's digit, where a carry is as
/// likely as not. So `d + carry` is formed off the chain, and the wrap is
/// a select, not a jump.
#[inline(always)]
pub fn add_digit(a: u64, d: u64, carry: u8, r: u64) -> (u64, u8) {
    // d < r ≤ u64::MAX, so `d + carry` does not wrap. The true sum is
    // < 2r: one conditional subtract replaces a divide, and the overflow
    // flag covers radices near u64::MAX, where the true sum can exceed the
    // word (the wrapping sub folds the lost 2⁶⁴ back in).
    let (s, over) = a.overflowing_add(d + u64::from(carry));
    let wrap = over | (s >= r);
    (
        core::hint::select_unpredictable(wrap, s.wrapping_sub(r), s),
        u8::from(wrap),
    )
}

/// One digit of a mixed-radix subtraction: `a − d − borrow` in radix `r`
/// (`a, d < r`, `borrow ≤ 1`), as the digit and the borrow out. Branch-free
/// and short on `a` like [`add_digit`].
#[inline(always)]
pub fn sub_digit(a: u64, d: u64, borrow: u8, r: u64) -> (u64, u8) {
    // d < r ≤ u64::MAX, so `need ≤ r` and the borrowed result `a + r − need`
    // fits the word; the wrapping ops reach it through a wrapped `a − need`.
    let need = d + u64::from(borrow);
    let under = a < need;
    let diff = a.wrapping_sub(need);
    (
        core::hint::select_unpredictable(under, diff.wrapping_add(r), diff),
        u8::from(under),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn employee_radix() -> MixedRadix {
        // The paper's Example 3.1 schema: |A| = 8, 16, 64, 64, 64.
        MixedRadix::new(vec![8, 16, 64, 64, 64]).unwrap()
    }

    #[test]
    fn construction_errors() {
        assert_eq!(MixedRadix::new(vec![]), Err(RadixError::Empty));
        assert_eq!(
            MixedRadix::new(vec![4, 0, 3]),
            Err(RadixError::ZeroRadix { position: 1 })
        );
    }

    #[test]
    fn space_size_is_product() {
        let mr = employee_radix();
        assert_eq!(
            mr.space_size().to_u64(),
            Some(8 * 16 * 64 * 64 * 64) // 33_554_432
        );
    }

    #[test]
    fn weights_are_suffix_products() {
        let mr = employee_radix();
        assert_eq!(mr.weight(0).to_u64(), Some(16 * 64 * 64 * 64));
        assert_eq!(mr.weight(3).to_u64(), Some(64));
        assert_eq!(mr.weight(4).to_u64(), Some(1));
    }

    /// The paper computes φ(3,08,36,39,35) = 14 830 051 in Example 3.2 (shown
    /// as the representative's 𝓝_𝓡 value in Fig. 3.3).
    #[test]
    fn paper_example_3_2_rank() {
        let mr = employee_radix();
        assert_eq!(mr.rank(&[3, 8, 36, 39, 35]).to_u64(), Some(14_830_051));
        assert_eq!(mr.rank(&[3, 8, 32, 34, 12]).to_u64(), Some(14_813_324));
        // And the difference re-expressed as digits: φ(0,00,04,05,23) = 16727.
        assert_eq!(mr.rank(&[0, 0, 4, 5, 23]).to_u64(), Some(16_727));
    }

    /// Example 3.3: φ(0,00,00,08,57) = 569 = 17296 − 16727.
    #[test]
    fn paper_example_3_3_chained_difference() {
        let mr = employee_radix();
        let d1 = mr.rank(&[0, 0, 4, 14, 16]); // 17296
        let d2 = mr.rank(&[0, 0, 4, 5, 23]); // 16727
        assert_eq!(d1.to_u64(), Some(17_296));
        let chained = d1.checked_sub(&d2).unwrap();
        assert_eq!(chained.to_u64(), Some(569));
        assert_eq!(mr.unrank(&chained).unwrap(), vec![0, 0, 0, 8, 57]);
    }

    #[test]
    fn rank_unrank_roundtrip_extremes() {
        let mr = employee_radix();
        let zero = mr.min_digits();
        assert!(mr.rank(&zero).is_zero());
        assert_eq!(mr.unrank(&BigUnsigned::zero()).unwrap(), zero);

        let max = mr.max_digits();
        let top = mr.rank(&max);
        assert_eq!(
            top.add_u64(1),
            *mr.space_size(),
            "max digit vector ranks to ‖𝓡‖−1"
        );
        assert_eq!(mr.unrank(&top).unwrap(), max);
        assert!(mr.unrank(mr.space_size()).is_none());
    }

    #[test]
    fn validate_catches_bad_digits() {
        let mr = employee_radix();
        assert!(mr.validate(&[0, 0, 0, 0, 0]).is_ok());
        assert!(mr.validate(&[7, 15, 63, 63, 63]).is_ok());
        assert_eq!(
            mr.validate(&[8, 0, 0, 0, 0]),
            Err(RadixError::DigitOutOfRange {
                position: 0,
                digit: 8,
                radix: 8
            })
        );
        assert_eq!(
            mr.validate(&[0, 0, 0]),
            Err(RadixError::ArityMismatch {
                expected: 5,
                got: 3
            })
        );
    }

    #[test]
    fn digit_add_carry_propagation() {
        let mr = MixedRadix::new(vec![10, 10, 10]).unwrap();
        // 099 + 001 = 100
        assert_eq!(
            mr.checked_add(&[0, 9, 9], &[0, 0, 1]).unwrap(),
            vec![1, 0, 0]
        );
        // 999 + 001 overflows
        assert!(mr.checked_add(&[9, 9, 9], &[0, 0, 1]).is_none());
    }

    #[test]
    fn digit_sub_borrow_propagation() {
        let mr = MixedRadix::new(vec![10, 10, 10]).unwrap();
        // 100 - 001 = 099
        assert_eq!(
            mr.checked_sub(&[1, 0, 0], &[0, 0, 1]).unwrap(),
            vec![0, 9, 9]
        );
        // 000 - 001 underflows
        assert!(mr.checked_sub(&[0, 0, 0], &[0, 0, 1]).is_none());
    }

    #[test]
    fn add_assign_wraps_on_overflow() {
        let mr = MixedRadix::new(vec![10, 10, 10]).unwrap();
        let mut a = [9u64, 9, 9];
        assert!(!mr.add_assign(&mut a, &[0, 0, 2]));
        // Wrapped mod ‖𝓡‖: 999 + 002 = 1001 ≡ 001.
        assert_eq!(a, [0, 0, 1]);
        assert!(mr.validate(&a).is_ok());
        let mut b = [0u64, 9, 9];
        assert!(mr.add_assign(&mut b, &[0, 0, 1]));
        assert_eq!(b, [1, 0, 0]);
    }

    #[test]
    fn sub_assign_wraps_on_underflow() {
        let mr = MixedRadix::new(vec![10, 10, 10]).unwrap();
        let mut a = [0u64, 0, 1];
        assert!(!mr.sub_assign(&mut a, &[0, 0, 3]));
        // Wrapped mod ‖𝓡‖: 001 − 003 ≡ 998.
        assert_eq!(a, [9, 9, 8]);
        assert!(mr.validate(&a).is_ok());
        let mut b = [1u64, 0, 0];
        assert!(mr.sub_assign(&mut b, &[0, 0, 1]));
        assert_eq!(b, [0, 9, 9]);
    }

    #[test]
    fn unrank_into_matches_unrank() {
        let mr = employee_radix();
        let mut buf = vec![0u64; mr.arity()];
        let r = mr.rank(&[3, 8, 36, 39, 35]);
        assert!(mr.unrank_into(r.clone(), &mut buf));
        assert_eq!(buf, vec![3, 8, 36, 39, 35]);
        assert!(!mr.unrank_into(mr.space_size().clone(), &mut buf));
        let mut short = vec![0u64; 2];
        assert!(!mr.unrank_into(r, &mut short));
    }

    #[test]
    fn unrank_u64_into_matches_unrank() {
        let mr = employee_radix();
        let mut buf = vec![0u64; mr.arity()];
        for v in [0u64, 1, 569, 14_830_051, 33_554_431] {
            assert!(mr.unrank_u64_into(v, &mut buf), "value {v}");
            assert_eq!(buf, mr.unrank(&BigUnsigned::from_u64(v)).unwrap());
        }
        assert!(
            !mr.unrank_u64_into(33_554_432, &mut buf),
            "‖𝓡‖ is out of space"
        );
        let mut short = vec![0u64; 2];
        assert!(!mr.unrank_u64_into(0, &mut short));
    }

    #[test]
    fn batch_unrank_matches_single() {
        let mr = employee_radix();
        let values = [0u64, 1, 569, 570, 571, 14_830_051, 33_554_431, 2, 3];
        let mut out = vec![0u64; values.len() * mr.arity()];
        assert!(mr.unrank_u64_batch_into(&values, &mut out));
        let mut single = vec![0u64; mr.arity()];
        for (k, &v) in values.iter().enumerate() {
            assert!(mr.unrank_u64_into(v, &mut single));
            assert_eq!(
                &out[k * mr.arity()..(k + 1) * mr.arity()],
                single.as_slice(),
                "value {v}"
            );
        }
    }

    #[test]
    fn batch_unrank_rejects_out_of_space() {
        let mr = employee_radix();
        // ‖𝓡‖ = 33 554 432 fits u64, so the space bound is enforced even
        // when the out-of-space value follows valid ones.
        let mut out = vec![0u64; 3 * mr.arity()];
        assert!(!mr.unrank_u64_batch_into(&[1, 2, 33_554_432], &mut out));
        // And a wrong-sized output buffer is refused outright.
        let mut short = vec![0u64; 2];
        assert!(!mr.unrank_u64_batch_into(&[1], &mut short));
        assert!(mr.value_in_space(33_554_431));
        assert!(!mr.value_in_space(33_554_432));
    }

    #[test]
    fn batch_unrank_huge_space_accepts_all_words() {
        // Three radices of u64::MAX: ‖𝓡‖ ≫ u64::MAX, so every machine word
        // is in space and the split point is interior.
        let big = u64::MAX;
        let mr = MixedRadix::new(vec![big, big, big]).unwrap();
        assert!(mr.value_in_space(u64::MAX));
        let values = [0u64, 1, u64::MAX, u64::MAX - 1, 42];
        let mut out = vec![0u64; values.len() * 3];
        assert!(mr.unrank_u64_batch_into(&values, &mut out));
        let mut single = vec![0u64; 3];
        for (k, &v) in values.iter().enumerate() {
            assert!(mr.unrank_u64_into(v, &mut single));
            assert_eq!(&out[k * 3..(k + 1) * 3], single.as_slice(), "value {v}");
        }
    }

    #[test]
    fn batch_unrank_empty_values() {
        let mr = employee_radix();
        let mut out = [0u64; 0];
        assert!(mr.unrank_u64_batch_into(&[], &mut out));
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let mr = employee_radix();
        let a = [3u64, 8, 36, 39, 35];
        let b = [3u64, 8, 32, 34, 12];
        let d1 = mr.abs_diff(&a, &b);
        let d2 = mr.abs_diff(&b, &a);
        assert_eq!(d1, d2);
        assert_eq!(d1, vec![0, 0, 4, 5, 23]); // Example 3.2
        let mut scratch = vec![9u64; 7];
        mr.abs_diff_into(&b, &a, &mut scratch);
        assert_eq!(scratch, d1, "scratch is cleared, not appended to");
    }

    #[test]
    fn rank_u64_matches_rank_until_it_overflows() {
        let mr = employee_radix();
        for digits in [[0u64, 0, 4, 5, 23], [7, 15, 63, 63, 63], [0; 5]] {
            assert_eq!(mr.rank_u64(&digits), mr.rank(&digits).to_u64());
        }
        let wide = MixedRadix::new(vec![1 << 40, 1 << 40]).unwrap();
        assert_eq!(wide.rank_u64(&[0, 77]), Some(77));
        assert_eq!(
            wide.rank_u64(&[(1 << 24) - 1, 5]),
            Some(((1 << 24) - 1) << 40 | 5)
        );
        assert_eq!(wide.rank_u64(&[1 << 24, 0]), None);
    }

    #[test]
    fn add_value_successor_chain() {
        let mr = MixedRadix::new(vec![2, 3]).unwrap();
        // Enumerate the whole 6-point space via successor.
        let mut cur = mr.min_digits();
        let mut seen = vec![cur.clone()];
        while let Some(next) = mr.successor(&cur) {
            seen.push(next.clone());
            cur = next;
        }
        assert_eq!(seen.len(), 6);
        for (i, digits) in seen.iter().enumerate() {
            assert_eq!(mr.rank(digits).to_u64(), Some(i as u64));
        }
    }

    #[test]
    fn huge_radices_do_not_overflow() {
        // Radices near u64::MAX exercise the u128 intermediates.
        let big = u64::MAX;
        let mr = MixedRadix::new(vec![big, big, big]).unwrap();
        let a = vec![big - 1, big - 1, big - 1];
        assert!(mr.validate(&a).is_ok());
        let r = mr.rank(&a);
        assert_eq!(mr.unrank(&r).unwrap(), a);
        assert!(mr.successor(&a).is_none());
        let almost = mr.checked_sub(&a, &[0, 0, 1]).unwrap();
        assert_eq!(mr.successor(&almost).unwrap(), a);
    }

    #[test]
    fn unit_radix_digits_are_always_zero() {
        // A domain of size 1 contributes nothing to the ordering.
        let mr = MixedRadix::new(vec![1, 5, 1]).unwrap();
        assert_eq!(mr.space_size().to_u64(), Some(5));
        assert_eq!(mr.rank(&[0, 3, 0]).to_u64(), Some(3));
        assert_eq!(mr.unrank(&BigUnsigned::from_u64(3)).unwrap(), vec![0, 3, 0]);
    }

    fn arb_system_and_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>)> {
        prop::collection::vec(1u64..1000, 1..8).prop_flat_map(|radices| {
            let digit_strats: Vec<_> = radices.iter().map(|&r| 0..r).collect();
            (Just(radices), digit_strats.clone(), digit_strats)
        })
    }

    proptest! {
        /// The branch-free digit steps against `u128` arithmetic, radices
        /// up to `u64::MAX` (where `a + d + carry` overflows the word).
        #[test]
        fn prop_digit_steps_match_wide_arithmetic(
            r in prop_oneof![1u64..4, any::<u64>().prop_map(|r| r.max(1)), Just(u64::MAX)],
            x in any::<u64>(),
            y in any::<u64>(),
            c in 0u8..2,
        ) {
            let (a, d) = (x % r, y % r);
            let (wide, r128) = (u128::from(a) + u128::from(d) + u128::from(c), u128::from(r));
            let sum = add_digit(a, d, c, r);
            prop_assert_eq!((u128::from(sum.0), u128::from(sum.1)), (wide % r128, wide / r128));
            let need = u128::from(d) + u128::from(c);
            let under = u128::from(a) < need;
            let diff = u128::from(a) + if under { r128 } else { 0 } - need;
            prop_assert_eq!(sub_digit(a, d, c, r), (diff as u64, u8::from(under)));
        }
    }

    proptest! {
        #[test]
        fn prop_rank_unrank_bijection((radices, a, _b) in arb_system_and_pair()) {
            let mr = MixedRadix::new(radices).unwrap();
            let r = mr.rank(&a);
            prop_assert_eq!(mr.unrank(&r).unwrap(), a);
        }

        #[test]
        fn prop_digit_ops_match_bignum((radices, a, b) in arb_system_and_pair()) {
            let mr = MixedRadix::new(radices).unwrap();
            let ra = mr.rank(&a);
            let rb = mr.rank(&b);
            // Comparison agrees.
            prop_assert_eq!(mr.cmp_digits(&a, &b), ra.cmp(&rb));
            // Subtraction agrees (when defined).
            match mr.checked_sub(&a, &b) {
                Some(diff) => {
                    let expect = ra.checked_sub(&rb).expect("a >= b");
                    prop_assert_eq!(mr.rank(&diff), expect);
                }
                None => prop_assert!(ra < rb),
            }
            // Addition agrees (when defined).
            match mr.checked_add(&a, &b) {
                Some(sum) => {
                    prop_assert_eq!(mr.rank(&sum), ra.add(&rb));
                }
                None => prop_assert!(ra.add(&rb) >= *mr.space_size()),
            }
        }

        #[test]
        fn prop_sub_then_add_roundtrip((radices, a, b) in arb_system_and_pair()) {
            let mr = MixedRadix::new(radices).unwrap();
            let (hi, lo) = if mr.cmp_digits(&a, &b) == core::cmp::Ordering::Less {
                (b, a)
            } else {
                (a, b)
            };
            let diff = mr.checked_sub(&hi, &lo).unwrap();
            prop_assert_eq!(mr.checked_add(&lo, &diff).unwrap(), hi);
        }

        #[test]
        fn prop_batch_unrank_matches_single(
            (radices, _a, _b) in arb_system_and_pair(),
            raw in prop::collection::vec(0u64..1_000_000_000, 0..40)
        ) {
            let mr = MixedRadix::new(radices).unwrap();
            let values: Vec<u64> = raw.into_iter().filter(|&v| mr.value_in_space(v)).collect();
            let n = mr.arity();
            let mut out = vec![0u64; values.len() * n];
            prop_assert!(mr.unrank_u64_batch_into(&values, &mut out));
            // Column-major, with spare slots between columns.
            let stride = values.len() + 3;
            let mut cols = vec![0u64; n * stride];
            prop_assert!(mr.unrank_u64_batch_into_columns(&values, &mut cols, stride));
            let mut single = vec![0u64; n];
            for (k, &v) in values.iter().enumerate() {
                prop_assert!(mr.unrank_u64_into(v, &mut single));
                prop_assert_eq!(&out[k * n..(k + 1) * n], single.as_slice());
                for (i, &d) in single.iter().enumerate() {
                    prop_assert_eq!(cols[i * stride + k], d);
                }
            }
            if n > 0 && !values.is_empty() {
                let short = n * stride - stride + values.len() - 1;
                prop_assert!(!mr.unrank_u64_batch_into_columns(&values, &mut cols[..short], stride));
                prop_assert!(!mr.unrank_u64_batch_into_columns(&values, &mut cols, values.len() - 1));
            }
        }

        #[test]
        fn prop_add_value_matches_bignum(
            (radices, a, _b) in arb_system_and_pair(),
            delta in 0u64..1_000_000
        ) {
            let mr = MixedRadix::new(radices).unwrap();
            match mr.checked_add_value(&a, delta) {
                Some(sum) => {
                    prop_assert_eq!(mr.rank(&sum), mr.rank(&a).add_u64(delta));
                }
                None => {
                    prop_assert!(mr.rank(&a).add_u64(delta) >= *mr.space_size());
                }
            }
        }
    }
}
