//! Encoded tuples: vectors of domain ordinals.

use core::fmt;
use core::ops::Index;

/// A tuple after §3.1 attribute encoding: one ordinal (digit) per attribute.
///
/// `Tuple` derives its ordering from the digit vector; because digit vectors
/// are mixed-radix representations with attribute `A₁` most significant,
/// this lexicographic order *is* the φ order of §2.2 (`tᵢ ≺ tⱼ ⇔
/// φ(tᵢ) < φ(tⱼ)`) — no bignum is consulted for sorting.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    digits: Vec<u64>,
}

impl Tuple {
    /// Wraps a digit vector. Digits are *not* validated here; use
    /// [`crate::Schema::validate_tuple`] for untrusted input.
    #[inline]
    pub fn new(digits: Vec<u64>) -> Self {
        Tuple { digits }
    }

    /// The digit (ordinal) vector.
    #[inline]
    pub fn digits(&self) -> &[u64] {
        &self.digits
    }

    /// Mutable access to the digits (used by in-place decode paths).
    #[inline]
    pub fn digits_mut(&mut self) -> &mut [u64] {
        &mut self.digits
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.digits.len()
    }

    /// Consumes the tuple, returning its digit vector.
    #[inline]
    pub fn into_digits(self) -> Vec<u64> {
        self.digits
    }
}

impl From<Vec<u64>> for Tuple {
    #[inline]
    fn from(digits: Vec<u64>) -> Self {
        Tuple::new(digits)
    }
}

impl From<&[u64]> for Tuple {
    #[inline]
    fn from(digits: &[u64]) -> Self {
        Tuple::new(digits.to_vec())
    }
}

impl<const N: usize> From<[u64; N]> for Tuple {
    #[inline]
    fn from(digits: [u64; N]) -> Self {
        Tuple::new(digits.to_vec())
    }
}

impl Index<usize> for Tuple {
    type Output = u64;
    #[inline]
    fn index(&self, i: usize) -> &u64 {
        &self.digits[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, d) in self.digits.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "⟩")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = Tuple::from([3u64, 8, 32, 34, 12]);
        let b = Tuple::from([3u64, 8, 36, 39, 35]);
        let c = Tuple::from([3u64, 9, 0, 0, 0]);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn accessors() {
        let t = Tuple::from([1u64, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[1], 2);
        assert_eq!(t.digits(), &[1, 2, 3]);
        assert_eq!(t.into_digits(), vec![1, 2, 3]);
    }

    #[test]
    fn debug_format() {
        let t = Tuple::from([3u64, 8, 36]);
        assert_eq!(format!("{t:?}"), "⟨3,8,36⟩");
        assert_eq!(t.to_string(), "⟨3,8,36⟩");
    }
}
