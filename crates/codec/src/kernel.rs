//! Decode-kernel selection: scalar reference path vs SWAR fast path.
//!
//! Every block stream can be decoded by two interchangeable
//! implementations. The *scalar* kernel is the original byte-at-a-time /
//! bit-at-a-time code and serves as the reference oracle; the *SWAR*
//! kernel ("SIMD within a register", the default) parses run-length
//! entries with whole-word loads, decodes Elias-gamma lengths from a
//! 64-bit buffer using `leading_zeros`, and unranks runs of small
//! φ-distances in batches that share their high-order division work.
//! Both kernels produce identical tuples on valid input and identical
//! error classifications on corrupt input; a differential proptest
//! (`kernel_equivalence.rs`) enforces this.

use core::fmt;

/// Which decode implementation [`crate::BlockCodec`] routes through.
///
/// Encoding is unaffected: both kernels read the same stream format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeKernel {
    /// Byte-at-a-time reference implementation (the original decode path).
    Scalar,
    /// Word-at-a-time SWAR kernels: 8-byte entry loads, bit-buffer gamma
    /// decoding, and batched φ⁻¹ unranking.
    #[default]
    Swar,
}

impl DecodeKernel {
    /// Both kernels, for sweeps and differential tests.
    pub const ALL: [DecodeKernel; 2] = [DecodeKernel::Scalar, DecodeKernel::Swar];

    /// Stable identifier used in experiment output.
    pub fn tag(self) -> u8 {
        match self {
            DecodeKernel::Scalar => 0,
            DecodeKernel::Swar => 1,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(DecodeKernel::Scalar),
            1 => Some(DecodeKernel::Swar),
            _ => None,
        }
    }
}

impl fmt::Display for DecodeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeKernel::Scalar => write!(f, "scalar"),
            DecodeKernel::Swar => write!(f, "swar"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for k in DecodeKernel::ALL {
            assert_eq!(DecodeKernel::from_tag(k.tag()), Some(k));
        }
        assert_eq!(DecodeKernel::from_tag(7), None);
    }

    #[test]
    fn swar_is_the_default() {
        assert_eq!(DecodeKernel::default(), DecodeKernel::Swar);
    }
}
