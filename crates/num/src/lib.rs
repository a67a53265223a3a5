//! # avq-num — numeric substrate for AVQ
//!
//! Numeric foundations for the AVQ (Augmented Vector Quantization) database
//! compression library:
//!
//! * [`BigUnsigned`] — arbitrary-precision unsigned integers, because the
//!   ordinal tuple space `‖𝓡‖ = Π|Aᵢ|` of a realistic relation scheme does
//!   not fit any machine word.
//! * [`MixedRadix`] — the φ / φ⁻¹ mapping of the paper (Eq. 2.2–2.5) plus
//!   carry/borrow arithmetic performed *directly on digit vectors*, which is
//!   what lets the per-tuple coding path avoid bignums entirely.
//!
//! Everything else in the workspace builds on these two types.

mod biguint;
mod radix;

pub use biguint::BigUnsigned;
pub use radix::{add_digit, sub_digit, MixedRadix, RadixError};
