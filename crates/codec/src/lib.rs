//! # avq-codec — Augmented Vector Quantization block coding
//!
//! The core contribution of Ng & Ravishankar (ICDE 1995): lossless,
//! block-local compression of relational tuples by differential coding
//! against a per-block representative (codebook) tuple.
//!
//! The pipeline (§3 of the paper):
//!
//! 1. tuples arrive already attribute-encoded ([`avq_schema`], §3.1);
//! 2. they are sorted into φ order (§3.2);
//! 3. [`BlockPacker`] cuts the sorted run into block-sized pieces (§3.3);
//! 4. [`BlockCodec`] codes each piece (§3.4): the median tuple is stored
//!    raw, every other tuple as a run-length-coded φ-difference.
//!
//! [`compress`] runs the whole pipeline over a [`avq_schema::Relation`];
//! [`insert_into_block`] / [`delete_from_block`] implement the confined
//! block updates of §4.2.
//!
//! ## Coding modes
//!
//! Three [`CodingMode`]s are provided — [`CodingMode::FieldWise`] (domain
//! mapping only), [`CodingMode::Avq`] (differences from the representative,
//! Fig. 3.3 (b)), and [`CodingMode::AvqChained`] (neighbour-chained
//! differences, Fig. 3.3 (c/d), the default) — matching the three techniques
//! §5.2 evaluates.
//!
//! ## Example
//!
//! ```
//! use avq_codec::{compress, CodecOptions};
//! use avq_schema::{Domain, Relation, Schema, Tuple};
//!
//! let schema = Schema::from_pairs(vec![
//!     ("dept", Domain::uint(8).unwrap()),        // 1 byte
//!     ("grade", Domain::uint(4096).unwrap()),    // 2 bytes
//!     ("empno", Domain::uint(65536).unwrap()),   // 2 bytes
//! ]).unwrap();
//! let rel = Relation::from_tuples(
//!     schema,
//!     (0..50u64).map(|i| Tuple::from([i % 8, i % 16, i])).collect(),
//! ).unwrap();
//!
//! let coded = compress(&rel, CodecOptions::default()).unwrap();
//! assert_eq!(coded.decompress().unwrap().len(), 50);
//! assert!(coded.stats().payload_ratio() < 1.0);
//! ```

// Untrusted input is decoded here: a damaged byte is a typed error, never
// a panic (DESIGN.md §12). Test code is exempt through `clippy.toml`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

mod bitio;
mod block;
mod compress;
mod error;
mod kernel;
mod mode;
mod packer;
mod parallel;
mod rle;
mod stats;
mod update;

pub use block::{BlockCodec, DecodeScratch, BLOCK_HEADER_BYTES};
pub use compress::{compress, compress_sorted, BlockMeta, CodecOptions, CodedRelation};
pub use error::{CodecError, Section};
pub use kernel::DecodeKernel;
pub use mode::{CodingMode, RepChoice};
pub use packer::BlockPacker;
pub use parallel::decompress_parallel;
pub use stats::CompressionStats;
pub use update::{
    delete_from_block, delete_from_rows, insert_into_block, insert_into_rows, DeleteOutcome,
    InsertOutcome, Spliced,
};
