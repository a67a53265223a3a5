//! # avq-file — on-disk persistence for AVQ-compressed relations
//!
//! A self-describing `.avq` container: magic + version, the coding options,
//! the full schema (including string dictionaries), the coded block
//! streams, and a trailing CRC-32 (implemented from scratch in
//! [`crc32`]/[`Crc32`]) over the whole file. Loading reconstructs a
//! [`avq_codec::CodedRelation`] — including per-block metadata — and
//! verifies both the checksum and the structural invariants, so a corrupted
//! file errors instead of decoding to wrong tuples.
//!
//! ```
//! use avq_codec::{compress, CodecOptions};
//! use avq_schema::{Domain, Relation, Schema, Tuple};
//!
//! let schema = Schema::from_pairs(vec![("x", Domain::uint(1000).unwrap())]).unwrap();
//! let rel = Relation::from_tuples(
//!     schema,
//!     (0..100u64).map(|i| Tuple::from([i * 3])).collect(),
//! ).unwrap();
//! let coded = compress(&rel, CodecOptions::default()).unwrap();
//!
//! let mut buf = Vec::new();
//! avq_file::write_coded_relation(&mut buf, &coded).unwrap();
//! let back = avq_file::read_coded_relation(&mut &buf[..]).unwrap();
//! assert_eq!(back.tuple_count(), 100);
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

mod crc;
mod error;
mod format;

pub use crc::{crc32, Crc32};
pub use error::{FileError, Section};
pub use format::{load, read_coded_relation, save, write_coded_relation};
