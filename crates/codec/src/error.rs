//! Error types for block coding and decoding.

use core::fmt;

/// Errors raised while coding or decoding AVQ blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Tried to encode an empty run of tuples.
    EmptyBlock,
    /// A run of tuples handed to the coder was not in φ order.
    UnsortedInput {
        /// Index of the first out-of-order tuple.
        position: usize,
    },
    /// A tuple did not match the schema (arity or digit range).
    InvalidTuple {
        /// Index of the offending tuple within the run.
        position: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// More tuples than the block header can count (u16).
    TooManyTuples {
        /// Number of tuples supplied.
        got: usize,
    },
    /// The coded form of the run exceeds the requested capacity.
    BlockOverflow {
        /// Bytes the coded run needs.
        needed: usize,
        /// Bytes available.
        capacity: usize,
    },
    /// The encoded stream ended prematurely or contained impossible values.
    Corrupt {
        /// Which part of the block stream was inconsistent.
        section: Section,
        /// Byte offset at which the inconsistency was detected.
        offset: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// Decoded difference arithmetic escaped the tuple space — the stream
    /// does not describe a valid block for this schema.
    DifferenceOutOfSpace {
        /// Index of the entry whose reconstruction failed.
        entry: usize,
    },
    /// A tuple to delete was not present in the block.
    TupleNotFound,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::EmptyBlock => write!(f, "cannot encode an empty block"),
            CodecError::UnsortedInput { position } => {
                write!(f, "input tuples not in φ order at position {position}")
            }
            CodecError::InvalidTuple { position, detail } => {
                write!(f, "invalid tuple at position {position}: {detail}")
            }
            CodecError::TooManyTuples { got } => {
                write!(f, "{got} tuples exceed the u16 block-header limit")
            }
            CodecError::BlockOverflow { needed, capacity } => {
                write!(
                    f,
                    "coded block needs {needed} bytes, capacity is {capacity}"
                )
            }
            CodecError::Corrupt {
                section,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "corrupt block stream in {section} at byte {offset}: {detail}"
                )
            }
            CodecError::DifferenceOutOfSpace { entry } => {
                write!(
                    f,
                    "difference reconstruction escaped tuple space at entry {entry}"
                )
            }
            CodecError::TupleNotFound => write!(f, "tuple not found in block"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Where in a coded block a [`CodecError::Corrupt`] was detected.
///
/// The vocabulary is closed: a section outside it, or the container's
/// `avq_file` sections, does not type-check.
///
/// ```compile_fail
/// let e = avq_codec::CodecError::Corrupt {
///     section: "mystery",
///     offset: 1,
///     detail: String::new(),
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The coded-block header (counts, mode byte).
    Header,
    /// The stored representative tuple.
    Representative,
    /// The coded entry bytes after the header, as a whole.
    Body,
    /// One entry's RLE, mixed-radix or bit-packed payload.
    Entries,
    /// A decoded run out of φ order. Only the database layer (`avq-db`)
    /// raises it, on a decoded-cache miss; the types do not enforce that.
    Order,
    /// A decoded run that disagrees with its block's recorded count, min or
    /// max. Only the database layer (`avq-db`) raises it; the types do not
    /// enforce that.
    Bookkeeping,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Header => "header",
            Section::Representative => "representative",
            Section::Body => "body",
            Section::Entries => "entries",
            Section::Order => "order",
            Section::Bookkeeping => "bookkeeping",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the corruption message format: section and byte offset must
    /// always be present so a report can be traced back into the stream.
    #[test]
    fn corrupt_display_carries_section_and_offset() {
        let e = CodecError::Corrupt {
            section: Section::Entries,
            offset: 17,
            detail: "missing count byte".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupt block stream in entries at byte 17: missing count byte"
        );
    }
}
