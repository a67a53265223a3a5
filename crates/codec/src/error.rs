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
        /// Which part of the block stream was inconsistent (`"header"`,
        /// `"representative"`, `"body"`, or `"entries"`; the database layer
        /// additionally uses `"order"` when a decoded run violates φ order,
        /// and `"bookkeeping"` when it disagrees with the block's recorded
        /// count, min or max).
        section: &'static str,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the corruption message format: section and byte offset must
    /// always be present so a report can be traced back into the stream.
    #[test]
    fn corrupt_display_carries_section_and_offset() {
        let e = CodecError::Corrupt {
            section: "entries",
            offset: 17,
            detail: "missing count byte".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupt block stream in entries at byte 17: missing count byte"
        );
    }
}
