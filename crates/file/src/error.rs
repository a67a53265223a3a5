//! Error type for the `.avq` container format.

use avq_codec::CodecError;
use avq_schema::SchemaError;
use core::fmt;

/// Errors raised while reading or writing `.avq` files.
#[derive(Debug)]
pub enum FileError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `AVQF` magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The trailing CRC-32 does not match the file contents.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// A structural inconsistency (with a valid checksum, this indicates a
    /// writer bug or a forged file).
    Corrupt {
        /// Container section being parsed when validation failed.
        section: Section,
        /// Byte offset of the inconsistency.
        offset: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// The embedded schema failed to reconstruct.
    Schema(SchemaError),
    /// A block stream failed to decode.
    Codec(CodecError),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "I/O error: {e}"),
            FileError::BadMagic => write!(f, "not an .avq file (bad magic)"),
            FileError::UnsupportedVersion { version } => {
                write!(f, "unsupported .avq format version {version}")
            }
            FileError::ChecksumMismatch { stored, actual } => write!(
                f,
                "checksum mismatch: file records {stored:#010x}, contents hash to {actual:#010x}"
            ),
            FileError::Corrupt {
                section,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "corrupt .avq file in {section} at byte {offset}: {detail}"
                )
            }
            FileError::Schema(e) => write!(f, "embedded schema invalid: {e}"),
            FileError::Codec(e) => write!(f, "embedded block invalid: {e}"),
        }
    }
}

impl std::error::Error for FileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileError::Io(e) => Some(e),
            FileError::Schema(e) => Some(e),
            FileError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

/// Where in an `.avq` container a [`FileError::Corrupt`] was detected.
///
/// Displayed with a `file.` prefix, so a report never reads like one of
/// [`avq_codec::Section`]'s block sections. A codec error cannot carry a
/// container section:
///
/// ```compile_fail
/// let e = avq_codec::CodecError::Corrupt {
///     section: avq_file::Section::Header,
///     offset: 2,
///     detail: String::new(),
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Magic, version and coding options.
    Header,
    /// The embedded schema and its string dictionaries.
    Schema,
    /// The block table and the coded block streams.
    Blocks,
    /// What follows the last block, up to the checksum.
    Trailer,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Header => "file.header",
            Section::Schema => "file.schema",
            Section::Blocks => "file.blocks",
            Section::Trailer => "file.trailer",
        })
    }
}

impl From<std::io::Error> for FileError {
    fn from(e: std::io::Error) -> Self {
        FileError::Io(e)
    }
}

impl From<SchemaError> for FileError {
    fn from(e: SchemaError) -> Self {
        FileError::Schema(e)
    }
}

impl From<CodecError> for FileError {
    fn from(e: CodecError) -> Self {
        FileError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the corruption message format: section and byte offset must
    /// always be present so a report can be traced back into the file.
    #[test]
    fn corrupt_display_carries_section_and_offset() {
        let e = FileError::Corrupt {
            section: Section::Schema,
            offset: 16,
            detail: "attribute count exceeds remaining input".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupt .avq file in file.schema at byte 16: attribute count exceeds remaining input"
        );
    }

    /// A corruption report names its layer: no two sections, codec or
    /// container, display alike.
    #[test]
    fn section_vocabulary_is_unique() {
        use avq_codec::Section as Block;
        let names = [
            Block::Header.to_string(),
            Block::Representative.to_string(),
            Block::Body.to_string(),
            Block::Entries.to_string(),
            Block::Order.to_string(),
            Block::Bookkeeping.to_string(),
            Section::Header.to_string(),
            Section::Schema.to_string(),
            Section::Blocks.to_string(),
            Section::Trailer.to_string(),
        ];
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }
}
