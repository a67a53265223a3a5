//! Error type for the database layer.

use avq_codec::CodecError;
use avq_index::IndexError;
use avq_schema::SchemaError;
use avq_storage::StorageError;
use core::fmt;

/// Errors raised by database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A schema-level failure (encoding, arity, domains).
    Schema(SchemaError),
    /// A block-coding failure.
    Codec(CodecError),
    /// An index failure.
    Index(IndexError),
    /// A storage failure.
    Storage(StorageError),
    /// No relation with the given name.
    NoSuchRelation {
        /// The name that failed to resolve.
        name: String,
    },
    /// A relation with the given name already exists.
    RelationExists {
        /// The duplicate name.
        name: String,
    },
    /// The tuple was not found (delete/update).
    TupleNotFound,
    /// A secondary index already exists on the attribute.
    IndexExists {
        /// Attribute position.
        attribute: usize,
    },
    /// A durability-layer failure: WAL, snapshot, or manifest I/O.
    /// Carries the rendered cause (the underlying errors are not
    /// `Clone`/`Eq`, which this type promises).
    Durability {
        /// Human-readable cause.
        detail: String,
    },
    /// A resource-governance trip: the query timed out, was cancelled, or
    /// blew a quota.
    Governance(avq_obs::GovernanceError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Schema(e) => write!(f, "schema error: {e}"),
            DbError::Codec(e) => write!(f, "codec error: {e}"),
            DbError::Index(e) => write!(f, "index error: {e}"),
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::NoSuchRelation { name } => write!(f, "no such relation: {name:?}"),
            DbError::RelationExists { name } => write!(f, "relation already exists: {name:?}"),
            DbError::TupleNotFound => write!(f, "tuple not found"),
            DbError::IndexExists { attribute } => {
                write!(f, "secondary index already exists on attribute {attribute}")
            }
            DbError::Durability { detail } => write!(f, "durability error: {detail}"),
            DbError::Governance(e) => write!(f, "governance error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<SchemaError> for DbError {
    fn from(e: SchemaError) -> Self {
        DbError::Schema(e)
    }
}

impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::TupleNotFound => DbError::TupleNotFound,
            other => DbError::Codec(other),
        }
    }
}

impl From<IndexError> for DbError {
    fn from(e: IndexError) -> Self {
        DbError::Index(e)
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<avq_obs::GovernanceError> for DbError {
    fn from(e: avq_obs::GovernanceError) -> Self {
        DbError::Governance(e)
    }
}

impl From<avq_wal::WalError> for DbError {
    fn from(e: avq_wal::WalError) -> Self {
        DbError::Durability {
            detail: e.to_string(),
        }
    }
}

impl From<avq_file::FileError> for DbError {
    fn from(e: avq_file::FileError) -> Self {
        DbError::Durability {
            detail: e.to_string(),
        }
    }
}
