//! Logical WAL records and their wire encoding.
//!
//! A record describes one *logical* mutation against the database — the
//! same granularity as the public mutation API — so replay drives the
//! ordinary code paths instead of patching bytes. Relation payloads reuse
//! the `.avq` container from `avq-file` verbatim, which keeps bulk loads
//! compact (the compressed form is logged, not the raw rows) and lets
//! recovery share the file reader's checksum and structural validation.

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

use crate::error::WalError;
use avq_schema::Tuple;

/// One logical mutation, as recorded in the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A relation was created. The payload is a complete `.avq` container
    /// (schema + coded blocks + CRC) produced by `avq_file`.
    CreateRelation {
        /// Relation name.
        name: String,
        /// Serialized `.avq` container bytes.
        coded: Vec<u8>,
    },
    /// One tuple was inserted.
    Insert {
        /// Relation name.
        relation: String,
        /// The inserted tuple's ordinal digits.
        tuple: Tuple,
    },
    /// One tuple was deleted.
    Delete {
        /// Relation name.
        relation: String,
        /// The deleted tuple's ordinal digits.
        tuple: Tuple,
    },
    /// One tuple was replaced by another.
    Update {
        /// Relation name.
        relation: String,
        /// The tuple that was removed.
        old: Tuple,
        /// The tuple that took its place.
        new: Tuple,
    },
    /// A secondary index was built on an attribute.
    CreateSecondaryIndex {
        /// Relation name.
        relation: String,
        /// Attribute position the index covers.
        attribute: usize,
    },
    /// A relation was dropped.
    DropRelation {
        /// Relation name.
        name: String,
    },
    /// A checkpoint completed up to (and including) `lsn`. Written as the
    /// first record of a freshly truncated log; a no-op on replay.
    Checkpoint {
        /// The last LSN captured by the checkpoint's snapshots.
        lsn: u64,
    },
}

const TAG_CREATE_RELATION: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_CREATE_SECONDARY: u8 = 5;
const TAG_DROP_RELATION: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    out.extend_from_slice(&(t.arity() as u16).to_le_bytes());
    for &d in t.digits() {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// A bounds-checked reader over one record body. `offset` is the frame's
/// byte position in the log, carried only for error reporting.
struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| WalError::Corrupt {
                offset: self.offset,
                detail: format!("record body truncated reading {what}"),
            })?;
        self.pos += n;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WalError> {
        let s = self.take(N, what)?;
        // `take` returned exactly `N` bytes, so the chunk always exists.
        match s.split_first_chunk::<N>() {
            Some((a, _)) => Ok(*a),
            None => Err(WalError::Corrupt {
                offset: self.offset,
                detail: format!("record body truncated reading {what}"),
            }),
        }
    }

    fn u16(&mut self, what: &str) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.array::<2>(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.array::<4>(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.array::<8>(what)?))
    }

    fn string(&mut self, what: &str) -> Result<String, WalError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WalError::Corrupt {
            offset: self.offset,
            detail: format!("{what} is not valid UTF-8"),
        })
    }

    fn tuple(&mut self, what: &str) -> Result<Tuple, WalError> {
        let arity = self.u16(what)? as usize;
        // lint: bounded(arity is a wire u16; at most 64Ki digits)
        let mut digits = Vec::with_capacity(arity);
        for _ in 0..arity {
            digits.push(self.u64(what)?);
        }
        Ok(Tuple::new(digits))
    }

    fn done(&self, what: &str) -> Result<(), WalError> {
        if self.pos != self.bytes.len() {
            return Err(WalError::Corrupt {
                offset: self.offset,
                detail: format!(
                    "{} trailing bytes after {what}",
                    self.bytes.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

impl WalRecord {
    /// Appends the record's tagged payload (no frame header) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::CreateRelation { name, coded } => {
                out.push(TAG_CREATE_RELATION);
                put_str(out, name);
                out.extend_from_slice(&(coded.len() as u32).to_le_bytes());
                out.extend_from_slice(coded);
            }
            WalRecord::Insert { relation, tuple } => {
                out.push(TAG_INSERT);
                put_str(out, relation);
                put_tuple(out, tuple);
            }
            WalRecord::Delete { relation, tuple } => {
                out.push(TAG_DELETE);
                put_str(out, relation);
                put_tuple(out, tuple);
            }
            WalRecord::Update { relation, old, new } => {
                out.push(TAG_UPDATE);
                put_str(out, relation);
                put_tuple(out, old);
                put_tuple(out, new);
            }
            WalRecord::CreateSecondaryIndex {
                relation,
                attribute,
            } => {
                out.push(TAG_CREATE_SECONDARY);
                put_str(out, relation);
                out.extend_from_slice(&(*attribute as u32).to_le_bytes());
            }
            WalRecord::DropRelation { name } => {
                out.push(TAG_DROP_RELATION);
                put_str(out, name);
            }
            WalRecord::Checkpoint { lsn } => {
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&lsn.to_le_bytes());
            }
        }
    }

    /// Decodes a tagged payload. `offset` is the frame's position in the
    /// log, used only in error messages.
    pub(crate) fn decode(bytes: &[u8], offset: u64) -> Result<Self, WalError> {
        let mut b = Body {
            bytes,
            pos: 0,
            offset,
        };
        let tag = u8::from_le_bytes(b.array::<1>("record tag")?);
        let rec = match tag {
            TAG_CREATE_RELATION => {
                let name = b.string("relation name")?;
                let len = b.u32("coded payload length")? as usize;
                let coded = b.take(len, "coded payload")?.to_vec();
                WalRecord::CreateRelation { name, coded }
            }
            TAG_INSERT => WalRecord::Insert {
                relation: b.string("relation name")?,
                tuple: b.tuple("tuple")?,
            },
            TAG_DELETE => WalRecord::Delete {
                relation: b.string("relation name")?,
                tuple: b.tuple("tuple")?,
            },
            TAG_UPDATE => WalRecord::Update {
                relation: b.string("relation name")?,
                old: b.tuple("old tuple")?,
                new: b.tuple("new tuple")?,
            },
            TAG_CREATE_SECONDARY => WalRecord::CreateSecondaryIndex {
                relation: b.string("relation name")?,
                attribute: b.u32("attribute")? as usize,
            },
            TAG_DROP_RELATION => WalRecord::DropRelation {
                name: b.string("relation name")?,
            },
            TAG_CHECKPOINT => WalRecord::Checkpoint {
                lsn: b.u64("checkpoint lsn")?,
            },
            t => {
                return Err(WalError::Corrupt {
                    offset,
                    detail: format!("unknown record tag {t}"),
                })
            }
        };
        b.done("record")?;
        Ok(rec)
    }

    /// Short human-readable kind name (for `recover-info` output).
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::CreateRelation { .. } => "create-relation",
            WalRecord::Insert { .. } => "insert",
            WalRecord::Delete { .. } => "delete",
            WalRecord::Update { .. } => "update",
            WalRecord::CreateSecondaryIndex { .. } => "create-secondary-index",
            WalRecord::DropRelation { .. } => "drop-relation",
            WalRecord::Checkpoint { .. } => "checkpoint",
        }
    }
}
