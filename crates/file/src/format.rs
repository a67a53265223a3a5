//! The `.avq` on-disk format: a self-describing container for one
//! AVQ-compressed relation.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "AVQF"                       4 bytes
//! version u16                          (currently 1)
//! mode    u8   rep u8                  coding mode / representative policy
//! block_capacity u32
//! arity   u16
//!   per attribute:
//!     name_len u16, name bytes (UTF-8)
//!     domain_tag u8:
//!       0 = Uint      { size: u64 }
//!       1 = IntRange  { min: i64, max: i64 }
//!       2 = Enumerated{ count: u32, (len: u16, bytes)* }
//! tuple_count u64
//! block_count u32
//!   per block: len u32, bytes
//! crc32 u32                            over everything above
//! ```

use crate::crc::{crc32, Crc32};
use crate::error::{FileError, Section};
use avq_codec::{CodecOptions, CodedRelation, CodingMode, RepChoice};
use avq_schema::{Domain, Schema};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"AVQF";
const VERSION: u16 = 1;

fn rep_tag(rep: RepChoice) -> u8 {
    match rep {
        RepChoice::Median => 0,
        RepChoice::First => 1,
        RepChoice::Last => 2,
    }
}

fn rep_from_tag(tag: u8) -> Option<RepChoice> {
    match tag {
        0 => Some(RepChoice::Median),
        1 => Some(RepChoice::First),
        2 => Some(RepChoice::Last),
        _ => None,
    }
}

/// Serializes a coded relation into the `.avq` container format.
pub fn write_coded_relation<W: Write>(w: &mut W, rel: &CodedRelation) -> Result<(), FileError> {
    // lint: bounded(container size of the relation being written)
    let mut buf = Vec::with_capacity(64 + rel.blocks().iter().map(|b| b.len() + 4).sum::<usize>());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let opts = rel.options();
    buf.push(opts.mode.tag());
    buf.push(rep_tag(opts.rep));
    buf.extend_from_slice(&(opts.block_capacity as u32).to_le_bytes());

    let schema = rel.schema();
    buf.extend_from_slice(&(schema.arity() as u16).to_le_bytes());
    for attr in schema.attributes() {
        let name = attr.name().as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        match attr.domain() {
            Domain::Uint { size } => {
                buf.push(0);
                buf.extend_from_slice(&size.to_le_bytes());
            }
            Domain::IntRange { min, max } => {
                buf.push(1);
                buf.extend_from_slice(&min.to_le_bytes());
                buf.extend_from_slice(&max.to_le_bytes());
            }
            Domain::Enumerated { values, .. } => {
                buf.push(2);
                buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    let b = v.as_bytes();
                    buf.extend_from_slice(&(b.len() as u16).to_le_bytes());
                    buf.extend_from_slice(b);
                }
            }
        }
    }

    buf.extend_from_slice(&(rel.tuple_count() as u64).to_le_bytes());
    buf.extend_from_slice(&(rel.block_count() as u32).to_le_bytes());
    for b in rel.blocks() {
        buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
        buf.extend_from_slice(b);
    }

    let mut h = Crc32::new();
    h.update(&buf);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Which container section the cursor is currently inside; carried
    /// into every [`FileError::Corrupt`] so a failed load names both the
    /// section and the file offset.
    section: Section,
}

impl<'a> Cursor<'a> {
    fn corrupt(&self, offset: usize, detail: String) -> FileError {
        FileError::Corrupt {
            section: self.section,
            offset,
            detail,
        }
    }

    /// Bytes left before the end of the body.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Bounds-checks a count field against the remaining input, where each
    /// counted element occupies at least `min_each` bytes. Hostile headers
    /// can claim up to 2³²−1 elements; refusing here keeps the subsequent
    /// `Vec::with_capacity` proportional to the actual input size.
    fn check_count(&self, count: usize, min_each: usize, what: &str) -> Result<(), FileError> {
        if count > self.remaining() / min_each {
            return Err(self.corrupt(
                self.pos,
                format!(
                    "{what} {count} exceeds remaining input ({} bytes)",
                    self.remaining()
                ),
            ));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FileError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| self.corrupt(self.pos, format!("truncated {what}")))?;
        self.pos += n;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], FileError> {
        let s = self.take(N, what)?;
        // `take` returned exactly `N` bytes, so the chunk always exists.
        match s.split_first_chunk::<N>() {
            Some((a, _)) => Ok(*a),
            None => Err(self.corrupt(self.pos, format!("truncated {what}"))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, FileError> {
        Ok(u8::from_le_bytes(self.array::<1>(what)?))
    }

    fn u16(&mut self, what: &str) -> Result<u16, FileError> {
        Ok(u16::from_le_bytes(self.array::<2>(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FileError> {
        Ok(u32::from_le_bytes(self.array::<4>(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FileError> {
        Ok(u64::from_le_bytes(self.array::<8>(what)?))
    }

    fn i64(&mut self, what: &str) -> Result<i64, FileError> {
        Ok(i64::from_le_bytes(self.array::<8>(what)?))
    }

    fn string(&mut self, what: &str) -> Result<String, FileError> {
        let len = self.u16(what)? as usize;
        let offset = self.pos;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(offset, format!("{what} is not valid UTF-8")))
    }
}

/// Deserializes a coded relation from the `.avq` container format.
///
/// A failing load reports *where* the file went bad: if the trailing
/// checksum mismatches (truncation, torn write, bit rot), the structural
/// parse still runs so the error can name the section and byte offset of
/// the first inconsistency; a bare [`FileError::ChecksumMismatch`] is
/// returned only when the structure itself is intact.
pub fn read_coded_relation<R: Read>(r: &mut R) -> Result<CodedRelation, FileError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 2 + 4 {
        return Err(FileError::Corrupt {
            section: Section::Header,
            offset: 0,
            detail: "file shorter than header".into(),
        });
    }
    // The length check above guarantees at least 4 trailing bytes.
    let Some((body, tail)) = bytes.split_last_chunk::<4>() else {
        return Err(FileError::Corrupt {
            section: Section::Header,
            offset: 0,
            detail: "file shorter than its checksum".into(),
        });
    };
    let stored = u32::from_le_bytes(*tail);
    let actual = crc32(body);
    match (stored == actual, parse_body(body)) {
        (true, parsed) => parsed,
        // The structural error pinpoints the damage (section + offset);
        // prefer it over the bare checksum failure.
        (false, Err(e @ FileError::Corrupt { .. })) => Err(e),
        (false, _) => Err(FileError::ChecksumMismatch { stored, actual }),
    }
}

/// Parses the checksummed body of an `.avq` container.
fn parse_body(body: &[u8]) -> Result<CodedRelation, FileError> {
    let mut c = Cursor {
        bytes: body,
        pos: 0,
        section: Section::Header,
    };
    if c.take(4, "magic")? != MAGIC {
        return Err(FileError::BadMagic);
    }
    let version = c.u16("version")?;
    if version != VERSION {
        return Err(FileError::UnsupportedVersion { version });
    }
    let mode = CodingMode::from_tag(c.u8("mode")?)
        .ok_or_else(|| c.corrupt(6, "unknown coding mode".into()))?;
    let rep = rep_from_tag(c.u8("rep")?)
        .ok_or_else(|| c.corrupt(7, "unknown representative policy".into()))?;
    let block_capacity = c.u32("block capacity")? as usize;

    c.section = Section::Schema;
    let arity = c.u16("arity")? as usize;
    // Every attribute needs at least a name length (2), a domain tag (1),
    // and the smallest domain payload (an empty enumeration's count, 4).
    c.check_count(arity, 7, "attribute count")?;
    // lint: bounded(arity was checked against the remaining input)
    let mut pairs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = c.string("attribute name")?;
        let tag = c.u8("domain tag")?;
        let domain = match tag {
            0 => Domain::uint(c.u64("uint size")?),
            1 => {
                let min = c.i64("range min")?;
                let max = c.i64("range max")?;
                Domain::int_range(min, max)
            }
            2 => {
                let count = c.u32("enum count")? as usize;
                // Every enumerated value carries at least its u16 length.
                c.check_count(count, 2, "enum value count")?;
                // lint: bounded(count was checked against the remaining input)
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(c.string("enum value")?);
                }
                Domain::enumerated(values)
            }
            t => return Err(c.corrupt(c.pos, format!("unknown domain tag {t}"))),
        }?;
        pairs.push((name, domain));
    }
    let schema: Arc<Schema> = Schema::from_pairs(pairs)?;

    c.section = Section::Blocks;
    let tuple_count = c.u64("tuple count")? as usize;
    let block_count = c.u32("block count")? as usize;
    // Every block carries at least its u32 length prefix.
    c.check_count(block_count, 4, "block count")?;
    // lint: bounded(block_count was checked against the remaining input)
    let mut blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let len = c.u32("block length")? as usize;
        if len > block_capacity {
            return Err(c.corrupt(
                c.pos,
                format!("block of {len} bytes exceeds capacity {block_capacity}"),
            ));
        }
        blocks.push(c.take(len, "block body")?.to_vec());
    }
    c.section = Section::Trailer;
    if c.pos != body.len() {
        return Err(c.corrupt(c.pos, "trailing bytes after last block".into()));
    }

    let options = CodecOptions {
        mode,
        rep,
        block_capacity,
        ..Default::default()
    };
    let rel = CodedRelation::from_blocks(schema, options, blocks)?;
    if rel.tuple_count() != tuple_count {
        return Err(FileError::Corrupt {
            section: Section::Blocks,
            offset: 0,
            detail: format!(
                "header claims {tuple_count} tuples, blocks hold {}",
                rel.tuple_count()
            ),
        });
    }
    Ok(rel)
}

/// Writes a coded relation to a filesystem path.
pub fn save<P: AsRef<Path>>(path: P, rel: &CodedRelation) -> Result<(), FileError> {
    let mut f = std::fs::File::create(path)?;
    write_coded_relation(&mut f, rel)
}

/// Reads a coded relation from a filesystem path.
pub fn load<P: AsRef<Path>>(path: P) -> Result<CodedRelation, FileError> {
    let mut f = std::fs::File::open(path)?;
    read_coded_relation(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_codec::compress;
    use avq_schema::{Relation, Value};

    fn sample_relation() -> Relation {
        let schema = Schema::from_pairs(vec![
            (
                "dept",
                Domain::enumerated(vec!["eng", "hr", "ops"]).unwrap(),
            ),
            ("delta", Domain::int_range(-8, 7).unwrap()),
            ("id", Domain::uint(100_000).unwrap()),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            (0..2000i64).map(|i| {
                vec![
                    Value::from(["eng", "hr", "ops"][(i % 3) as usize]),
                    Value::Int(i % 16 - 8),
                    Value::Uint((i * 31) as u64 % 100_000),
                ]
            }),
        )
        .unwrap()
    }

    fn sample_coded() -> CodedRelation {
        compress(
            &sample_relation(),
            CodecOptions {
                block_capacity: 512,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_through_memory() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        let back = read_coded_relation(&mut &buf[..]).unwrap();
        assert_eq!(back.tuple_count(), rel.tuple_count());
        assert_eq!(back.block_count(), rel.block_count());
        assert_eq!(back.options(), rel.options());
        assert_eq!(back.schema().as_ref(), rel.schema().as_ref());
        assert_eq!(
            back.decompress().unwrap().tuples(),
            rel.decompress().unwrap().tuples()
        );
        // Metadata was reconstructed identically.
        for i in 0..rel.block_count() {
            assert_eq!(back.meta(i).min, rel.meta(i).min);
            assert_eq!(back.meta(i).max, rel.meta(i).max);
            assert_eq!(back.meta(i).representative, rel.meta(i).representative);
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let rel = sample_coded();
        let dir = std::env::temp_dir().join("avq-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.avq");
        save(&path, &rel).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.tuple_count(), rel.tuple_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        // Flip one byte at a stride across the file; the checksum (or a
        // structural check) must reject every corruption.
        for i in (0..buf.len()).step_by(37) {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                read_coded_relation(&mut &bad[..]).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    /// A hostile header may claim up to 2³²−1 elements in any count field;
    /// every such claim must be rejected against the remaining input before
    /// any proportional allocation happens.
    #[test]
    fn hostile_counts_rejected_before_allocation() {
        let header = |rest: &[u8]| {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.push(0); // mode
            buf.push(0); // rep
            buf.extend_from_slice(&8192u32.to_le_bytes());
            buf.extend_from_slice(rest);
            let crc = crc32(&buf);
            buf.extend_from_slice(&crc.to_le_bytes());
            buf
        };

        // Arity far beyond what the input could hold.
        let huge_arity = header(&u16::MAX.to_le_bytes());
        let err = read_coded_relation(&mut &huge_arity[..]).unwrap_err();
        assert!(
            matches!(
                err,
                FileError::Corrupt {
                    section: Section::Schema,
                    ..
                }
            ),
            "{err}"
        );

        // One enumerated attribute claiming u32::MAX values.
        let mut body = Vec::new();
        body.extend_from_slice(&1u16.to_le_bytes()); // arity
        body.extend_from_slice(&1u16.to_le_bytes()); // name len
        body.push(b'a');
        body.push(2); // Enumerated
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let huge_enum = header(&body);
        let err = read_coded_relation(&mut &huge_enum[..]).unwrap_err();
        assert!(
            matches!(
                err,
                FileError::Corrupt {
                    section: Section::Schema,
                    ..
                }
            ),
            "{err}"
        );

        // A valid schema followed by a block count no input could hold.
        let mut body = Vec::new();
        body.extend_from_slice(&1u16.to_le_bytes()); // arity
        body.extend_from_slice(&1u16.to_le_bytes()); // name len
        body.push(b'a');
        body.push(0); // Uint
        body.extend_from_slice(&16u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes()); // tuple count
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // block count
        let huge_blocks = header(&body);
        let err = read_coded_relation(&mut &huge_blocks[..]).unwrap_err();
        assert!(
            matches!(
                err,
                FileError::Corrupt {
                    section: Section::Blocks,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_detected() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        for cut in [0, 3, 10, buf.len() / 2, buf.len() - 1] {
            assert!(read_coded_relation(&mut &buf[..cut]).is_err());
        }
    }

    #[test]
    fn truncated_file_names_the_failing_section() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();

        // Shorter than the fixed header.
        let err = read_coded_relation(&mut &buf[..6]).unwrap_err();
        assert!(
            matches!(
                err,
                FileError::Corrupt {
                    section: Section::Header,
                    ..
                }
            ),
            "{err}"
        );

        // Cut mid-schema: the fixed header is 12 bytes and arity (3) is
        // read at offset 12. Cutting at byte 20 leaves only 6 bytes after
        // the count — far less than 3 attributes could occupy — so the
        // arity bounds check rejects at offset 14 before parsing names.
        let err = read_coded_relation(&mut &buf[..20]).unwrap_err();
        match err {
            FileError::Corrupt {
                section, offset, ..
            } => {
                assert_eq!(section, Section::Schema);
                assert_eq!(offset, 14, "damage located at the arity count");
            }
            other => panic!("expected a located Corrupt error, got {other}"),
        }

        // Cut inside the block stream.
        let err = read_coded_relation(&mut &buf[..buf.len() - 10]).unwrap_err();
        assert!(
            matches!(
                err,
                FileError::Corrupt {
                    section: Section::Blocks,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn structure_preserving_bitflip_reports_checksum_mismatch() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        // Flip one bit inside the first attribute name ("dept" → "eept"):
        // the structure still parses, so the checksum is the only witness.
        buf[16] ^= 0x01;
        assert!(matches!(
            read_coded_relation(&mut &buf[..]).unwrap_err(),
            FileError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        buf[0] = b'X';
        // Fix up the checksum so the magic check itself is exercised.
        let n = buf.len();
        let crc = crc32(&buf[..n - 4]);
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_coded_relation(&mut &buf[..]).unwrap_err(),
            FileError::BadMagic
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let rel = sample_coded();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        buf[4] = 99;
        let n = buf.len();
        let crc = crc32(&buf[..n - 4]);
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_coded_relation(&mut &buf[..]).unwrap_err(),
            FileError::UnsupportedVersion { version: 99 }
        ));
    }

    #[test]
    fn empty_relation_roundtrips() {
        let schema = Schema::from_pairs(vec![("a", Domain::uint(4).unwrap())]).unwrap();
        let rel = compress(&Relation::new(schema), CodecOptions::default()).unwrap();
        let mut buf = Vec::new();
        write_coded_relation(&mut buf, &rel).unwrap();
        let back = read_coded_relation(&mut &buf[..]).unwrap();
        assert_eq!(back.tuple_count(), 0);
        assert_eq!(back.block_count(), 0);
    }

    #[test]
    fn all_modes_and_reps_roundtrip() {
        let relation = sample_relation();
        for mode in CodingMode::ALL {
            for rep in RepChoice::ALL {
                let rel = compress(
                    &relation,
                    CodecOptions {
                        mode,
                        rep,
                        block_capacity: 512,
                        ..Default::default()
                    },
                )
                .unwrap();
                let mut buf = Vec::new();
                write_coded_relation(&mut buf, &rel).unwrap();
                let back = read_coded_relation(&mut &buf[..]).unwrap();
                assert_eq!(back.options().mode, mode);
                assert_eq!(back.options().rep, rep);
                assert_eq!(
                    back.decompress().unwrap().len(),
                    relation.len(),
                    "mode {mode} rep {rep}"
                );
            }
        }
    }
}
