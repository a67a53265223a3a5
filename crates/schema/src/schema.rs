//! Relation schemes: named attributes, their domains, and derived geometry.

use crate::domain::Domain;
use crate::error::SchemaError;
use crate::tuple::Tuple;
use crate::value::Value;
use avq_num::{BigUnsigned, MixedRadix};
use std::collections::HashMap;
use std::sync::Arc;

/// A named attribute with its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    domain: Domain,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        Attribute {
            name: name.into(),
            domain,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }
}

/// A relation scheme `𝓡 = ⟨⟨A₁, …, Aₙ⟩⟩` (§2.2 of the paper) with all the
/// geometry AVQ needs precomputed:
///
/// * the [`MixedRadix`] system whose rank function is φ,
/// * per-attribute fixed byte widths (for §3.4 serialization),
/// * the total fixed tuple width `m` in bytes.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Vec<Attribute>,
    /// The attribute names in order, shared with every `select *` result.
    names: Arc<[String]>,
    by_name: HashMap<String, usize>,
    radix: MixedRadix,
    widths: Vec<usize>,
    /// Byte offset of each attribute within a fixed-width serialized tuple.
    offsets: Vec<usize>,
    /// For each byte `p` of a serialized tuple, the attribute whose cell
    /// holds it (zero-width cells hold no byte).
    cell_of_byte: Vec<u32>,
    tuple_bytes: usize,
}

impl Schema {
    /// Builds a schema from attributes. Names must be unique and at least one
    /// attribute is required.
    pub fn new(attrs: Vec<Attribute>) -> Result<Arc<Self>, SchemaError> {
        if attrs.is_empty() {
            return Err(SchemaError::EmptySchema);
        }
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            if by_name.insert(a.name.clone(), i).is_some() {
                return Err(SchemaError::DuplicateAttribute {
                    name: a.name.clone(),
                });
            }
        }
        let radices: Vec<u64> = attrs.iter().map(|a| a.domain.size()).collect();
        let radix = MixedRadix::new(radices).expect("domain sizes are non-zero");
        let widths: Vec<usize> = attrs.iter().map(|a| a.domain.byte_width()).collect();
        let mut offsets = Vec::with_capacity(widths.len());
        let mut cell_of_byte = Vec::new();
        let mut off = 0usize;
        for (i, &w) in widths.iter().enumerate() {
            offsets.push(off);
            cell_of_byte.extend(std::iter::repeat_n(i as u32, w));
            off += w;
        }
        Ok(Arc::new(Schema {
            names: attrs.iter().map(|a| a.name.clone()).collect(),
            attrs,
            by_name,
            radix,
            widths,
            offsets,
            cell_of_byte,
            tuple_bytes: off,
        }))
    }

    /// Convenience constructor from `(name, domain)` pairs.
    pub fn from_pairs<S: Into<String>, I: IntoIterator<Item = (S, Domain)>>(
        pairs: I,
    ) -> Result<Arc<Self>, SchemaError> {
        Self::new(
            pairs
                .into_iter()
                .map(|(n, d)| Attribute::new(n, d))
                .collect(),
        )
    }

    /// Number of attributes `n`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attributes in order.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The `i`-th attribute.
    #[inline]
    pub fn attribute(&self, i: usize) -> &Attribute {
        &self.attrs[i]
    }

    /// The attribute names in order, as one shared list.
    #[inline]
    pub fn names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// The index of the attribute named `name`, if there is one.
    #[inline]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Resolves an attribute name to its index.
    pub fn index_of(&self, name: &str) -> Result<usize, SchemaError> {
        self.position(name)
            .ok_or_else(|| SchemaError::NoSuchAttribute {
                attribute: name.to_owned(),
            })
    }

    /// The mixed-radix system over the domain sizes; its rank is φ.
    #[inline]
    pub fn radix(&self) -> &MixedRadix {
        &self.radix
    }

    /// `‖𝓡‖ = Π|Aᵢ|`, the size of the tuple space.
    #[inline]
    pub fn space_size(&self) -> &BigUnsigned {
        self.radix.space_size()
    }

    /// Fixed byte width of attribute `i` in serialized form.
    #[inline]
    pub fn byte_width(&self, i: usize) -> usize {
        self.widths[i]
    }

    /// Byte offset of attribute `i` within a serialized tuple.
    #[inline]
    pub fn byte_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Fixed byte widths of all attributes, in order.
    #[inline]
    pub fn byte_widths(&self) -> &[usize] {
        &self.widths
    }

    /// Byte offsets of all attributes within a serialized tuple, in order.
    #[inline]
    pub fn byte_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The first attribute whose cell ends after byte `p` of a serialized
    /// tuple: the attribute holding byte `p`, or the arity when `p` is at
    /// or past the end. A serialization whose first `p` bytes are zero has
    /// every earlier attribute zero, so this is where its nonzero cells
    /// can start.
    #[inline]
    pub fn cell_at_byte(&self, p: usize) -> usize {
        self.cell_of_byte
            .get(p)
            .map_or(self.arity(), |&i| i as usize)
    }

    /// `m`: the fixed byte width of a whole serialized tuple.
    #[inline]
    pub fn tuple_bytes(&self) -> usize {
        self.tuple_bytes
    }

    /// Validates a tuple's arity and digit ranges against the schema.
    pub fn validate_tuple(&self, tuple: &Tuple) -> Result<(), SchemaError> {
        self.validate_row(tuple.digits())
    }

    /// [`Self::validate_tuple`] for a borrowed row of ordinals.
    pub fn validate_row(&self, row: &[u64]) -> Result<(), SchemaError> {
        if row.len() != self.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for (i, (&d, a)) in row.iter().zip(&self.attrs).enumerate() {
            let size = a.domain.size();
            if d >= size {
                return Err(SchemaError::OrdinalOutOfRange {
                    attribute: self.attrs[i].name.clone(),
                    ordinal: d,
                    size,
                });
            }
        }
        Ok(())
    }

    /// Encodes a row of logical values into a tuple of ordinals (§3.1).
    pub fn encode_row(&self, row: &[Value]) -> Result<Tuple, SchemaError> {
        if row.len() != self.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        let mut digits = Vec::with_capacity(row.len());
        for (a, v) in self.attrs.iter().zip(row) {
            let ord = a.domain.encode(v).map_err(|e| match e {
                SchemaError::ValueNotInDomain { value, .. } => SchemaError::ValueNotInDomain {
                    attribute: a.name.clone(),
                    value,
                },
                SchemaError::TypeMismatch { expected, got, .. } => SchemaError::TypeMismatch {
                    attribute: a.name.clone(),
                    expected,
                    got,
                },
                other => other,
            })?;
            digits.push(ord);
        }
        Ok(Tuple::new(digits))
    }

    /// Decodes a tuple of ordinals back to logical values.
    pub fn decode_row(&self, tuple: &Tuple) -> Result<Vec<Value>, SchemaError> {
        self.validate_tuple(tuple)?;
        self.attrs
            .iter()
            .zip(tuple.digits())
            .map(|(a, &d)| a.domain.decode(d))
            .collect()
    }

    /// φ(t): the tuple's ordinal position in 𝓡 space (Eq. 2.2).
    pub fn phi(&self, tuple: &Tuple) -> BigUnsigned {
        self.radix.rank(tuple.digits())
    }

    /// φ⁻¹(e): the tuple at ordinal `e`, or `None` if `e ≥ ‖𝓡‖`
    /// (Eq. 2.3–2.5).
    pub fn phi_inv(&self, e: &BigUnsigned) -> Option<Tuple> {
        self.radix.unrank(e).map(Tuple::new)
    }

    /// Serializes a tuple at fixed per-attribute widths, appending to `out`.
    /// Exactly [`Self::tuple_bytes`] bytes are appended.
    pub fn write_tuple(&self, tuple: &Tuple, out: &mut Vec<u8>) {
        self.write_row(tuple.digits(), out);
    }

    /// [`Self::write_tuple`] for a borrowed row of ordinals (a row gathered
    /// out of a [`crate::TupleBatch`], a difference in a scratch buffer).
    pub fn write_row(&self, row: &[u64], out: &mut Vec<u8>) {
        debug_assert_eq!(row.len(), self.arity());
        for (&d, &w) in row.iter().zip(&self.widths) {
            // Big-endian, fixed width.
            let bytes = d.to_be_bytes();
            out.extend_from_slice(&bytes[8 - w..]);
        }
    }

    /// Deserializes a tuple from a fixed-width buffer of exactly
    /// [`Self::tuple_bytes`] bytes.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than `tuple_bytes`.
    pub fn read_tuple(&self, buf: &[u8]) -> Tuple {
        let mut digits = Vec::with_capacity(self.arity());
        self.read_digits_into(buf, &mut digits);
        Tuple::new(digits)
    }

    /// [`Self::read_tuple`] without the owned tuple: appends the record's
    /// ordinals to `out` (one entry's digits in the making).
    ///
    /// # Panics
    /// Panics if `buf` is shorter than `tuple_bytes`.
    pub fn read_digits_into(&self, buf: &[u8], out: &mut Vec<u64>) {
        assert!(
            buf.len() >= self.tuple_bytes,
            "buffer too small: {} < {}",
            buf.len(),
            self.tuple_bytes
        );
        for i in 0..self.arity() {
            let w = self.widths[i];
            let off = self.offsets[i];
            let mut v = 0u64;
            for &b in &buf[off..off + w] {
                v = v << 8 | b as u64;
            }
            out.push(v);
        }
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.attrs == other.attrs
    }
}

impl Eq for Schema {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 3.1 scheme: five attributes with domain sizes
    /// 8, 16, 64, 64, 64.
    fn employee_schema() -> Arc<Schema> {
        Schema::from_pairs(vec![
            ("department", Domain::uint(8).unwrap()),
            ("job_title", Domain::uint(16).unwrap()),
            ("years", Domain::uint(64).unwrap()),
            ("hours", Domain::uint(64).unwrap()),
            ("empno", Domain::uint(64).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn geometry() {
        let s = employee_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.space_size().to_u64(), Some(8 * 16 * 64 * 64 * 64));
        // Every domain here fits one byte, so m = 5 as in §3.4's example.
        assert_eq!(s.tuple_bytes(), 5);
        for i in 0..5 {
            assert_eq!(s.byte_width(i), 1);
            assert_eq!(s.byte_offset(i), i);
        }
    }

    #[test]
    fn cell_at_byte_skips_zero_width_cells() {
        // Widths 0, 3, 0, 1, 2: bytes 0–2 are b's, 3 is d's, 4–5 are e's.
        let s = Schema::from_pairs(vec![
            ("a", Domain::uint(1).unwrap()),
            ("b", Domain::uint(70_000).unwrap()),
            ("c", Domain::uint(1).unwrap()),
            ("d", Domain::uint(200).unwrap()),
            ("e", Domain::uint(300).unwrap()),
        ])
        .unwrap();
        assert_eq!(s.byte_widths(), &[0, 3, 0, 1, 2]);
        assert_eq!(s.byte_offsets(), &[0, 0, 3, 3, 4]);
        let cells: Vec<usize> = (0..=7).map(|p| s.cell_at_byte(p)).collect();
        assert_eq!(cells, vec![1, 1, 1, 3, 4, 4, 5, 5]);
        // A schema of zero-width cells has no byte: every position is past
        // the end.
        let flat = Schema::from_pairs(vec![("x", Domain::uint(1).unwrap())]).unwrap();
        assert_eq!((flat.cell_at_byte(0), flat.cell_at_byte(3)), (1, 1));
    }

    #[test]
    fn empty_schema_rejected() {
        assert_eq!(Schema::new(vec![]).unwrap_err(), SchemaError::EmptySchema);
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::from_pairs(vec![
            ("a", Domain::uint(2).unwrap()),
            ("a", Domain::uint(2).unwrap()),
        ]);
        assert!(matches!(r, Err(SchemaError::DuplicateAttribute { .. })));
    }

    #[test]
    fn index_of() {
        let s = employee_schema();
        assert_eq!(s.index_of("years").unwrap(), 2);
        assert!(s.index_of("salary").is_err());
        assert_eq!(s.position("years"), Some(2));
        assert_eq!(s.position("salary"), None);
        let names: Vec<&str> = s.attributes().iter().map(Attribute::name).collect();
        assert_eq!(s.names()[..], names[..]);
    }

    #[test]
    fn phi_matches_paper_example() {
        let s = employee_schema();
        let t = Tuple::from([3u64, 8, 36, 39, 35]);
        assert_eq!(s.phi(&t).to_u64(), Some(14_830_051));
        assert_eq!(s.phi_inv(&BigUnsigned::from_u64(14_830_051)).unwrap(), t);
    }

    #[test]
    fn encode_decode_row() {
        let s = Schema::from_pairs(vec![
            (
                "dept",
                Domain::enumerated(vec!["hq", "lab", "plant"]).unwrap(),
            ),
            ("level", Domain::int_range(-2, 2).unwrap()),
            ("id", Domain::uint(100).unwrap()),
        ])
        .unwrap();
        let row = vec![Value::from("lab"), Value::Int(-1), Value::Uint(42)];
        let t = s.encode_row(&row).unwrap();
        assert_eq!(t.digits(), &[1, 1, 42]);
        assert_eq!(s.decode_row(&t).unwrap(), row);
    }

    #[test]
    fn encode_row_errors_name_the_attribute() {
        let s = employee_schema();
        let row = vec![
            Value::Uint(9), // out of range for |A1| = 8
            Value::Uint(0),
            Value::Uint(0),
            Value::Uint(0),
            Value::Uint(0),
        ];
        match s.encode_row(&row).unwrap_err() {
            SchemaError::ValueNotInDomain { attribute, .. } => {
                assert_eq!(attribute, "department");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch() {
        let s = employee_schema();
        assert!(matches!(
            s.encode_row(&[Value::Uint(0)]),
            Err(SchemaError::ArityMismatch {
                expected: 5,
                got: 1
            })
        ));
        assert!(matches!(
            s.validate_tuple(&Tuple::from([0u64, 0])),
            Err(SchemaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn validate_tuple_range() {
        let s = employee_schema();
        assert!(s
            .validate_tuple(&Tuple::from([7u64, 15, 63, 63, 63]))
            .is_ok());
        assert!(matches!(
            s.validate_tuple(&Tuple::from([8u64, 0, 0, 0, 0])),
            Err(SchemaError::OrdinalOutOfRange { .. })
        ));
    }

    #[test]
    fn tuple_serialization_roundtrip() {
        let s = Schema::from_pairs(vec![
            ("a", Domain::uint(300).unwrap()),   // 2 bytes
            ("b", Domain::uint(1).unwrap()),     // 0 bytes
            ("c", Domain::uint(70000).unwrap()), // 3 bytes
            ("d", Domain::uint(2).unwrap()),     // 1 byte
        ])
        .unwrap();
        assert_eq!(s.tuple_bytes(), 6);
        let t = Tuple::from([299u64, 0, 69_999, 1]);
        let mut buf = Vec::new();
        s.write_tuple(&t, &mut buf);
        assert_eq!(buf.len(), 6);
        assert_eq!(s.read_tuple(&buf), t);
    }

    #[test]
    fn serialized_order_matches_tuple_order() {
        // Fixed-width big-endian serialization preserves the ≺ order as raw
        // memcmp — important for index keys.
        let s = employee_schema();
        let a = Tuple::from([3u64, 8, 32, 34, 12]);
        let b = Tuple::from([3u64, 8, 36, 39, 35]);
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        s.write_tuple(&a, &mut ba);
        s.write_tuple(&b, &mut bb);
        assert!(ba < bb);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn read_tuple_short_buffer_panics() {
        let s = employee_schema();
        let _ = s.read_tuple(&[0u8; 3]);
    }
}
