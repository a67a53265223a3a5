//! Shared by the codec's counting-allocator tests: the relation they code
//! and the per-block bound of the batch decode path.

use avq_codec::{compress, CodecOptions, CodedRelation, CodingMode};
use avq_schema::{Domain, Relation, Schema, Tuple};
pub const N: u64 = 100_000;

/// Allocations the batch path may spend per block once its scratch and
/// output batch are warm. Steady state needs none; one is slack for a
/// buffer that still has to grow.
#[allow(dead_code)] // the encode twin has its own bound
pub const PER_BLOCK: u64 = 1;

/// The 10⁵-tuple relation the tests code and decode.
pub fn relation() -> Relation {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(256).unwrap()),
        ("c", Domain::uint(4096).unwrap()),
        ("d", Domain::uint(65536).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..N)
        .map(|i| {
            Tuple::from([
                (i / 4096) % 64,
                (i * 7) % 256,
                (i * 31) % 4096,
                (i * 131) % 65536,
            ])
        })
        .collect();
    Relation::from_tuples(schema, tuples).unwrap()
}

/// `rel` coded in `mode` (the decode kernel is chosen on the codec).
pub fn coded(rel: &Relation, mode: CodingMode) -> CodedRelation {
    let options = CodecOptions {
        mode,
        ..CodecOptions::default()
    };
    let coded = compress(rel, options).unwrap();
    assert_eq!(coded.tuple_count(), N as usize);
    assert!(coded.block_count() > 1);
    coded
}
