//! Integration tests spanning avq-file, avq-codec, and avq-db: compress →
//! save → load → serve queries from a fresh database.

use avq::codec::{compress, CodecOptions, CodingMode};
use avq::db::{Aggregate, AggregateValue, DbConfig, RangePredicate, Selection};
use avq::prelude::*;
use avq::workload::SyntheticSpec;
use std::sync::Arc;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("avq-it-{tag}-{}.avq", std::process::id()))
}

#[test]
fn save_load_serve_roundtrip() {
    let relation = SyntheticSpec::test1(5_000).generate();
    let coded = compress(
        &relation,
        CodecOptions {
            block_capacity: 2048,
            ..Default::default()
        },
    )
    .unwrap();

    let path = temp_path("serve");
    avq::file::save(&path, &coded).unwrap();
    let loaded = avq::file::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Serve queries from a fresh database built on the loaded blocks.
    let mut db = Database::new(DbConfig {
        codec: CodecOptions {
            block_capacity: 2048,
            ..Default::default()
        },
        ..Default::default()
    });
    db.create_relation_from_coded("r", &loaded).unwrap();
    let stored = db.relation("r").unwrap();
    assert_eq!(stored.tuple_count(), 5_000);
    stored.primary_index().validate().unwrap();

    // Results agree with a database loaded from the raw relation.
    let mut reference = Database::new(*db.config());
    reference.create_relation("r", &relation).unwrap();
    for attr in [0usize, 3, 7] {
        let (a, _) = db.select_range_ordinal("r", attr, 0, 1).unwrap();
        let (b, _) = reference.select_range_ordinal("r", attr, 0, 1).unwrap();
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "attr {attr}");
    }

    // And updates work on the loaded copy.
    let t = stored.scan_all().unwrap()[42].clone();
    db.relation_mut("r").unwrap().delete(&t).unwrap();
    assert_eq!(db.relation("r").unwrap().tuple_count(), 4_999);
}

#[test]
fn bits_mode_through_the_full_stack() {
    // The bit-aligned extension mode: compress → file → database → query.
    let relation = SyntheticSpec::test2(4_000).generate();
    let opts = CodecOptions {
        mode: CodingMode::AvqChainedBits,
        block_capacity: 2048,
        ..Default::default()
    };
    let coded = compress(&relation, opts).unwrap();
    // Bits mode beats the byte-aligned default on these small domains.
    let byte_coded = compress(
        &relation,
        CodecOptions {
            mode: CodingMode::AvqChained,
            ..opts
        },
    )
    .unwrap();
    assert!(coded.stats().coded_payload_bytes < byte_coded.stats().coded_payload_bytes);

    let path = temp_path("bits");
    avq::file::save(&path, &coded).unwrap();
    let loaded = avq::file::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.options().mode, CodingMode::AvqChainedBits);

    let mut db = Database::new(DbConfig {
        codec: opts,
        ..Default::default()
    });
    db.create_relation_from_coded("r", &loaded).unwrap();
    let stored = db.relation("r").unwrap();
    let (count, _) = stored
        .aggregate(Aggregate::Count, &Selection::all())
        .unwrap();
    assert_eq!(count, AggregateValue::Count(4_000));
    let sel = Selection::all().and(RangePredicate {
        attr: 2,
        lo: 0,
        hi: 1,
    });
    let (rows, _, _) = stored.select(&sel).unwrap();
    let expect = stored
        .scan_all()
        .unwrap()
        .iter()
        .filter(|t| t.digits()[2] <= 1)
        .count();
    assert_eq!(rows.len(), expect);
}

#[test]
fn group_by_through_database() {
    let schema = Schema::from_pairs(vec![
        ("region", Domain::uint(4).unwrap()),
        ("qty", Domain::uint(100).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..800u64).map(|i| Tuple::from([i % 4, i % 100])).collect();
    let relation = Relation::from_tuples(Arc::clone(&schema), tuples).unwrap();
    let mut db = Database::new(DbConfig {
        codec: CodecOptions {
            block_capacity: 256,
            ..Default::default()
        },
        ..Default::default()
    });
    db.create_relation("sales", &relation).unwrap();
    let (groups, _) = db
        .relation("sales")
        .unwrap()
        .aggregate_group_by(0, Aggregate::Avg { attr: 1 }, &Selection::all())
        .unwrap();
    assert_eq!(groups.len(), 4);
    for (_, v) in groups {
        let AggregateValue::Avg(Some(avg)) = v else {
            panic!("non-empty groups");
        };
        assert!((avg - 49.5).abs() < 2.5);
    }
}
