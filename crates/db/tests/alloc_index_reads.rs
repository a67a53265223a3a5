//! Allocation accounting for warm index reads.
//!
//! A secondary-index probe walks the tree's range with borrowed keys and
//! reads bucket pages in place, and a clustered probe reads the primary
//! index the same way, so once the index blocks are in the buffer pool the
//! candidate list is what a probe allocates — plus, for a clustered probe,
//! the selection's prefix and one buffer for its two probe keys — however
//! many index entries it visits. A counting global allocator pins that; it
//! counts per thread, so the tests of this binary running side by side do
//! not perturb each other.

use avq_db::{AccessPath, DbConfig, RangePredicate, Selection, StoredRelation};
use avq_schema::{Domain, Relation, Schema, Tuple};
use avq_storage::{BlockDevice, BufferPool};
use counting_alloc::counted as allocs;

#[allow(unsafe_code, reason = "a counting GlobalAlloc")]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// What growing a vector to `len` elements may cost: its first allocation
/// and one reallocation per doubling.
fn growth(len: usize) -> u64 {
    1 + u64::from(usize::BITS - len.leading_zeros())
}

/// 20 000 tuples: `a` clusters, `b` takes 64 values spread over every
/// block (each a bucket), `c` is unique (each inline in its tree entry).
fn stored() -> StoredRelation {
    let schema = Schema::from_pairs(vec![
        ("a", Domain::uint(64).unwrap()),
        ("b", Domain::uint(64).unwrap()),
        ("c", Domain::uint(65536).unwrap()),
    ])
    .unwrap();
    let tuples: Vec<Tuple> = (0..20_000u64)
        .map(|i| Tuple::from([(i / 512) % 64, (i * 7) % 64, (i * 131) % 65536]))
        .collect();
    let relation = Relation::from_tuples(schema, tuples).unwrap();
    let config = DbConfig::default().with_block_capacity(1024);
    let device = BlockDevice::new(config.codec.block_capacity, config.disk);
    // Every data block and index node stays in the pool.
    let pool = BufferPool::new(device.clone(), 8192);
    let mut stored = StoredRelation::bulk_load(device, pool, &relation, config).unwrap();
    stored.create_secondary_index(1).unwrap();
    stored.create_secondary_index(2).unwrap();
    stored
}

#[test]
fn warm_secondary_probes_allocate_their_candidate_list() {
    let rel = stored();
    assert!(rel.block_count() > 16, "{} blocks", rel.block_count());
    let probes = [(2, 131, 131), (2, 0, 9_000), (1, 5, 5), (1, 0, 63)];
    for (attr, lo, hi) in probes {
        rel.secondary_candidate_blocks(attr, lo, hi).unwrap();
    }
    for (attr, lo, hi) in probes {
        // The list holds every posting in the range until it is sorted and
        // deduplicated where it stands.
        let postings = rel.secondary_index(attr).unwrap().postings().unwrap();
        let listed = postings
            .iter()
            .filter(|p| (lo..=hi).contains(&p.value))
            .count();
        let (n, blocks) = allocs(|| rel.secondary_candidate_blocks(attr, lo, hi).unwrap());
        assert!(!blocks.is_empty());
        assert!(
            n <= growth(listed),
            "a{attr} in [{lo}, {hi}]: {listed} postings, {} blocks, {n} allocations",
            blocks.len()
        );
    }
    // One inline posting is one block and one allocation.
    let (n, blocks) = allocs(|| rel.secondary_candidate_blocks(2, 131, 131).unwrap());
    assert_eq!((n, blocks.len()), (1, 1));
}

#[test]
fn warm_clustered_probes_allocate_their_prefix_keys_and_candidates() {
    let rel = stored();
    let selections = [
        Selection::all().and(RangePredicate::equals(0, 7)),
        Selection::all()
            .and(RangePredicate::equals(0, 7))
            .and(RangePredicate::equals(1, 3)),
        Selection::all().and(RangePredicate {
            attr: 0,
            lo: 2,
            hi: 40,
        }),
    ];
    for sel in &selections {
        rel.candidate_blocks(sel, AccessPath::ClusteredRange)
            .unwrap();
    }
    for sel in &selections {
        let (n, blocks) = allocs(|| {
            rel.candidate_blocks(sel, AccessPath::ClusteredRange)
                .unwrap()
        });
        assert!(!blocks.is_empty());
        assert!(
            n <= 2 + growth(blocks.len()),
            "{sel:?}: {} blocks, {n} allocations",
            blocks.len()
        );
    }
}
