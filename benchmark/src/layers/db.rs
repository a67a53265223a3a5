//! `avq-db`: the block hand-off on resident and non-resident blocks, range
//! and point selection, join and aggregate on the workload's database; and
//! single-tuple insert/delete/update on a non-durable twin of the relation
//! with the same secondary indexes.

use super::{median_ns, time_ns, Probe};
use crate::driver::err;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workload::{DIM, REL};
use avq_db::{equijoin, Aggregate, Database, DbConfig, Selection};
use avq_schema::{Domain, Relation, Schema, Tuple};

/// Blocks decoded for the hit/miss timings: under the 256-block cache, so
/// the second pass finds all of them resident.
const BLOCKS: usize = 128;
/// Point lookups timed.
const LOOKUPS: usize = 200;
/// The twin's size, and mutations of each kind timed on it.
const TWIN_TUPLES: usize = 20_000;
const MUTATIONS: usize = 300;
const PASSES: usize = 3;

/// Times the database layer.
pub fn probe(p: &mut Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let rel = p.db.relation(REL).map_err(err)?;

    p.db.drop_caches();
    let ids: Vec<_> = rel.all_block_ids().into_iter().take(BLOCKS).collect();
    let mut out = Vec::new();
    for name in ["db.block_miss_ns_per_tuple", "db.block_hit_ns_per_tuple"] {
        out.clear();
        let (ns, r) = time_ns(|| {
            ids.iter()
                .try_for_each(|&id| rel.decode_block_into(id, &mut out))
        });
        r.map_err(err)?;
        m.set(name, ns as f64 / out.len() as f64);
    }

    // The narrowest clustered range `select_range_ordinal` can express on
    // §5.2 data, whose leading attribute has two values: half the blocks.
    let select = median_ns(PASSES, || {
        std::hint::black_box(p.db.select_range_ordinal(REL, 0, 0, 0).is_ok());
    });
    m.set("db.select_range_us", select / 1e3);

    let mut contains_ns = Vec::new();
    for _ in 0..LOOKUPS.min(p.sample.len()) {
        let t = &p.sample[p.rng.index(p.sample.len())];
        let (ns, r) = time_ns(|| rel.contains(t));
        if !r.map_err(err)?.0 {
            return Err("contains() missed a stored tuple".to_owned());
        }
        contains_ns.push(ns);
    }
    m.set("db.contains_us", median(&contains_ns) / 1e3);

    let aggregate = median_ns(PASSES, || {
        std::hint::black_box(
            rel.aggregate(Aggregate::Sum { attr: 13 }, &Selection::all())
                .is_ok(),
        );
    });
    m.set("db.aggregate_ms", aggregate / 1e6);

    // The twin: the sample's head, loaded and indexed like the workload's
    // relation, plus the 64-row dimension table for the join.
    let base: Vec<Tuple> = p.sample[..TWIN_TUPLES.min(p.sample.len())].to_vec();
    let mut twin = Database::new(DbConfig::default());
    let relation = Relation::from_tuples(p.schema.clone(), base.clone()).map_err(err)?;
    twin.create_relation(REL, &relation).map_err(err)?;
    for &attr in p.workload.indexed_attrs() {
        twin.create_secondary_index(REL, attr).map_err(err)?;
    }
    let dim_schema =
        Schema::from_pairs(vec![("k", Domain::uint(64).map_err(err)?)]).map_err(err)?;
    let dim = Relation::from_tuples(
        dim_schema,
        (0..64u64).map(|k| Tuple::new(vec![k])).collect(),
    )
    .map_err(err)?;
    twin.create_relation(DIM, &dim).map_err(err)?;

    let join = median_ns(PASSES, || {
        let (outer, inner) = (twin.relation(DIM), twin.relation(REL));
        if let (Ok(outer), Ok(inner)) = (outer, inner) {
            std::hint::black_box(equijoin(outer, 0, inner, 12).is_ok());
        }
    });
    m.set("db.join_ms", join / 1e6);

    // Fresh tuples: stored ones with a key past every stored key.
    let key = p.schema.arity() - 1;
    let fresh: Vec<Tuple> = (0..MUTATIONS)
        .map(|i| {
            let mut digits = base[p.rng.index(base.len())].digits().to_vec();
            digits[key] = (1 << 23) + i as u64;
            Tuple::new(digits)
        })
        .collect();
    let stored = twin.relation_mut(REL).map_err(err)?;
    let (mut insert_ns, mut update_ns, mut delete_ns) = (Vec::new(), Vec::new(), Vec::new());
    for t in &fresh {
        let (ns, r) = time_ns(|| stored.insert(t));
        r.map_err(err)?;
        insert_ns.push(ns);
    }
    let mut current = fresh;
    for t in &mut current {
        let mut digits = t.digits().to_vec();
        digits[13] = (digits[13] + 1) % 64;
        let new = Tuple::new(digits);
        let (ns, r) = time_ns(|| stored.update(t, &new));
        r.map_err(err)?;
        update_ns.push(ns);
        *t = new;
    }
    for t in &current {
        let (ns, r) = time_ns(|| stored.delete(t));
        r.map_err(err)?;
        delete_ns.push(ns);
    }
    m.set("db.insert_us", median(&insert_ns) / 1e3);
    m.set("db.update_us", median(&update_ns) / 1e3);
    m.set("db.delete_us", median(&delete_ns) / 1e3);
    Ok(())
}
