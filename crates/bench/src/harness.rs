//! Shared setup for the §5.2/§5.3 experiments: the timing relation loaded
//! twice (uncoded and AVQ-coded) with secondary indexes on every attribute,
//! and the per-attribute query suite of Fig. 5.8.

use avq_codec::{CodecOptions, CodingMode};
use avq_db::{Database, DbConfig};
use avq_schema::Relation;
use avq_workload::{ActiveSpec, SyntheticSpec};

/// Name under which the timing relation is stored.
pub const REL: &str = "r";

/// The `k`-th command-line argument as a count: `default` when absent, and
/// an error naming the argument when present but not a number — `main`
/// prints it as usage and exits with code 2, so a mistyped size cannot
/// silently run (and get recorded as) the default experiment.
pub fn arg(k: usize, name: &str, default: usize) -> Result<usize, String> {
    parse_arg(std::env::args().nth(k), name, default)
}

fn parse_arg(raw: Option<String>, name: &str, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("<{name}> must be a non-negative integer, got {s:?}")),
    }
}

/// Builds the §5.2 relation.
pub fn timing_relation(tuples: usize) -> (SyntheticSpec, Relation) {
    let spec = SyntheticSpec::section_5_2(tuples);
    let relation = spec.generate();
    (spec, relation)
}

/// Loads `relation` into a fresh database under the given coding mode, with
/// a secondary index on every attribute (the paper assumes the needed
/// secondary indices exist).
pub fn load_database(relation: &Relation, mode: CodingMode, cpu_ms_per_block: f64) -> Database {
    let config = DbConfig {
        codec: CodecOptions {
            mode,
            ..Default::default()
        },
        buffer_frames: 64, // small on purpose: queries should run cold
        cpu_ms_per_block,
        ..Default::default()
    };
    let mut db = Database::new(config);
    db.create_relation(REL, relation).unwrap();
    for attr in 0..relation.schema().arity() {
        db.create_secondary_index(REL, attr).unwrap();
    }
    db
}

/// The Fig. 5.8 query bounds for attribute `k`: `σ_{a ≤ A_k ≤ b}` with
/// `a = 0.5·|A_k|` over the *active* value range, `b` its top — except on
/// the primary-key attribute, where the query is an equality (`b = a`), as
/// only one tuple can match.
pub fn query_bounds(spec: &SyntheticSpec, attr: usize) -> (u64, u64) {
    let sizes = spec.domain_sizes();
    let is_key = spec.unique_last && attr == sizes.len() - 1;
    let active = if is_key {
        spec.tuples as u64
    } else {
        active_for(spec, attr, sizes[attr])
    };
    let a = active / 2;
    if is_key {
        (a, a)
    } else {
        (a, active.saturating_sub(1))
    }
}

fn active_for(spec: &SyntheticSpec, attr: usize, size: u64) -> u64 {
    match &spec.active {
        ActiveSpec::Full => size,
        ActiveSpec::Uniform(n) => (*n).min(size),
        ActiveSpec::PerAttribute(v) => v
            .get(attr)
            .or_else(|| v.last())
            .copied()
            .unwrap_or(size)
            .min(size),
    }
}

/// Runs the Fig. 5.8 suite: for each attribute, executes the range query
/// cold and returns `(N, I)` — data blocks accessed and index blocks read.
pub fn blocks_accessed(db: &Database, spec: &SyntheticSpec) -> Vec<(u64, u64)> {
    let arity = spec.domain_sizes().len();
    let mut out = Vec::with_capacity(arity);
    for attr in 0..arity {
        let (lo, hi) = query_bounds(spec, attr);
        db.drop_caches();
        db.reset_measurements();
        let (_, cost) = db.select_range_ordinal(REL, attr, lo, hi).unwrap();
        out.push((cost.data_blocks, cost.index_reads));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::parse_arg;

    #[test]
    fn absent_argument_takes_the_default() {
        assert_eq!(parse_arg(None, "n", 100_000), Ok(100_000));
        assert_eq!(parse_arg(Some("250".into()), "n", 100_000), Ok(250));
    }

    #[test]
    fn unparsable_argument_is_an_error_naming_it() {
        let err = parse_arg(Some("10000O".into()), "n", 100_000).unwrap_err();
        assert!(err.contains("<n>") && err.contains("10000O"), "{err}");
    }
}
