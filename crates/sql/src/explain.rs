//! `EXPLAIN ANALYZE`'s stage table: per-stage wall-clock timing and cache
//! attribution.
//!
//! The cost model charges the *simulated* 1994 disk; the stage reports say
//! where *real* time goes — index probing, block decode, predicate
//! filtering, join matching — and how many block reads each stage served
//! from cache (buffer-pool hits + decoded-block hits) instead of decode +
//! device I/O. The executor produces them; [`stage_table`] renders them as
//! the fixed-format table that `EXPLAIN ANALYZE` prints and a CLI golden
//! test pins.

use avq_db::StoredRelation;
use avq_storage::PoolStats;
use std::time::Duration;

/// One timed stage of a query plan.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name (`index-probe`, `scan`, `filter`, `join`, …).
    pub stage: &'static str,
    /// Rows the stage produced (for scans: tuples decoded; for probes:
    /// candidate blocks located).
    pub rows: u64,
    /// Data blocks the stage touched.
    pub blocks: u64,
    /// Block reads served from cache during the stage (buffer-pool hits
    /// plus decoded-block cache hits).
    pub cache_hits: u64,
    /// Wall-clock time spent in the stage.
    pub elapsed: Duration,
}

/// Formats a duration compactly (`845ns`, `12.3µs`, `4.5ms`, `1.20s`).
fn format_elapsed(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Renders the fixed-format stage table of `stages`: header, separator,
/// one row per stage, then a `total` row with `rows`, the statement's
/// result rows. Its shape (header, column order, separator, `total` row)
/// is what the CLI's EXPLAIN goldens pin — change it there too or not at
/// all.
pub fn stage_table(stages: &[StageReport], rows: u64) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} | {:>10} | {:>8} | {:>10} | {:>10}",
        "stage", "rows", "blocks", "cache_hits", "elapsed"
    );
    let _ = writeln!(
        out,
        "{:-<14}+{:-<12}+{:-<10}+{:-<12}+{:-<11}",
        "", "", "", "", ""
    );
    for s in stages {
        let _ = writeln!(
            out,
            "{:<13} | {:>10} | {:>8} | {:>10} | {:>10}",
            s.stage,
            s.rows,
            s.blocks,
            s.cache_hits,
            format_elapsed(s.elapsed)
        );
    }
    let blocks: u64 = stages.iter().map(|s| s.blocks).sum();
    let hits: u64 = stages.iter().map(|s| s.cache_hits).sum();
    let elapsed: Duration = stages.iter().map(|s| s.elapsed).sum();
    let _ = write!(
        out,
        "{:<13} | {:>10} | {:>8} | {:>10} | {:>10}",
        "total",
        rows,
        blocks,
        hits,
        format_elapsed(elapsed)
    );
    out
}

/// Cache counters at a stage boundary: decoded-block cache + buffer pool.
pub(crate) struct CacheMark {
    decoded: PoolStats,
    pool: PoolStats,
}

impl CacheMark {
    /// Snapshots `rel`'s cache counters at a stage boundary.
    pub(crate) fn take(rel: &StoredRelation) -> Self {
        CacheMark {
            decoded: rel.decoded_stats(),
            pool: rel.pool_stats(),
        }
    }

    /// Cache hits accrued on `rel` since this mark.
    pub(crate) fn hits_since(&self, rel: &StoredRelation) -> u64 {
        rel.decoded_stats().since(&self.decoded).hits + rel.pool_stats().since(&self.pool).hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_pinned_table_shape() {
        let stages = [
            StageReport {
                stage: "scan",
                rows: 100,
                blocks: 4,
                cache_hits: 2,
                elapsed: Duration::from_micros(1234),
            },
            StageReport {
                stage: "filter",
                rows: 10,
                blocks: 0,
                cache_hits: 0,
                elapsed: Duration::from_nanos(900),
            },
        ];
        let text = stage_table(&stages, 10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "stage         |       rows |   blocks | cache_hits |    elapsed"
        );
        assert!(lines[1].chars().all(|c| c == '-' || c == '+'));
        assert_eq!(
            lines[2],
            "scan          |        100 |        4 |          2 |      1.2ms"
        );
        assert_eq!(
            lines[3],
            "filter        |         10 |        0 |          0 |      900ns"
        );
        assert_eq!(
            lines[4],
            "total         |         10 |        4 |          2 |      1.2ms"
        );
    }

    #[test]
    fn elapsed_formatting_units() {
        assert_eq!(format_elapsed(Duration::from_nanos(845)), "845ns");
        assert_eq!(format_elapsed(Duration::from_nanos(12_340)), "12.3µs");
        assert_eq!(format_elapsed(Duration::from_micros(4_500)), "4.5ms");
        assert_eq!(format_elapsed(Duration::from_millis(1_200)), "1.20s");
    }
}
