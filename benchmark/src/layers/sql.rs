//! `avq-sql`: what the traced replay saw of the SQL pipeline. The replay
//! runs `parse`, `bind` + `plan::plan` and `exec::execute_traced` itself,
//! so these are timings of every statement issued, in the cache state the
//! run had when it issued them — there is no separate probe.

use crate::metrics::Metrics;
use crate::stats::{median, ratio};
use std::collections::BTreeMap;

/// Accumulated by the traced executor.
#[derive(Debug, Default)]
pub struct SqlStats {
    /// `avq_sql::parse` per statement.
    pub parse_ns: Vec<u64>,
    /// `bind` + `plan::plan` per statement.
    pub plan_ns: Vec<u64>,
    /// `exec::execute_traced` per statement.
    pub exec_ns: Vec<u64>,
    /// Statements by the `plan:` line `EXPLAIN` would print for them.
    pub plans: BTreeMap<String, u64>,
    /// Tuples the scans handed to the executor.
    pub rows_examined: u64,
    /// Rows returned to the client.
    pub rows_returned: u64,
}

impl SqlStats {
    /// Counts one planned statement under its plan summary.
    pub fn count_plan(&mut self, summary: &str) {
        *self.plans.entry(summary.to_owned()).or_default() += 1;
    }

    /// Writes the `sql.*` metrics (all 0 on a workload without SQL).
    pub fn report(&self, m: &mut Metrics) {
        m.set("sql.parse_us", median(&self.parse_ns) / 1e3);
        m.set("sql.plan_us", median(&self.plan_ns) / 1e3);
        m.set("sql.exec_us", median(&self.exec_ns) / 1e3);
        let planned: u64 = self.plans.values().sum();
        let share = |prefix: &str| {
            let n: u64 = self
                .plans
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, n)| n)
                .sum();
            ratio(n as f64, planned as f64)
        };
        m.set("sql.full_scan_plan_share", share("full-scan"));
        m.set(
            "sql.index_plan_share",
            share("secondary-index") + share("index-nested-loop"),
        );
        m.set("sql.clustered_plan_share", share("clustered-range"));
        m.set(
            "sql.rows_examined_per_row",
            ratio(self.rows_examined as f64, self.rows_returned as f64),
        );
    }
}
