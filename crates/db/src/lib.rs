//! # avq-db — a relational store over AVQ-compressed blocks
//!
//! The system layer of the reproduction: relations bulk-loaded into
//! AVQ-coded blocks on a simulated 1994 disk, a primary B⁺-tree keyed on
//! whole tuples (§4.1), secondary indexes with bucket indirection
//! (Fig. 4.5), block-confined insert/delete/update (§4.2, Fig. 4.6), and
//! range selections `σ_{a ≤ A_k ≤ b}` with the cost accounting of Eq. 5.7 —
//! `C = I + N·(t₁ + t₂)` — split into measurable phases.
//!
//! The uncoded baseline of the paper's evaluation is the same machinery with
//! [`avq_codec::CodingMode::FieldWise`]: fixed-width tuples, identical
//! indexes, no differencing.
//!
//! ```
//! use avq_db::{Database, DbConfig};
//! use avq_schema::{Domain, Relation, Schema, Tuple, Value};
//!
//! let schema = Schema::from_pairs(vec![
//!     ("dept", Domain::enumerated(vec!["eng", "hr"]).unwrap()),
//!     ("empno", Domain::uint(10_000).unwrap()),
//! ]).unwrap();
//! let relation = Relation::from_rows(
//!     schema,
//!     (0..500u64).map(|i| vec![
//!         Value::from(["eng", "hr"][(i % 2) as usize]),
//!         Value::Uint(i),
//!     ]),
//! ).unwrap();
//!
//! let mut db = Database::new(DbConfig::paper_avq());
//! db.create_relation("people", &relation).unwrap();
//! db.create_secondary_index("people", 1).unwrap();
//!
//! let (rows, cost) = db
//!     .select_range("people", "empno", &Value::Uint(10), &Value::Uint(20))
//!     .unwrap();
//! assert_eq!(rows.len(), 11);
//! assert!(cost.data_blocks >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod config;
mod cost;
mod database;
mod durable;
mod error;
mod explain;
mod join;
mod query;
mod relation_store;
mod scan;
mod secondary;

pub use aggregate::{Aggregate, AggregateValue};
pub use config::{DbConfig, ScanPolicy};
pub use cost::QueryCost;
pub use database::Database;
pub use durable::{CheckpointReport, DurableDatabase, RecoveryReport};
pub use error::DbError;
pub use explain::{format_elapsed, CacheMark, ExplainReport, StageReport};
// Re-exported so durable callers need not depend on `avq-wal` directly.
pub use avq_wal::SyncPolicy;
// Re-exported so degraded-mode callers need not depend on `avq-storage`.
pub use avq_storage::RetryPolicy;
pub use join::{block_nested_loop, equijoin, index_nested_loop, JoinStrategy};
pub use query::{AccessPath, RangePredicate, Selection};
pub use relation_store::{
    row_mem_bytes, uncoded_block_count, BlockReads, StoredBlock, StoredRelation,
};

pub use avq_obs::{GovCtx, GovUsage, GovernanceError, QueryBudget, QueryCtx, QuotaKind};
pub use scan::RangeScan;
pub use secondary::SecondaryIndex;
