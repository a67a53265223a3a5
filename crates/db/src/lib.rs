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

mod aggregate;
mod config;
mod cost;
mod database;
mod durable;
mod error;
mod join;
mod query;
mod relation_store;
mod secondary;
mod synopsis;

pub use aggregate::{Aggregate, AggregateValue};
pub use config::{DbConfig, ScanPolicy};
pub use cost::QueryCost;
pub use database::Database;
pub use durable::{CheckpointReport, DurableDatabase, RecoveryReport};
pub use error::DbError;
// Re-exported so durable callers need not depend on `avq-wal` directly.
pub use avq_wal::SyncPolicy;
// Re-exported so degraded-mode callers need not depend on `avq-storage`.
pub use avq_storage::RetryPolicy;
pub use join::{equijoin, JoinStrategy};
pub use query::{
    cheapest, AccessPath, Est, RangePredicate, ScanAlt, Selection, TableStats, INDEX_DESCENT_BLOCKS,
};
pub use relation_store::{
    row_mem_bytes, uncoded_block_count, BlockReads, Served, StoredBlock, StoredRelation,
};
pub use synopsis::{ColumnSynopsis, Synopsis};

pub use avq_obs::{GovCtx, GovUsage, GovernanceError, QueryBudget, QueryCtx, QuotaKind};
pub use secondary::{SecondaryIndex, SplitPostings};
