//! # avq — lossless relational database compression by Augmented Vector Quantization
//!
//! A from-scratch Rust reproduction of **Ng & Ravishankar, "Relational
//! Database Compression Using Augmented Vector Quantization" (ICDE 1995)**:
//! lossless, block-local compression of relational tables that preserves
//! standard database operations.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`num`] — bignums and the mixed-radix φ mapping (Eq. 2.2–2.5);
//! * [`schema`] — domains, attribute encoding (§3.1), tuples, relations;
//! * [`codec`] — the AVQ block coder itself (§3.2–3.4): tuple re-ordering,
//!   block packing, differential + run-length coding, block updates;
//! * [`storage`] — a simulated 1994 disk with cost model and buffer pool;
//! * [`index`] — B⁺-trees (whole-tuple primary keys) and Fig. 4.5 buckets;
//! * [`db`] — the database layer: bulk load, range selection with
//!   `C = I + N(t₁ + t₂)` cost accounting, insert/delete/update,
//!   conjunctive selections, aggregation, and equijoins;
//! * [`mod@file`] — the `.avq` on-disk container (schema + blocks + CRC-32);
//! * [`wal`] — the write-ahead log and checkpointed directory layout that
//!   make mutations durable (`DurableDatabase` in [`db`] sits on top);
//! * [`workload`] — the paper's employee example and §5 synthetic sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use avq::prelude::*;
//!
//! // The paper's 50-tuple employee relation (Fig. 2.2).
//! let relation = avq::workload::employee_relation();
//!
//! // Compress with the paper's configuration (chained AVQ, median
//! // representative, 8 KiB blocks).
//! let coded = compress(&relation, CodecOptions::default()).unwrap();
//! assert_eq!(coded.decompress().unwrap().len(), 50);
//! ```

pub use avq_codec as codec;
pub use avq_db as db;
pub use avq_file as file;
pub use avq_index as index;
pub use avq_num as num;
pub use avq_schema as schema;
pub use avq_storage as storage;
pub use avq_wal as wal;
pub use avq_workload as workload;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use avq_codec::{
        compress, BlockCodec, BlockPacker, CodecOptions, CodedRelation, CodingMode, RepChoice,
    };
    pub use avq_db::{
        equijoin, Aggregate, AggregateValue, Database, DbConfig, DurableDatabase, QueryCost,
        RangePredicate, Selection, SyncPolicy,
    };
    pub use avq_num::{BigUnsigned, MixedRadix};
    pub use avq_schema::{Attribute, Domain, Relation, Schema, Tuple, Value};
    pub use avq_storage::{BlockDevice, BufferPool, DiskProfile, MachineProfile, SimClock};
}
