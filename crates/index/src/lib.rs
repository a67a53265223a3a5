//! # avq-index — access methods for AVQ-coded relations
//!
//! The access-method substrate of §4.1 of the paper:
//!
//! * [`BPlusTree`] — a disk-resident, order-configurable B⁺-tree whose nodes
//!   live one-per-block on the simulated device (so index traversals cost
//!   simulated I/O, the paper's `I` term). The primary index of an AVQ
//!   relation keys on *entire serialized tuples*; secondary indexes key on
//!   attribute values.
//! * [`BucketStore`] — the indirection buckets of Fig. 4.5 that map a
//!   secondary-index value to the set of data blocks containing it.
//!
//! Note on search keys: the paper routes primary-index lookups by *closest
//! difference* to the representative keys. This crate instead keys blocks by
//! their φ-smallest tuple and uses floor search, which is exact for every
//! query (closest-representative routing can misroute a tuple lying near a
//! block boundary); the keys are still whole tuples, as §4.1 requires.

mod bucket;
mod error;
mod node;
mod tree;

pub use bucket::{BucketStore, Posting, Removal};
pub use error::IndexError;
pub use tree::{BPlusTree, TreeStats};
