//! # avq-schema — relation schemes, domains, and attribute encoding
//!
//! The schema substrate for the AVQ database compression library. It
//! implements §3.1 of the paper (attribute encoding: every logical value maps
//! to its ordinal in its domain) and the relational preliminaries of §2.2:
//!
//! * [`Domain`] — finite attribute domains (unsigned/signed integer ranges
//!   and enumerated string dictionaries) with exact encode/decode.
//! * [`Attribute`] / [`Schema`] — a relation scheme with its mixed-radix
//!   geometry (φ, per-attribute byte widths, tuple width `m`) precomputed.
//! * [`Tuple`] — an encoded digit vector whose derived lexicographic order is
//!   the φ total order of the paper.
//! * [`TupleBatch`] — a run of encoded tuples in one buffer, column by
//!   column: the decoded form of a block on the read path.
//! * [`Relation`] — an in-memory bag of tuples, sortable into φ order (§3.2).

mod batch;
mod domain;
mod error;
mod relation;
#[allow(clippy::module_inception)]
mod schema;
mod tuple;
mod value;

pub use batch::{BatchSlots, TupleBatch};
pub use domain::Domain;
pub use error::SchemaError;
pub use relation::Relation;
pub use schema::{Attribute, Schema};
pub use tuple::Tuple;
pub use value::Value;
