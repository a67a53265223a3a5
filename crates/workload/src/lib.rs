//! # avq-workload — workload generators for the AVQ evaluation
//!
//! Deterministic (seeded) generators for every dataset the paper evaluates
//! on:
//!
//! * [`employee_relation`] — the 50-tuple running example of Fig. 2.2,
//!   string domains arranged to reproduce the figure's encodings exactly;
//! * [`SyntheticSpec`] — the §5.1 compression-efficiency sweep (15
//!   attributes; domain-size variance low/high; value skew on/off; sizes
//!   10³–10⁶) and the §5.2 timing relation (16 attributes, 38-byte tuples);
//! * [`QueryWorkload`] — reproducible `σ_{a ≤ A_k ≤ b}` query streams with
//!   controlled shape and selectivity (§5.3's query family).

mod employee;
mod queries;
mod synthetic;

pub use employee::{employee_relation, employee_schema, employee_tuples};
pub use queries::{QueryShape, QueryWorkload, RangeQuery};
pub use synthetic::{ActiveSpec, DomainVariance, SyntheticSpec};
