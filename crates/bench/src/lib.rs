//! # avq-bench — experiment harness for the ICDE 1995 AVQ paper
//!
//! One binary per paper table/figure (see `DESIGN.md` §5 for the index):
//!
//! * `exp_compression` — Fig. 5.7: compression efficiency across the four
//!   workload characteristics and relation sizes.
//! * `exp_codec_time` — Fig. 5.9 rows 1–2: block coding/decoding time on
//!   the §5.2 relation, measured on the host and scaled to the paper's
//!   machines.
//! * `exp_blocks_accessed` — Fig. 5.8: `N` per queried attribute.
//! * `exp_response_time` — Fig. 5.9: the full response-time table.
//! * `exp_ablations` — the DESIGN.md ablations (mode, representative,
//!   block size, attribute order, buffer pool).
//! * `exp_throughput` — extension E10: a query mix against the uncoded and
//!   the AVQ store, in simulated 1994 time and in host time.
//! * `exp_updates` — extension E11: insert/delete cost, AVQ vs uncoded.
//!
//! These print the paper's tables; they are not the performance harness.
//! Timings, per-layer metrics and regression bounds come from the
//! repository's benchmark (`BENCHMARK.json`, `benchmark/`).

#![allow(
    clippy::disallowed_methods,
    reason = "the paper-figure bins report host wall time next to the model's"
)]

pub mod harness;
pub mod measure;
pub mod report;
