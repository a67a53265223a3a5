//! # avq-cli — the `avqtool` command-line interface
//!
//! Create, inspect, query, and verify `.avq` compressed relations from the
//! shell. The command implementations live in [`commands`] as plain
//! functions (unit-testable without process spawning); `main.rs` only
//! parses arguments. Includes a dependency-free CSV reader/writer
//! ([`csv`]) and a one-line-per-attribute schema-spec format ([`spec`]).

pub mod commands;
pub mod csv;
pub mod spec;
