//! The repository benchmark: three seeded workloads, each checked against
//! the sequential oracle, timed from outside the program's crates.
//!
//! `README.md` beside this crate documents the workloads, the metrics and
//! the command that prints them.

pub mod host;
pub mod library;
pub mod reference;
pub mod run;
pub mod service;
pub mod stats;
pub mod workload;
