//! # hfta-benchmark
//!
//! The repo's one measuring stick: fused vs serial training throughput on
//! the real execution path, over four workloads that each put their time in
//! a different layer, with a per-layer ledger timed from outside the
//! program. `README.md` explains what is measured and why; `BENCHMARK.json`
//! at the repo root states the contract.
//!
//! The program under test runs in its default configuration and receives
//! only inputs generated from the workload seed.

#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod oracle;
pub mod probe;
pub mod replay;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
