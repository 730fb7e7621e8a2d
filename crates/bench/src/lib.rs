//! # hfta-bench
//!
//! Harnesses that regenerate every table and figure of the HFTA paper's
//! evaluation, the bench producers behind the `BENCH_*.json` files, and
//! the one CLI that reports on and gates what they write:
//!
//! * `repro_all [<id>...]` prints one artifact per section id
//!   (`repro_all fig4`); with no id it runs everything and emits the
//!   EXPERIMENTS.md paper-vs-measured report.
//! * `bench_kernels`, `bench_mem`, `bench_plan`, `bench_serve` and
//!   `sched_sweep` each define one workload.
//! * `hfta_report <health|diff|summarize|roofline|flight|top|plan>`
//!   renders and compares their outputs; [`record`] is the single schema
//!   both sides share.
//!
//! The `benches/` directory holds criterion micro-benchmarks of the *real*
//! CPU execution of fused vs serial operators.
//!
//! Every producer accepts `--trace <dir>` (see [`telemetry_cli`]) and then
//! writes a Perfetto-loadable Chrome trace plus a serialized
//! [`RunReport`](hfta_telemetry::RunReport) alongside its printed output.

pub mod cli;
pub mod convergence;
pub mod flight_report;
pub mod mem;
pub mod probe_report;
pub mod record;
pub mod scope_report;
pub mod sweep;
pub mod telemetry_cli;
