//! # hfta-bench
//!
//! Harnesses that regenerate every table and figure of the HFTA paper's
//! evaluation, the workload binaries, and the one CLI that reports on and
//! gates what they write:
//!
//! * `repro_all [<id>...]` prints one artifact per section id
//!   (`repro_all fig4`); with no id it runs everything and emits the
//!   EXPERIMENTS.md paper-vs-measured report.
//! * `bench_kernels`, `bench_plan`, `bench_serve` and `sched_sweep` each
//!   define one workload, print its tables and exit 1 when a self-check
//!   fails. Of them only `bench_plan --bench-json` writes a side file (the
//!   format of `ci/golden/plan.bench.json`).
//! * `hfta_report <health|diff|summarize|roofline|flight|top|plan>`
//!   renders and compares their outputs; [`record`] is the single schema
//!   both sides share.
//!
//! The `benches/` directory holds criterion micro-benchmarks of the *real*
//! CPU execution of fused vs serial operators. The memory claim (a fused
//! array's peak footprint below B separate runs', no fresh allocation in
//! steady state) is a tier-1 test of the workspace root,
//! `tests/mem_equivalence.rs`.
//!
//! `repro_all` and every workload but `bench_kernels` accept
//! `--trace <dir>` (see [`telemetry_cli`]) and then write a
//! Perfetto-loadable Chrome trace plus a serialized
//! [`RunReport`](hfta_telemetry::RunReport) alongside their printed output.
//! A binary takes only the flags it reads: any other exits 2 with its
//! usage line.

pub mod cli;
pub mod convergence;
pub mod flight_report;
pub mod probe_report;
pub mod record;
pub mod scope_report;
pub mod sweep;
pub mod telemetry_cli;
