//! hfta-serve: an online multi-tenant tuning service over HFTA arrays.
//!
//! Where `hfta-sched` runs one closed batch of trials to completion, this
//! crate runs an *open* service: tenants submit tuning sweeps while the
//! fleet is busy, a fair-share admission controller decides who trains
//! next, high-priority arrivals preempt running arrays mid-segment via
//! lane surgery, and every lane crossing a rung boundary is checkpointed
//! so a killed-and-restarted service resumes bit-identically.
//!
//! Layers:
//!
//! - [`admission`] — the deficit-weighted fair-share queue and the
//!   [`admission::AdmitPolicy`] choice (strict-FIFO static baseline vs.
//!   preemptive fair share).
//! - [`checkpoint`] — persistence that survives a killed process (not a
//!   power loss: nothing is `fsync`ed): an append-only journal with one
//!   line per engine step plus immutable per-trial lane snapshots
//!   (`hfta-core::snapshot`) named by the commit that refers to them.
//! - [`engine`] — the event-driven service core: lazy-trained segments
//!   on a simulated heterogeneous fleet, synchronous per-rung cohort
//!   barriers, preemptive lane migration, one journal commit per step,
//!   and journal replay / restore.
//! - [`service`] — a thread-backed in-process API (`submit` / `status` /
//!   `cancel` over a command channel) wrapping the engine.

pub mod admission;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod service;

pub use admission::AdmitPolicy;
pub use checkpoint::CheckpointStore;
pub use engine::{ServeCfg, ServeCmd, ServeEngine, ServeReport, ServeRun, SweepSpec, TrialState};
pub use error::ServeError;
pub use service::{ServeHandle, SweepStatus};
