//! # hfta-probe
//!
//! Roofline-based utilization observability for the HFTA reproduction: the
//! layer that answers "what fraction of the machine did we squeeze?" — the
//! quantity the paper's whole thesis is measured in (Figs 8/11/12).
//!
//! * [`roofline`] — one-shot machine calibration ([`calibrate`]): attainable
//!   peak f32 GFLOP/s (the default GEMM's 8×8 micro-kernel) and stream GB/s
//!   per thread count, cached MIOpen-find-db style in a versioned probe
//!   database ([`MachinePeaks`], `--probe-db <path>`).
//! * [`classify`] — places every recorded `OpSample {flops, bytes, ns}`
//!   aggregate on the roofline ([`OpRoofline`]: compute- vs bandwidth-bound,
//!   % of *attainable* peak) and splits experiment totals across fused
//!   lanes ([`per_lane_utilization`]) with `hfta-sim`'s exact even-split
//!   attribution.
//! * [`history`] — the append-only [`PerfHistory`] JSONL store (git rev,
//!   threads, backend, per-op summary per run) and the [`drift`] gate:
//!   utilization of any tracked op dropping beyond tolerance vs the
//!   trailing median fails the run.
//!
//! The op samples come from the `profiled(name, flops, bytes, f)` hook in
//! `hfta-kernels` and the Tape op spans in `hfta-nn`; `hfta_report roofline` in
//! `hfta-bench` renders the tables and the Fig-8-style per-device timeline.

#![warn(missing_docs)]

pub mod classify;
pub mod history;
pub mod roofline;

pub use classify::{
    classify, classify_experiment, per_lane_utilization, BoundKind, LaneUtil, OpRoofline,
};
pub use history::{
    drift, git_rev, DriftViolation, HistoryRecord, OpUtil, PerfHistory, DRIFT_WINDOW,
    HISTORY_SCHEMA,
};
pub use roofline::{calibrate, MachinePeaks, PeakEntry, PROBE_DB_VERSION};
