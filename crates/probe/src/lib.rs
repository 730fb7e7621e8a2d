//! # hfta-probe
//!
//! Roofline-based utilization observability for the HFTA reproduction: the
//! layer that answers "what fraction of the machine did we squeeze?" — the
//! quantity the paper's whole thesis is measured in (Figs 8/11/12). It
//! keeps only what nothing else does, and no store it can recompute:
//!
//! * [`roofline`] — one-shot machine calibration ([`calibrate`]): attainable
//!   peak f32 GFLOP/s (the default GEMM's 8×8 micro-kernel) and stream GB/s
//!   per thread count ([`MachinePeaks`]). It takes a quarter of a second,
//!   so `hfta_report roofline` calibrates when it runs and nothing is
//!   cached on disk.
//! * [`classify`] — places every recorded `OpSample {flops, bytes, ns}`
//!   aggregate on the roofline ([`OpRoofline`]: compute- vs bandwidth-bound,
//!   % of *attainable* peak) and splits experiment totals across fused
//!   lanes ([`per_lane_utilization`]) with `hfta-sim`'s exact even-split
//!   attribution.
//!
//! The op samples come from one place, the autograd tape in `hfta-nn`: one
//! forward span per op and one `bwd:<op>` span per backward node (plus the
//! optimizers' `optim_step`). `hfta_report roofline` in `hfta-bench` renders
//! the tables and the Fig-8-style per-device timeline. Wall-clock
//! trajectories across commits belong to `benchmark/run.sh compare`, and
//! simulated latencies are gated exactly by the `ci/golden` diffs.

#![warn(missing_docs)]

pub mod classify;
pub mod roofline;

pub use classify::{
    classify, classify_experiment, per_lane_utilization, BoundKind, LaneUtil, OpRoofline,
};
pub use roofline::{calibrate, MachinePeaks, PeakEntry};
