//! # hfta-plan
//!
//! Graph-based auto-fusion planner for heterogeneous model sets.
//!
//! The hand-fused path (`hfta-core::ops`, `hfta-models`) fuses *identical*
//! architectures at module granularity. This crate generalizes fusion to
//! arbitrary model sets, the two upstream capabilities the paper's
//! follow-on work added: **partially fused** models (fused and serial
//! blocks coexisting in one program) and **auto-fusion of different
//! architectures** (`fuse([resnet18, resnet50])`-style).
//!
//! Pipeline:
//!
//! 1. [`ir`] — the operator IR: per-lane [`ModelGraph`]s of [`OpSpec`]
//!    nodes (op kind + full geometry) with shape propagation, and the
//!    [`ShapedOp`] — an op at its entry shape — that carries the Table 6
//!    fusion transform and the FLOP / byte / parameter accounting the
//!    device simulator is fed;
//! 2. [`planner`] — [`FusionPlan::plan`] finds maximal isomorphic
//!    same-shaped subgraph runs across lanes (LCS over the lanes'
//!    [`ShapedOp`] sequences) and emits ordered fused/serial [`Block`]s
//!    with lane-index maps;
//! 3. [`report`] — ASCII block timelines for `plan_report`.
//!
//! Execution lives in `hfta-core::planned` (`PlannedArray`), which runs
//! fused blocks through the existing fused-op machinery and serial blocks
//! per-lane on the same tape, bit-identically to unfused runs.

#![warn(missing_docs)]

pub mod ir;
pub mod planner;
pub mod report;

pub use ir::{ModelGraph, OpKind, OpSpec, PlanError, ShapedOp};
pub use planner::{Block, BlockKind, FusionPlan};
pub use report::render_timeline;
