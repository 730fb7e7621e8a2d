//! # hfta-core
//!
//! **Horizontally Fused Training Array (HFTA)** — a Rust reproduction of
//! the MLSys 2021 paper's DL-framework extension library.
//!
//! HFTA targets repetitive single-accelerator training jobs (hyper-parameter
//! tuning, seed sweeps): the sibling jobs' models have the *same operator
//! types with the same shapes*, so their operators can be horizontally fused
//! into single, mathematically equivalent, already-well-optimized operators
//! (grouped convolutions, `baddbmm`, widened batch-norms — [`rules`],
//! Table 6 of the paper) and the `B` models trained simultaneously on one
//! shared accelerator.
//!
//! * [`rules`] — Table 6 itself: the rule table and the
//!   same-type-same-shape fusability checker, over `hfta_plan::ShapedOp`
//!   (the workspace's one operator descriptor, which carries the fusion
//!   transform and the cost accounting);
//! * [`ops`] — the stacking rules that fuse `B` per-model convs and batch
//!   norms into the same `hfta-nn` layer at the widened configuration,
//!   [`ops::FusedLinear`] (the one fused operator with its own type), and
//!   the [`ops::Ops`] operator families (`Serial` / `Fused(B)`) that let a
//!   model be written once and instantiated as one job or as an array;
//! * [`mod@format`] — the fused data layouts and differentiable converters;
//! * [`loss`] — fused losses with the §3.2 gradient-exact scaling rule;
//! * [`optim`] — the one fused optimizer, [`optim::FusedOptimizer`]: an
//!   update rule (SGD, Adam or Adadelta) with per-model hyper-parameters
//!   over parameter groups, whether one hand-fused group or one per block
//!   of a [`planned::PlannedArray`]; and the per-lane fused scheduler;
//! * [`planned`] — partially fused execution of an `hfta-plan` fusion plan;
//! * [`mod@array`] — per-step loss and memory metrics and lane weight
//!   transfer;
//! * [`scope`] — hfta-scope: per-model health extraction, divergence
//!   sentinels, and quarantine ([`scope::ScopeMonitor`]);
//! * [`surgery`] — lane surgery: a model's parameter and optimizer-state
//!   lanes ([`surgery::LaneState`]), extracted from one array and spliced
//!   into another bit-identically (the mechanism behind `hfta-sched`'s
//!   re-packing);
//! * [`snapshot`] — versioned on-disk lane snapshots (params + optimizer
//!   state + step counter, or a model's parameters alone), the persistence
//!   layer behind `hfta-serve`'s crash-safe checkpoint/restore.
//!
//! A tuning sweep (the paper's §6 integration target) runs through
//! `hfta-sched` / `hfta-serve`: their one backend trains any
//! [`ops::Architecture`] written once over [`ops::Ops`].
//!
//! # Example — fuse a hyper-parameter sweep
//!
//! ```
//! use hfta_core::{
//!     format::stack_array,
//!     loss::{fused_cross_entropy, Reduction},
//!     ops::{FusedLinear, FusedModule},
//!     optim::{FusedAdam, PerModel},
//! };
//! use hfta_nn::{layers::LinearCfg, Module, Tape};
//! use hfta_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! // Three jobs differing only in learning rate:
//! let lrs = PerModel::new(vec![0.1, 0.01, 0.001]);
//! let model = FusedLinear::new(3, LinearCfg::new(8, 4), &mut rng);
//! let mut opt = FusedAdam::new(model.fused_parameters(), lrs).unwrap();
//!
//! let inputs: Vec<Tensor> = (0..3).map(|_| rng.randn([16, 8])).collect();
//! let targets: Vec<usize> = (0..3 * 16).map(|_| rng.below(4)).collect();
//!
//! opt.zero_grad();
//! let tape = Tape::new();
//! let logits = model.forward(&tape.leaf(stack_array(&inputs).unwrap())); // [B, N, 4]
//! let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
//! loss.backward();
//! opt.step();
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod error;
pub mod format;
pub mod loss;
pub mod ops;
pub mod optim;
pub mod planned;
pub mod rules;
pub mod scope;
pub mod snapshot;
pub mod surgery;

pub use error::{FusionError, Result};
