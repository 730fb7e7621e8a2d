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
//! * [`ops`] — fused operator modules with `new` / `from_models` / `unfuse`,
//!   and the [`ops::Ops`] operator families (`Serial` / `Fused(B)`) that let a
//!   model be written once and instantiated as one job or as an array;
//! * [`mod@format`] — the fused data layouts and differentiable converters;
//! * [`loss`] — fused losses with the §3.2 gradient-exact scaling rule;
//! * [`optim`] — fused optimizers/schedulers with per-model hyper-parameters;
//! * [`mod@array`] — the [`array::ModelArray`] front door and sweep helpers;
//! * [`scope`] — hfta-scope: per-model health extraction, divergence
//!   sentinels, and quarantine ([`scope::ScopeMonitor`]);
//! * [`surgery`] — lane surgery: extract a model's parameter and
//!   optimizer-state lanes and splice lanes into another array,
//!   bit-identically (the mechanism behind `hfta-sched`'s re-packing);
//! * [`snapshot`] — versioned on-disk lane snapshots (params + optimizer
//!   state + step counter), the persistence layer behind `hfta-serve`'s
//!   crash-safe checkpoint/restore;
//! * [`tuner`] — a hyper-parameter tuning driver that packs sweep
//!   candidates into fused arrays (the paper's §6 integration target).
//!
//! # Example — fuse a hyper-parameter sweep
//!
//! ```
//! use hfta_core::{
//!     array::ModelArray,
//!     loss::{fused_cross_entropy, Reduction},
//!     ops::FusedLinear,
//!     optim::{FusedAdam, FusedOptimizer, PerModel},
//! };
//! use hfta_nn::layers::LinearCfg;
//! use hfta_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! // Three jobs differing only in learning rate:
//! let lrs = PerModel::new(vec![0.1, 0.01, 0.001]);
//! let array = ModelArray::new(FusedLinear::new(3, LinearCfg::new(8, 4), &mut rng));
//! let mut opt = FusedAdam::new(array.fused_parameters(), lrs).unwrap();
//!
//! let inputs: Vec<Tensor> = (0..3).map(|_| rng.randn([16, 8])).collect();
//! let targets: Vec<usize> = (0..3 * 16).map(|_| rng.below(4)).collect();
//!
//! opt.zero_grad();
//! let (_tape, logits) = array.forward_array(&inputs).unwrap();
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
pub mod tuner;

pub use error::{FusionError, Result};
