//! # hfta-nn
//!
//! Tape-based reverse-mode autograd, neural-network layers, losses and
//! optimizers — the "PyTorch substrate" of the HFTA (MLSys 2021)
//! reproduction. The fused operators in `hfta-core` wrap this crate's
//! [`Var`] ops; the serial training baselines use its layers directly.
//! It has no on-disk format: a model's parameters are saved and restored
//! as a lane snapshot (`hfta_core::snapshot::{save_params, load_params}`).
//!
//! # Example — one SGD step
//!
//! ```
//! use hfta_nn::{layers::{Linear, LinearCfg}, Module, Optimizer, Sgd, Tape};
//! use hfta_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let layer = Linear::new(LinearCfg::new(4, 1), &mut rng);
//! let mut opt = Sgd::new(layer.parameters(), 0.1, 0.0);
//!
//! opt.zero_grad();
//! let tape = Tape::new();
//! let x = tape.leaf(rng.randn([8, 4]));
//! let loss = layer.forward(&x).square().mean();
//! loss.backward();
//! opt.step();
//! ```

#![warn(missing_docs)]

mod gradcheck;
pub mod layers;
mod module;
mod optim;
mod parameter;
mod tape;
mod var_nn;
mod var_ops;

pub use gradcheck::check_gradients;
pub use module::{Module, Sequential};
pub use optim::{
    adadelta_update, adam_update, clip_grad_norm, optim_step_span, sgd_update, Adadelta, Adam,
    AdamCoeffs, CosineLr, ExponentialLr, LrSchedule, Optimizer, Sgd, StepLr, ValueRun,
};
pub use parameter::Parameter;
pub use tape::{Tape, Var};
