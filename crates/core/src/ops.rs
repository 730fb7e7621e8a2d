//! Horizontally fused operator modules.
//!
//! Each `FusedX` module computes `B` independent copies of layer `X` (one
//! per training job) in a **single** call of an already-well-optimized
//! operator, per Table 6 of the paper:
//!
//! | per-model layer | fused realization |
//! |---|---|
//! | `Conv1d/2d`, `ConvTranspose2d` (groups `g`) | same op with groups `B*g` |
//! | `Linear` | `baddbmm` over `[B, N, F]` operands |
//! | `BatchNorm1d/2d` | same op widened to `B*C` channels |
//! | `MaxPool2d`, `Dropout(2d)`, activations | same op (stateless) |
//! | a whole model written against [`Ops`] | the same definition at [`Fused`]`(B)` |
//!
//! Every module offers three constructors/conversions:
//! `new` (fresh per-model initializations), `from_models` (fuse trained
//! per-model layers; checks the same-type/same-shape condition), and
//! `unfuse` (recover the per-model layers, e.g. to checkpoint each job).
//!
//! # Operator families
//!
//! [`Ops`] is the paper's `get_hfta_op_for(op, B)` (§3.3, Fig 2) as a type:
//! a *family* names one layer type per operator kind and builds it, so a
//! model written once over `O: Ops` is a serial model at [`Serial`] (the
//! `hfta-nn` layers, one job) and a fused array at [`Fused`]`(B)` (the
//! `FusedX` modules above). The family is chosen at the call site and
//! dispatch is static. Besides constructors a family carries the few
//! **layout rules** on which the two genuinely differ, because the fused
//! ops fix where the model axis lives (conv format `[N, B*C, ..]` for
//! convs and batch norm, array format `[B, N, F]` for `Linear`): the
//! conv→array hop before a `Linear`, batch norm over array-format
//! activations, the per-model class axis of a log-softmax, per-model
//! channel concat, and a per-model batched matmul. Those live here, next
//! to the ops that impose them, so a model definition never encodes how it
//! is mapped onto the device; each is an identity (a handle clone, no tape
//! node) or the plain per-model op for [`Serial`].

use std::fmt::Debug;

use hfta_nn::layers::{BatchNorm, Conv1d, Conv2d, Conv2dCfg, ConvTranspose2d, Linear, LinearCfg};
use hfta_nn::{Module, Parameter, Var};
use hfta_tensor::conv::ConvCfg;
use hfta_tensor::{Rng, Tensor};

use crate::error::{FusionError, Result};
use crate::format::{array_to_conv, conv_to_array, fused_concat_channels};

/// A fused parameter together with its array width; axis 0 is always the
/// model axis (divided into `b` equal chunks), which is how per-model
/// optimizer hyper-parameters are broadcast.
#[derive(Debug, Clone)]
pub struct FusedParameter {
    /// The underlying shared parameter slot.
    pub param: Parameter,
    /// Number of models fused along axis 0.
    pub b: usize,
}

impl FusedParameter {
    /// Extracts model `i`'s slice of the parameter value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= b` or axis 0 is not divisible by `b`.
    pub fn model_slice(&self, i: usize) -> Tensor {
        assert!(i < self.b, "model index {i} out of range (B = {})", self.b);
        let v = self.param.value_cloned();
        let chunk = v.dim(0) / self.b;
        v.narrow(0, i * chunk, chunk)
    }

    /// Extracts model `i`'s slice of the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `i >= b`.
    pub fn model_grad_slice(&self, i: usize) -> Tensor {
        assert!(i < self.b, "model index {i} out of range (B = {})", self.b);
        let g = self.param.grad_cloned();
        let chunk = g.dim(0) / self.b;
        g.narrow(0, i * chunk, chunk)
    }
}

/// A module that computes `B` fused models simultaneously.
pub trait FusedModule: Module {
    /// The array width (number of fused models).
    fn b(&self) -> usize;

    /// The module's parameters annotated with fusion metadata.
    fn fused_parameters(&self) -> Vec<FusedParameter> {
        let b = self.b();
        self.parameters()
            .into_iter()
            .map(|param| FusedParameter { param, b })
            .collect()
    }
}

fn check_same<T: PartialEq + Debug>(
    items: impl Iterator<Item = T>,
    kind: &'static str,
) -> Result<T> {
    let mut iter = items.enumerate();
    let (_, first) = iter.next().ok_or(FusionError::Empty)?;
    for (i, item) in iter {
        if item != first {
            return Err(FusionError::ShapeMismatch {
                kind: kind.into(),
                index: i,
                detail: format!("{item:?} vs {first:?}"),
            });
        }
    }
    Ok(first)
}

// ---------------------------------------------------------------------------
// FusedConv2d
// ---------------------------------------------------------------------------

/// `B` fused 2-D convolutions, realized as one grouped convolution with
/// `G = B * g` (Table 6 row 1). Operates in conv format `[N, B*Cin, H, W]`.
#[derive(Debug)]
pub struct FusedConv2d {
    /// Stacked filter weights `[B*Cout, Cin/g, k, k]`.
    pub weight: Parameter,
    /// Stacked bias `[B*Cout]`.
    pub bias: Option<Parameter>,
    b: usize,
    per_model: Conv2dCfg,
}

impl FusedConv2d {
    /// Creates `b` independently initialized fused convolutions.
    ///
    /// Each model's filters are drawn from its own RNG stream (split from
    /// `rng`), exactly as `b` separate jobs would initialize.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0` or channel counts are not divisible by groups.
    pub fn new(b: usize, cfg: Conv2dCfg, rng: &mut Rng) -> Self {
        assert!(b > 0, "array width must be positive");
        let models: Vec<Conv2d> = (0..b).map(|_| Conv2d::new(cfg, &mut rng.split())).collect();
        Self::from_models(&models).expect("freshly built models always fuse")
    }

    /// Fuses existing per-model layers.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if configurations differ or the slice is
    /// empty.
    pub fn from_models(models: &[Conv2d]) -> Result<Self> {
        let cfg = check_same(models.iter().map(|m| m.cfg()), "Conv2d")?;
        let weights: Vec<Tensor> = models.iter().map(|m| m.weight.value_cloned()).collect();
        let weight = Tensor::concat(&weights.iter().collect::<Vec<_>>(), 0);
        let bias = if cfg.bias {
            let biases: Vec<Tensor> = models
                .iter()
                .map(|m| m.bias.as_ref().expect("cfg.bias set").value_cloned())
                .collect();
            Some(Tensor::concat(&biases.iter().collect::<Vec<_>>(), 0))
        } else {
            None
        };
        Ok(FusedConv2d {
            weight: Parameter::new(weight, "fused_conv2d.weight"),
            bias: bias.map(|b| Parameter::new(b, "fused_conv2d.bias")),
            b: models.len(),
            per_model: cfg,
        })
    }

    /// Recovers the per-model layers (weights are copied out).
    pub fn unfuse(&self) -> Vec<Conv2d> {
        let ws = self.weight.value_cloned().chunk(self.b, 0);
        let bs: Vec<Option<Tensor>> = match &self.bias {
            Some(bias) => bias
                .value_cloned()
                .chunk(self.b, 0)
                .into_iter()
                .map(Some)
                .collect(),
            None => vec![None; self.b],
        };
        ws.into_iter()
            .zip(bs)
            .map(|(w, b)| Conv2d::from_parts(self.per_model, w, b))
            .collect()
    }

    /// The per-model configuration.
    pub fn per_model_cfg(&self) -> Conv2dCfg {
        self.per_model
    }

    fn conv_cfg(&self) -> ConvCfg {
        ConvCfg::square(
            self.per_model.stride,
            self.per_model.padding,
            self.per_model.groups * self.b,
        )
    }
}

impl Module for FusedConv2d {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv2d(&w, b.as_ref(), self.conv_cfg())
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

impl FusedModule for FusedConv2d {
    fn b(&self) -> usize {
        self.b
    }
}

// ---------------------------------------------------------------------------
// FusedConvTranspose2d
// ---------------------------------------------------------------------------

/// `B` fused 2-D transposed convolutions (grouped, Table 6 row 3).
/// Operates in conv format `[N, B*Cin, H, W]`.
#[derive(Debug)]
pub struct FusedConvTranspose2d {
    /// Stacked filter weights `[B*Cin, Cout/g, k, k]`.
    pub weight: Parameter,
    /// Stacked bias `[B*Cout]`.
    pub bias: Option<Parameter>,
    b: usize,
    per_model: Conv2dCfg,
}

impl FusedConvTranspose2d {
    /// Creates `b` independently initialized fused deconvolutions.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0` or channel counts are not divisible by groups.
    pub fn new(b: usize, cfg: Conv2dCfg, rng: &mut Rng) -> Self {
        assert!(b > 0, "array width must be positive");
        let models: Vec<ConvTranspose2d> = (0..b)
            .map(|_| ConvTranspose2d::new(cfg, &mut rng.split()))
            .collect();
        Self::from_models(&models).expect("freshly built models always fuse")
    }

    /// Fuses existing per-model layers.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if configurations differ or the slice is
    /// empty.
    pub fn from_models(models: &[ConvTranspose2d]) -> Result<Self> {
        let cfg = check_same(models.iter().map(|m| m.cfg()), "ConvTranspose2d")?;
        let weights: Vec<Tensor> = models.iter().map(|m| m.weight.value_cloned()).collect();
        let weight = Tensor::concat(&weights.iter().collect::<Vec<_>>(), 0);
        let bias = if cfg.bias {
            let biases: Vec<Tensor> = models
                .iter()
                .map(|m| m.bias.as_ref().expect("cfg.bias set").value_cloned())
                .collect();
            Some(Tensor::concat(&biases.iter().collect::<Vec<_>>(), 0))
        } else {
            None
        };
        Ok(FusedConvTranspose2d {
            weight: Parameter::new(weight, "fused_convt2d.weight"),
            bias: bias.map(|b| Parameter::new(b, "fused_convt2d.bias")),
            b: models.len(),
            per_model: cfg,
        })
    }

    /// Recovers the per-model layers.
    pub fn unfuse(&self) -> Vec<ConvTranspose2d> {
        let ws = self.weight.value_cloned().chunk(self.b, 0);
        let bs: Vec<Option<Tensor>> = match &self.bias {
            Some(bias) => bias
                .value_cloned()
                .chunk(self.b, 0)
                .into_iter()
                .map(Some)
                .collect(),
            None => vec![None; self.b],
        };
        ws.into_iter()
            .zip(bs)
            .map(|(w, b)| ConvTranspose2d::from_parts(self.per_model, w, b))
            .collect()
    }

    fn conv_cfg(&self) -> ConvCfg {
        ConvCfg::square(
            self.per_model.stride,
            self.per_model.padding,
            self.per_model.groups * self.b,
        )
    }
}

impl Module for FusedConvTranspose2d {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv_transpose2d(&w, b.as_ref(), self.conv_cfg())
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

impl FusedModule for FusedConvTranspose2d {
    fn b(&self) -> usize {
        self.b
    }
}

// ---------------------------------------------------------------------------
// FusedConv1d
// ---------------------------------------------------------------------------

/// `B` fused 1-D convolutions (grouped, Table 6 row 2). Operates in conv
/// format `[N, B*Cin, L]`.
#[derive(Debug)]
pub struct FusedConv1d {
    /// Stacked filter weights `[B*Cout, Cin/g, k]`.
    pub weight: Parameter,
    /// Stacked bias `[B*Cout]`.
    pub bias: Option<Parameter>,
    b: usize,
    stride: usize,
    padding: usize,
    groups: usize,
}

impl FusedConv1d {
    /// Creates `b` independently initialized fused 1-D convolutions.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0` or channel counts are not divisible by groups.
    pub fn new(
        b: usize,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(b > 0, "array width must be positive");
        let models: Vec<Conv1d> = (0..b)
            .map(|_| {
                Conv1d::new(
                    in_channels,
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    1,
                    &mut rng.split(),
                )
            })
            .collect();
        Self::from_models(&models).expect("freshly built models always fuse")
    }

    /// Fuses existing per-model layers.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if geometries or weight shapes differ.
    pub fn from_models(models: &[Conv1d]) -> Result<Self> {
        let (stride, padding, groups) = check_same(models.iter().map(|m| m.geometry()), "Conv1d")?;
        check_same(
            models.iter().map(|m| m.weight.value().dims().to_vec()),
            "Conv1d",
        )?;
        let weights: Vec<Tensor> = models.iter().map(|m| m.weight.value_cloned()).collect();
        let weight = Tensor::concat(&weights.iter().collect::<Vec<_>>(), 0);
        let bias = if models[0].bias.is_some() {
            let biases: Vec<Tensor> = models
                .iter()
                .map(|m| m.bias.as_ref().expect("uniform bias").value_cloned())
                .collect();
            Some(Tensor::concat(&biases.iter().collect::<Vec<_>>(), 0))
        } else {
            None
        };
        Ok(FusedConv1d {
            weight: Parameter::new(weight, "fused_conv1d.weight"),
            bias: bias.map(|b| Parameter::new(b, "fused_conv1d.bias")),
            b: models.len(),
            stride,
            padding,
            groups,
        })
    }

    /// Recovers the per-model layers.
    pub fn unfuse(&self) -> Vec<Conv1d> {
        let ws = self.weight.value_cloned().chunk(self.b, 0);
        let bs: Vec<Option<Tensor>> = match &self.bias {
            Some(bias) => bias
                .value_cloned()
                .chunk(self.b, 0)
                .into_iter()
                .map(Some)
                .collect(),
            None => vec![None; self.b],
        };
        ws.into_iter()
            .zip(bs)
            .map(|(w, b)| Conv1d::from_parts(w, b, self.stride, self.padding, self.groups))
            .collect()
    }
}

impl Module for FusedConv1d {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv1d(
            &w,
            b.as_ref(),
            self.stride,
            self.padding,
            self.groups * self.b,
        )
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

impl FusedModule for FusedConv1d {
    fn b(&self) -> usize {
        self.b
    }
}

// ---------------------------------------------------------------------------
// FusedLinear
// ---------------------------------------------------------------------------

/// `B` fused linear layers, realized as one `baddbmm` (Table 6 row 4).
/// Operates in array format `[B, N, F_in] -> [B, N, F_out]`.
#[derive(Debug)]
pub struct FusedLinear {
    /// Stacked weights `[B, F_in, F_out]`.
    pub weight: Parameter,
    /// Stacked bias `[B, 1, F_out]`.
    pub bias: Option<Parameter>,
    b: usize,
}

impl FusedLinear {
    /// Creates `b` independently initialized fused linear layers.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn new(b: usize, cfg: LinearCfg, rng: &mut Rng) -> Self {
        assert!(b > 0, "array width must be positive");
        let models: Vec<Linear> = (0..b).map(|_| Linear::new(cfg, &mut rng.split())).collect();
        Self::from_models(&models).expect("freshly built models always fuse")
    }

    /// Fuses existing per-model layers.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if weight shapes differ.
    pub fn from_models(models: &[Linear]) -> Result<Self> {
        check_same(
            models.iter().map(|m| m.weight.value().dims().to_vec()),
            "Linear",
        )?;
        let ws: Vec<Tensor> = models
            .iter()
            .map(|m| m.weight.value_cloned().unsqueeze(0))
            .collect();
        let weight = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0);
        let bias = if models[0].bias.is_some() {
            let bs: Vec<Tensor> = models
                .iter()
                .map(|m| {
                    let b = m.bias.as_ref().expect("uniform bias").value_cloned();
                    let f = b.numel();
                    b.reshape(&[1, 1, f])
                })
                .collect();
            Some(Tensor::concat(&bs.iter().collect::<Vec<_>>(), 0))
        } else {
            None
        };
        Ok(FusedLinear {
            weight: Parameter::new(weight, "fused_linear.weight"),
            bias: bias.map(|b| Parameter::new(b, "fused_linear.bias")),
            b: models.len(),
        })
    }

    /// Recovers the per-model layers.
    pub fn unfuse(&self) -> Vec<Linear> {
        let ws = self.weight.value_cloned().chunk(self.b, 0);
        let bs: Vec<Option<Tensor>> = match &self.bias {
            Some(bias) => bias
                .value_cloned()
                .chunk(self.b, 0)
                .into_iter()
                .map(|b| {
                    let f = b.numel();
                    Some(b.reshape(&[f]))
                })
                .collect(),
            None => vec![None; self.b],
        };
        ws.into_iter()
            .zip(bs)
            .map(|(w, b)| Linear::from_parts(w.squeeze(0), b))
            .collect()
    }
}

impl Module for FusedLinear {
    fn forward(&self, x: &Var) -> Var {
        assert_eq!(
            x.dims().len(),
            3,
            "FusedLinear expects array format [B, N, F]"
        );
        assert_eq!(x.dim(0), self.b, "array width mismatch");
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        match &self.bias {
            Some(b) => x.baddbmm(&w, &tape.param(b)),
            None => x.bmm(&w),
        }
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

impl FusedModule for FusedLinear {
    fn b(&self) -> usize {
        self.b
    }
}

// ---------------------------------------------------------------------------
// FusedBatchNorm
// ---------------------------------------------------------------------------

/// `B` fused batch norms: one batch norm widened to `B*C` channels
/// (Table 6 rows 5–6). Per-channel statistics are independent, so the
/// widened op computes exactly the per-model statistics. Operates in conv
/// format.
#[derive(Debug)]
pub struct FusedBatchNorm {
    inner: BatchNorm,
    b: usize,
    channels: usize,
}

impl FusedBatchNorm {
    /// Creates `b` fused batch norms over `channels` channels each.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn new(b: usize, channels: usize) -> Self {
        assert!(b > 0, "array width must be positive");
        FusedBatchNorm {
            inner: BatchNorm::new(b * channels),
            b,
            channels,
        }
    }

    /// Fuses existing per-model batch norms.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if channel counts differ.
    pub fn from_models(models: &[BatchNorm]) -> Result<Self> {
        let c = check_same(models.iter().map(|m| m.gamma.numel()), "BatchNorm")?;
        let gs: Vec<Tensor> = models.iter().map(|m| m.gamma.value_cloned()).collect();
        let bs: Vec<Tensor> = models.iter().map(|m| m.beta.value_cloned()).collect();
        let gamma = Tensor::concat(&gs.iter().collect::<Vec<_>>(), 0);
        let beta = Tensor::concat(&bs.iter().collect::<Vec<_>>(), 0);
        let rm: Vec<f32> = models.iter().flat_map(|m| m.running_mean()).collect();
        let rv: Vec<f32> = models.iter().flat_map(|m| m.running_var()).collect();
        Ok(FusedBatchNorm {
            inner: BatchNorm::from_parts(gamma, beta, rm, rv),
            b: models.len(),
            channels: c,
        })
    }

    /// Recovers the per-model batch norms (affine weights and running
    /// statistics).
    pub fn unfuse(&self) -> Vec<BatchNorm> {
        let gs = self.inner.gamma.value_cloned().chunk(self.b, 0);
        let bs = self.inner.beta.value_cloned().chunk(self.b, 0);
        let rm = self.inner.running_mean();
        let rv = self.inner.running_var();
        (0..self.b)
            .map(|i| {
                BatchNorm::from_parts(
                    gs[i].clone(),
                    bs[i].clone(),
                    rm[i * self.channels..(i + 1) * self.channels].to_vec(),
                    rv[i * self.channels..(i + 1) * self.channels].to_vec(),
                )
            })
            .collect()
    }

    /// Per-model channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Module for FusedBatchNorm {
    fn forward(&self, x: &Var) -> Var {
        self.inner.forward(x)
    }

    fn parameters(&self) -> Vec<Parameter> {
        self.inner.parameters()
    }

    fn set_training(&self, training: bool) {
        self.inner.set_training(training);
    }
}

impl FusedModule for FusedBatchNorm {
    fn b(&self) -> usize {
        self.b
    }
}

// ---------------------------------------------------------------------------
// Stateless fused operators (Table 6 rows 7-12)
// ---------------------------------------------------------------------------

/// Declares a fused wrapper around a stateless `hfta-nn` layer: per
/// Table 6, stateless operators fuse by simply running over the widened
/// tensor, so the wrapper only adds the array-width bookkeeping that
/// [`FusedModule`] consumers rely on.
macro_rules! stateless_fused {
    ($(#[$doc:meta])* $name:ident wraps $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            inner: $inner,
            b: usize,
        }

        impl $name {
            /// Wraps the per-model layer for a `b`-wide array.
            ///
            /// # Panics
            ///
            /// Panics if `b == 0`.
            pub fn new(b: usize, inner: $inner) -> Self {
                assert!(b > 0, "array width must be positive");
                $name { inner, b }
            }

            /// The wrapped per-model layer.
            pub fn inner(&self) -> &$inner {
                &self.inner
            }
        }

        impl Module for $name {
            fn forward(&self, x: &Var) -> Var {
                self.inner.forward(x)
            }

            fn parameters(&self) -> Vec<Parameter> {
                Vec::new()
            }

            fn set_training(&self, training: bool) {
                self.inner.set_training(training);
            }
        }

        impl FusedModule for $name {
            fn b(&self) -> usize {
                self.b
            }
        }
    };
}

stateless_fused! {
    /// `B` fused max pools: one `MaxPool2d` over `[N, B*C, H, W]`
    /// (Table 6 row 7 — channels pool independently).
    FusedMaxPool2d wraps hfta_nn::layers::MaxPool2d
}

stateless_fused! {
    /// `B` fused channel dropouts: one `Dropout2d` over `[N, B*C, H, W]`
    /// (Table 6 row 8). Note the fused mask realization differs from `B`
    /// independent serial masks — stochastically equivalent, not
    /// bit-identical (disable training mode for exact comparisons).
    FusedDropout2d wraps hfta_nn::layers::Dropout2d
}

stateless_fused! {
    /// `B` fused elementwise dropouts over the widened tensor
    /// (Table 6 row 9; same stochastic-equivalence caveat as
    /// [`FusedDropout2d`]).
    FusedDropout wraps hfta_nn::layers::Dropout
}

stateless_fused! {
    /// `B` fused leaky ReLUs over the widened tensor (Table 6 row 10).
    FusedLeakyRelu wraps hfta_nn::layers::LeakyRelu
}

stateless_fused! {
    /// `B` fused ReLUs over the widened tensor (Table 6 row 11).
    FusedRelu wraps hfta_nn::layers::Relu
}

stateless_fused! {
    /// `B` fused Tanhs over the widened tensor (Table 6 row 12).
    FusedTanh wraps hfta_nn::layers::Tanh
}

// ---------------------------------------------------------------------------
// Operator families
// ---------------------------------------------------------------------------

/// An operator family: which layer type realizes each operator kind, and
/// the layout rules that differ between one model and a fused array (see
/// the module docs). Models are written once, generic over `O: Ops`.
///
/// # Example — one definition, two instantiations
///
/// ```
/// use hfta_core::ops::{Fused, Ops, Serial};
/// use hfta_nn::{layers::LinearCfg, Module, Tape, Var};
/// use hfta_tensor::Rng;
///
/// struct Mlp<O: Ops> {
///     fc1: O::Linear,
///     bn: O::BatchNorm,
///     fc2: O::Linear,
///     ops: O,
/// }
///
/// impl<O: Ops> Mlp<O> {
///     fn build(ops: O, rng: &mut Rng) -> Self {
///         Mlp {
///             fc1: ops.linear(LinearCfg::new(6, 8), rng),
///             bn: ops.batch_norm(8),
///             fc2: ops.linear(LinearCfg::new(8, 3), rng),
///             ops,
///         }
///     }
///
///     /// Conv-format features `[N, B*6]` in, the family's logits out.
///     fn forward(&self, x: &Var) -> Var {
///         let h = self.fc1.forward(&self.ops.to_linear(x));
///         self.fc2.forward(&self.ops.batch_norm_linear(&self.bn, &h).relu())
///     }
/// }
///
/// let (tape, mut rng) = (Tape::new(), Rng::seed_from(0));
/// let one_job = Mlp::build(Serial, &mut rng);
/// let y = one_job.forward(&tape.leaf(rng.randn([4, 6])));
/// assert_eq!(y.dims(), vec![4, 3]);
/// let array = Mlp::build(Fused(5), &mut rng);
/// let y = array.forward(&tape.leaf(rng.randn([4, 5 * 6])));
/// assert_eq!(y.dims(), vec![5, 4, 3]);
/// ```
pub trait Ops: Copy + Debug {
    /// 2-D convolution.
    type Conv2d: Module + Debug;
    /// 2-D transposed convolution.
    type ConvTranspose2d: Module + Debug;
    /// 1-D convolution.
    type Conv1d: Module + Debug;
    /// Fully connected layer.
    type Linear: Module + Debug;
    /// Batch normalization.
    type BatchNorm: Module + Debug;

    /// Number of models one op of this family computes (1 for [`Serial`]).
    fn b(&self) -> usize;

    /// Builds a 2-D convolution.
    fn conv2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> Self::Conv2d;
    /// Builds a 2-D transposed convolution.
    fn conv_transpose2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> Self::ConvTranspose2d;
    /// Builds an ungrouped 1-D convolution.
    fn conv1d(
        &self,
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self::Conv1d;
    /// Builds a fully connected layer.
    fn linear(&self, cfg: LinearCfg, rng: &mut Rng) -> Self::Linear;
    /// Builds a batch norm over `channels` channels per model.
    fn batch_norm(&self, channels: usize) -> Self::BatchNorm;

    /// Flattened conv-format features `[N, B*F]` → the family's `Linear`
    /// input (`[N, F]` unchanged, or array format `[B, N, F]`).
    fn to_linear(&self, x: &Var) -> Var;
    /// Applies `bn` to a `Linear` output.
    fn batch_norm_linear(&self, bn: &Self::BatchNorm, x: &Var) -> Var;
    /// Log-softmax over each model's own classes of conv-format logits
    /// `[N, B*K, P]`.
    fn log_softmax_channels(&self, logits: &Var) -> Var;
    /// Per-model `cat([a_i, b_i], dim = 1)` of two conv-format activations.
    fn concat_channels(&self, a: &Var, b: &Var) -> Var;
    /// Right-multiplies each model's points `x [N, B*3, P]` by its own 3x3
    /// matrices, given as a `Linear` output of 9 features.
    fn transform_points(&self, x: &Var, mats: &Var) -> Var;
}

/// The per-model family: the `hfta-nn` layers themselves, one training job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serial;

impl Ops for Serial {
    type Conv2d = Conv2d;
    type ConvTranspose2d = ConvTranspose2d;
    type Conv1d = Conv1d;
    type Linear = Linear;
    type BatchNorm = BatchNorm;

    fn b(&self) -> usize {
        1
    }

    fn conv2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> Conv2d {
        Conv2d::new(cfg, rng)
    }

    fn conv_transpose2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> ConvTranspose2d {
        ConvTranspose2d::new(cfg, rng)
    }

    fn conv1d(
        &self,
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Conv1d {
        Conv1d::new(cin, cout, kernel, stride, padding, 1, rng)
    }

    fn linear(&self, cfg: LinearCfg, rng: &mut Rng) -> Linear {
        Linear::new(cfg, rng)
    }

    fn batch_norm(&self, channels: usize) -> BatchNorm {
        BatchNorm::new(channels)
    }

    fn to_linear(&self, x: &Var) -> Var {
        x.clone()
    }

    fn batch_norm_linear(&self, bn: &BatchNorm, x: &Var) -> Var {
        bn.forward(x)
    }

    fn log_softmax_channels(&self, logits: &Var) -> Var {
        logits.log_softmax(1)
    }

    fn concat_channels(&self, a: &Var, b: &Var) -> Var {
        Var::concat(&[a, b], 1)
    }

    fn transform_points(&self, x: &Var, mats: &Var) -> Var {
        let mats = mats.reshape(&[x.dim(0), 3, 3]);
        // [N, P, 3] x [N, 3, 3] -> [N, P, 3], then back to [N, 3, P].
        x.transpose(1, 2).bmm(&mats).transpose(1, 2)
    }
}

/// The horizontally fused family at array width `B`: the `FusedX` modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fused(pub usize);

impl Ops for Fused {
    type Conv2d = FusedConv2d;
    type ConvTranspose2d = FusedConvTranspose2d;
    type Conv1d = FusedConv1d;
    type Linear = FusedLinear;
    type BatchNorm = FusedBatchNorm;

    fn b(&self) -> usize {
        self.0
    }

    fn conv2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> FusedConv2d {
        FusedConv2d::new(self.0, cfg, rng)
    }

    fn conv_transpose2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> FusedConvTranspose2d {
        FusedConvTranspose2d::new(self.0, cfg, rng)
    }

    fn conv1d(
        &self,
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> FusedConv1d {
        FusedConv1d::new(self.0, cin, cout, kernel, stride, padding, rng)
    }

    fn linear(&self, cfg: LinearCfg, rng: &mut Rng) -> FusedLinear {
        FusedLinear::new(self.0, cfg, rng)
    }

    fn batch_norm(&self, channels: usize) -> FusedBatchNorm {
        FusedBatchNorm::new(self.0, channels)
    }

    fn to_linear(&self, x: &Var) -> Var {
        conv_to_array(x, self.0)
    }

    /// The widened batch norm runs in conv format: `[B, N, F]` → `[N, B*F]`,
    /// normalize, and back.
    fn batch_norm_linear(&self, bn: &FusedBatchNorm, x: &Var) -> Var {
        conv_to_array(&bn.forward(&array_to_conv(x)), self.0)
    }

    fn log_softmax_channels(&self, logits: &Var) -> Var {
        // [N, B*K, P] -> [N, B, K, P]: softmax over K only.
        let dims = logits.dims();
        let (n, k, p) = (dims[0], dims[1] / self.0, dims[2]);
        logits
            .reshape(&[n, self.0, k, p])
            .log_softmax(2)
            .reshape(&dims)
    }

    fn concat_channels(&self, a: &Var, b: &Var) -> Var {
        fused_concat_channels(a, b, self.0)
    }

    /// `B*N` batched 3x3 matmuls — the fused form of the reference
    /// `torch.bmm`.
    fn transform_points(&self, x: &Var, mats: &Var) -> Var {
        let (b, n, p) = (self.0, x.dim(0), x.dim(2));
        let mats = mats.reshape(&[b * n, 3, 3]);
        // [N, B*3, P] -> [B*N, P, 3], batched transform, and back.
        let points = x
            .reshape(&[n, b, 3, p])
            .permute(&[1, 0, 3, 2]) // [B, N, P, 3]
            .reshape(&[b * n, p, 3]);
        points
            .bmm(&mats)
            .reshape(&[b, n, p, 3])
            .permute(&[1, 0, 3, 2]) // [N, B, 3, P]
            .reshape(&[n, b * 3, p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{stack_array, stack_conv, unstack_array, unstack_conv};
    use hfta_nn::Tape;

    fn rng() -> Rng {
        Rng::seed_from(42)
    }

    /// Forward the fused module on stacked inputs and compare against each
    /// per-model forward — the §3.3 equivalence, at operator granularity.
    fn assert_conv_format_equivalence<M, F>(models: &[M], fused: &F, inputs: &[Tensor], tol: f32)
    where
        M: Module,
        F: Module,
    {
        let tape = Tape::new();
        let fused_in = tape.leaf(stack_conv(inputs).unwrap());
        let fused_out = fused.forward(&fused_in).value();
        let parts = unstack_conv(&fused_out, models.len());
        for (i, m) in models.iter().enumerate() {
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(inputs[i].clone())).value();
            assert!(
                parts[i].allclose(&y, tol),
                "model {i} diverges: max diff {}",
                parts[i].max_abs_diff(&y)
            );
        }
    }

    #[test]
    fn fused_conv2d_equals_per_model() {
        let mut r = rng();
        let cfg = Conv2dCfg::new(3, 8, 3).stride(1).padding(1);
        let models: Vec<Conv2d> = (0..4).map(|_| Conv2d::new(cfg, &mut r.split())).collect();
        let fused = FusedConv2d::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..4).map(|_| r.randn([2, 3, 6, 6])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs, 1e-4);
    }

    #[test]
    fn fused_conv2d_grouped_base() {
        // Fusing convs that are already grouped (g = 2) -> G = B * 2.
        let mut r = rng();
        let cfg = Conv2dCfg::new(4, 8, 3).padding(1).groups(2);
        let models: Vec<Conv2d> = (0..3).map(|_| Conv2d::new(cfg, &mut r.split())).collect();
        let fused = FusedConv2d::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..3).map(|_| r.randn([1, 4, 5, 5])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs, 1e-4);
    }

    #[test]
    fn fused_conv2d_unfuse_round_trip() {
        let mut r = rng();
        let cfg = Conv2dCfg::new(2, 4, 3);
        let models: Vec<Conv2d> = (0..3).map(|_| Conv2d::new(cfg, &mut r.split())).collect();
        let fused = FusedConv2d::from_models(&models).unwrap();
        let recovered = fused.unfuse();
        for (m, u) in models.iter().zip(&recovered) {
            assert_eq!(m.weight.value_cloned(), u.weight.value_cloned());
            assert_eq!(
                m.bias.as_ref().unwrap().value_cloned(),
                u.bias.as_ref().unwrap().value_cloned()
            );
        }
    }

    #[test]
    fn fused_conv2d_rejects_mismatched_cfg() {
        let mut r = rng();
        let a = Conv2d::new(Conv2dCfg::new(3, 8, 3), &mut r);
        let b = Conv2d::new(Conv2dCfg::new(3, 8, 5), &mut r);
        assert!(matches!(
            FusedConv2d::from_models(&[a, b]).unwrap_err(),
            FusionError::ShapeMismatch { index: 1, .. }
        ));
    }

    #[test]
    fn fused_conv_transpose_equals_per_model() {
        let mut r = rng();
        let cfg = Conv2dCfg::new(8, 4, 4).stride(2).padding(1);
        let models: Vec<ConvTranspose2d> = (0..3)
            .map(|_| ConvTranspose2d::new(cfg, &mut r.split()))
            .collect();
        let fused = FusedConvTranspose2d::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..3).map(|_| r.randn([2, 8, 4, 4])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs, 1e-4);
    }

    #[test]
    fn fused_conv1d_equals_per_model() {
        let mut r = rng();
        let models: Vec<Conv1d> = (0..5)
            .map(|_| Conv1d::new(3, 16, 1, 1, 0, 1, &mut r.split()))
            .collect();
        let fused = FusedConv1d::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..5).map(|_| r.randn([2, 3, 30])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs, 1e-4);
    }

    #[test]
    fn fused_linear_equals_per_model() {
        let mut r = rng();
        let models: Vec<Linear> = (0..4)
            .map(|_| Linear::new(LinearCfg::new(6, 3), &mut r.split()))
            .collect();
        let fused = FusedLinear::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..4).map(|_| r.randn([5, 6])).collect();
        let tape = Tape::new();
        let fused_in = tape.leaf(stack_array(&inputs).unwrap());
        let outs = unstack_array(&fused.forward(&fused_in).value(), 4);
        for (i, m) in models.iter().enumerate() {
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(inputs[i].clone())).value();
            assert!(outs[i].allclose(&y, 1e-4), "model {i}");
        }
    }

    #[test]
    fn fused_linear_unfuse_round_trip() {
        let mut r = rng();
        let models: Vec<Linear> = (0..3)
            .map(|_| Linear::new(LinearCfg::new(4, 2), &mut r.split()))
            .collect();
        let fused = FusedLinear::from_models(&models).unwrap();
        for (m, u) in models.iter().zip(fused.unfuse()) {
            assert_eq!(m.weight.value_cloned(), u.weight.value_cloned());
            assert_eq!(
                m.bias.as_ref().unwrap().value_cloned(),
                u.bias.as_ref().unwrap().value_cloned()
            );
        }
    }

    #[test]
    fn fused_batch_norm_equals_per_model() {
        let mut r = rng();
        let models: Vec<BatchNorm> = (0..3).map(|_| BatchNorm::new(4)).collect();
        let fused = FusedBatchNorm::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..3).map(|_| r.randn([6, 4, 5, 5])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs, 1e-4);
    }

    #[test]
    fn fused_batch_norm_running_stats_match_serial() {
        let mut r = rng();
        let serial = BatchNorm::new(2);
        let fused = FusedBatchNorm::new(3, 2);
        let x: Vec<Tensor> = (0..3).map(|_| r.randn([4, 2, 3])).collect();
        // Run the same input through model 0 of the array and the serial BN.
        let tape = Tape::new();
        let _ = serial.forward(&tape.leaf(x[0].clone()));
        let fused_in = tape.leaf(stack_conv(&x).unwrap());
        let _ = fused.forward(&fused_in);
        let fused_bn0 = &fused.unfuse()[0];
        for (a, b) in serial
            .running_mean()
            .iter()
            .zip(fused_bn0.running_mean().iter())
        {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        for (a, b) in serial
            .running_var()
            .iter()
            .zip(fused_bn0.running_var().iter())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_parameters_expose_model_slices() {
        let mut r = rng();
        let fused = FusedConv2d::new(3, Conv2dCfg::new(2, 4, 3), &mut r);
        let fps = fused.fused_parameters();
        assert_eq!(fps.len(), 2);
        let w0 = fps[0].model_slice(0);
        assert_eq!(w0.dims(), &[4, 2, 3, 3]);
        assert_eq!(fused.unfuse()[0].weight.value_cloned(), w0);
    }

    #[test]
    fn stateless_fused_wrappers_are_identities_per_model() {
        let mut r = rng();
        let b = 3;
        let xs: Vec<Tensor> = (0..b).map(|_| r.randn([2, 4, 6, 6])).collect();
        let pool = FusedMaxPool2d::new(b, hfta_nn::layers::MaxPool2d::new(2));
        assert_eq!(pool.b(), b);
        let tape = Tape::new();
        let fx = tape.leaf(stack_conv(&xs).unwrap());
        let fused_out = pool.forward(&fx).value();
        let parts = unstack_conv(&fused_out, b);
        for (i, x) in xs.iter().enumerate() {
            let tape = Tape::new();
            let y = hfta_nn::layers::MaxPool2d::new(2)
                .forward(&tape.leaf(x.clone()))
                .value();
            assert!(parts[i].allclose(&y, 1e-6), "model {i}");
        }
        // ReLU / Tanh wrappers behave identically too.
        let relu = FusedRelu::new(b, hfta_nn::layers::Relu);
        let tanh = FusedTanh::new(b, hfta_nn::layers::Tanh);
        let lrelu = FusedLeakyRelu::new(b, hfta_nn::layers::LeakyRelu::new(0.2));
        let tape = Tape::new();
        let fx = tape.leaf(stack_conv(&xs).unwrap());
        assert_eq!(relu.forward(&fx).value(), fx.value().relu());
        assert_eq!(tanh.forward(&fx).value(), fx.value().tanh());
        assert_eq!(lrelu.forward(&fx).value(), fx.value().leaky_relu(0.2));
        assert!(relu.fused_parameters().is_empty());
    }

    #[test]
    fn fused_dropout_is_identity_in_eval() {
        let d = FusedDropout::new(2, hfta_nn::layers::Dropout::new(0.5, 7));
        d.set_training(false);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([4, 8]));
        assert_eq!(d.forward(&x).value(), Tensor::ones([4, 8]));
        let d2 = FusedDropout2d::new(2, hfta_nn::layers::Dropout2d::new(0.5, 7));
        d2.set_training(false);
        let x = tape.leaf(Tensor::ones([2, 4, 3, 3]));
        assert_eq!(d2.forward(&x).value(), Tensor::ones([2, 4, 3, 3]));
    }

    #[test]
    fn gradient_isolation_between_models() {
        // The defining property: training signal for model i must not leak
        // into model j's weights.
        let mut r = rng();
        let fused = FusedConv2d::new(2, Conv2dCfg::new(1, 2, 3), &mut r);
        let tape = Tape::new();
        // Input where model 1's channels are zero.
        let x0 = r.randn([1, 1, 5, 5]);
        let x1 = Tensor::zeros([1, 1, 5, 5]);
        let x = tape.leaf(stack_conv(&[x0, x1]).unwrap());
        let y = fused.forward(&x);
        // Loss touches only model 0's output channels.
        let loss = y.narrow(1, 0, 2).square().sum();
        loss.backward();
        let fp = &fused.fused_parameters()[0];
        let g0 = fp.model_grad_slice(0);
        let g1 = fp.model_grad_slice(1);
        assert!(g0.abs().max_value() > 0.0, "model 0 must receive gradient");
        assert_eq!(g1.abs().max_value(), 0.0, "model 1 must be untouched");
    }
}
