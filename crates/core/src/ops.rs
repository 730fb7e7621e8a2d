//! Horizontally fused operators.
//!
//! Per Table 6 of the paper, `B` copies of a layer (one per training job)
//! run as a **single** call of an already-well-optimized operator. For
//! every kind but `Linear` that operator is the `hfta-nn` layer itself at
//! a widened configuration, so the fused layer *is* an `hfta-nn` layer:
//!
//! | per-model layer | fused realization |
//! |---|---|
//! | `Conv1d/2d`, `ConvTranspose2d` (groups `g`) | the same layer with `B×` channels and groups `B*g` |
//! | `BatchNorm1d/2d` | the same layer widened to `B*C` channels |
//! | `MaxPool2d`, `Dropout(2d)`, activations | the same layer over the widened tensor (stateless) |
//! | `Linear` | [`FusedLinear`]: one `baddbmm` over `[B, N, F]` operands |
//! | a whole model written against [`Ops`] | the same definition at [`Fused`]`(B)` |
//!
//! The stacking rules [`fuse_conv2d`], [`fuse_conv_transpose2d`],
//! [`fuse_conv1d`], [`fuse_batch_norm`] and [`FusedLinear::from_models`]
//! fuse `B` per-model layers: they check the same-configuration condition
//! (bias included) and concatenate weights, biases and running statistics
//! on axis 0, so model `i` owns the `i`-th of `B` equal chunks of every
//! fused parameter ([`FusedParameter::model_slice`]).
//! [`FusedLinear::unfuse`] recovers per-model `Linear`s, whose layout
//! differs from the fused one.
//!
//! # Operator families
//!
//! [`Ops`] is the paper's `get_hfta_op_for(op, B)` (§3.3, Fig 2) as a type:
//! a *family* builds each operator kind, so a model written once over
//! `O: Ops` is a serial model at [`Serial`] (one job) and a fused array at
//! [`Fused`]`(B)`. Both families build the same `hfta-nn` conv and batch
//! norm types, one of them at the widened configuration, so `Linear` is
//! the only kind whose type the family names. The family is chosen at the
//! call site and dispatch is static. Besides constructors a family carries
//! the few **layout rules** on which the two genuinely differ, because the
//! fused ops fix where the model axis lives (conv format `[N, B*C, ..]` for
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
use hfta_sim::TrainingJob;
use hfta_tensor::{Rng, Tensor};

use crate::error::{FusionError, Result};
use crate::format::{conv_to_array, fused_concat_channels};

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
    /// The parameters of `module`, a `b`-wide fused layer or model,
    /// annotated with its width.
    pub fn of<M: Module + ?Sized>(module: &M, b: usize) -> Vec<FusedParameter> {
        module
            .parameters()
            .into_iter()
            .map(|param| FusedParameter { param, b })
            .collect()
    }

    /// Extracts model `i`'s slice of the parameter value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= b` or axis 0 is not divisible by `b`.
    pub fn model_slice(&self, i: usize) -> Tensor {
        self.lane(self.param.value_cloned(), i)
    }

    /// Extracts model `i`'s slice of the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `i >= b` or axis 0 is not divisible by `b`.
    pub fn model_grad_slice(&self, i: usize) -> Tensor {
        self.lane(self.param.grad_cloned(), i)
    }

    fn lane(&self, t: Tensor, i: usize) -> Tensor {
        let (b, rows) = (self.b, t.dim(0));
        assert!(i < b, "model index {i} out of range (B = {b})");
        assert_eq!(rows % b, 0, "axis 0 ({rows}) not divisible by B = {b}");
        let chunk = rows / b;
        t.narrow(0, i * chunk, chunk)
    }
}

/// A module that computes `B` fused models simultaneously.
pub trait FusedModule: Module {
    /// The array width (number of fused models).
    fn b(&self) -> usize;

    /// The module's parameters annotated with fusion metadata.
    fn fused_parameters(&self) -> Vec<FusedParameter> {
        FusedParameter::of(self, self.b())
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

/// Concatenates one parameter per model on axis 0, the model axis, reading
/// each value where it lies rather than copying it out first.
fn concat<'a>(params: impl Iterator<Item = &'a Parameter>) -> Tensor {
    let values: Vec<_> = params.map(Parameter::value).collect();
    Tensor::concat(&values.iter().map(|v| &**v).collect::<Vec<_>>(), 0)
}

/// Checks that the models' `(weight, bias)` pairs share one weight shape
/// and one bias shape, whether there is a bias included.
fn check_weights<'a>(
    layers: impl Iterator<Item = (&'a Parameter, Option<&'a Parameter>)>,
    kind: &'static str,
) -> Result<()> {
    let dims = |p: &Parameter| p.value().dims().to_vec();
    check_same(layers.map(|(w, b)| (dims(w), b.map(dims))), kind).map(drop)
}

/// Concatenates the models' weights and, when they have them, biases on
/// axis 0, after [`check_weights`].
fn stack_weights<'a>(
    layers: impl Iterator<Item = (&'a Parameter, Option<&'a Parameter>)> + Clone,
    kind: &'static str,
) -> Result<(Tensor, Option<Tensor>)> {
    check_weights(layers.clone(), kind)?;
    let (weights, biases): (Vec<_>, Vec<_>) = layers.unzip();
    let biases: Option<Vec<_>> = biases.into_iter().collect();
    Ok((
        concat(weights.into_iter()),
        biases.map(|b| concat(b.into_iter())),
    ))
}

/// `cfg` at array width `b`: channels and groups `×b`.
fn widened(cfg: Conv2dCfg, b: usize) -> Conv2dCfg {
    Conv2dCfg {
        in_channels: b * cfg.in_channels,
        out_channels: b * cfg.out_channels,
        groups: b * cfg.groups,
        ..cfg
    }
}

/// Fuses `B` same-config 2-D convolutions (groups `g`) into one
/// convolution with `B×` the channels and groups `B*g` (Table 6 row 1),
/// running in conv format `[N, B*Cin, H, W]`.
///
/// # Errors
///
/// Returns [`FusionError`] if the configurations differ (bias included) or
/// the slice is empty.
pub fn fuse_conv2d(models: &[Conv2d]) -> Result<Conv2d> {
    let cfg = check_same(models.iter().map(Conv2d::cfg), "Conv2d")?;
    let (weight, bias) = stack_weights(
        models.iter().map(|m| (&m.weight, m.bias.as_ref())),
        "Conv2d",
    )?;
    Ok(Conv2d::from_parts(widened(cfg, models.len()), weight, bias))
}

/// Fuses `B` same-config 2-D transposed convolutions into one grouped
/// transposed convolution (Table 6 row 3), as [`fuse_conv2d`] does.
///
/// # Errors
///
/// Returns [`FusionError`] if the configurations differ (bias included) or
/// the slice is empty.
pub fn fuse_conv_transpose2d(models: &[ConvTranspose2d]) -> Result<ConvTranspose2d> {
    let cfg = check_same(models.iter().map(ConvTranspose2d::cfg), "ConvTranspose2d")?;
    let (weight, bias) = stack_weights(
        models.iter().map(|m| (&m.weight, m.bias.as_ref())),
        "ConvTranspose2d",
    )?;
    Ok(ConvTranspose2d::from_parts(
        widened(cfg, models.len()),
        weight,
        bias,
    ))
}

/// Fuses `B` 1-D convolutions into one grouped convolution (Table 6 row
/// 2), running in conv format `[N, B*Cin, L]`.
///
/// # Errors
///
/// Returns [`FusionError`] if geometries, weight shapes or bias shapes
/// (including whether there is a bias) differ, or the slice is empty.
pub fn fuse_conv1d(models: &[Conv1d]) -> Result<Conv1d> {
    let (stride, padding, groups) = check_same(models.iter().map(Conv1d::geometry), "Conv1d")?;
    let (weight, bias) = stack_weights(
        models.iter().map(|m| (&m.weight, m.bias.as_ref())),
        "Conv1d",
    )?;
    Ok(Conv1d::from_parts(
        weight,
        bias,
        stride,
        padding,
        models.len() * groups,
    ))
}

/// Fuses `B` batch norms into one batch norm widened to `B*C` channels
/// (Table 6 rows 5–6), affine weights and running statistics concatenated.
/// Per-channel statistics are independent, so the widened op computes
/// exactly the per-model statistics.
///
/// # Errors
///
/// Returns [`FusionError`] if channel counts differ or the slice is empty.
pub fn fuse_batch_norm(models: &[BatchNorm]) -> Result<BatchNorm> {
    check_same(models.iter().map(|m| m.gamma.numel()), "BatchNorm")?;
    Ok(BatchNorm::from_parts(
        concat(models.iter().map(|m| &m.gamma)),
        concat(models.iter().map(|m| &m.beta)),
        models.iter().flat_map(BatchNorm::running_mean).collect(),
        models.iter().flat_map(BatchNorm::running_var).collect(),
    ))
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
        Fused(b).stacked(rng, |rng| Linear::new(cfg, rng), Self::from_models)
    }

    /// Fuses existing per-model layers.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if weight or bias shapes (including whether
    /// there is a bias) differ, or the slice is empty.
    pub fn from_models(models: &[Linear]) -> Result<Self> {
        check_weights(
            models.iter().map(|m| (&m.weight, m.bias.as_ref())),
            "Linear",
        )?;
        // `[in, out]` weights and `[out]` biases stacked on the model axis
        // as `[B, in, out]` and `[B, 1, out]`, each read where it lies.
        let stacked = |params: Vec<&Parameter>, dims: &[usize]| {
            let mut out = Tensor::zeros([&[params.len()], dims].concat());
            let blocks = out
                .as_mut_slice()
                .chunks_exact_mut(dims.iter().product::<usize>().max(1));
            for (block, p) in blocks.zip(params) {
                block.copy_from_slice(p.value().as_slice());
            }
            out
        };
        let weights = models.iter().map(|m| &m.weight).collect();
        let weight = stacked(weights, models[0].weight.value().dims());
        let bias = models[0].bias.as_ref().map(|b| {
            let biases = models.iter().filter_map(|m| m.bias.as_ref()).collect();
            stacked(biases, &[1, b.numel()])
        });
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
// Operator families
// ---------------------------------------------------------------------------

/// An operator family: how each operator kind is built, and the layout
/// rules that differ between one model and a fused array (see the module
/// docs). Models are written once, generic over `O: Ops`.
///
/// # Example — one definition, two instantiations
///
/// ```
/// use hfta_core::ops::{Fused, Ops, Serial};
/// use hfta_nn::{layers::{BatchNorm, LinearCfg}, Module, Tape, Var};
/// use hfta_tensor::Rng;
///
/// struct Mlp<O: Ops> {
///     fc1: O::Linear,
///     bn: BatchNorm,
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
    /// Fully connected layer, the one kind whose fused form is another
    /// operator.
    type Linear: Module + Debug;

    /// Number of models one op of this family computes (1 for [`Serial`]).
    fn b(&self) -> usize;

    /// Builds a 2-D convolution.
    fn conv2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> Conv2d;
    /// Builds a 2-D transposed convolution.
    fn conv_transpose2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> ConvTranspose2d;
    /// Builds an ungrouped 1-D convolution with bias.
    fn conv1d(
        &self,
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Conv1d;
    /// Builds a fully connected layer.
    fn linear(&self, cfg: LinearCfg, rng: &mut Rng) -> Self::Linear;
    /// Builds a batch norm over `channels` channels per model.
    fn batch_norm(&self, channels: usize) -> BatchNorm {
        BatchNorm::new(self.b() * channels)
    }

    /// Flattened conv-format features `[N, B*F]` → the family's `Linear`
    /// input (`[N, F]` unchanged, or array format `[B, N, F]`).
    fn to_linear(&self, x: &Var) -> Var;
    /// Applies `bn` to a `Linear` output.
    fn batch_norm_linear(&self, bn: &BatchNorm, x: &Var) -> Var;
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
    type Linear = Linear;

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

/// The horizontally fused family at array width `B`: the `hfta-nn` layers
/// stacked by the `fuse_*` rules, and [`FusedLinear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fused(pub usize);

impl Fused {
    /// Builds the `B` per-model layers, each from its own split of `rng`
    /// exactly as `B` separate jobs would initialize, and stacks them.
    fn stacked<L, F>(
        self,
        rng: &mut Rng,
        new: impl Fn(&mut Rng) -> L,
        stack: impl FnOnce(&[L]) -> Result<F>,
    ) -> F {
        assert!(self.0 > 0, "array width must be positive");
        let models: Vec<L> = (0..self.0).map(|_| new(&mut rng.split())).collect();
        stack(&models).expect("freshly built models always fuse")
    }
}

impl Ops for Fused {
    type Linear = FusedLinear;

    fn b(&self) -> usize {
        self.0
    }

    fn conv2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> Conv2d {
        self.stacked(rng, |rng| Conv2d::new(cfg, rng), fuse_conv2d)
    }

    fn conv_transpose2d(&self, cfg: Conv2dCfg, rng: &mut Rng) -> ConvTranspose2d {
        self.stacked(
            rng,
            |rng| ConvTranspose2d::new(cfg, rng),
            fuse_conv_transpose2d,
        )
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
        let new = |rng: &mut Rng| Conv1d::new(cin, cout, kernel, stride, padding, 1, rng);
        self.stacked(rng, new, fuse_conv1d)
    }

    fn linear(&self, cfg: LinearCfg, rng: &mut Rng) -> FusedLinear {
        FusedLinear::new(self.0, cfg, rng)
    }

    fn to_linear(&self, x: &Var) -> Var {
        conv_to_array(x, self.0)
    }

    /// The widened batch norm over the array format `[B, N, F]` as it
    /// lies: `B` groups, model `b`'s feature `f` its channel `b * F + f`.
    fn batch_norm_linear(&self, bn: &BatchNorm, x: &Var) -> Var {
        bn.forward_grouped(x, Some(self.0))
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

/// A model architecture as a tuning service trains it: the model written
/// once over [`Ops`], plus the little that differs between models around
/// it — a lane's batch, how lane inputs stack into the array layout, and
/// the simulator's cost profile of one step. `hfta-sched`'s one backend
/// builds, trains and moves lanes of any architecture through this.
pub trait Architecture {
    /// The model over the operator family `O`; at [`Fused`] its logits are
    /// array format `[B, N, classes]`.
    type Model<O: Ops>: Module + Debug;

    /// Builds the model out of `ops`' layers.
    fn build<O: Ops>(&self, ops: O, rng: &mut Rng) -> Self::Model<O>;

    /// One lane's training batch, inputs and class targets, drawn from
    /// `seed` alone.
    fn batch(&self, seed: u64) -> (Tensor, Vec<usize>);

    /// Stacks per-lane inputs into the layout the [`Fused`] model reads.
    ///
    /// # Errors
    ///
    /// Returns a fusion error if the input shapes differ.
    fn stack(inputs: &[Tensor]) -> Result<Tensor>;

    /// The per-model simulator cost profile of one training step.
    fn job_profile(&self) -> TrainingJob;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{stack_array, stack_conv, unstack_array, unstack_conv};
    use hfta_nn::Tape;

    fn rng() -> Rng {
        Rng::seed_from(42)
    }

    /// Forward the fused layer on stacked inputs and compare against each
    /// per-model forward — the §3.3 equivalence, at operator granularity.
    fn assert_conv_format_equivalence<M: Module>(models: &[M], fused: &M, inputs: &[Tensor]) {
        let tape = Tape::new();
        let fused_in = tape.leaf(stack_conv(inputs).unwrap());
        let fused_out = fused.forward(&fused_in).value();
        let parts = unstack_conv(&fused_out, models.len());
        for (i, m) in models.iter().enumerate() {
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(inputs[i].clone())).value();
            assert_eq!(parts[i], y, "model {i} diverges");
        }
    }

    #[test]
    fn fused_conv2d_equals_per_model() {
        let mut r = rng();
        let cfg = Conv2dCfg::new(3, 8, 3).stride(1).padding(1);
        let models: Vec<Conv2d> = (0..4).map(|_| Conv2d::new(cfg, &mut r.split())).collect();
        let fused = fuse_conv2d(&models).unwrap();
        assert_eq!(fused.cfg(), Conv2dCfg::new(12, 32, 3).padding(1).groups(4));
        let inputs: Vec<Tensor> = (0..4).map(|_| r.randn([2, 3, 6, 6])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs);
    }

    #[test]
    fn fused_conv2d_grouped_base() {
        // Fusing convs that are already grouped (g = 2) -> G = B * 2.
        let mut r = rng();
        let cfg = Conv2dCfg::new(4, 8, 3).padding(1).groups(2);
        let models: Vec<Conv2d> = (0..3).map(|_| Conv2d::new(cfg, &mut r.split())).collect();
        let fused = fuse_conv2d(&models).unwrap();
        assert_eq!(fused.cfg().groups, 6);
        let inputs: Vec<Tensor> = (0..3).map(|_| r.randn([1, 4, 5, 5])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs);
    }

    #[test]
    fn fused_conv2d_rejects_mismatched_cfg() {
        let mut r = rng();
        let a = Conv2d::new(Conv2dCfg::new(3, 8, 3), &mut r);
        let b = Conv2d::new(Conv2dCfg::new(3, 8, 5), &mut r);
        assert_mismatch_at_1(fuse_conv2d(&[a, b]));
    }

    #[test]
    fn fused_conv_transpose_equals_per_model() {
        let mut r = rng();
        let cfg = Conv2dCfg::new(8, 4, 4).stride(2).padding(1);
        let models: Vec<ConvTranspose2d> = (0..3)
            .map(|_| ConvTranspose2d::new(cfg, &mut r.split()))
            .collect();
        let fused = fuse_conv_transpose2d(&models).unwrap();
        let inputs: Vec<Tensor> = (0..3).map(|_| r.randn([2, 8, 4, 4])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs);
    }

    #[test]
    fn fused_conv1d_equals_per_model() {
        let mut r = rng();
        let models: Vec<Conv1d> = (0..5)
            .map(|_| Conv1d::new(3, 16, 1, 1, 0, 1, &mut r.split()))
            .collect();
        let fused = fuse_conv1d(&models).unwrap();
        assert_eq!(fused.geometry(), (1, 0, 5));
        let inputs: Vec<Tensor> = (0..5).map(|_| r.randn([2, 3, 30])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs);
    }

    /// Two same-shape 1-D convolutions, with or without a bias each.
    fn conv1d_pair(bias: [bool; 2]) -> [Conv1d; 2] {
        bias.map(|bias| {
            let b = bias.then(|| Tensor::zeros([4]));
            Conv1d::from_parts(Tensor::zeros([4, 3, 1]), b, 1, 0, 1)
        })
    }

    /// Two same-shape linear layers, with or without a bias each.
    fn linear_pair(bias: [bool; 2]) -> [Linear; 2] {
        bias.map(|bias| Linear::new(LinearCfg::new(3, 2).bias(bias), &mut rng()))
    }

    fn assert_mismatch_at_1<T: Debug>(fused: Result<T>) {
        assert!(
            matches!(fused, Err(FusionError::ShapeMismatch { index: 1, .. })),
            "{fused:?}"
        );
    }

    #[test]
    fn fused_conv1d_rejects_bias_then_no_bias() {
        assert_mismatch_at_1(fuse_conv1d(&conv1d_pair([true, false])));
    }

    #[test]
    fn fused_conv1d_rejects_no_bias_then_bias() {
        assert_mismatch_at_1(fuse_conv1d(&conv1d_pair([false, true])));
    }

    #[test]
    fn fused_linear_rejects_bias_then_no_bias() {
        assert_mismatch_at_1(FusedLinear::from_models(&linear_pair([true, false])));
    }

    #[test]
    fn fused_linear_rejects_no_bias_then_bias() {
        assert_mismatch_at_1(FusedLinear::from_models(&linear_pair([false, true])));
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
        let fused = fuse_batch_norm(&models).unwrap();
        let inputs: Vec<Tensor> = (0..3).map(|_| r.randn([6, 4, 5, 5])).collect();
        assert_conv_format_equivalence(&models, &fused, &inputs);
    }

    #[test]
    fn fused_batch_norm_running_stats_match_serial() {
        let mut r = rng();
        let serial = BatchNorm::new(2);
        let fused = Fused(3).batch_norm(2);
        let x: Vec<Tensor> = (0..3).map(|_| r.randn([4, 2, 3])).collect();
        // Run the same input through model 0 of the array and the serial BN.
        let tape = Tape::new();
        let _ = serial.forward(&tape.leaf(x[0].clone()));
        let _ = fused.forward(&tape.leaf(stack_conv(&x).unwrap()));
        assert_eq!(serial.running_mean(), fused.running_mean()[..2]);
        assert_eq!(serial.running_var(), fused.running_var()[..2]);
    }

    #[test]
    fn fused_parameters_expose_model_slices() {
        // The fused family initializes lane i exactly as job i would alone.
        let cfg = Conv2dCfg::new(2, 4, 3);
        let fused = Fused(3).conv2d(cfg, &mut rng());
        let fps = FusedParameter::of(&fused, 3);
        assert_eq!(fps.len(), 2);
        let mut r = rng();
        for i in 0..3 {
            let alone = Conv2d::new(cfg, &mut r.split());
            assert_eq!(fps[0].model_slice(i), alone.weight.value_cloned());
            assert_eq!(
                fps[1].model_slice(i),
                alone.bias.as_ref().unwrap().value_cloned()
            );
        }
    }

    /// `model_slice` and `model_grad_slice` share this check.
    #[test]
    #[should_panic(expected = "not divisible by B = 3")]
    fn model_slice_panics_on_indivisible_axis0() {
        let p = FusedParameter {
            param: Parameter::new(Tensor::zeros([4, 2]), "w"),
            b: 3,
        };
        let _ = p.model_slice(0);
    }

    #[test]
    fn gradient_isolation_between_models() {
        // The defining property: training signal for model i must not leak
        // into model j's weights.
        let mut r = rng();
        let fused = Fused(2).conv2d(Conv2dCfg::new(1, 2, 3), &mut r);
        let tape = Tape::new();
        // Input where model 1's channels are zero.
        let x0 = r.randn([1, 1, 5, 5]);
        let x1 = Tensor::zeros([1, 1, 5, 5]);
        let x = tape.leaf(stack_conv(&[x0, x1]).unwrap());
        let y = fused.forward(&x);
        // Loss touches only model 0's output channels.
        let loss = y.narrow(1, 0, 2).square().sum();
        loss.backward();
        let fp = &FusedParameter::of(&fused, 2)[0];
        let g0 = fp.model_grad_slice(0);
        let g1 = fp.model_grad_slice(1);
        assert!(g0.abs().max_value() > 0.0, "model 0 must receive gradient");
        assert_eq!(g1.abs().max_value(), 0.0, "model 1 must be untouched");
    }
}
