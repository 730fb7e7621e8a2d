//! Standard layers mirroring the PyTorch operators that HFTA fuses
//! (paper Table 6): convolutions, linear, batch norms, pooling, dropout
//! and activations.

use std::cell::{Cell, RefCell};

use hfta_tensor::conv::ConvCfg;
use hfta_tensor::{Rng, Tensor};

use crate::module::Module;
use crate::parameter::Parameter;
use crate::tape::Var;

// ---------------------------------------------------------------------------
// Convolutions
// ---------------------------------------------------------------------------

/// Configuration for [`Conv2d`] / [`ConvTranspose2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dCfg {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub padding: usize,
    /// Channel groups.
    pub groups: usize,
    /// Whether to learn a bias.
    pub bias: bool,
}

impl Conv2dCfg {
    /// A standard dense convolution config (stride 1, no padding, bias).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2dCfg {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: 0,
            groups: 1,
            bias: true,
        }
    }

    /// Sets the stride.
    pub fn stride(mut self, s: usize) -> Self {
        self.stride = s;
        self
    }

    /// Sets the padding.
    pub fn padding(mut self, p: usize) -> Self {
        self.padding = p;
        self
    }

    /// Sets the group count.
    pub fn groups(mut self, g: usize) -> Self {
        self.groups = g;
        self
    }

    /// Enables or disables the bias.
    pub fn bias(mut self, b: bool) -> Self {
        self.bias = b;
        self
    }

    fn conv_cfg(&self) -> ConvCfg {
        ConvCfg::square(self.stride, self.padding, self.groups)
    }
}

/// 2-D convolution layer (`torch.nn.Conv2d` analogue).
#[derive(Debug)]
pub struct Conv2d {
    /// Filter weights `[Cout, Cin/g, k, k]`.
    pub weight: Parameter,
    /// Optional bias `[Cout]`.
    pub bias: Option<Parameter>,
    cfg: Conv2dCfg,
}

impl Conv2d {
    /// Creates the layer with Kaiming-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `groups`.
    pub fn new(cfg: Conv2dCfg, rng: &mut Rng) -> Self {
        assert_eq!(cfg.in_channels % cfg.groups, 0, "Cin must divide by groups");
        assert_eq!(
            cfg.out_channels % cfg.groups,
            0,
            "Cout must divide by groups"
        );
        let fan_in = cfg.in_channels / cfg.groups * cfg.kernel * cfg.kernel;
        let weight = Parameter::new(
            rng.kaiming_uniform(
                [
                    cfg.out_channels,
                    cfg.in_channels / cfg.groups,
                    cfg.kernel,
                    cfg.kernel,
                ],
                fan_in,
            ),
            "conv2d.weight",
        );
        let bias = cfg.bias.then(|| {
            Parameter::new(
                rng.kaiming_uniform([cfg.out_channels], fan_in),
                "conv2d.bias",
            )
        });
        Conv2d { weight, bias, cfg }
    }

    /// The layer's configuration.
    pub fn cfg(&self) -> Conv2dCfg {
        self.cfg
    }

    /// Builds the layer from existing weights (e.g. when unfusing an HFTA
    /// array back into per-model layers).
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes disagree with `cfg`.
    pub fn from_parts(cfg: Conv2dCfg, weight: Tensor, bias: Option<Tensor>) -> Self {
        assert_eq!(
            weight.dims(),
            &[
                cfg.out_channels,
                cfg.in_channels / cfg.groups,
                cfg.kernel,
                cfg.kernel
            ],
            "conv2d weight shape mismatch"
        );
        if let Some(b) = &bias {
            assert_eq!(b.dims(), &[cfg.out_channels], "conv2d bias shape mismatch");
        }
        Conv2d {
            weight: Parameter::new(weight, "conv2d.weight"),
            bias: bias.map(|b| Parameter::new(b, "conv2d.bias")),
            cfg,
        }
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv2d(&w, b.as_ref(), self.cfg.conv_cfg())
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// 2-D transposed convolution layer (`torch.nn.ConvTranspose2d` analogue).
///
/// Weight layout is `[Cin, Cout/g, k, k]`, matching PyTorch.
#[derive(Debug)]
pub struct ConvTranspose2d {
    /// Filter weights `[Cin, Cout/g, k, k]`.
    pub weight: Parameter,
    /// Optional bias `[Cout]`.
    pub bias: Option<Parameter>,
    cfg: Conv2dCfg,
}

impl ConvTranspose2d {
    /// Creates the layer with Kaiming-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `groups`.
    pub fn new(cfg: Conv2dCfg, rng: &mut Rng) -> Self {
        assert_eq!(cfg.in_channels % cfg.groups, 0, "Cin must divide by groups");
        assert_eq!(
            cfg.out_channels % cfg.groups,
            0,
            "Cout must divide by groups"
        );
        let fan_in = cfg.out_channels / cfg.groups * cfg.kernel * cfg.kernel;
        let weight = Parameter::new(
            rng.kaiming_uniform(
                [
                    cfg.in_channels,
                    cfg.out_channels / cfg.groups,
                    cfg.kernel,
                    cfg.kernel,
                ],
                fan_in,
            ),
            "convt2d.weight",
        );
        let bias = cfg.bias.then(|| {
            Parameter::new(
                rng.kaiming_uniform([cfg.out_channels], fan_in),
                "convt2d.bias",
            )
        });
        ConvTranspose2d { weight, bias, cfg }
    }

    /// The layer's configuration.
    pub fn cfg(&self) -> Conv2dCfg {
        self.cfg
    }

    /// Builds the layer from existing weights.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes disagree with `cfg`.
    pub fn from_parts(cfg: Conv2dCfg, weight: Tensor, bias: Option<Tensor>) -> Self {
        assert_eq!(
            weight.dims(),
            &[
                cfg.in_channels,
                cfg.out_channels / cfg.groups,
                cfg.kernel,
                cfg.kernel
            ],
            "convt2d weight shape mismatch"
        );
        if let Some(b) = &bias {
            assert_eq!(b.dims(), &[cfg.out_channels], "convt2d bias shape mismatch");
        }
        ConvTranspose2d {
            weight: Parameter::new(weight, "convt2d.weight"),
            bias: bias.map(|b| Parameter::new(b, "convt2d.bias")),
            cfg,
        }
    }
}

impl Module for ConvTranspose2d {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv_transpose2d(&w, b.as_ref(), self.cfg.conv_cfg())
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// 1-D convolution layer (`torch.nn.Conv1d` analogue).
#[derive(Debug)]
pub struct Conv1d {
    /// Filter weights `[Cout, Cin/g, k]`.
    pub weight: Parameter,
    /// Optional bias `[Cout]`.
    pub bias: Option<Parameter>,
    stride: usize,
    padding: usize,
    groups: usize,
}

impl Conv1d {
    /// Creates the layer with Kaiming-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `groups`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(in_channels % groups, 0, "Cin must divide by groups");
        assert_eq!(out_channels % groups, 0, "Cout must divide by groups");
        let fan_in = in_channels / groups * kernel;
        Conv1d {
            weight: Parameter::new(
                rng.kaiming_uniform([out_channels, in_channels / groups, kernel], fan_in),
                "conv1d.weight",
            ),
            bias: Some(Parameter::new(
                rng.kaiming_uniform([out_channels], fan_in),
                "conv1d.bias",
            )),
            stride,
            padding,
            groups,
        }
    }

    /// Builds the layer from existing weights.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not 3-D.
    pub fn from_parts(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        assert_eq!(weight.rank(), 3, "conv1d weight must be [Cout, Cin/g, k]");
        Conv1d {
            weight: Parameter::new(weight, "conv1d.weight"),
            bias: bias.map(|b| Parameter::new(b, "conv1d.bias")),
            stride,
            padding,
            groups,
        }
    }

    /// `(stride, padding, groups)` hyper-parameters.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.stride, self.padding, self.groups)
    }
}

impl Module for Conv1d {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv1d(&w, b.as_ref(), self.stride, self.padding, self.groups)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Configuration for [`Linear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearCfg {
    /// Input feature size.
    pub in_features: usize,
    /// Output feature size.
    pub out_features: usize,
    /// Whether to learn a bias.
    pub bias: bool,
}

impl LinearCfg {
    /// Standard config with bias.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        LinearCfg {
            in_features,
            out_features,
            bias: true,
        }
    }

    /// Enables or disables the bias.
    pub fn bias(mut self, b: bool) -> Self {
        self.bias = b;
        self
    }
}

/// Fully connected layer. Weight layout is `[in, out]` (inputs are
/// multiplied on the left: `y = x W + b`), which matches the fused
/// `baddbmm` layout of HFTA Table 6 directly.
#[derive(Debug)]
pub struct Linear {
    /// Weights `[in, out]`.
    pub weight: Parameter,
    /// Optional bias `[out]`.
    pub bias: Option<Parameter>,
}

impl Linear {
    /// Creates the layer with Kaiming-uniform initialization.
    pub fn new(cfg: LinearCfg, rng: &mut Rng) -> Self {
        Linear {
            weight: Parameter::new(
                rng.kaiming_uniform([cfg.in_features, cfg.out_features], cfg.in_features),
                "linear.weight",
            ),
            bias: cfg.bias.then(|| {
                Parameter::new(
                    rng.kaiming_uniform([cfg.out_features], cfg.in_features),
                    "linear.bias",
                )
            }),
        }
    }

    /// Builds the layer from existing weights (`weight [in, out]`).
    ///
    /// # Panics
    ///
    /// Panics if the weight is not 2-D or the bias length mismatches.
    pub fn from_parts(weight: Tensor, bias: Option<Tensor>) -> Self {
        assert_eq!(weight.rank(), 2, "linear weight must be [in, out]");
        if let Some(b) = &bias {
            assert_eq!(b.dims(), &[weight.dim(1)], "linear bias shape mismatch");
        }
        Linear {
            weight: Parameter::new(weight, "linear.weight"),
            bias: bias.map(|b| Parameter::new(b, "linear.bias")),
        }
    }
}

impl Module for Linear {
    fn forward(&self, x: &Var) -> Var {
        let tape = x.tape().clone();
        let w = tape.param(&self.weight);
        let y = x.matmul(&w);
        match &self.bias {
            Some(b) => y.add(&tape.param(b)),
            None => y,
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

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

/// Batch normalization over the channel axis, covering the `BatchNorm1d`
/// (`[N, C]`, `[N, C, L]`) and `BatchNorm2d` (`[N, C, H, W]`) cases.
#[derive(Debug)]
pub struct BatchNorm {
    /// Per-channel scale.
    pub gamma: Parameter,
    /// Per-channel shift.
    pub beta: Parameter,
    running_mean: RefCell<Vec<f32>>,
    running_var: RefCell<Vec<f32>>,
    momentum: f32,
    eps: f32,
    training: Cell<bool>,
}

impl BatchNorm {
    /// Creates a batch norm over `channels` channels with PyTorch defaults
    /// (`momentum = 0.1`, `eps = 1e-5`, scale 1, shift 0).
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            gamma: Parameter::new(Tensor::ones([channels]), "bn.gamma"),
            beta: Parameter::new(Tensor::zeros([channels]), "bn.beta"),
            running_mean: RefCell::new(vec![0.0; channels]),
            running_var: RefCell::new(vec![1.0; channels]),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
        }
    }

    /// Current running mean.
    pub fn running_mean(&self) -> Vec<f32> {
        self.running_mean.borrow().clone()
    }

    /// Current running variance.
    pub fn running_var(&self) -> Vec<f32> {
        self.running_var.borrow().clone()
    }

    /// Whether the layer is in training mode.
    pub fn training(&self) -> bool {
        self.training.get()
    }

    /// Builds the layer from existing affine weights and running stats.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    pub fn from_parts(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
    ) -> Self {
        let c = gamma.numel();
        assert_eq!(beta.numel(), c, "beta length mismatch");
        assert_eq!(running_mean.len(), c, "running mean length mismatch");
        assert_eq!(running_var.len(), c, "running var length mismatch");
        BatchNorm {
            gamma: Parameter::new(gamma, "bn.gamma"),
            beta: Parameter::new(beta, "bn.beta"),
            running_mean: RefCell::new(running_mean),
            running_var: RefCell::new(running_var),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
        }
    }

    /// [`Module::forward`] over `x [G, N, C, spatial…]` when `groups` is
    /// `Some(G)`, the layer's channels being the `G * C` pairs `(g, c)`.
    pub fn forward_grouped(&self, x: &Var, groups: Option<usize>) -> Var {
        let tape = x.tape().clone();
        let g = tape.param(&self.gamma);
        let b = tape.param(&self.beta);
        if self.training.get() {
            let (y, stats) = x.batch_norm_grouped(groups, &g, &b, self.eps, None);
            let (mean, var) = stats.expect("training mode yields batch stats");
            // PyTorch tracks the *unbiased* variance in running stats.
            let n = (x.numel() / mean.len()) as f32;
            let unbias = if n > 1.0 { n / (n - 1.0) } else { 1.0 };
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            for c in 0..mean.len() {
                rm[c] = (1.0 - self.momentum) * rm[c] + self.momentum * mean[c];
                rv[c] = (1.0 - self.momentum) * rv[c] + self.momentum * var[c] * unbias;
            }
            y
        } else {
            let rm = self.running_mean.borrow();
            let rv = self.running_var.borrow();
            let (y, _) = x.batch_norm_grouped(groups, &g, &b, self.eps, Some((&rm, &rv)));
            y
        }
    }
}

impl Module for BatchNorm {
    fn forward(&self, x: &Var) -> Var {
        self.forward_grouped(x, None)
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

// ---------------------------------------------------------------------------
// Pooling, dropout, activations
// ---------------------------------------------------------------------------

/// 2-D max pooling (`kernel == stride` square windows by default).
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
}

impl MaxPool2d {
    /// Square window with `stride == kernel`.
    pub fn new(kernel: usize) -> Self {
        MaxPool2d {
            kernel,
            stride: kernel,
        }
    }
}

impl Module for MaxPool2d {
    fn forward(&self, x: &Var) -> Var {
        x.max_pool2d((self.kernel, self.kernel), (self.stride, self.stride))
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }
}

/// Dropout (elementwise, `torch.nn.Dropout` analogue). During training,
/// zeroes each element with probability `p` and scales survivors by
/// `1 / (1 - p)`; identity in eval mode.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: RefCell<Rng>,
    training: Cell<bool>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: RefCell::new(Rng::seed_from(seed)),
            training: Cell::new(true),
        }
    }
}

impl Module for Dropout {
    fn forward(&self, x: &Var) -> Var {
        if !self.training.get() || self.p == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mut rng = self.rng.borrow_mut();
        let mask = rng.rand(x.value().shape().clone(), 0.0, 1.0).map(|u| {
            if u < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        x.mul_const(&mask)
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

/// Channel dropout (`torch.nn.Dropout2d` analogue): zeroes whole channels.
#[derive(Debug)]
pub struct Dropout2d {
    p: f32,
    rng: RefCell<Rng>,
    training: Cell<bool>,
}

impl Dropout2d {
    /// Creates a channel-dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout2d {
            p,
            rng: RefCell::new(Rng::seed_from(seed)),
            training: Cell::new(true),
        }
    }
}

impl Module for Dropout2d {
    fn forward(&self, x: &Var) -> Var {
        if !self.training.get() || self.p == 0.0 {
            return x.clone();
        }
        let dims = x.value().dims().to_vec();
        assert!(dims.len() >= 2, "Dropout2d expects [N, C, ...]");
        let keep = 1.0 - self.p;
        let mut rng = self.rng.borrow_mut();
        let mut mask_dims = vec![1usize; dims.len()];
        mask_dims[0] = dims[0];
        mask_dims[1] = dims[1];
        let mask = rng
            .rand(mask_dims, 0.0, 1.0)
            .map(|u| if u < keep { 1.0 / keep } else { 0.0 });
        x.mul_const(&mask)
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

/// ReLU activation module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Module for Relu {
    fn forward(&self, x: &Var) -> Var {
        x.relu()
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }
}

/// Leaky-ReLU activation module.
#[derive(Debug, Clone, Copy)]
pub struct LeakyRelu {
    /// Negative-side slope.
    pub slope: f32,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative slope.
    pub fn new(slope: f32) -> Self {
        LeakyRelu { slope }
    }
}

impl Module for LeakyRelu {
    fn forward(&self, x: &Var) -> Var {
        x.leaky_relu(self.slope)
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }
}

/// Tanh activation module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tanh;

impl Module for Tanh {
    fn forward(&self, x: &Var) -> Var {
        x.tanh()
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }
}

/// Sigmoid activation module.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sigmoid;

impl Module for Sigmoid {
    fn forward(&self, x: &Var) -> Var {
        x.sigmoid()
    }

    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Sequential;
    use crate::tape::Tape;

    #[test]
    fn conv2d_layer_shapes() {
        let mut rng = Rng::seed_from(0);
        let conv = Conv2d::new(Conv2dCfg::new(3, 8, 3).stride(1).padding(1), &mut rng);
        let tape = Tape::new();
        let y = conv.forward(&tape.leaf(Tensor::zeros([2, 3, 8, 8])));
        assert_eq!(y.dims(), vec![2, 8, 8, 8]);
        assert_eq!(conv.parameters().len(), 2);
    }

    #[test]
    fn conv_transpose_doubles_spatial() {
        let mut rng = Rng::seed_from(1);
        let deconv = ConvTranspose2d::new(Conv2dCfg::new(8, 4, 4).stride(2).padding(1), &mut rng);
        let tape = Tape::new();
        let y = deconv.forward(&tape.leaf(Tensor::zeros([1, 8, 4, 4])));
        assert_eq!(y.dims(), vec![1, 4, 8, 8]);
    }

    #[test]
    fn linear_layer_matches_manual() {
        let mut rng = Rng::seed_from(2);
        let lin = Linear::new(LinearCfg::new(3, 2), &mut rng);
        let tape = Tape::new();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], [1, 3]);
        let y = lin.forward(&tape.leaf(x.clone()));
        let expected = x
            .matmul(&lin.weight.value_cloned())
            .add(&lin.bias.as_ref().unwrap().value_cloned());
        assert!(y.value().allclose(&expected, 1e-6));
    }

    #[test]
    fn batch_norm_train_vs_eval() {
        let bn = BatchNorm::new(2);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.0, 10.0, 2.0, 20.0], [2, 2]));
        let y_train = bn.forward(&x);
        // Training output is normalized per channel.
        assert!(y_train.value().mean().item().abs() < 1e-5);
        // Running stats moved toward batch stats.
        assert!(bn.running_mean()[0] > 0.0);
        bn.set_training(false);
        let y_eval = bn.forward(&x);
        // Eval uses running stats, so outputs differ from train-normalized.
        assert!(!y_eval.value().allclose(&y_train.value(), 1e-3));
    }

    #[test]
    fn dropout_scales_in_train_identity_in_eval() {
        let d = Dropout::new(0.5, 7);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([1000]));
        let y = d.forward(&x).value();
        let kept = y.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert!(kept > 350 && kept < 650, "kept {kept}");
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 2.0));
        d.set_training(false);
        let y_eval = d.forward(&x).value();
        assert_eq!(y_eval.to_vec(), vec![1.0; 1000]);
    }

    #[test]
    fn dropout2d_zeroes_whole_channels() {
        let d = Dropout2d::new(0.5, 3);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([4, 8, 2, 2]));
        let y = d.forward(&x).value();
        for n in 0..4 {
            for c in 0..8 {
                let ch = y.narrow(0, n, 1).narrow(1, c, 1);
                let s = ch.sum().item();
                assert!(s == 0.0 || (s - 8.0).abs() < 1e-5, "mixed channel {s}");
            }
        }
    }

    #[test]
    fn sequential_collects_params_and_propagates_mode() {
        let mut rng = Rng::seed_from(4);
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(Conv2dCfg::new(1, 2, 3).padding(1), &mut rng)),
            Box::new(Relu),
            Box::new(BatchNorm::new(2)),
            Box::new(Dropout::new(0.3, 1)),
        ]);
        assert_eq!(net.parameters().len(), 4); // conv w+b, bn gamma+beta
        net.set_training(false);
        let tape = Tape::new();
        let y1 = net.forward(&tape.leaf(Tensor::ones([1, 1, 4, 4])));
        let y2 = net.forward(&tape.leaf(Tensor::ones([1, 1, 4, 4])));
        // Eval mode is deterministic.
        assert!(y1.value().allclose(&y2.value(), 1e-6));
    }

    #[test]
    fn maxpool_module() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(16).reshape(&[1, 1, 4, 4]));
        let y = MaxPool2d::new(2).forward(&x);
        assert_eq!(y.dims(), vec![1, 1, 2, 2]);
        assert_eq!(y.value().to_vec(), vec![5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn activations_forward() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![-1.0, 1.0], [2]));
        assert_eq!(Relu.forward(&x).value().to_vec(), vec![0.0, 1.0]);
        assert_eq!(
            LeakyRelu::new(0.1).forward(&x).value().to_vec(),
            vec![-0.1, 1.0]
        );
        assert!(Tanh.forward(&x).value().at(&[1]) < 1.0);
        assert!((Sigmoid.forward(&x).value().at(&[1]) - 0.731).abs() < 1e-3);
    }
}
