//! Differentiable neural-network ops on [`Var`]: convolutions, pooling,
//! batch norm, softmax and loss primitives.
//!
//! Each op computes its forward from borrowed operands and records an
//! `Op` for the sweep's one `match`: its parents' ids and what the forward
//! worked out that the backward reads besides the tape's values — a
//! convolution or matrix product's [`Product`] (its shapes and
//! configuration), pooling's argmax indices, batch norm's x̂ and inverse
//! std, a loss's targets. No gradient runs toward an operand that needs
//! none — a constant, such as a model's input batch.

use hfta_tensor::conv::{
    conv1d, conv1d_grad_bias, conv1d_grad_input, conv1d_grad_weight, conv2d, conv2d_grad_bias,
    conv2d_grad_input, conv2d_grad_weight, conv_transpose2d, conv_transpose2d_grad_input,
    conv_transpose2d_grad_weight, ConvCfg,
};
use hfta_tensor::norm::{batch_norm_eval_grouped, batch_norm_train_grouped, eval_inv_std};
use hfta_tensor::pool::max_pool2d;
use hfta_tensor::Tensor;

use hfta_telemetry::OpCost;

use crate::tape::{Op, Var};

/// FLOP/byte cost of a convolution-shaped op: `macs` multiply-adds (its
/// GEMM's summed `m·k·n`) over `in_numel` input, `w_numel` weight and
/// `out_numel` output elements.
fn conv_cost(macs: usize, in_numel: usize, w_numel: usize, out_numel: usize) -> OpCost {
    OpCost {
        flops: 2.0 * macs as f64,
        bytes: 4.0 * (in_numel + w_numel + out_numel) as f64,
    }
}

/// [`conv_cost`] of `conv_transpose2d` over `x [N, Cin, H, W]` and
/// `w [Cin, Cout/g, kh, kw]`: every input pixel meets `(Cout/g)·kh·kw`
/// taps, `2·N·Cin·(Cout/g)·kh·kw·H·W` FLOPs — the GEMMs of the adjoint
/// `conv2d_grad_input` it runs.
fn conv_transpose2d_cost(xd: &[usize], wd: &[usize], cfg: ConvCfg) -> OpCost {
    let (ho, wo) = cfg.transpose_out_hw((xd[2], xd[3]), (wd[2], wd[3]));
    let x_numel: usize = xd.iter().product();
    let w_numel: usize = wd.iter().product();
    let out_numel = xd[0] * wd[1] * cfg.groups * ho * wo;
    conv_cost(x_numel * wd[1] * wd[2] * wd[3], x_numel, w_numel, out_numel)
}

/// Per-channel batch statistics `(mean, variance)` returned by
/// training-mode batch norm.
pub type BatchStats = (Vec<f32>, Vec<f32>);

/// A convolution or (batched) matrix product of an input `x`, a weight `w`
/// and an optional bias, with the shapes its gradients need: what its
/// backward and a deferred weight or bias gradient run.
#[derive(Clone, Copy)]
pub(crate) enum Product {
    /// `(cfg, input (h, w), input channels, kernel (h, w))`.
    Conv2d(ConvCfg, (usize, usize), usize, (usize, usize)),
    /// `([stride, padding, groups], input (channels, length), kernel length)`.
    Conv1d([usize; 3], (usize, usize), usize),
    /// `(cfg, kernel (h, w))`.
    ConvTranspose2d(ConvCfg, (usize, usize)),
    /// Rank 2; its gradient products read the transposes in place, as
    /// `Bmm`'s do.
    Matmul,
    Bmm,
}

impl Product {
    fn forward(self, x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Tensor {
        match self {
            Product::Conv2d(cfg, ..) => conv2d(x, w, b, cfg),
            Product::Conv1d([s, p, groups], ..) => conv1d(x, w, b, s, p, groups),
            Product::ConvTranspose2d(cfg, _) => conv_transpose2d(x, w, b, cfg),
            Product::Matmul => x.matmul(w),
            Product::Bmm => x.bmm(w),
        }
    }

    /// The input's gradient from the output's, `g`, and the weight `w`.
    pub(crate) fn grad_input(self, g: &Tensor, w: &Tensor) -> Tensor {
        match self {
            Product::Conv2d(cfg, hw, cin, _) => conv2d_grad_input(w, g, hw, cin, cfg),
            Product::Conv1d([s, p, groups], input, _) => {
                conv1d_grad_input(w, g, input, s, p, groups)
            }
            Product::ConvTranspose2d(cfg, _) => conv_transpose2d_grad_input(w, g, cfg),
            Product::Matmul | Product::Bmm => g.bmm_nt(w),
        }
    }

    /// The weight's gradient from the output's, `g`, and the input `x`; or,
    /// if `bias`, the bias's (a sum of `g`).
    pub(crate) fn grad(self, bias: bool, g: &Tensor, x: &Tensor) -> Tensor {
        match (self, bias) {
            (Product::Conv1d(..), true) => conv1d_grad_bias(g),
            (_, true) => conv2d_grad_bias(g),
            (Product::Conv2d(cfg, .., k), false) => conv2d_grad_weight(x, g, k, cfg),
            (Product::Conv1d([s, p, groups], _, k), false) => {
                conv1d_grad_weight(x, g, k, s, p, groups)
            }
            (Product::ConvTranspose2d(cfg, k), false) => conv_transpose2d_grad_weight(x, g, k, cfg),
            (Product::Matmul | Product::Bmm, false) => x.bmm_tn(g),
        }
    }
}

impl Var {
    /// Records `product` of this input, `weight` and an optional `bias`.
    pub(crate) fn product(&self, weight: &Var, bias: Option<&Var>, product: Product) -> Var {
        let operands: Vec<&Var> = [self, weight].into_iter().chain(bias).collect();
        let y = (self.tape).with_values(&operands, |v| {
            product.forward(v[0], v[1], v.get(2).copied())
        });
        let (x, w, b) = (self.id, weight.id, bias.map(|b| b.id));
        let op = Op::Product(x, w, b, product);
        self.tape.push_op(y, &[x, w, b.unwrap_or(w)], op)
    }

    /// 2-D convolution (`x [N, Cin, H, W]`, `w [Cout, Cin/g, kh, kw]`,
    /// optional bias `[Cout]`).
    ///
    /// # Panics
    ///
    /// Panics on shape/group inconsistencies.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, cfg: ConvCfg) -> Var {
        let _t = self.tape.record_op("conv2d", || {
            let (xd, wd) = (self.dims(), weight.dims());
            let (ho, wo) = cfg.out_hw((xd[2], xd[3]), (wd[2], wd[3]));
            let out_numel = xd[0] * wd[0] * ho * wo;
            let macs = out_numel * wd[1] * wd[2] * wd[3];
            conv_cost(macs, self.numel(), weight.numel(), out_numel)
        });
        let (xd, wd) = (self.dims(), weight.dims());
        let product = Product::Conv2d(cfg, (xd[2], xd[3]), xd[1], (wd[2], wd[3]));
        self.product(weight, bias, product)
    }

    /// 1-D convolution (`x [N, Cin, L]`, `w [Cout, Cin/g, k]`).
    ///
    /// # Panics
    ///
    /// Panics on shape/group inconsistencies.
    pub fn conv1d(
        &self,
        weight: &Var,
        bias: Option<&Var>,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Var {
        let _t = self.tape.record_op("conv1d", || {
            let (xd, wd) = (self.dims(), weight.dims());
            let lo = (xd[2] + 2 * padding - wd[2]) / stride + 1;
            let out_numel = xd[0] * wd[0] * lo;
            conv_cost(
                out_numel * wd[1] * wd[2],
                self.numel(),
                weight.numel(),
                out_numel,
            )
        });
        let (xd, k) = (self.dims(), weight.dim(2));
        let product = Product::Conv1d([stride, padding, groups], (xd[1], xd[2]), k);
        self.product(weight, bias, product)
    }

    /// 2-D transposed convolution (`x [N, Cin, H, W]`,
    /// `w [Cin, Cout/g, kh, kw]`).
    ///
    /// # Panics
    ///
    /// Panics on shape/group inconsistencies.
    pub fn conv_transpose2d(&self, weight: &Var, bias: Option<&Var>, cfg: ConvCfg) -> Var {
        let _t = self.tape.record_op("conv_transpose2d", || {
            conv_transpose2d_cost(&self.dims(), &weight.dims(), cfg)
        });
        let kernel_hw = (weight.dim(2), weight.dim(3));
        self.product(weight, bias, Product::ConvTranspose2d(cfg, kernel_hw))
    }

    /// 2-D max pooling.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D.
    pub fn max_pool2d(&self, kernel: (usize, usize), stride: (usize, usize)) -> Var {
        let _t = self
            .tape
            .record_op("max_pool2d", || OpCost::reduction(self.numel()));
        let r = self.with_value(|x| max_pool2d(x, kernel, stride));
        self.record(r.output, Op::MaxPool2d(self.id, r.indices))
    }

    /// Batch normalization.
    ///
    /// In training mode (`running_stats = None` or with stats provided for
    /// update bookkeeping by the caller), uses batch statistics; in eval
    /// mode, pass `Some((running_mean, running_var))`. Returns the output
    /// plus, in training mode, the `(batch_mean, batch_var)` the module
    /// layer uses to update its running averages.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape inconsistencies.
    pub fn batch_norm(
        &self,
        gamma: &Var,
        beta: &Var,
        eps: f32,
        running_stats: Option<(&[f32], &[f32])>,
    ) -> (Var, Option<BatchStats>) {
        self.batch_norm_grouped(None, gamma, beta, eps, running_stats)
    }

    /// [`Var::batch_norm`] over `[G, N, C, spatial…]` when `groups` is
    /// `Some(G)`, channel `(g, c)` being `g * C + c`.
    pub fn batch_norm_grouped(
        &self,
        groups: Option<usize>,
        gamma: &Var,
        beta: &Var,
        eps: f32,
        running_stats: Option<(&[f32], &[f32])>,
    ) -> (Var, Option<BatchStats>) {
        let _t = self
            .tape
            .record_op("batch_norm", || OpCost::elementwise(self.numel()));
        let ids = [self.id, gamma.id, beta.id];
        let operands = [self, gamma, beta];
        match running_stats {
            None => {
                let mut ctx = self.tape.with_values(&operands, |v| {
                    batch_norm_train_grouped(v[0], groups, v[1], v[2], eps)
                });
                // The tape keeps the output; the op keeps x̂ and the
                // per-channel inverse std, all `batch_norm_backward` reads.
                let y = std::mem::take(&mut ctx.output);
                let stats = (std::mem::take(&mut ctx.mean), std::mem::take(&mut ctx.var));
                let var = (self.tape).push_op(y, &ids, Op::BatchNorm(ids, groups, ctx));
                (var, Some(stats))
            }
            Some((rm, rvar)) => {
                // The backward reuses the forward's inverse std.
                let inv_std = eval_inv_std(rvar, eps);
                let y = self.tape.with_values(&operands, |v| {
                    batch_norm_eval_grouped(v[0], groups, v[1], v[2], rm, &inv_std)
                });
                let op = Op::BatchNormEval(ids, groups, rm.to_vec(), inv_std);
                (self.tape.push_op(y, &ids, op), None)
            }
        }
    }

    /// Log-softmax along `axis`.
    pub fn log_softmax(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("log_softmax", || OpCost::elementwise(self.numel()));
        let y = self.with_value(|x| x.log_softmax(axis));
        self.record(y, Op::LogSoftmax(self.id, axis))
    }

    /// Softmax along `axis`.
    pub fn softmax(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("softmax", || OpCost::elementwise(self.numel()));
        let y = self.with_value(|x| x.softmax(axis));
        self.record(y, Op::Softmax(self.id, axis))
    }

    /// Negative log-likelihood of integer targets given log-probabilities
    /// `[N, C]` (or `[N, C, D]` with per-position targets of length `N*D`),
    /// mean-reduced.
    ///
    /// # Panics
    ///
    /// Panics if target length or class indices are inconsistent.
    pub fn nll_loss(&self, targets: &[usize]) -> Var {
        let _t = self
            .tape
            .record_op("nll_loss", || OpCost::reduction(self.numel()));
        let (total, count) = self.with_value(|lp| {
            assert!(
                lp.rank() == 2 || lp.rank() == 3,
                "nll_loss expects [N, C] or [N, C, D]"
            );
            let n = lp.dim(0);
            let c = lp.dim(1);
            let d = if lp.rank() == 3 { lp.dim(2) } else { 1 };
            assert_eq!(targets.len(), n * d, "target length mismatch");
            let data = lp.as_slice();
            let mut total = 0.0f32;
            for ni in 0..n {
                for di in 0..d {
                    let t = targets[ni * d + di];
                    assert!(t < c, "target class {t} out of range (C = {c})");
                    total -= data[(ni * c + t) * d + di];
                }
            }
            (total, (n * d) as f32)
        });
        let loss = Tensor::scalar(total / count);
        self.record(loss, Op::NllLoss(self.id, targets.to_vec()))
    }

    /// Cross-entropy of logits against integer targets:
    /// `nll_loss(log_softmax(x, 1), targets)`, mean-reduced.
    pub fn cross_entropy(&self, targets: &[usize]) -> Var {
        self.log_softmax(1).nll_loss(targets)
    }

    /// Numerically stable binary cross-entropy *with logits*, mean-reduced:
    /// `mean(max(x, 0) - x * y + ln(1 + exp(-|x|)))`.
    ///
    /// # Panics
    ///
    /// Panics if `targets`'s shape differs from the logits'.
    pub fn bce_with_logits(&self, targets: &Tensor) -> Var {
        let _t = self
            .tape
            .record_op("bce_with_logits", || OpCost::reduction(self.numel()));
        let (total, n) = self.with_value(|x| {
            assert_eq!(x.shape(), targets.shape(), "bce target shape mismatch");
            let total: f32 = x
                .as_slice()
                .iter()
                .zip(targets.as_slice())
                .map(|(&xi, &yi)| xi.max(0.0) - xi * yi + (1.0 + (-xi.abs()).exp()).ln())
                .sum();
            (total, x.numel() as f32)
        });
        let op = Op::BceWithLogits(self.id, targets.clone());
        self.record(Tensor::scalar(total / n), op)
    }

    /// Mean-squared error against a constant target, mean-reduced.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse_loss(&self, target: &Tensor) -> Var {
        let _t = self
            .tape
            .record_op("mse_loss", || OpCost::reduction(self.numel()));
        let diff = self.with_value(|x| {
            assert_eq!(x.shape(), target.shape(), "mse target shape mismatch");
            x.sub(target)
        });
        let loss = diff.square().sum().item() / diff.numel() as f32;
        self.record(Tensor::scalar(loss), Op::MseLoss(self.id, diff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::parameter::Parameter;
    use crate::tape::Tape;
    use hfta_tensor::Rng;

    /// `conv_transpose2d` is priced by the products it runs: its forward is
    /// `conv2d_grad_input` over the same weight, a batch of `N·g` entries of
    /// `(m, k, n) = ((Cout/g)·kh·kw, Cin/g, H·W)` (conv2d's `krows`, `coutg`
    /// and `spatial`, with the channel roles swapped). Cases: the fused
    /// DCGAN generator's 1×1 → 4×4 first layer and a stride-2 layer, an
    /// uneven grouped one and a 1×1 one.
    #[test]
    fn conv_transpose2d_is_priced_by_its_adjoint_gemm() {
        let uneven = ConvCfg {
            stride: (2, 3),
            padding: (1, 0),
            groups: 2,
        };
        let cases = [
            ([2, 600, 1, 1], [600, 64, 4, 4], ConvCfg::square(1, 0, 6)),
            ([2, 384, 4, 4], [384, 32, 4, 4], ConvCfg::square(2, 1, 6)),
            ([3, 4, 5, 7], [4, 3, 3, 2], uneven),
            ([1, 3, 2, 2], [3, 5, 1, 1], ConvCfg::unit()),
        ];
        for (xd, wd, cfg) in cases {
            let (n, cin, h, w, g) = (xd[0], xd[1], xd[2], xd[3], cfg.groups);
            let (m, k, cols) = (wd[1] * wd[2] * wd[3], cin / g, h * w);
            let adjoint = (n * g) as f64 * 2.0 * (m * k * cols) as f64;
            let cost = conv_transpose2d_cost(&xd, &wd, cfg);
            assert_eq!(cost.flops, adjoint, "x {xd:?}, w {wd:?}");
        }
    }

    #[test]
    fn leaf_inputs_get_no_gradient_and_weight_grads_stay_bitwise() {
        type Op = fn(&Var, &Var) -> Var;
        let cases: [(&str, [usize; 4], [usize; 4], Op); 5] = [
            ("conv2d", [2, 4, 6, 6], [6, 2, 3, 3], |x, w| {
                x.conv2d(w, None, ConvCfg::square(2, 1, 2))
            }),
            ("conv_transpose2d", [2, 4, 3, 3], [4, 3, 4, 4], |x, w| {
                x.conv_transpose2d(w, None, ConvCfg::square(2, 1, 2))
            }),
            ("conv1d", [2, 4, 9, 0], [6, 4, 3, 0], |x, w| {
                x.conv1d(w, None, 1, 1, 1)
            }),
            ("matmul", [3, 4, 0, 0], [4, 5, 0, 0], |x, w| x.matmul(w)),
            ("bmm", [2, 3, 4, 0], [2, 4, 5, 0], |x, w| x.bmm(w)),
        ];
        let mut rng = Rng::seed_from(21);
        for (name, xd, wd, op) in cases {
            let dims = |d: [usize; 4]| d.into_iter().filter(|&v| v > 0).collect::<Vec<_>>();
            let x = rng.randn(dims(xd));
            let w = Parameter::new(rng.randn(dims(wd)), "w");
            let mut weight_grads = Vec::new();
            for x_is_leaf in [true, false] {
                w.zero_grad();
                let px = Parameter::new(x.clone(), "x");
                let tape = Tape::new();
                let xv = if x_is_leaf {
                    tape.leaf(x.clone())
                } else {
                    tape.param(&px)
                };
                let wv = tape.param(&w);
                let y = op(&xv, &wv);
                let gy = y.with_value(|v| v.map(|e| (e * 0.7).sin()));
                let targets = y.grad_targets(&gy);
                assert_eq!(targets.contains(&xv.id), !x_is_leaf, "{name}: {targets:?}");
                assert!(targets.contains(&wv.id), "{name}: {targets:?}");
                y.backward_with(gy);
                let bits: Vec<u32> = w
                    .grad_cloned()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                weight_grads.push(bits);
            }
            assert_eq!(weight_grads[0], weight_grads[1], "{name} weight grad");
        }
    }

    #[test]
    fn conv2d_gradcheck() {
        let mut rng = Rng::seed_from(10);
        let x = Parameter::new(rng.randn([1, 2, 5, 5]), "x");
        let w = Parameter::new(rng.randn([3, 2, 3, 3]).mul_scalar(0.5), "w");
        let b = Parameter::new(rng.randn([3]), "b");
        check_gradients(
            &[x.clone(), w.clone(), b.clone()],
            |tape| {
                tape.param(&x)
                    .conv2d(
                        &tape.param(&w),
                        Some(&tape.param(&b)),
                        ConvCfg::square(1, 1, 1),
                    )
                    .square()
                    .sum()
            },
            2e-1,
        );
    }

    #[test]
    fn grouped_conv2d_gradcheck() {
        let mut rng = Rng::seed_from(11);
        let x = Parameter::new(rng.randn([1, 4, 4, 4]), "x");
        let w = Parameter::new(rng.randn([4, 2, 3, 3]).mul_scalar(0.5), "w");
        check_gradients(
            &[x.clone(), w.clone()],
            |tape| {
                tape.param(&x)
                    .conv2d(&tape.param(&w), None, ConvCfg::square(1, 1, 2))
                    .square()
                    .sum()
            },
            2e-1,
        );
    }

    #[test]
    fn conv1d_gradcheck() {
        let mut rng = Rng::seed_from(12);
        let x = Parameter::new(rng.randn([2, 3, 6]), "x");
        let w = Parameter::new(rng.randn([4, 3, 3]).mul_scalar(0.5), "w");
        let b = Parameter::new(rng.randn([4]), "b");
        check_gradients(
            &[x.clone(), w.clone(), b.clone()],
            |tape| {
                tape.param(&x)
                    .conv1d(&tape.param(&w), Some(&tape.param(&b)), 1, 1, 1)
                    .square()
                    .sum()
            },
            2e-1,
        );
    }

    #[test]
    fn conv_transpose2d_gradcheck() {
        let mut rng = Rng::seed_from(13);
        let x = Parameter::new(rng.randn([1, 4, 3, 3]), "x");
        let w = Parameter::new(rng.randn([4, 2, 4, 4]).mul_scalar(0.3), "w");
        let b = Parameter::new(rng.randn([2]), "b");
        check_gradients(
            &[x.clone(), w.clone(), b.clone()],
            |tape| {
                tape.param(&x)
                    .conv_transpose2d(
                        &tape.param(&w),
                        Some(&tape.param(&b)),
                        ConvCfg::square(2, 1, 1),
                    )
                    .square()
                    .sum()
            },
            2e-1,
        );
    }

    #[test]
    fn max_pool_gradcheck() {
        let mut rng = Rng::seed_from(14);
        let x = Parameter::new(rng.randn([1, 2, 4, 4]), "x");
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).max_pool2d((2, 2), (2, 2)).square().sum(),
            2e-1,
        );
    }

    #[test]
    fn batch_norm_train_gradcheck() {
        let mut rng = Rng::seed_from(15);
        let x = Parameter::new(rng.randn([4, 3]), "x");
        let g = Parameter::new(rng.rand([3], 0.5, 1.5), "gamma");
        let b = Parameter::new(rng.randn([3]), "beta");
        let w = rng.randn([4, 3]);
        check_gradients(
            &[x.clone(), g.clone(), b.clone()],
            |tape| {
                let (y, _) =
                    tape.param(&x)
                        .batch_norm(&tape.param(&g), &tape.param(&b), 1e-5, None);
                y.mul_const(&w).sum()
            },
            3e-1,
        );
    }

    #[test]
    fn batch_norm_eval_gradcheck() {
        let mut rng = Rng::seed_from(16);
        let x = Parameter::new(rng.randn([4, 3]), "x");
        let g = Parameter::new(rng.rand([3], 0.5, 1.5), "gamma");
        let b = Parameter::new(rng.randn([3]), "beta");
        let rm = vec![0.1, -0.2, 0.3];
        let rv = vec![1.0, 2.0, 0.5];
        check_gradients(
            &[x.clone(), g.clone(), b.clone()],
            |tape| {
                let (y, stats) = tape.param(&x).batch_norm(
                    &tape.param(&g),
                    &tape.param(&b),
                    1e-5,
                    Some((&rm, &rv)),
                );
                assert!(stats.is_none());
                y.square().sum()
            },
            2e-1,
        );
    }

    #[test]
    fn log_softmax_and_nll_gradcheck() {
        let mut rng = Rng::seed_from(17);
        let x = Parameter::new(rng.randn([3, 4]), "x");
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).cross_entropy(&[1, 0, 3]),
            1e-2,
        );
    }

    #[test]
    fn softmax_gradcheck() {
        // Softmax rows sum to one; weight them so the loss depends on each.
        let mut rng = Rng::seed_from(22);
        let x = Parameter::new(rng.randn([3, 4]), "x");
        let w = rng.randn([3, 4]);
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).softmax(1).mul_const(&w).sum(),
            1e-2,
        );
    }

    #[test]
    fn nll_loss_3d_segmentation_form() {
        // [N, C, D] log-probs with per-position targets.
        let mut rng = Rng::seed_from(18);
        let x = Parameter::new(rng.randn([2, 3, 4]), "x");
        check_gradients(
            std::slice::from_ref(&x),
            |tape| {
                tape.param(&x)
                    .log_softmax(1)
                    .nll_loss(&[0, 1, 2, 0, 2, 2, 1, 0])
            },
            1e-2,
        );
    }

    #[test]
    fn bce_with_logits_gradcheck() {
        let mut rng = Rng::seed_from(19);
        let x = Parameter::new(rng.randn([6]), "x");
        let y = Tensor::from_vec(vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0], [6]);
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).bce_with_logits(&y),
            1e-2,
        );
    }

    #[test]
    fn bce_matches_manual_value() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.0], [1]));
        let y = Tensor::from_vec(vec![1.0], [1]);
        let loss = x.bce_with_logits(&y);
        // -ln(sigmoid(0)) = ln 2.
        assert!((loss.item() - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn mse_gradcheck() {
        let mut rng = Rng::seed_from(20);
        let x = Parameter::new(rng.randn([5]), "x");
        let t = rng.randn([5]);
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).mse_loss(&t),
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([2, 4]));
        let loss = x.cross_entropy(&[0, 3]);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn batch_norm_updates_stats_in_train_only() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let g = tape.leaf(Tensor::ones([2]));
        let b = tape.leaf(Tensor::zeros([2]));
        let (_, stats) = x.batch_norm(&g, &b, 1e-5, None);
        let (mean, var) = stats.expect("training mode returns stats");
        assert!((mean[0] - 2.0).abs() < 1e-6);
        assert!((mean[1] - 3.0).abs() < 1e-6);
        assert!((var[0] - 1.0).abs() < 1e-5);
    }
}
