//! Differentiable neural-network ops on [`Var`]: convolutions, pooling,
//! batch norm, softmax and loss primitives.
//!
//! Backward closures read their operands (`x`, `w`, `gamma`) and outputs
//! from the tape rather than capturing copies, and skip the gradient of any
//! operand that needs none — a plain [`crate::Tape::leaf`] such as a model's
//! input batch.

use hfta_tensor::activation::{log_softmax_backward, softmax_backward};
use hfta_tensor::conv::{
    conv1d_grad_bias, conv1d_grad_input, conv1d_grad_weight, conv2d, conv2d_grad_bias,
    conv2d_grad_input, conv2d_grad_weight, conv_transpose2d, conv_transpose2d_grad_input,
    conv_transpose2d_grad_weight, ConvCfg,
};
use hfta_tensor::norm::{
    batch_norm_backward, batch_norm_eval, batch_norm_eval_backward, batch_norm_train,
};
use hfta_tensor::pool::{max_pool2d, max_pool2d_backward};
use hfta_tensor::Tensor;

use hfta_telemetry::OpCost;

use crate::tape::{BackwardCtx, ParentGrads, Var};

/// FLOP/byte cost of a direct convolution producing `out_numel` outputs,
/// each accumulating over `k_per_out` kernel taps.
fn conv_cost(out_numel: usize, k_per_out: usize, in_numel: usize, w_numel: usize) -> OpCost {
    OpCost {
        flops: 2.0 * out_numel as f64 * k_per_out as f64,
        bytes: 4.0 * (in_numel + w_numel + out_numel) as f64,
    }
}

/// Per-channel batch statistics `(mean, variance)` returned by
/// training-mode batch norm.
pub type BatchStats = (Vec<f32>, Vec<f32>);

/// Records a convolution-shaped op over `x`, `w` and an optional bias:
/// `forward(x, w, b)` computes the output now; in the backward sweep
/// `grad_x(g, w)`, `grad_w(g, x)` and `grad_b(g)` run for each operand that
/// needs a gradient, reading `x` and `w` from the tape.
fn record_conv(
    x: &Var,
    weight: &Var,
    bias: Option<&Var>,
    forward: impl FnOnce(&Tensor, &Tensor, Option<&Tensor>) -> Tensor,
    grad_x: impl Fn(&Tensor, &Tensor) -> Tensor + 'static,
    grad_w: impl Fn(&Tensor, &Tensor) -> Tensor + 'static,
    grad_b: fn(&Tensor) -> Tensor,
) -> Var {
    let operands: Vec<&Var> = [x, weight].into_iter().chain(bias).collect();
    let y = x
        .tape
        .with_values(&operands, |v| forward(v[0], v[1], v.get(2).copied()));
    let (xi, wi, bi) = (x.id, weight.id, bias.map(|b| b.id));
    x.tape.push_op(y, move |g, ctx| {
        let mut out: ParentGrads = Vec::with_capacity(3);
        if ctx.needs_grad(xi) {
            out.push((xi, grad_x(g, ctx.value(wi))));
        }
        if ctx.needs_grad(wi) {
            out.push((wi, grad_w(g, ctx.value(xi))));
        }
        if let Some(bi) = bi.filter(|&bi| ctx.needs_grad(bi)) {
            out.push((bi, grad_b(g)));
        }
        out
    })
}

impl Var {
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
            conv_cost(
                xd[0] * wd[0] * ho * wo,
                wd[1] * wd[2] * wd[3],
                self.numel(),
                weight.numel(),
            )
        });
        let (xd, wd) = (self.dims(), weight.dims());
        let (input_hw, cin, kernel_hw) = ((xd[2], xd[3]), xd[1], (wd[2], wd[3]));
        record_conv(
            self,
            weight,
            bias,
            |x, w, b| conv2d(x, w, b, cfg),
            move |g, w| conv2d_grad_input(w, g, input_hw, cin, cfg),
            move |g, x| conv2d_grad_weight(x, g, kernel_hw, cfg),
            conv2d_grad_bias,
        )
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
            conv_cost(
                xd[0] * wd[0] * lo,
                wd[1] * wd[2],
                self.numel(),
                weight.numel(),
            )
        });
        let (xd, k) = (self.dims(), weight.dim(2));
        let (cin, len) = (xd[1], xd[2]);
        record_conv(
            self,
            weight,
            bias,
            |x, w, b| hfta_tensor::conv::conv1d(x, w, b, stride, padding, groups),
            move |g, w| conv1d_grad_input(w, g, (cin, len), stride, padding, groups),
            move |g, x| conv1d_grad_weight(x, g, k, stride, padding, groups),
            conv1d_grad_bias,
        )
    }

    /// 2-D transposed convolution (`x [N, Cin, H, W]`,
    /// `w [Cin, Cout/g, kh, kw]`).
    ///
    /// # Panics
    ///
    /// Panics on shape/group inconsistencies.
    pub fn conv_transpose2d(&self, weight: &Var, bias: Option<&Var>, cfg: ConvCfg) -> Var {
        let _t = self.tape.record_op("conv_transpose2d", || {
            let (xd, wd) = (self.dims(), weight.dims());
            let (ho, wo) = cfg.transpose_out_hw((xd[2], xd[3]), (wd[2], wd[3]));
            conv_cost(
                xd[0] * wd[1] * cfg.groups * ho * wo,
                wd[1] * wd[2] * wd[3],
                self.numel(),
                weight.numel(),
            )
        });
        let wd = weight.dims();
        let kernel_hw = (wd[2], wd[3]);
        record_conv(
            self,
            weight,
            bias,
            |x, w, b| conv_transpose2d(x, w, b, cfg),
            move |g, w| conv_transpose2d_grad_input(w, g, cfg),
            move |g, x| conv_transpose2d_grad_weight(x, g, kernel_hw, cfg),
            conv2d_grad_bias,
        )
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
        let indices = r.indices;
        self.unary(r.output, move |g, x, _| {
            max_pool2d_backward(g, &indices, x.dims())
        })
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
        let _t = self
            .tape
            .record_op("batch_norm", || OpCost::elementwise(self.numel()));
        let (xi, gi, bi) = (self.id, gamma.id, beta.id);
        let grads = move |ctx: &BackwardCtx<'_>, (gx, ggamma, gbeta): (Tensor, Tensor, Tensor)| {
            [(xi, gx), (gi, ggamma), (bi, gbeta)]
                .into_iter()
                .filter(|(id, _)| ctx.needs_grad(*id))
                .collect::<ParentGrads>()
        };
        let operands = [self, gamma, beta];
        match running_stats {
            None => {
                let mut ctx = self
                    .tape
                    .with_values(&operands, |v| batch_norm_train(v[0], v[1], v[2], eps));
                // The tape keeps the output; the closure keeps x̂ and the
                // per-channel inverse std, all `batch_norm_backward` reads.
                let y = std::mem::take(&mut ctx.output);
                let stats = (std::mem::take(&mut ctx.mean), std::mem::take(&mut ctx.var));
                let var = self.tape.push_op(y, move |g, c| {
                    grads(c, batch_norm_backward(g, &ctx, c.value(gi)))
                });
                (var, Some(stats))
            }
            Some((rm, rvar)) => {
                let y = self.tape.with_values(&operands, |v| {
                    batch_norm_eval(v[0], v[1], v[2], rm, rvar, eps)
                });
                let (rm, rvar) = (rm.to_vec(), rvar.to_vec());
                let var = self.tape.push_op(y, move |g, c| {
                    let (x, gv) = (c.value(xi), c.value(gi));
                    grads(c, batch_norm_eval_backward(g, x, gv, &rm, &rvar, eps))
                });
                (var, None)
            }
        }
    }

    /// Log-softmax along `axis`.
    pub fn log_softmax(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("log_softmax", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.log_softmax(axis)), move |g, _, y| {
            log_softmax_backward(g, y, axis)
        })
    }

    /// Softmax along `axis`.
    pub fn softmax(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("softmax", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.softmax(axis)), move |g, _, y| {
            softmax_backward(g, y, axis)
        })
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
        let (total, n, c, d) = self.with_value(|lp| {
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
            (total, n, c, d)
        });
        let count = (n * d) as f32;
        let targets = targets.to_vec();
        self.unary(Tensor::scalar(total / count), move |g, lp, _| {
            let scale = -g.item() / count;
            let mut gx_t = Tensor::zeros(lp.shape().clone());
            let gx = gx_t.as_mut_slice();
            for ni in 0..n {
                for di in 0..d {
                    let t = targets[ni * d + di];
                    gx[(ni * c + t) * d + di] = scale;
                }
            }
            gx_t
        })
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
        let tc = targets.clone();
        self.unary(Tensor::scalar(total / n), move |g, x, _| {
            // d/dx = sigmoid(x) - y.
            x.sigmoid().sub(&tc).mul_scalar(g.item() / n)
        })
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
        let n = diff.numel() as f32;
        let loss = diff.square().sum().item() / n;
        self.unary(Tensor::scalar(loss), move |g, _, _| {
            diff.mul_scalar(2.0 * g.item() / n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::parameter::Parameter;
    use crate::tape::Tape;
    use hfta_tensor::Rng;

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
