//! Shape replay: the ledger rows below the tape.
//!
//! `hfta-tensor` and `hfta-kernels` run underneath the autograd tape and
//! cannot be intercepted from outside the program. After the timed loop the
//! benchmark therefore walks the workload's op list — taken from the same
//! `hfta-plan` graphs the models are built from, at the fused width — and
//! calls the public tensor functions on tensors of the identical shapes,
//! and for each convolution and batched product the raw GEMMs on the
//! identical im2col shapes, each inside its own span. Inputs are random
//! (time does not depend on values) and the GEMM operands are reused across
//! calls, so these rows are a floor for the GEMM share, not a trace of it.

use hfta_kernels::{gemm, gemm_nt, gemm_tn};
use hfta_plan::{OpKind, OpSpec};
use hfta_tensor::conv::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, conv_transpose2d, conv_transpose2d_grad_input,
    conv_transpose2d_grad_weight, ConvCfg,
};
use hfta_tensor::norm::{batch_norm_backward, batch_norm_eval, batch_norm_train};
use hfta_tensor::{Rng, Tensor};

use crate::trace::Recorder;

/// Activation functions the workloads use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// ReLU.
    Relu,
    /// Leaky ReLU with this slope.
    Leaky(f32),
    /// tanh.
    Tanh,
}

/// One op of a fused step, by shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayKind {
    /// Grouped (transposed) convolution over `x [n, cin, h, w]`.
    Conv {
        /// Transposed convolution.
        transposed: bool,
        /// Batch.
        n: usize,
        /// Input channels (all groups).
        cin: usize,
        /// Output channels (all groups).
        cout: usize,
        /// Input height and width.
        hw: (usize, usize),
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride, padding and groups.
        cfg: ConvCfg,
    },
    /// Batched product `[batch, m, k] x [batch, k, n]`, with bias or not.
    Bmm {
        /// Batch (the fused width).
        batch: usize,
        /// Rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns.
        n: usize,
        /// `baddbmm` instead of `bmm`.
        bias: bool,
    },
    /// Batch norm over `dims = [n, c, ...]`, training or evaluation mode.
    Norm {
        /// Activation dims.
        dims: Vec<usize>,
        /// Batch statistics (training) or running statistics (evaluation).
        train: bool,
    },
    /// Elementwise activation over `numel` elements.
    Elementwise {
        /// Which one.
        act: Act,
        /// Elements.
        numel: usize,
    },
}

/// A replayed op and how often one training step runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayItem {
    /// The op.
    pub kind: ReplayKind,
    /// Forward executions per step.
    pub fwd: usize,
    /// Backward executions per step.
    pub bwd: usize,
}

/// Lowers a graph's op list at fused width `width` and batch `batch` to
/// replay items. `train_bn` picks the batch-norm mode. Ops that do no
/// tensor-layer arithmetic worth a row (flatten, pooling) are skipped.
pub fn lower_ops(
    ops: &[OpSpec],
    input: &[usize],
    width: usize,
    batch: usize,
    train_bn: bool,
    fwd: usize,
    bwd: usize,
) -> Vec<ReplayItem> {
    let mut shape = input.to_vec();
    let mut out = Vec::new();
    for op in ops {
        let next = op.out_shape(&shape).expect("workload graphs shape-check");
        let elems = batch * width * shape.iter().product::<usize>();
        let kind = match op.kind {
            OpKind::Conv2d | OpKind::ConvTranspose2d => Some(ReplayKind::Conv {
                transposed: op.kind == OpKind::ConvTranspose2d,
                n: batch,
                cin: width * op.c_in,
                cout: width * op.c_out,
                hw: (shape[1], shape[2]),
                kernel: (op.kernel, op.kernel),
                cfg: ConvCfg::square(op.stride, op.padding, width * op.groups.max(1)),
            }),
            OpKind::Conv1d => Some(ReplayKind::Conv {
                transposed: false,
                n: batch,
                cin: width * op.c_in,
                cout: width * op.c_out,
                hw: (1, shape[1]),
                kernel: (1, op.kernel),
                cfg: ConvCfg {
                    stride: (1, op.stride),
                    padding: (0, op.padding),
                    groups: width * op.groups.max(1),
                },
            }),
            OpKind::Linear => Some(ReplayKind::Bmm {
                batch: width,
                m: batch,
                k: op.c_in,
                n: op.c_out,
                bias: op.bias,
            }),
            OpKind::BatchNorm => {
                let mut dims = vec![batch, width * shape[0]];
                dims.extend_from_slice(&shape[1..]);
                Some(ReplayKind::Norm {
                    dims,
                    train: train_bn,
                })
            }
            OpKind::Relu => Some(ReplayKind::Elementwise {
                act: Act::Relu,
                numel: elems,
            }),
            OpKind::LeakyRelu => Some(ReplayKind::Elementwise {
                act: Act::Leaky(op.slope()),
                numel: elems,
            }),
            OpKind::Tanh => Some(ReplayKind::Elementwise {
                act: Act::Tanh,
                numel: elems,
            }),
            OpKind::MaxPool2d | OpKind::Flatten | OpKind::GlobalMaxPool | OpKind::ResidualAdd => {
                None
            }
        };
        if let Some(kind) = kind {
            out.push(ReplayItem { kind, fwd, bwd });
        }
        shape = next;
    }
    out
}

/// What one replayed step cost, per ledger row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCost {
    /// `hfta_tensor` convolution calls, ms.
    pub conv_ms: f64,
    /// `hfta_tensor` batched products, ms.
    pub bmm_ms: f64,
    /// `hfta_tensor` batch norms, ms.
    pub norm_ms: f64,
    /// Activations, ms.
    pub elementwise_ms: f64,
    /// Raw `hfta_kernels` GEMMs behind the convolutions, ms.
    pub conv_gemm_ms: f64,
    /// Raw GEMMs behind the batched products, ms.
    pub bmm_gemm_ms: f64,
    /// FLOPs of all those GEMMs.
    pub gemm_flops: f64,
}

impl ReplayCost {
    /// All raw GEMM time.
    pub fn gemm_ms(&self) -> f64 {
        self.conv_gemm_ms + self.bmm_gemm_ms
    }

    /// Every replayed tensor-layer op.
    pub fn tensor_ms(&self) -> f64 {
        self.conv_ms + self.bmm_ms + self.norm_ms + self.elementwise_ms
    }
}

struct Timer<'a> {
    rec: &'a Recorder,
}

impl Timer<'_> {
    /// Runs `f` in a span and returns its wall time in ms.
    fn ms(&self, name: &'static str, f: impl FnOnce()) -> f64 {
        let t = std::time::Instant::now();
        self.rec.time(name, f);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Replays one step's worth of `items` once, each op in its own span.
pub fn replay_step(items: &[ReplayItem], rec: &Recorder, rng: &mut Rng) -> ReplayCost {
    let timer = Timer { rec };
    let mut cost = ReplayCost::default();
    for item in items {
        match &item.kind {
            ReplayKind::Conv {
                transposed,
                n,
                cin,
                cout,
                hw,
                kernel,
                cfg,
            } => {
                let g = cfg.groups;
                let x = rng.randn([*n, *cin, hw.0, hw.1]);
                // The adjoint view: a transposed conv is the input-gradient
                // of a conv running the other way, so `conv_*` below always
                // names the plain conv whose three GEMM shapes apply.
                let (w, out_hw, conv_in, conv_out, conv_in_hw) = if *transposed {
                    let out_hw = cfg.transpose_out_hw(*hw, *kernel);
                    (
                        rng.randn([*cin, cout / g, kernel.0, kernel.1]),
                        out_hw,
                        *cout,
                        *cin,
                        out_hw,
                    )
                } else {
                    (
                        rng.randn([*cout, cin / g, kernel.0, kernel.1]),
                        cfg.out_hw(*hw, *kernel),
                        *cin,
                        *cout,
                        *hw,
                    )
                };
                let gy = rng.randn([*n, *cout, out_hw.0, out_hw.1]);
                for _ in 0..item.fwd {
                    cost.conv_ms += timer.ms("tensor.conv", || {
                        let y = if *transposed {
                            conv_transpose2d(&x, &w, None, *cfg)
                        } else {
                            conv2d(&x, &w, None, *cfg)
                        };
                        std::hint::black_box(y);
                    });
                }
                for _ in 0..item.bwd {
                    cost.conv_ms += timer.ms("tensor.conv", || {
                        let (gx, gw) = if *transposed {
                            (
                                conv_transpose2d_grad_input(&w, &gy, *cfg),
                                conv_transpose2d_grad_weight(&x, &gy, *kernel, *cfg),
                            )
                        } else {
                            (
                                conv2d_grad_input(&w, &gy, *hw, *cin, *cfg),
                                conv2d_grad_weight(&x, &gy, *kernel, *cfg),
                            )
                        };
                        std::hint::black_box((gx, gw));
                    });
                }
                // Per (sample, group): out[coutg, spatial] = w[coutg, krows]
                // x cols[krows, spatial], and its two gradients.
                let (cing, coutg) = (conv_in / g, conv_out / g);
                let krows = cing * kernel.0 * kernel.1;
                let conv_out_hw = cfg.out_hw(conv_in_hw, *kernel);
                let spatial = conv_out_hw.0 * conv_out_hw.1;
                let wmat = rng.randn([coutg, krows]);
                let cols = rng.randn([krows, spatial]);
                let gymat = rng.randn([coutg, spatial]);
                let calls = n * g;
                // A transposed conv's forward is the adjoint's grad-input
                // and vice versa; the weight gradient is shared.
                let (n_fwd, n_gi) = if *transposed {
                    (item.bwd, item.fwd)
                } else {
                    (item.fwd, item.bwd)
                };
                let mut out_fwd = vec![0.0f32; coutg * spatial];
                let mut out_gi = vec![0.0f32; krows * spatial];
                let mut out_gw = vec![0.0f32; coutg * krows];
                cost.conv_gemm_ms += timer.ms("kernels.gemm", || {
                    for _ in 0..calls * n_fwd {
                        gemm(
                            &mut out_fwd,
                            wmat.as_slice(),
                            cols.as_slice(),
                            coutg,
                            krows,
                            spatial,
                        );
                    }
                    for _ in 0..calls * n_gi {
                        gemm_tn(
                            &mut out_gi,
                            wmat.as_slice(),
                            gymat.as_slice(),
                            krows,
                            coutg,
                            spatial,
                        );
                    }
                    for _ in 0..calls * item.bwd {
                        gemm_nt(
                            &mut out_gw,
                            gymat.as_slice(),
                            cols.as_slice(),
                            coutg,
                            spatial,
                            krows,
                        );
                    }
                    std::hint::black_box((&out_fwd, &out_gi, &out_gw));
                });
                cost.gemm_flops +=
                    (2 * coutg * krows * spatial * calls) as f64 * (item.fwd + 2 * item.bwd) as f64;
            }
            ReplayKind::Bmm {
                batch,
                m,
                k,
                n,
                bias,
            } => {
                let a = rng.randn([*batch, *m, *k]);
                let b = rng.randn([*batch, *k, *n]);
                let bias_t = rng.randn([*batch, 1, *n]);
                let g = rng.randn([*batch, *m, *n]);
                for _ in 0..item.fwd {
                    cost.bmm_ms += timer.ms("tensor.bmm", || {
                        // `Var::baddbmm` is `bmm` then a broadcast add.
                        let y = a.bmm(&b);
                        std::hint::black_box(if *bias { y.add(&bias_t) } else { y });
                    });
                }
                for _ in 0..item.bwd {
                    cost.bmm_ms += timer.ms("tensor.bmm", || {
                        std::hint::black_box((g.bmm_nt(&b), a.bmm_tn(&g)));
                    });
                }
                let mut out_y = vec![0.0f32; m * n];
                let mut out_ga = vec![0.0f32; m * k];
                let mut out_gb = vec![0.0f32; k * n];
                let (a1, b1, g1) = (
                    &a.as_slice()[..m * k],
                    &b.as_slice()[..k * n],
                    &g.as_slice()[..m * n],
                );
                cost.bmm_gemm_ms += timer.ms("kernels.gemm", || {
                    for _ in 0..batch * item.fwd {
                        gemm(&mut out_y, a1, b1, *m, *k, *n);
                    }
                    for _ in 0..batch * item.bwd {
                        gemm_nt(&mut out_ga, g1, b1, *m, *n, *k);
                        gemm_tn(&mut out_gb, a1, g1, *k, *m, *n);
                    }
                    std::hint::black_box((&out_y, &out_ga, &out_gb));
                });
                cost.gemm_flops +=
                    (2 * m * k * n * batch) as f64 * (item.fwd + 2 * item.bwd) as f64;
            }
            ReplayKind::Norm { dims, train } => {
                let c = dims[1];
                let x = rng.randn(dims.clone());
                let gy = rng.randn(dims.clone());
                let (gamma, beta) = (Tensor::ones([c]), Tensor::zeros([c]));
                let (rm, rv) = (vec![0.0f32; c], vec![1.0f32; c]);
                if *train {
                    for pass in 0..item.fwd.max(item.bwd) {
                        cost.norm_ms += timer.ms("tensor.norm", || {
                            let ctx = batch_norm_train(&x, &gamma, &beta, 1e-5);
                            if pass < item.bwd {
                                std::hint::black_box(batch_norm_backward(&gy, &ctx, &gamma));
                            }
                            std::hint::black_box(ctx);
                        });
                    }
                } else {
                    // Evaluation-mode backward is inline code in `hfta-nn`
                    // and so lands in `nn.tape_overhead`.
                    for _ in 0..item.fwd {
                        cost.norm_ms += timer.ms("tensor.norm", || {
                            std::hint::black_box(batch_norm_eval(
                                &x, &gamma, &beta, &rm, &rv, 1e-5,
                            ));
                        });
                    }
                }
            }
            ReplayKind::Elementwise { act, numel } => {
                let x = rng.randn([*numel]);
                let g = rng.randn([*numel]);
                // The same tensor calls `hfta_nn::Var::{relu, leaky_relu,
                // tanh}` make: a mask or derivative up front, a product in
                // the backward closure.
                for pass in 0..item.fwd.max(item.bwd) {
                    cost.elementwise_ms += timer.ms("tensor.elementwise", || {
                        let back = pass < item.bwd;
                        match *act {
                            Act::Relu => {
                                let mask = x.gt_mask(&Tensor::scalar(0.0));
                                std::hint::black_box(x.relu());
                                if back {
                                    std::hint::black_box(g.mul(&mask));
                                }
                            }
                            Act::Leaky(slope) => {
                                let dmask = x.map(|v| if v >= 0.0 { 1.0 } else { slope });
                                std::hint::black_box(x.leaky_relu(slope));
                                if back {
                                    std::hint::black_box(g.mul(&dmask));
                                }
                            }
                            Act::Tanh => {
                                let y = x.tanh();
                                if back {
                                    std::hint::black_box(g.mul(&y.square().neg().add_scalar(1.0)));
                                }
                                std::hint::black_box(y);
                            }
                        }
                    });
                }
            }
        }
    }
    cost
}
