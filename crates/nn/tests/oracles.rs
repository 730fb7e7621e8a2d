//! Bit-for-bit oracles for the activation and batch-norm backward passes
//! through the tape.
//!
//! Each oracle is the body a `Var` op's backward closure had before the
//! closures read the tape's values and the passes became single and
//! branch-free: relu's `gt_mask` then a product, leaky relu's slope mask
//! then a product, tanh's four passes over its captured `y`, and the
//! evaluation-mode batch-norm backward that used to be written inline in
//! `var_nn.rs`. Gradients are read from parameters whose slots are filled
//! with `-0.0` first, so the accumulation `-0.0 + g` is the identity on
//! every bit pattern and the comparison sees the closure's own output.

use hfta_kernels::set_num_threads;
use hfta_nn::{Parameter, Tape, Var};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

// --- Oracles: the pre-rewrite backward bodies, verbatim ---------------------

fn relu_backward_oracle(g: &Tensor, x: &Tensor) -> Tensor {
    let mask = x.gt_mask(&Tensor::scalar(0.0));
    g.mul(&mask)
}

fn leaky_relu_backward_oracle(g: &Tensor, x: &Tensor, slope: f32) -> Tensor {
    let dmask = x.map(|x| if x >= 0.0 { 1.0 } else { slope });
    g.mul(&dmask)
}

fn tanh_backward_oracle(g: &Tensor, yc: &Tensor) -> Tensor {
    g.mul(&yc.square().neg().add_scalar(1.0))
}

fn sigmoid_backward_oracle(g: &Tensor, yc: &Tensor) -> Tensor {
    g.mul(yc).mul(&yc.neg().add_scalar(1.0))
}

fn exp_backward_oracle(g: &Tensor, yc: &Tensor) -> Tensor {
    g.mul(yc)
}

/// Evaluation-mode batch-norm backward `(grad_input, grad_gamma,
/// grad_beta)`: `y = gamma * (x - rm) * inv_std + beta`.
fn batch_norm_eval_backward_oracle(
    g: &Tensor,
    x: &Tensor,
    gv: &Tensor,
    rm: &[f32],
    rvar: &[f32],
    eps: f32,
) -> (Tensor, Tensor, Tensor) {
    let c = gv.numel();
    let inv_std: Vec<f32> = rvar.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let xhat = {
        // (x - rm) * inv_std, per channel.
        let mut xh = x.clone();
        let n = xh.dim(0);
        let spatial = xh.numel() / (n * c);
        let data = xh.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * spatial;
                for i in 0..spatial {
                    data[base + i] = (data[base + i] - rm[ci]) * inv_std[ci];
                }
            }
        }
        xh
    };
    let n = g.dim(0);
    let spatial = g.numel() / (n * c);
    let gd = g.as_slice();
    let xh = xhat.as_slice();
    let gvd = gv.as_slice();
    let mut gx_t = Tensor::zeros(g.shape().clone());
    let mut ggamma_t = Tensor::zeros([c]);
    let mut gbeta_t = Tensor::zeros([c]);
    {
        let gx = gx_t.as_mut_slice();
        let ggamma = ggamma_t.as_mut_slice();
        let gbeta = gbeta_t.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * spatial;
                for i in 0..spatial {
                    gx[base + i] = gd[base + i] * gvd[ci] * inv_std[ci];
                    ggamma[ci] += gd[base + i] * xh[base + i];
                    gbeta[ci] += gd[base + i];
                }
            }
        }
    }
    (gx_t, ggamma_t, gbeta_t)
}

// --- Harness ----------------------------------------------------------------

/// Runs `case` at 1 and at 4 worker threads.
fn at_1_and_4_threads(mut case: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    [1, 4].into_iter().try_for_each(|threads| {
        set_num_threads(threads);
        case()
    })
}

fn assert_bits(got: &Tensor, want: &Tensor, what: &str) -> Result<(), String> {
    prop_assert!(
        got.dims() == want.dims(),
        "{what} shape {:?} vs {:?}",
        got.dims(),
        want.dims()
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what} element {i}: got {g:?} ({:#010x}), oracle {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

/// A parameter whose gradient slot holds `-0.0`, the additive identity for
/// every bit pattern.
fn param(value: &Tensor, name: &str) -> Parameter {
    let p = Parameter::new(value.clone(), name);
    p.update_grad(|g| g.as_mut_slice().fill(-0.0));
    p
}

/// ±0, NaN, ±inf, subnormals, negatives whose `x * 0.2` underflows to
/// `-0.0` (`-1e-45`) and the largest finite values.
const SPECIALS: [f32; 12] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-45,
    -1e-45,
    -4e-45,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE * 0.5,
    f32::MAX,
    -f32::MAX,
];

/// A tensor of ordinary values with one element in four special.
fn tensor(rng: &mut Rng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let v = (0..n)
        .map(|_| match rng.below(4) {
            0 => SPECIALS[rng.below(SPECIALS.len())],
            _ => rng.uniform(-8.0, 8.0),
        })
        .collect();
    Tensor::from_vec(v, dims.to_vec())
}

type Unary = fn(&Var) -> Var;

// --- Properties ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn activation_grads_equal_their_oracles(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let dims: Vec<usize> = (0..1 + rng.below(4)).map(|_| 1 + rng.below(5)).collect();
        let (x, gy) = (tensor(&mut rng, &dims), tensor(&mut rng, &dims));
        let slope = [0.2f32, 0.01, 0.0, 1.5][rng.below(4)];
        at_1_and_4_threads(|| {
            let ops: [(&str, Unary); 4] = [
                ("relu", |v| v.relu()),
                ("tanh", |v| v.tanh()),
                ("sigmoid", |v| v.sigmoid()),
                ("exp", |v| v.exp()),
            ];
            for (name, op) in ops {
                let p = param(&x, "x");
                let tape = Tape::new();
                let y = op(&tape.param(&p));
                let yv = y.with_value(Tensor::clone);
                y.backward_with(gy.clone());
                let want = match name {
                    "relu" => relu_backward_oracle(&gy, &x),
                    "tanh" => tanh_backward_oracle(&gy, &yv),
                    "sigmoid" => sigmoid_backward_oracle(&gy, &yv),
                    _ => exp_backward_oracle(&gy, &yv),
                };
                assert_bits(&p.grad_cloned(), &want, name)?;
            }
            let p = param(&x, "x");
            let tape = Tape::new();
            let y = tape.param(&p).leaky_relu(slope);
            y.backward_with(gy.clone());
            assert_bits(&p.grad_cloned(), &leaky_relu_backward_oracle(&gy, &x, slope), "leaky_relu")
        })?;
    }

    /// `[N, C, spatial...]` with N = 1 and spatial = 1 in range and C
    /// rarely a multiple of 8.
    #[test]
    fn eval_batch_norm_grads_equal_the_oracle(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let (n, c) = (1 + rng.below(3), 1 + rng.below(19));
        let dims = match rng.below(3) {
            0 => vec![n, c],
            1 => vec![n, c, 1 + rng.below(6)],
            _ => vec![n, c, 1 + rng.below(6), 1 + rng.below(5)],
        };
        let (x, gy) = (tensor(&mut rng, &dims), tensor(&mut rng, &dims));
        let (gamma, beta) = (tensor(&mut rng, &[c]), tensor(&mut rng, &[c]));
        let rm: Vec<f32> = (0..c).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let rv: Vec<f32> = (0..c).map(|_| rng.uniform(0.0, 3.0)).collect();
        at_1_and_4_threads(|| {
            let eps = 1e-5;
            let (px, pg, pb) = (param(&x, "x"), param(&gamma, "gamma"), param(&beta, "beta"));
            let tape = Tape::new();
            let (y, stats) = tape.param(&px).batch_norm(
                &tape.param(&pg),
                &tape.param(&pb),
                eps,
                Some((&rm, &rv)),
            );
            prop_assert!(stats.is_none());
            y.backward_with(gy.clone());
            let (gx, gg, gb) = batch_norm_eval_backward_oracle(&gy, &x, &gamma, &rm, &rv, eps);
            assert_bits(&px.grad_cloned(), &gx, "eval grad_input")?;
            assert_bits(&pg.grad_cloned(), &gg, "eval grad_gamma")?;
            assert_bits(&pb.grad_cloned(), &gb, "eval grad_beta")
        })?;
    }
}
