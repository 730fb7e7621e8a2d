//! Bit-for-bit oracles for the non-GEMM passes.
//!
//! Each oracle below is the multi-pass body the production kernel had
//! before it became a single branch-free pass (activations), an
//! interleaved-chain pass (batch-norm statistics) or a branch-free scan
//! (`max_axis_with_indices`). The rewrite keeps every element's IEEE
//! operations and every accumulation chain's order, so production must
//! equal its oracle bit for bit — NaN matched as "both NaN", since Rust
//! does not pin NaN payloads — on inputs that include ±0, NaN, ±inf,
//! subnormals and negatives whose `x * 0.2` underflows to `-0.0`, at 1 and
//! 4 worker threads.

use std::sync::Mutex;

use hfta_kernels::{self as kernels, set_num_threads, UnsafeSlice};
use hfta_tensor::norm::{batch_norm_backward, batch_norm_eval, batch_norm_train, BatchNormOutput};
use hfta_tensor::Rng;
use hfta_tensor::Tensor;
use proptest::prelude::*;

/// `hfta_tensor`'s elementwise grain at the time the oracles were taken.
const ELEMWISE_GRAIN: usize = 1 << 15;

// --- Oracles: the pre-rewrite bodies, verbatim ------------------------------

fn relu_oracle(x: &Tensor) -> Tensor {
    x.map(|v| if v <= 0.0 { 0.0 } else { v })
}

fn leaky_relu_oracle(x: &Tensor, negative_slope: f32) -> Tensor {
    x.map(|v| if v >= 0.0 { v } else { v * negative_slope })
}

fn tanh_oracle(x: &Tensor) -> Tensor {
    x.map(f32::tanh)
}

fn sigmoid_oracle(x: &Tensor) -> Tensor {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

fn exp_oracle(x: &Tensor) -> Tensor {
    x.map(f32::exp)
}

fn check_bn_input(x: &Tensor) -> (usize, usize, usize) {
    assert!(
        (2..=4).contains(&x.rank()),
        "batch_norm input must be [N, C], [N, C, L] or [N, C, H, W]"
    );
    let n = x.dim(0);
    let c = x.dim(1);
    let spatial: usize = x.dims()[2..].iter().product();
    assert!(n * spatial > 0, "batch_norm over empty batch");
    (n, c, spatial)
}

fn per_channel_sum(
    x: &[f32],
    aux: &[f32],
    n: usize,
    c: usize,
    spatial: usize,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Vec<f32> {
    let mut out = vec![0.0f32; c];
    let grain = (ELEMWISE_GRAIN / (n * spatial).max(1)).max(1);
    kernels::for_each_chunk_mut(&mut out, grain, |start, chunk| {
        for (rel, slot) in chunk.iter_mut().enumerate() {
            let ci = start + rel;
            let mut total = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * spatial;
                let mut acc = 0.0f32;
                for i in 0..spatial {
                    acc += f(x[base + i], aux[base + i]);
                }
                total += acc;
            }
            *slot = total;
        }
    });
    out
}

fn batch_norm_train_oracle(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> BatchNormOutput {
    let (n, c, spatial) = check_bn_input(x);
    assert_eq!(gamma.dims(), &[c], "gamma must be [C]");
    assert_eq!(beta.dims(), &[c], "beta must be [C]");
    let count = (n * spatial) as f32;
    let xd = x.as_slice();
    let sums = per_channel_sum(xd, xd, n, c, spatial, |v, _| v);
    let mean: Vec<f32> = sums.iter().map(|s| s / count).collect();
    let sq_sums = per_channel_sum(xd, xd, n, c, spatial, |v, _| v * v);
    let var: Vec<f32> = sq_sums
        .iter()
        .zip(&mean)
        .map(|(s, m)| (s / count - m * m).max(0.0))
        .collect();
    let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let g = gamma.as_slice();
    let bt = beta.as_slice();
    let mut xhat = Tensor::zeros(x.shape().clone());
    let mut out = Tensor::zeros(x.shape().clone());
    {
        let xhat_s = UnsafeSlice::new(xhat.as_mut_slice());
        let out_s = UnsafeSlice::new(out.as_mut_slice());
        let grain = (ELEMWISE_GRAIN / spatial.max(1)).max(1);
        kernels::parallel_for_work(n * c, grain, n * c * spatial, |range| {
            for idx in range {
                let ci = idx % c;
                let base = idx * spatial;
                // SAFETY: each (sample, channel) index owns a disjoint block.
                let xh = unsafe { xhat_s.slice_mut(base..base + spatial) };
                let ob = unsafe { out_s.slice_mut(base..base + spatial) };
                let (m, is, gv, bv) = (mean[ci], inv_std[ci], g[ci], bt[ci]);
                for i in 0..spatial {
                    let h = (xd[base + i] - m) * is;
                    xh[i] = h;
                    ob[i] = gv * h + bv;
                }
            }
        });
    }
    BatchNormOutput {
        output: out,
        xhat,
        inv_std,
        mean,
        var,
    }
}

fn batch_norm_eval_oracle(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
    eps: f32,
) -> Tensor {
    let (n, c, spatial) = check_bn_input(x);
    assert_eq!(running_mean.len(), c, "running mean must be [C]");
    assert_eq!(running_var.len(), c, "running var must be [C]");
    let xd = x.as_slice();
    let g = gamma.as_slice();
    let bt = beta.as_slice();
    let mut out = Tensor::zeros(x.shape().clone());
    {
        let out_s = UnsafeSlice::new(out.as_mut_slice());
        let grain = (ELEMWISE_GRAIN / spatial.max(1)).max(1);
        kernels::parallel_for_work(n * c, grain, n * c * spatial, |range| {
            for idx in range {
                let ci = idx % c;
                let base = idx * spatial;
                // SAFETY: each (sample, channel) index owns a disjoint block.
                let ob = unsafe { out_s.slice_mut(base..base + spatial) };
                let is = 1.0 / (running_var[ci] + eps).sqrt();
                for i in 0..spatial {
                    ob[i] = g[ci] * (xd[base + i] - running_mean[ci]) * is + bt[ci];
                }
            }
        });
    }
    out
}

fn batch_norm_backward_oracle(
    gy: &Tensor,
    ctx: &BatchNormOutput,
    gamma: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, spatial) = check_bn_input(gy);
    let count = (n * spatial) as f32;
    let gyd = gy.as_slice();
    let xh = ctx.xhat.as_slice();
    let g = gamma.as_slice();
    let sum_gy = per_channel_sum(gyd, xh, n, c, spatial, |a, _| a);
    let sum_gy_xhat = per_channel_sum(gyd, xh, n, c, spatial, |a, b| a * b);
    let mut gx = Tensor::zeros(gy.shape().clone());
    {
        let gx_s = UnsafeSlice::new(gx.as_mut_slice());
        let grain = (ELEMWISE_GRAIN / spatial.max(1)).max(1);
        kernels::parallel_for_work(n * c, grain, n * c * spatial, |range| {
            for idx in range {
                let ci = idx % c;
                let base = idx * spatial;
                // SAFETY: each (sample, channel) index owns a disjoint block.
                let gxb = unsafe { gx_s.slice_mut(base..base + spatial) };
                let scale = g[ci] * ctx.inv_std[ci];
                let mg = sum_gy[ci] / count;
                let mgx = sum_gy_xhat[ci] / count;
                for i in 0..spatial {
                    gxb[i] = scale * (gyd[base + i] - mg - xh[base + i] * mgx);
                }
            }
        });
    }
    (
        gx,
        Tensor::from_slice(&sum_gy_xhat, [c]),
        Tensor::from_slice(&sum_gy, [c]),
    )
}

fn max_axis_with_indices_oracle(t: &Tensor, axis: usize) -> (Tensor, Vec<usize>) {
    let n = t.dim(axis);
    assert!(n > 0, "max over empty axis");
    let dims_in = t.dims();
    let outer: usize = dims_in[..axis].iter().product();
    let inner: usize = dims_in[axis + 1..].iter().product();
    let data = t.as_slice();
    let mut dims = t.dims().to_vec();
    dims.remove(axis);
    let mut out_t = Tensor::full(dims, f32::NEG_INFINITY);
    let out = out_t.as_mut_slice();
    let mut idx = vec![0usize; outer * inner];
    for o in 0..outer {
        for i in 0..inner {
            for k in 0..n {
                let v = data[(o * n + k) * inner + i];
                if v > out[o * inner + i] {
                    out[o * inner + i] = v;
                    idx[o * inner + i] = k;
                }
            }
        }
    }
    (out_t, idx)
}

// --- Harness ----------------------------------------------------------------

/// `set_num_threads` is process-global: cases serialize on this lock and
/// restore the pool size before releasing it.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `case` at 1 and at 4 worker threads.
fn at_1_and_4_threads(mut case: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let _l = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = kernels::num_threads();
    let mut result = Ok(());
    for threads in [1, 4] {
        set_num_threads(threads);
        result = case();
        if result.is_err() {
            break;
        }
    }
    set_num_threads(before);
    result
}

fn assert_bits(got: &Tensor, want: &Tensor, what: &str) -> Result<(), String> {
    prop_assert!(
        got.dims() == want.dims(),
        "{what} shape {:?} vs {:?}",
        got.dims(),
        want.dims()
    );
    assert_slice_bits(got.as_slice(), want.as_slice(), what)
}

fn assert_slice_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    prop_assert!(got.len() == want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what} element {i}: got {g:?} ({:#010x}), oracle {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

/// Every special class the branch-free selects must treat exactly as the
/// branches did: ±0, NaN, ±inf, subnormals, negatives whose `x * 0.2`
/// underflows to `-0.0` (`-1e-45`) and the largest finite values.
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

/// A tensor of ordinary values with one element in `dose` special.
fn tensor(rng: &mut Rng, dims: &[usize], dose: usize) -> Tensor {
    let n: usize = dims.iter().product();
    let v = (0..n)
        .map(|_| match rng.below(dose) {
            0 => SPECIALS[rng.below(SPECIALS.len())],
            _ => rng.uniform(-8.0, 8.0),
        })
        .collect();
    Tensor::from_vec(v, dims.to_vec())
}

/// Rank 1-4, every axis 1-5.
fn any_dims(rng: &mut Rng) -> Vec<usize> {
    (0..1 + rng.below(4)).map(|_| 1 + rng.below(5)).collect()
}

/// `[N, C, spatial...]` with N = 1 and spatial = 1 in range and C rarely
/// a multiple of 8 (the statistics interleave width).
fn bn_dims(rng: &mut Rng) -> Vec<usize> {
    let (n, c) = (1 + rng.below(3), 1 + rng.below(19));
    match rng.below(3) {
        0 => vec![n, c],
        1 => vec![n, c, 1 + rng.below(6)],
        _ => vec![n, c, 1 + rng.below(6), 1 + rng.below(5)],
    }
}

// --- Properties ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn activations_forward_equal_their_oracles(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let dims = any_dims(&mut rng);
        let x = tensor(&mut rng, &dims, 4);
        let slope = [0.2f32, 0.01, 0.0, 1.5][rng.below(4)];
        at_1_and_4_threads(|| {
            assert_bits(&x.relu(), &relu_oracle(&x), "relu")?;
            assert_bits(&x.leaky_relu(slope), &leaky_relu_oracle(&x, slope), "leaky_relu")?;
            assert_bits(&x.tanh(), &tanh_oracle(&x), "tanh")?;
            assert_bits(&x.sigmoid(), &sigmoid_oracle(&x), "sigmoid")?;
            assert_bits(&x.exp(), &exp_oracle(&x), "exp")
        })?;
    }

    #[test]
    fn batch_norm_equals_its_oracle(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let dims = bn_dims(&mut rng);
        let c = dims[1];
        // Statistics go NaN on the first non-finite input, so a smaller
        // dose keeps most cases finite.
        let x = tensor(&mut rng, &dims, 40);
        let gy = tensor(&mut rng, &dims, 40);
        let gamma = tensor(&mut rng, &[c], 40);
        let beta = tensor(&mut rng, &[c], 40);
        let rm: Vec<f32> = (0..c).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let rv: Vec<f32> = (0..c).map(|_| rng.uniform(0.0, 3.0)).collect();
        at_1_and_4_threads(|| {
            let eps = 1e-5;
            let got = batch_norm_train(&x, &gamma, &beta, eps);
            let want = batch_norm_train_oracle(&x, &gamma, &beta, eps);
            assert_bits(&got.output, &want.output, "train output")?;
            assert_bits(&got.xhat, &want.xhat, "train xhat")?;
            assert_slice_bits(&got.mean, &want.mean, "train mean")?;
            assert_slice_bits(&got.var, &want.var, "train var")?;
            assert_slice_bits(&got.inv_std, &want.inv_std, "train inv_std")?;
            let (gx, gg, gb) = batch_norm_backward(&gy, &got, &gamma);
            let (ox, og, ob) = batch_norm_backward_oracle(&gy, &want, &gamma);
            assert_bits(&gx, &ox, "backward grad_input")?;
            assert_bits(&gg, &og, "backward grad_gamma")?;
            assert_bits(&gb, &ob, "backward grad_beta")?;
            assert_bits(
                &batch_norm_eval(&x, &gamma, &beta, &rm, &rv, eps),
                &batch_norm_eval_oracle(&x, &gamma, &beta, &rm, &rv, eps),
                "eval output",
            )
        })?;
    }

    #[test]
    fn max_axis_with_indices_equals_its_oracle(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let dims = any_dims(&mut rng);
        let x = tensor(&mut rng, &dims, 4);
        let axis = rng.below(dims.len());
        at_1_and_4_threads(|| {
            let (got, got_idx) = x.max_axis_with_indices(axis);
            let (want, want_idx) = max_axis_with_indices_oracle(&x, axis);
            assert_bits(&got, &want, "max")?;
            prop_assert_eq!(got_idx, want_idx);
            Ok(())
        })?;
    }
}

/// Sizes past `ELEMWISE_GRAIN`, so the passes split into parallel chunks.
#[test]
fn large_tensors_equal_their_oracles_across_chunks() {
    let mut rng = Rng::seed_from(25);
    let finite = |t: Tensor| t.map(|v| if v.is_finite() { v } else { 0.5 });
    at_1_and_4_threads(|| {
        let x = tensor(&mut rng, &[2, 40, 1024], 16);
        assert_bits(&x.relu(), &relu_oracle(&x), "relu")?;
        assert_bits(
            &x.leaky_relu(0.2),
            &leaky_relu_oracle(&x, 0.2),
            "leaky_relu",
        )?;
        assert_bits(&x.sigmoid(), &sigmoid_oracle(&x), "sigmoid")?;
        let (m, i) = x.max_axis_with_indices(2);
        let (om, oi) = max_axis_with_indices_oracle(&x, 2);
        assert_bits(&m, &om, "max")?;
        prop_assert_eq!(i, oi);
        // Finite batch-norm inputs at a DCGAN-like size, C = 9 (not a
        // multiple of the interleave width).
        let bx = finite(tensor(&mut rng, &[2, 9, 64, 64], 16));
        let gy = finite(tensor(&mut rng, &[2, 9, 64, 64], 16));
        let gamma = finite(tensor(&mut rng, &[9], 16));
        let beta = finite(tensor(&mut rng, &[9], 16));
        let got = batch_norm_train(&bx, &gamma, &beta, 1e-5);
        let want = batch_norm_train_oracle(&bx, &gamma, &beta, 1e-5);
        assert_bits(&got.output, &want.output, "train output")?;
        let (gx, gg, gb) = batch_norm_backward(&gy, &got, &gamma);
        let (ox, og, ob) = batch_norm_backward_oracle(&gy, &want, &gamma);
        assert_bits(&gx, &ox, "grad_input")?;
        assert_bits(&gg, &og, "grad_gamma")?;
        assert_bits(&gb, &ob, "grad_beta")
    })
    .unwrap();
}
