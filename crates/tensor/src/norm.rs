//! Batch normalization forward/backward kernels.
//!
//! Normalizes over all axes except the channel axis (axis 1), covering the
//! `BatchNorm1d` (`[N, C]` / `[N, C, L]`) and `BatchNorm2d` (`[N, C, H, W]`)
//! cases. The HFTA fusion of `B` batch-norms simply widens the channel axis
//! to `B * C` — these kernels are oblivious to the fusion.
//!
//! Every per-channel statistic pair — forward `(Σx, Σx²)`, training
//! backward `(Σgy, Σgy·x̂)`, evaluation backward `(Σgy·x̂, Σgy)` — comes
//! from one pass that advances [`CHAINS`] channels' accumulation chains
//! together. Each chain keeps one fixed order (elements ascending within a
//! sample; training statistics add per-sample partials into a
//! cross-sample total, the evaluation backward runs one chain across
//! samples), so results are bit-identical to one channel at a time and at
//! any thread count; interleaving only lets the independent adds overlap
//! in the pipeline instead of each waiting on its predecessor.

use crate::tensor::{Tensor, ELEMWISE_GRAIN};
use hfta_kernels as kernels;

/// Saved context from a batch-norm forward pass, consumed by
/// [`batch_norm_backward`].
#[derive(Debug, Clone)]
pub struct BatchNormOutput {
    /// Normalized, scaled and shifted output (same shape as the input).
    pub output: Tensor,
    /// The normalized activations `(x - mean) / sqrt(var + eps)`.
    pub xhat: Tensor,
    /// Per-channel `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Per-channel batch mean (biased).
    pub mean: Vec<f32>,
    /// Per-channel batch variance (biased).
    pub var: Vec<f32>,
}

/// Channels whose accumulation chains one statistics pass advances
/// together.
const CHAINS: usize = 8;

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

/// The two sums of each lane of a channel block: `[Σ p; CHAINS]`,
/// `[Σ q; CHAINS]`. Two arrays, not pairs, so each sum's lanes sit side by
/// side and their adds vectorize.
type BlockSums = [[f32; CHAINS]; 2];

/// Per-channel statistic pairs: `block(channels)` computes the sums of one
/// block of [`CHAINS`] channels (a tail block repeats its last channel in
/// the spare lanes, whose results are dropped); blocks spread across the
/// worker pool, about [`ELEMWISE_GRAIN`] elements per chunk.
fn per_channel(
    (n, c, spatial): (usize, usize, usize),
    block: impl Fn([usize; CHAINS]) -> BlockSums + Sync,
) -> Vec<[f32; 2]> {
    let mut out = vec![[0.0f32; 2]; c];
    let grain = (ELEMWISE_GRAIN / (n * spatial))
        .max(1)
        .next_multiple_of(CHAINS);
    kernels::for_each_chunk_mut(&mut out, grain, |start, chunk| {
        for (k, pairs) in chunk.chunks_mut(CHAINS).enumerate() {
            let c0 = start + k * CHAINS;
            let last = c0 + pairs.len() - 1;
            let [p, q] = block(std::array::from_fn(|j| (c0 + j).min(last)));
            for (j, pair) in pairs.iter_mut().enumerate() {
                *pair = [p[j], q[j]];
            }
        }
    });
    out
}

/// Sample `ni`'s row of each channel in `channels`, as slices of `data`.
fn rows(
    data: &[f32],
    ni: usize,
    channels: [usize; CHAINS],
    (c, spatial): (usize, usize),
) -> [&[f32]; CHAINS] {
    channels.map(|ci| &data[(ni * c + ci) * spatial..][..spatial])
}

/// `sums` plus `f(lane, a, b)` at every position of one sample's rows,
/// added into the lanes' two chains in position order.
#[inline(always)]
fn accumulate(
    mut sums: BlockSums,
    a: [&[f32]; CHAINS],
    b: [&[f32]; CHAINS],
    f: impl Fn(usize, f32, f32) -> (f32, f32),
) -> BlockSums {
    for i in 0..a[0].len() {
        let va: [f32; CHAINS] = std::array::from_fn(|j| a[j][i]);
        let vb: [f32; CHAINS] = std::array::from_fn(|j| b[j][i]);
        for j in 0..CHAINS {
            let (p, q) = f(j, va[j], vb[j]);
            sums[0][j] += p;
            sums[1][j] += q;
        }
    }
    sums
}

/// Per-channel `[Σ p, Σ q]` of `(p, q) = f(a, b)` over each channel's
/// elements: a partial per sample, then the cross-sample total.
fn channel_sums(
    a: &[f32],
    b: &[f32],
    dims: (usize, usize, usize),
    f: impl Fn(f32, f32) -> (f32, f32) + Sync,
) -> Vec<[f32; 2]> {
    let (n, c, spatial) = dims;
    per_channel(dims, |channels| {
        let mut total = [[0.0f32; CHAINS]; 2];
        for ni in 0..n {
            let (ra, rb) = (
                rows(a, ni, channels, (c, spatial)),
                rows(b, ni, channels, (c, spatial)),
            );
            let partial = accumulate([[0.0; CHAINS]; 2], ra, rb, |_, x, y| f(x, y));
            for (t, p) in total.iter_mut().flatten().zip(partial.iter().flatten()) {
                *t += p;
            }
        }
        total
    })
}

/// Writes every element of `out` as `f(channel, a, b)` of the same
/// position in `a` and `b`, rows spread across the worker pool. Each
/// element is written once, so `out` may start unfilled.
fn map_rows(
    out: &mut Tensor,
    a: &[f32],
    b: &[f32],
    (_, c, spatial): (usize, usize, usize),
    f: impl Fn(usize, f32, f32) -> f32 + Sync,
) {
    let grain = (ELEMWISE_GRAIN / spatial).max(1) * spatial;
    kernels::for_each_chunk_mut(out.as_mut_slice(), grain, |start, chunk| {
        let span = start..start + chunk.len();
        rows_into(
            chunk,
            &a[span.clone()],
            &b[span],
            (start / spatial, c, spatial),
            &f,
        );
    });
}

/// The loop of [`map_rows`] over whole rows from row `row0`, out of line
/// so `out` arrives as a `&mut` argument: only then is it known not to
/// alias the inputs or `f`'s per-channel tables, and the rows vectorize.
#[inline(never)]
fn rows_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    (row0, c, spatial): (usize, usize, usize),
    f: &impl Fn(usize, f32, f32) -> f32,
) {
    let rows = out
        .chunks_mut(spatial)
        .zip(a.chunks(spatial))
        .zip(b.chunks(spatial));
    for (k, ((o, a), b)) in rows.enumerate() {
        let ci = (row0 + k) % c;
        for ((o, &x), &y) in o.iter_mut().zip(a).zip(b) {
            *o = f(ci, x, y);
        }
    }
}

/// Batch normalization in **training** mode.
///
/// `gamma`/`beta` are per-channel scale and shift (`[C]`). Returns the
/// output plus the statistics needed for [`batch_norm_backward`] and for
/// running-average updates (which the caller owns).
///
/// # Panics
///
/// Panics on rank/shape inconsistencies.
pub fn batch_norm_train(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> BatchNormOutput {
    let dims @ (n, c, spatial) = check_bn_input(x);
    assert_eq!(gamma.dims(), &[c], "gamma must be [C]");
    assert_eq!(beta.dims(), &[c], "beta must be [C]");
    let count = (n * spatial) as f32;
    let xd = x.as_slice();
    let sums = channel_sums(xd, xd, dims, |v, _| (v, v * v));
    let mean: Vec<f32> = sums.iter().map(|s| s[0] / count).collect();
    let var: Vec<f32> = sums
        .iter()
        .zip(&mean)
        .map(|(s, m)| (s[1] / count - m * m).max(0.0))
        .collect();
    let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let (g, bt) = (gamma.as_slice(), beta.as_slice());
    let mut xhat = Tensor::unfilled(x.shape().clone());
    map_rows(&mut xhat, xd, xd, dims, |ci, v, _| {
        (v - mean[ci]) * inv_std[ci]
    });
    let mut out = Tensor::unfilled(x.shape().clone());
    let xh = xhat.as_slice();
    map_rows(&mut out, xh, xh, dims, |ci, h, _| g[ci] * h + bt[ci]);
    BatchNormOutput {
        output: out,
        xhat,
        inv_std,
        mean,
        var,
    }
}

/// Batch normalization in **evaluation** mode, using provided running
/// statistics.
///
/// # Panics
///
/// Panics on rank/shape inconsistencies.
pub fn batch_norm_eval(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
    eps: f32,
) -> Tensor {
    let dims @ (_, c, _) = check_bn_input(x);
    assert_eq!(running_mean.len(), c, "running mean must be [C]");
    assert_eq!(running_var.len(), c, "running var must be [C]");
    let xd = x.as_slice();
    let (g, bt) = (gamma.as_slice(), beta.as_slice());
    let inv_std: Vec<f32> = running_var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let mut out = Tensor::unfilled(x.shape().clone());
    map_rows(&mut out, xd, xd, dims, |ci, v, _| {
        g[ci] * (v - running_mean[ci]) * inv_std[ci] + bt[ci]
    });
    out
}

/// Gradients of [`batch_norm_train`]: `(grad_input, grad_gamma, grad_beta)`.
///
/// # Panics
///
/// Panics on rank/shape inconsistencies.
pub fn batch_norm_backward(
    gy: &Tensor,
    ctx: &BatchNormOutput,
    gamma: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let dims @ (n, c, spatial) = check_bn_input(gy);
    let count = (n * spatial) as f32;
    let gyd = gy.as_slice();
    let xh = ctx.xhat.as_slice();
    let g = gamma.as_slice();
    let sums = channel_sums(gyd, xh, dims, |a, b| (a, a * b));
    // Per channel: scale, mean of gy, mean of gy * x̂.
    let coef: Vec<[f32; 3]> = (0..c)
        .map(|ci| {
            [
                g[ci] * ctx.inv_std[ci],
                sums[ci][0] / count,
                sums[ci][1] / count,
            ]
        })
        .collect();
    let mut gx = Tensor::unfilled(gy.shape().clone());
    map_rows(&mut gx, gyd, xh, dims, |ci, gv, h| {
        let [scale, mg, mgx] = coef[ci];
        scale * (gv - mg - h * mgx)
    });
    let (sum_gy, sum_gy_xhat): (Vec<f32>, Vec<f32>) = sums.iter().map(|s| (s[0], s[1])).unzip();
    (
        gx,
        Tensor::from_slice(&sum_gy_xhat, [c]),
        Tensor::from_slice(&sum_gy, [c]),
    )
}

/// Gradients of [`batch_norm_eval`] — `y = gamma * (x - rm) * inv_std +
/// beta` with the running statistics held constant — as `(grad_input,
/// grad_gamma, grad_beta)`. `x̂ = (x - rm) * inv_std` is recomputed from
/// `x` inside the statistics pass; each channel's two sums run as one
/// chain across samples.
///
/// # Panics
///
/// Panics on rank/shape inconsistencies.
pub fn batch_norm_eval_backward(
    gy: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    running_mean: &[f32],
    running_var: &[f32],
    eps: f32,
) -> (Tensor, Tensor, Tensor) {
    let dims @ (n, c, spatial) = check_bn_input(gy);
    assert_eq!(
        x.shape(),
        gy.shape(),
        "batch_norm input/grad shape mismatch"
    );
    assert_eq!(running_mean.len(), c, "running mean must be [C]");
    assert_eq!(running_var.len(), c, "running var must be [C]");
    let inv_std: Vec<f32> = running_var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let (gyd, xd, g) = (gy.as_slice(), x.as_slice(), gamma.as_slice());
    let sums = per_channel(dims, |channels| {
        let (m, is) = (
            channels.map(|ci| running_mean[ci]),
            channels.map(|ci| inv_std[ci]),
        );
        (0..n).fold([[0.0; CHAINS]; 2], |acc, ni| {
            let (rg, rx) = (
                rows(gyd, ni, channels, (c, spatial)),
                rows(xd, ni, channels, (c, spatial)),
            );
            accumulate(acc, rg, rx, |j, gv, v| (gv * ((v - m[j]) * is[j]), gv))
        })
    });
    let mut gx = Tensor::unfilled(gy.shape().clone());
    map_rows(&mut gx, gyd, gyd, dims, |ci, d, _| d * g[ci] * inv_std[ci]);
    let (ggamma, gbeta): (Vec<f32>, Vec<f32>) = sums.iter().map(|s| (s[0], s[1])).unzip();
    (
        gx,
        Tensor::from_slice(&ggamma, [c]),
        Tensor::from_slice(&gbeta, [c]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [4, 2]);
        let r = batch_norm_train(&x, &Tensor::ones([2]), &Tensor::zeros([2]), 1e-5);
        // Per-channel mean ~ 0.
        let m0 = r.output.narrow(1, 0, 1).mean().item();
        assert!(m0.abs() < 1e-6);
        // Per-channel var ~ 1.
        let v = r.output.narrow(1, 0, 1).square().mean().item();
        assert!((v - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gamma_beta_apply_affine() {
        let x = Tensor::from_vec(vec![0.0, 10.0, 2.0, 10.0], [2, 2]);
        let gamma = Tensor::from_vec(vec![3.0, 1.0], [2]);
        let beta = Tensor::from_vec(vec![1.0, -1.0], [2]);
        let r = batch_norm_train(&x, &gamma, &beta, 1e-5);
        // Channel 0: values 0, 2 → xhat ±1 → out 1 ∓ 3.
        assert!((r.output.at(&[0, 0]) - (1.0 - 3.0)).abs() < 1e-3);
        assert!((r.output.at(&[1, 0]) - (1.0 + 3.0)).abs() < 1e-3);
        // Channel 1 is constant → xhat 0 → out = beta.
        assert!((r.output.at(&[0, 1]) + 1.0).abs() < 1e-3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let x = Tensor::from_vec(vec![2.0, 4.0], [1, 2]);
        let y = batch_norm_eval(
            &x,
            &Tensor::ones([2]),
            &Tensor::zeros([2]),
            &[0.0, 0.0],
            &[1.0, 4.0],
            0.0,
        );
        assert!((y.at(&[0, 0]) - 2.0).abs() < 1e-6);
        assert!((y.at(&[0, 1]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn backward_grads_sum_to_zero_for_input() {
        // BN output is invariant to constant input shifts, so grad_input
        // must sum to ~0 per channel for any upstream gradient.
        let x = Tensor::from_vec(
            (0..24).map(|i| (i as f32 * 0.7).sin()).collect::<Vec<_>>(),
            [2, 3, 4],
        );
        let gamma = Tensor::from_vec(vec![1.0, 2.0, 0.5], [3]);
        let r = batch_norm_train(&x, &gamma, &Tensor::zeros([3]), 1e-5);
        let gy = Tensor::from_vec(
            (0..24).map(|i| (i as f32 * 0.3).cos()).collect::<Vec<_>>(),
            [2, 3, 4],
        );
        let (gx, ggamma, gbeta) = batch_norm_backward(&gy, &r, &gamma);
        for ci in 0..3 {
            let s = gx.narrow(1, ci, 1).sum().item();
            assert!(s.abs() < 1e-4, "channel {ci} grad sum {s}");
        }
        assert_eq!(ggamma.dims(), &[3]);
        assert_eq!(gbeta.dims(), &[3]);
        // grad_beta is the plain per-channel sum of gy.
        let expect_b = gy.sum_axis(2, false).sum_axis(0, false);
        assert!(gbeta.allclose(&expect_b, 1e-5));
    }

    #[test]
    fn numeric_gradient_check_input() {
        // Central differences on a scalar loss sum(bn(x) * w).
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, -0.4, 0.9], [3, 2]);
        let gamma = Tensor::from_vec(vec![1.5, 0.8], [2]);
        let beta = Tensor::from_vec(vec![0.1, -0.2], [2]);
        let wts = Tensor::from_vec(vec![0.2, -0.5, 0.7, 0.4, -0.1, 0.3], [3, 2]);
        let loss = |x: &Tensor| -> f32 {
            batch_norm_train(x, &gamma, &beta, 1e-5)
                .output
                .mul(&wts)
                .sum()
                .item()
        };
        let r = batch_norm_train(&x, &gamma, &beta, 1e-5);
        let (gx, _, _) = batch_norm_backward(&wts, &r, &gamma);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = gx.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2,
                "element {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn fused_widened_channel_equals_per_model() {
        // HFTA identity: BN over [N, B*C, ...] with stacked gamma/beta equals
        // per-model BNs (per-channel statistics are independent).
        let x0 = Tensor::from_vec((0..8).map(|i| i as f32).collect::<Vec<_>>(), [2, 2, 2]);
        let x1 = Tensor::from_vec(
            (0..8).map(|i| (i * i) as f32 * 0.1).collect::<Vec<_>>(),
            [2, 2, 2],
        );
        let g = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], [2]);
        let y0 = batch_norm_train(&x0, &g, &b, 1e-5).output;
        let y1 = batch_norm_train(&x1, &g, &b, 1e-5).output;
        let xf = Tensor::concat(&[&x0, &x1], 1);
        let gf = Tensor::concat(&[&g, &g], 0);
        let bf = Tensor::concat(&[&b, &b], 0);
        let yf = batch_norm_train(&xf, &gf, &bf, 1e-5).output;
        let expect = Tensor::concat(&[&y0, &y1], 1);
        assert!(yf.allclose(&expect, 1e-5));
    }
}
