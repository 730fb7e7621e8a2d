//! Batch normalization forward/backward kernels.
//!
//! Normalizes over all axes except the channel axis (axis 1), covering the
//! `BatchNorm1d` (`[N, C]` / `[N, C, L]`) and `BatchNorm2d` (`[N, C, H, W]`)
//! cases. The HFTA fusion of `B` batch-norms simply widens the channel axis
//! to `B * C` — these kernels are oblivious to the fusion. The `*_grouped`
//! forms read `[G, N, C, spatial…]` with channel `(g, c)` at `g * C + c`
//! (the array format `[B, N, F]`); every pass indexes channels through that
//! group axis, conv format being one group.
//!
//! Every per-channel statistic pair — forward `(Σx, Σx²)`, training
//! backward `(Σgy, Σgy·x̂)`, evaluation backward `(Σgy·x̂, Σgy)` — comes
//! from one pass: across each sample's contiguous channels when rows have
//! one element, else over each sample's rows of `LINES` channels on
//! `lines::fold`. Each chain keeps one fixed order (elements ascending
//! within a sample; training statistics add per-sample partials from
//! `+0.0` into a cross-sample total, the evaluation backward runs one chain
//! across samples), so results are bit-identical to one channel at a time
//! and at any thread count; the conv1d bias gradient is the same pass's
//! `Σgy`. The map passes read a channel's constants once per row.

use crate::lines::{self, LINES};
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

/// `(G, N, C, spatial)` of a `[G, N, C, spatial…]` operand.
pub(crate) type Dims = (usize, usize, usize, usize);

/// The extents of `x`: `[N, C, spatial…]`, after a group axis of `G` when
/// `groups` is `Some(G)`.
fn check_bn_input(x: &Tensor, groups: Option<usize>) -> Dims {
    let (lead, g) = (usize::from(groups.is_some()), groups.unwrap_or(1));
    assert!(
        (2 + lead..=4 + lead).contains(&x.rank()) && (lead == 0 || x.dim(0) == g),
        "batch_norm input must be [N, C], [N, C, L] or [N, C, H, W], after [{g}] if grouped"
    );
    let d = &x.dims()[lead..];
    let spatial: usize = d[2..].iter().product();
    assert!(d[0] * spatial > 0, "batch_norm over empty batch");
    (g, d[0], d[1], spatial)
}

fn check_channels(t: &[f32], (g, _, c, _): Dims, what: &str) {
    assert_eq!(t.len(), g * c, "{what} must be [C]");
}

/// `(first, len)` of the pieces of `start..start + len` cut at multiples of
/// `c`: runs of channels within one group, or of rows within one sample.
fn runs(start: usize, len: usize, c: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        let first = at;
        at = ((at / c + 1) * c).min(end);
        (first < end).then_some((first, at - first))
    })
}

/// Per-channel sums of `f(k, values)`, `k` the channel's entries of
/// `consts`: with `partials` a sum per sample from `+0.0` added into the
/// total, else one chain across samples. Channels spread across the worker
/// pool, about [`ELEMWISE_GRAIN`] elements per chunk.
pub(crate) fn channel_sums<const S: usize, const M: usize, const N: usize>(
    srcs: [&[f32]; S],
    dims @ (_, n, c, spatial): Dims,
    consts: [&[f32]; M],
    partials: bool,
    f: impl Fn([f32; M], [f32; S]) -> [f32; N] + Sync,
) -> Vec<[f32; N]> {
    let mut out = vec![[0.0f32; N]; dims.0 * c];
    let grain = (ELEMWISE_GRAIN / (n * spatial).max(1))
        .max(1)
        .next_multiple_of(LINES);
    kernels::for_each_chunk_mut(&mut out, grain, |start, chunk| {
        for (ch0, len) in runs(start, chunk.len(), c) {
            let sums = &mut chunk[ch0 - start..][..len];
            let k = consts.map(|t| &t[ch0..ch0 + len]);
            // Sample `ni`'s rows of this run start here.
            let row = |ni: usize| ((ch0 / c * n + ni) * c + ch0 % c) * spatial;
            if spatial == 1 {
                for ni in 0..n {
                    sums_across(sums, srcs.map(|s| &s[row(ni)..][..len]), k, &f);
                }
                continue;
            }
            for (b, sums) in sums.chunks_mut(LINES).enumerate() {
                let lanes = sums.len();
                let kb: [[f32; LINES]; M] =
                    k.map(|t| std::array::from_fn(|j| t[b * LINES + j.min(lanes - 1)]));
                let mut acc = [[0.0f32; LINES]; N];
                for ni in 0..n {
                    let at = row(ni) + b * LINES * spatial;
                    let zero = [[0.0f32; LINES]; N];
                    let start = if partials { zero } else { acc };
                    let got =
                        lines::fold(srcs, (at, lanes, spatial, spatial), start, |mut s, _, v| {
                            for j in 0..LINES {
                                let q = f(kb.map(|t| t[j]), std::array::from_fn(|i| v[i][j]));
                                for (sum, q) in s.iter_mut().zip(q) {
                                    sum[j] += q;
                                }
                            }
                            s
                        });
                    if !partials {
                        acc = got;
                        continue;
                    }
                    for (t, p) in acc.iter_mut().flatten().zip(got.iter().flatten()) {
                        *t += p;
                    }
                }
                for (j, s) in sums.iter_mut().enumerate() {
                    *s = std::array::from_fn(|i| acc[i][j]);
                }
            }
        }
    });
    out
}

/// `sums[j] += f(k[j], v[j])` over one sample's one-element rows, out of
/// line so `sums` arrives as a `&mut` argument. A one-element partial
/// `0.0 + q` differs from `q` only at `q = -0.0`, and a sum that starts at
/// `+0.0` is never `-0.0`, so adding either gives the same bits.
#[inline(never)]
fn sums_across<const S: usize, const M: usize, const N: usize>(
    sums: &mut [[f32; N]],
    v: [&[f32]; S],
    k: [&[f32]; M],
    f: &impl Fn([f32; M], [f32; S]) -> [f32; N],
) {
    for (j, sum) in sums.iter_mut().enumerate() {
        let q = f(k.map(|t| t[j]), v.map(|t| t[j]));
        for (s, q) in sum.iter_mut().zip(q) {
            *s += q;
        }
    }
}

/// Sum `i` of every channel, as a `[C]` tensor.
fn sum_tensor<const N: usize>(sums: &[[f32; N]], i: usize) -> Tensor {
    let v: Vec<f32> = sums.iter().map(|s| s[i]).collect();
    Tensor::from_slice(&v, [sums.len()])
}

/// Writes every element of `out` as `f(k, a, b)` of the same position in
/// `a` and `b`, `k` its channel's entries of the `consts` tables; rows
/// spread across the worker pool. Each element is written once, so `out`
/// may start unfilled.
fn map_rows<const M: usize>(
    out: &mut Tensor,
    (a, b): (&[f32], &[f32]),
    (_, n, c, spatial): Dims,
    consts: [&[f32]; M],
    f: impl Fn([f32; M], f32, f32) -> f32 + Sync,
) {
    let grain = (ELEMWISE_GRAIN / spatial).max(1) * spatial;
    kernels::for_each_chunk_mut(out.as_mut_slice(), grain, |start, chunk| {
        for (r0, rows) in runs(start / spatial, chunk.len() / spatial, c) {
            let span = r0 * spatial - start..(r0 + rows) * spatial - start;
            let (a, b) = (&a[start..][span.clone()], &b[start..][span.clone()]);
            let ch0 = r0 / (n * c) * c + r0 % c;
            let k = consts.map(|t| &t[ch0..ch0 + rows]);
            rows_into(&mut chunk[span], (a, b), spatial, k, &f);
        }
    });
}

/// The loop of [`map_rows`] over rows of consecutive channels, out of line
/// so `out` arrives as a `&mut` argument: only then is it known not to
/// alias the inputs or the tables, and the rows vectorize.
#[inline(never)]
fn rows_into<const M: usize>(
    out: &mut [f32],
    (a, b): (&[f32], &[f32]),
    spatial: usize,
    k: [&[f32]; M],
    f: &impl Fn([f32; M], f32, f32) -> f32,
) {
    if spatial == 1 {
        for (j, ((o, &x), &y)) in out.iter_mut().zip(a).zip(b).enumerate() {
            *o = f(k.map(|t| t[j]), x, y);
        }
        return;
    }
    let rows = out
        .chunks_exact_mut(spatial)
        .zip(a.chunks_exact(spatial))
        .zip(b.chunks_exact(spatial));
    for (j, ((o, a), b)) in rows.enumerate() {
        let k = k.map(|t| t[j]);
        for ((o, &x), &y) in o.iter_mut().zip(a).zip(b) {
            *o = f(k, x, y);
        }
    }
}

/// Batch normalization in **training** mode over a conv-format input.
///
/// `gamma`/`beta` are per-channel scale and shift (`[C]`). Returns the
/// output plus the statistics needed for [`batch_norm_backward`] and for
/// running-average updates (which the caller owns).
///
/// # Panics
///
/// Panics on rank/shape inconsistencies.
pub fn batch_norm_train(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> BatchNormOutput {
    batch_norm_train_grouped(x, None, gamma, beta, eps)
}

/// [`batch_norm_train`] over `x [G, N, C, spatial…]` when `groups` is
/// `Some(G)`, `gamma`/`beta` then `[G * C]`.
pub fn batch_norm_train_grouped(
    x: &Tensor,
    groups: Option<usize>,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> BatchNormOutput {
    let dims @ (_, n, _, spatial) = check_bn_input(x, groups);
    let (g, bt) = (gamma.as_slice(), beta.as_slice());
    check_channels(g, dims, "gamma");
    check_channels(bt, dims, "beta");
    let count = (n * spatial) as f32;
    let xd = x.as_slice();
    let sums = channel_sums([xd], dims, [], true, |_, [v]| [v, v * v]);
    let mean: Vec<f32> = sums.iter().map(|s| s[0] / count).collect();
    let var: Vec<f32> = sums
        .iter()
        .zip(&mean)
        .map(|(s, m)| (s[1] / count - m * m).max(0.0))
        .collect();
    let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let mut xhat = Tensor::unfilled(x.shape().clone());
    map_rows(
        &mut xhat,
        (xd, xd),
        dims,
        [&mean, &inv_std],
        |[m, is], v, _| (v - m) * is,
    );
    let mut out = Tensor::unfilled(x.shape().clone());
    let xh = xhat.as_slice();
    map_rows(&mut out, (xh, xh), dims, [g, bt], |[g, b], h, _| g * h + b);
    BatchNormOutput {
        output: out,
        xhat,
        inv_std,
        mean,
        var,
    }
}

/// `1 / sqrt(running_var + eps)` per channel: the evaluation forward's and
/// backward's scale.
pub fn eval_inv_std(running_var: &[f32], eps: f32) -> Vec<f32> {
    running_var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect()
}

/// Batch normalization in **evaluation** mode over a conv-format input,
/// using provided running statistics.
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
    let inv_std = eval_inv_std(running_var, eps);
    batch_norm_eval_grouped(x, None, gamma, beta, running_mean, &inv_std)
}

/// [`batch_norm_eval`] over `x [G, N, C, spatial…]` when `groups` is
/// `Some(G)`, with the running variance as [`eval_inv_std`].
pub fn batch_norm_eval_grouped(
    x: &Tensor,
    groups: Option<usize>,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &[f32],
    inv_std: &[f32],
) -> Tensor {
    let dims = check_bn_input(x, groups);
    check_channels(running_mean, dims, "running mean");
    check_channels(inv_std, dims, "running var");
    let xd = x.as_slice();
    let consts = [gamma.as_slice(), running_mean, inv_std, beta.as_slice()];
    let mut out = Tensor::unfilled(x.shape().clone());
    map_rows(&mut out, (xd, xd), dims, consts, |[g, m, is, b], v, _| {
        g * (v - m) * is + b
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
    batch_norm_backward_grouped(gy, None, ctx, gamma)
}

/// Gradients of [`batch_norm_train_grouped`] over the same `groups`.
pub fn batch_norm_backward_grouped(
    gy: &Tensor,
    groups: Option<usize>,
    ctx: &BatchNormOutput,
    gamma: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let dims @ (_, n, _, spatial) = check_bn_input(gy, groups);
    let count = (n * spatial) as f32;
    let (gyd, xh) = (gy.as_slice(), ctx.xhat.as_slice());
    let sums = channel_sums([gyd, xh], dims, [], true, |_, [a, b]| [a, a * b]);
    // Per channel: scale, mean of gy, mean of gy * x̂.
    let scale: Vec<f32> = gamma
        .as_slice()
        .iter()
        .zip(&ctx.inv_std)
        .map(|(g, s)| g * s)
        .collect();
    let (mg, mgx): (Vec<f32>, Vec<f32>) = sums.iter().map(|s| (s[0] / count, s[1] / count)).unzip();
    let mut gx = Tensor::unfilled(gy.shape().clone());
    map_rows(
        &mut gx,
        (gyd, xh),
        dims,
        [&scale, &mg, &mgx],
        |[s, mg, mgx], gv, h| s * (gv - mg - h * mgx),
    );
    (gx, sum_tensor(&sums, 1), sum_tensor(&sums, 0))
}

/// Gradients of [`batch_norm_eval`] — `y = gamma * (x - rm) * inv_std +
/// beta` with the running statistics held constant — as `(grad_input,
/// grad_gamma, grad_beta)`.
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
    let inv_std = eval_inv_std(running_var, eps);
    batch_norm_eval_backward_grouped(gy, x, None, gamma, running_mean, &inv_std)
}

/// Gradients of [`batch_norm_eval_grouped`] over the same `groups` and
/// `inv_std`. `x̂ = (x - rm) * inv_std` is recomputed from `x` inside the
/// statistics pass; each channel's two sums run as one chain across
/// samples.
pub fn batch_norm_eval_backward_grouped(
    gy: &Tensor,
    x: &Tensor,
    groups: Option<usize>,
    gamma: &Tensor,
    running_mean: &[f32],
    inv_std: &[f32],
) -> (Tensor, Tensor, Tensor) {
    let dims = check_bn_input(gy, groups);
    assert_eq!(
        x.shape(),
        gy.shape(),
        "batch_norm input/grad shape mismatch"
    );
    check_channels(running_mean, dims, "running mean");
    check_channels(inv_std, dims, "running var");
    let (gyd, xd) = (gy.as_slice(), x.as_slice());
    let stats = [running_mean, inv_std];
    let sums = channel_sums([gyd, xd], dims, stats, false, |[m, is], [gv, v]| {
        [gv * ((v - m) * is), gv]
    });
    let mut gx = Tensor::unfilled(gy.shape().clone());
    map_rows(
        &mut gx,
        (gyd, gyd),
        dims,
        [gamma.as_slice(), inv_std],
        |[g, is], d, _| d * g * is,
    );
    (gx, sum_tensor(&sums, 0), sum_tensor(&sums, 1))
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every pass over `[G, N, C, spatial…]` equals the same pass over its
    /// conv-format copy `[N, G * C, spatial…]`, bit for bit: one-element
    /// and longer rows, runs of channels that cross chunk boundaries, at 1,
    /// 2 and 4 threads.
    #[test]
    fn grouped_layout_equals_its_conv_format_copy() {
        let mut rng = crate::Rng::seed_from(9);
        for dims in [
            vec![3, 2, 5],
            vec![8, 2, 32],
            vec![5, 3, 7, 4],
            vec![2, 2, 9, 3, 3],
            vec![3, 1500, 11],
            vec![2, 40, 13, 40],
        ] {
            let (g, c) = (dims[0], dims[2]);
            let mut order: Vec<usize> = (0..dims.len()).collect();
            order.swap(0, 1);
            let to_conv = |t: &Tensor| {
                let mut d = t.dims().to_vec();
                let p = t.permute(&order);
                d.remove(0);
                d[1] *= g;
                p.reshape(&d)
            };
            let x = rng.randn(dims.clone());
            let gy = rng.randn(dims.clone());
            let (gamma, beta) = (rng.rand([g * c], 0.5, 1.5), rng.randn([g * c]));
            let rm = rng.randn([g * c]).to_vec();
            let inv_std = eval_inv_std(&rng.rand([g * c], 0.5, 2.0).to_vec(), 1e-5);
            let (xc, gyc) = (to_conv(&x), to_conv(&gy));
            crate::thread_counts::each(|threads| {
                let at = format!("{dims:?} at {threads} threads");
                let got = batch_norm_train_grouped(&x, Some(g), &gamma, &beta, 1e-5);
                let want = batch_norm_train(&xc, &gamma, &beta, 1e-5);
                assert_eq!(bits(&to_conv(&got.output)), bits(&want.output), "{at}");
                assert_eq!(bits(&to_conv(&got.xhat)), bits(&want.xhat), "{at}");
                let got = batch_norm_backward_grouped(&gy, Some(g), &got, &gamma);
                let want = batch_norm_backward(&gyc, &want, &gamma);
                assert_eq!(bits(&to_conv(&got.0)), bits(&want.0), "{at}");
                assert_eq!((bits(&got.1), bits(&got.2)), (bits(&want.1), bits(&want.2)));
                let got = batch_norm_eval_grouped(&x, Some(g), &gamma, &beta, &rm, &inv_std);
                let want = batch_norm_eval_grouped(&xc, None, &gamma, &beta, &rm, &inv_std);
                assert_eq!(bits(&to_conv(&got)), bits(&want), "{at}");
                let got = batch_norm_eval_backward_grouped(&gy, &x, Some(g), &gamma, &rm, &inv_std);
                let want = batch_norm_eval_backward_grouped(&gyc, &xc, None, &gamma, &rm, &inv_std);
                assert_eq!(bits(&to_conv(&got.0)), bits(&want.0), "{at}");
                assert_eq!((bits(&got.1), bits(&got.2)), (bits(&want.1), bits(&want.2)));
            });
        }
    }
}
