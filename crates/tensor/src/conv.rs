//! Convolution kernels with **group support** and their gradients.
//!
//! Grouped convolution is the cornerstone of HFTA: the horizontal fusion of
//! `B` convolutions with `G = g` groups is one convolution with `G = B * g`
//! groups over channel-concatenated inputs (Table 6 of the paper). Both the
//! serial and fused paths in this workspace execute through these kernels.
//!
//! # One path, no column matrix
//!
//! On a padded image im2col is *separable*: `cols[(ci,u,v), (oy,ox)] =
//! img[koff[(ci,u,v)] + soff[(oy,ox)]]` with `koff = (ci*hp + u)*wp + v` and
//! `soff = oy*sh*wp + ox*sw`. Each op builds the two tables once per call and
//! hands them to `hfta-kernels` with each (sample, group) image block: the
//! forward pass and the weight gradient *gather* their GEMM operand through
//! them as it is packed ([`kernels::gemm_gather`]; the weight gradient wants
//! `cols^T`, the same tables swapped), the input gradient — hence the
//! transposed convolution's forward — *scatter-adds* `w^T @ gy` through them
//! ([`kernels::gemm_tn_scatter`]). That sink adds one finished row strip at a
//! time in ascending `(ci,u,v)`, the order in which a `col2im` pass hands
//! each pixel its taps, so every op is bit-identical to pad → im2col → GEMM →
//! col2im (the oracle the tests keep) without ever writing the columns.
//!
//! A 1x1, stride-1, unpadded convolution's tables are the identity: its image
//! block *is* the operand and goes to [`kernels::gemm()`] / [`kernels::gemm_nt`]
//! as is. Its input gradient still scatters — adding into the zeroed image is
//! what turns a `-0.0` product into `+0.0`.

use crate::tensor::Tensor;
use hfta_kernels::{self as kernels, Offsets, UnsafeSlice};

/// Target FLOPs per parallel chunk when fanning out over (sample, group)
/// blocks. A pure function of the problem shape — never of the thread
/// count — so chunk boundaries (and therefore results) are identical on
/// any pool size.
const PAR_CHUNK_FLOPS: usize = 1 << 19;

/// Chunk size (in `(sample, group)` blocks) for `per_block_flops` each.
fn block_grain(per_block_flops: usize, n_blocks: usize) -> usize {
    PAR_CHUNK_FLOPS
        .checked_div(per_block_flops)
        .map_or(n_blocks.max(1), |g| g.clamp(1, n_blocks.max(1)))
}

/// Configuration for 2-D (de)convolutions: `(height, width)` stride and
/// zero-padding, plus channel groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvCfg {
    /// Stride as `(stride_h, stride_w)`.
    pub stride: (usize, usize),
    /// Zero-padding as `(pad_h, pad_w)` applied to both sides.
    pub padding: (usize, usize),
    /// Number of channel groups.
    pub groups: usize,
}

impl ConvCfg {
    /// Symmetric configuration: equal stride and padding on both axes.
    pub fn square(stride: usize, padding: usize, groups: usize) -> Self {
        ConvCfg {
            stride: (stride, stride),
            padding: (padding, padding),
            groups,
        }
    }

    /// Unit stride, no padding, a single group.
    pub fn unit() -> Self {
        Self::square(1, 0, 1)
    }

    /// Returns a copy with the group count multiplied by `b` — the HFTA
    /// horizontal-fusion transform of the configuration.
    pub fn fused(self, b: usize) -> Self {
        ConvCfg {
            groups: self.groups * b,
            ..self
        }
    }

    /// Output spatial size for an input of `(h, w)` under kernel `(kh, kw)`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (kernel larger than padded
    /// input).
    pub fn out_hw(&self, (h, w): (usize, usize), (kh, kw): (usize, usize)) -> (usize, usize) {
        let hp = h + 2 * self.padding.0;
        let wp = w + 2 * self.padding.1;
        assert!(
            hp >= kh && wp >= kw,
            "kernel ({kh}, {kw}) larger than padded input ({hp}, {wp})"
        );
        ((hp - kh) / self.stride.0 + 1, (wp - kw) / self.stride.1 + 1)
    }

    /// Output spatial size of the *transposed* convolution.
    pub fn transpose_out_hw(
        &self,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
    ) -> (usize, usize) {
        (
            (h - 1) * self.stride.0 + kh - 2 * self.padding.0,
            (w - 1) * self.stride.1 + kw - 2 * self.padding.1,
        )
    }
}

impl Default for ConvCfg {
    fn default() -> Self {
        Self::unit()
    }
}

/// The separable `(koff, soff)` tables of one padded `[c, hp, wp]` image block.
fn im2col_tables(
    c: usize,
    (hp, wp): (usize, usize),
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ho, wo): (usize, usize),
) -> (Vec<usize>, Vec<usize>) {
    let koff = (0..c * kh * kw).map(|r| (r / (kh * kw) * hp + r / kw % kh) * wp + r % kw);
    let soff = (0..ho * wo).map(|s| s / wo * sh * wp + s % wo * sw);
    (koff.collect(), soff.collect())
}

/// Whether the im2col tables are the identity: the image block is its own column matrix.
fn pointwise(kernel: (usize, usize), cfg: &ConvCfg) -> bool {
    (kernel, cfg.stride, cfg.padding) == ((1, 1), (1, 1), (0, 0))
}

fn check_groups(cin: usize, cout: usize, groups: usize) {
    assert!(
        cin.is_multiple_of(groups) && cout.is_multiple_of(groups),
        "channels {cin} -> {cout} not divisible by groups {groups}"
    );
}

/// The gradient ops index the image through tables built from these extents.
fn check_out_hw(cfg: &ConvCfg, hw: (usize, usize), kernel: (usize, usize), got: (usize, usize)) {
    let want = cfg.out_hw(hw, kernel);
    assert_eq!(got, want, "grad output extent for input {hw:?}");
}

fn check_conv_args(x: &Tensor, w: &Tensor, cfg: &ConvCfg) {
    assert_eq!(x.rank(), 4, "conv2d input must be [N, C, H, W]");
    assert_eq!(w.rank(), 4, "conv2d weight must be [Cout, Cin/g, kh, kw]");
    let cin = x.dim(1);
    check_groups(cin, w.dim(0), cfg.groups);
    assert_eq!(
        w.dim(1),
        cin / cfg.groups,
        "weight in-channels {} != Cin/groups {}",
        w.dim(1),
        cin / cfg.groups
    );
}

/// 2-D convolution: `x [N, Cin, H, W]`, `w [Cout, Cin/g, kh, kw]`,
/// optional `b [Cout]` → `[N, Cout, Ho, Wo]`.
///
/// # Panics
///
/// Panics on inconsistent shapes or group counts.
///
/// # Example
///
/// ```
/// use hfta_tensor::{conv::{conv2d, ConvCfg}, Tensor};
/// let x = Tensor::ones([1, 1, 3, 3]);
/// let w = Tensor::ones([1, 1, 2, 2]);
/// let y = conv2d(&x, &w, None, ConvCfg::unit());
/// assert_eq!(y.dims(), &[1, 1, 2, 2]);
/// assert_eq!(y.to_vec(), vec![4.0; 4]);
/// ```
pub fn conv2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, cfg: ConvCfg) -> Tensor {
    check_conv_args(x, w, &cfg);
    let (n, cin, h, wdt) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (cout, _, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
    if let Some(bias) = b {
        assert_eq!(bias.dims(), &[cout], "bias must be [Cout]");
    }
    let g = cfg.groups;
    let (cing, coutg) = (cin / g, cout / g);
    let (ho, wo) = cfg.out_hw((h, wdt), (kh, kw));
    let xp = x.pad2d(cfg.padding.0, cfg.padding.1);
    let (hp, wp) = (xp.dim(2), xp.dim(3));
    let xp_data = xp.as_slice();
    let w_data = w.as_slice();
    let krows = cing * kh * kw;
    let spatial = ho * wo;
    let bias_data = b.map(|bias| bias.as_slice());
    // Each (sample, group) pair writes one contiguous, disjoint output
    // block, so the blocks parallelize trivially across the worker pool —
    // the CPU analogue of the bigger-fused-kernel effect HFTA exploits (a
    // fused conv with B x g groups exposes B x more independent blocks).
    // The bias is folded into the block initialization: each output row is
    // seeded with its channel's bias and the GEMM accumulates on top, so
    // there is no second pass over the output.
    let block = coutg * spatial;
    let per_block_flops = 2 * coutg * krows * spatial;
    let grain = block_grain(per_block_flops, n * g);
    let tables = (!pointwise((kh, kw), &cfg))
        .then(|| im2col_tables(cing, (hp, wp), (kh, kw), cfg.stride, (ho, wo)));
    let cols = tables.as_ref().map(|(koff, soff)| Offsets::new(koff, soff));
    let mut out = Tensor::zeros([n, cout, ho, wo]);
    let shared = UnsafeSlice::new(out.as_mut_slice());
    kernels::parallel_for_work(n * g, grain, n * g * per_block_flops, |range| {
        for idx in range {
            let (ni, gi) = (idx / g, idx % g);
            // SAFETY: each (sample, group) index owns a disjoint block.
            let out_block = unsafe { shared.slice_mut(idx * block..(idx + 1) * block) };
            if let Some(bd) = bias_data {
                for (co, row) in out_block.chunks_exact_mut(spatial).enumerate() {
                    row.fill(bd[gi * coutg + co]);
                }
            }
            let img =
                &xp_data[(ni * cin + gi * cing) * hp * wp..(ni * cin + (gi + 1) * cing) * hp * wp];
            let wmat = &w_data[gi * coutg * krows..(gi + 1) * coutg * krows];
            match cols {
                Some(c) => kernels::gemm_gather(out_block, wmat, img, c, coutg, krows, spatial),
                None => kernels::gemm(out_block, wmat, img, coutg, krows, spatial),
            }
        }
    });
    out
}

/// Gradient of [`conv2d`] with respect to its input.
///
/// `w` is the forward weight, `gy` the output gradient, `(h, w)` the
/// original input spatial size.
///
/// # Panics
///
/// Panics on inconsistent shapes.
pub fn conv2d_grad_input(
    w: &Tensor,
    gy: &Tensor,
    input_hw: (usize, usize),
    cin: usize,
    cfg: ConvCfg,
) -> Tensor {
    assert_eq!(gy.rank(), 4, "grad output must be [N, Cout, Ho, Wo]");
    let (n, cout, ho, wo) = (gy.dim(0), gy.dim(1), gy.dim(2), gy.dim(3));
    let (kh, kw) = (w.dim(2), w.dim(3));
    let g = cfg.groups;
    check_groups(cin, cout, g);
    check_out_hw(&cfg, input_hw, (kh, kw), (ho, wo));
    let (cing, coutg) = (cin / g, cout / g);
    assert_eq!(w.dim(0), cout, "weight Cout mismatch");
    assert_eq!(w.dim(1), cing, "weight Cin/g mismatch");
    let (ph, pw) = cfg.padding;
    let (hp, wp) = (input_hw.0 + 2 * ph, input_hw.1 + 2 * pw);
    let krows = cing * kh * kw;
    let spatial = ho * wo;
    let gy_data = gy.as_slice();
    let w_data = w.as_slice();
    // Each (sample, group) pair owns one disjoint [cing, hp, wp] block of
    // the padded input gradient, so the blocks fan out across the pool.
    let block = cing * hp * wp;
    let per_block_flops = 2 * coutg * krows * spatial;
    let grain = block_grain(per_block_flops, n * g);
    let (koff, soff) = im2col_tables(cing, (hp, wp), (kh, kw), cfg.stride, (ho, wo));
    let cols = Offsets::new(&koff, &soff);
    let mut gx_pad = Tensor::zeros([n, cin, hp, wp]);
    let shared = UnsafeSlice::new(gx_pad.as_mut_slice());
    kernels::parallel_for_work(n * g, grain, n * g * per_block_flops, |range| {
        for idx in range {
            let (ni, gi) = (idx / g, idx % g);
            let wmat = &w_data[gi * coutg * krows..(gi + 1) * coutg * krows];
            let gybase = (ni * cout + gi * coutg) * spatial;
            let gymat = &gy_data[gybase..gybase + coutg * spatial];
            // SAFETY: each (sample, group) index owns a disjoint block.
            let img = unsafe { shared.slice_mut(idx * block..(idx + 1) * block) };
            // img[cols] += w^T @ gy : [krows, spatial]
            kernels::gemm_tn_scatter(img, wmat, gymat, cols, krows, coutg, spatial);
        }
    });
    gx_pad.unpad2d(ph, pw)
}

/// Gradient of [`conv2d`] with respect to its weight.
///
/// # Panics
///
/// Panics on inconsistent shapes.
pub fn conv2d_grad_weight(
    x: &Tensor,
    gy: &Tensor,
    kernel_hw: (usize, usize),
    cfg: ConvCfg,
) -> Tensor {
    let (n, cin, h, wdt) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (n2, cout, ho, wo) = (gy.dim(0), gy.dim(1), gy.dim(2), gy.dim(3));
    assert_eq!(n, n2, "batch mismatch between input and grad output");
    let (kh, kw) = kernel_hw;
    let g = cfg.groups;
    check_groups(cin, cout, g);
    check_out_hw(&cfg, (h, wdt), (kh, kw), (ho, wo));
    let (cing, coutg) = (cin / g, cout / g);
    let xp = x.pad2d(cfg.padding.0, cfg.padding.1);
    let (hp, wp) = (xp.dim(2), xp.dim(3));
    let xp_data = xp.as_slice();
    let gy_data = gy.as_slice();
    let krows = cing * kh * kw;
    let spatial = ho * wo;
    // The weight gradient REDUCES over the batch: every sample accumulates
    // into the same per-group block of `gw`, and float addition is not
    // associative, so that reduction must never be split across chunks.
    // Groups fan out across the pool, each walking `ni` in ascending order
    // on one thread; a single group is a single chunk, which runs on the
    // caller and lets its GEMMs parallelize internally over tiles. Chunking
    // depends only on the shape — never the thread count.
    let block = coutg * krows;
    let per_group_flops = 2 * n * coutg * spatial * krows;
    let flops = g * per_group_flops;
    let grain = block_grain(per_group_flops, g);
    let tables = (!pointwise((kh, kw), &cfg))
        .then(|| im2col_tables(cing, (hp, wp), (kh, kw), cfg.stride, (ho, wo)));
    let cols_t = tables.as_ref().map(|(koff, soff)| Offsets::new(soff, koff));
    let mut gw = Tensor::zeros([cout, cing, kh, kw]);
    let shared = UnsafeSlice::new(gw.as_mut_slice());
    kernels::parallel_for_work(g, grain, flops, |range| {
        for gi in range {
            // SAFETY: each group owns a disjoint block of `gw`.
            let gw_g = unsafe { shared.slice_mut(gi * block..(gi + 1) * block) };
            for ni in 0..n {
                let img = &xp_data
                    [(ni * cin + gi * cing) * hp * wp..(ni * cin + (gi + 1) * cing) * hp * wp];
                let gybase = (ni * cout + gi * coutg) * spatial;
                let gymat = &gy_data[gybase..gybase + coutg * spatial];
                // += gy [coutg, spatial] @ cols^T [spatial, krows]
                match cols_t {
                    Some(c) => kernels::gemm_gather(gw_g, gymat, img, c, coutg, spatial, krows),
                    None => kernels::gemm_nt(gw_g, gymat, img, coutg, spatial, krows),
                }
            }
        }
    });
    gw
}

/// Gradient of [`conv2d`] with respect to its bias: `gy` summed over batch
/// and spatial axes.
pub fn conv2d_grad_bias(gy: &Tensor) -> Tensor {
    gy.sum_axis(3, false).sum_axis(2, false).sum_axis(0, false)
}

/// 2-D transposed convolution ("deconvolution"): `x [N, Cin, H, W]`,
/// `w [Cin, Cout/g, kh, kw]`, optional `b [Cout]` → `[N, Cout, Ho, Wo]`
/// with `Ho = (H-1)*stride - 2*pad + kh`.
///
/// Implemented as the adjoint of [`conv2d`]: the forward pass is
/// [`conv2d_grad_input`] with the channel roles swapped.
///
/// # Panics
///
/// Panics on inconsistent shapes or group counts.
pub fn conv_transpose2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, cfg: ConvCfg) -> Tensor {
    assert_eq!(x.rank(), 4, "conv_transpose2d input must be [N, Cin, H, W]");
    assert_eq!(
        w.rank(),
        4,
        "conv_transpose2d weight must be [Cin, Cout/g, kh, kw]"
    );
    let (_, cin, h, wdt) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(w.dim(0), cin, "weight Cin mismatch");
    let g = cfg.groups;
    let coutg = w.dim(1);
    let cout = coutg * g;
    let (kh, kw) = (w.dim(2), w.dim(3));
    let (ho, wo) = cfg.transpose_out_hw((h, wdt), (kh, kw));
    // Viewed as a conv mapping [N, cout, ho, wo] -> [N, cin, h, w], the
    // weight already has conv layout [Cout_conv=cin, Cin_conv/g=coutg, ...].
    let mut y = conv2d_grad_input(w, x, (ho, wo), cout, cfg);
    if let Some(bias) = b {
        assert_eq!(bias.dims(), &[cout], "bias must be [Cout]");
        // A second pass on purpose: seeding the image with the bias would
        // put it first in every pixel's add chain instead of last.
        let rows = y.as_mut_slice().chunks_exact_mut((ho * wo).max(1));
        for (row, &bv) in rows.zip(bias.as_slice().iter().cycle()) {
            row.iter_mut().for_each(|v| *v += bv);
        }
    }
    y
}

/// Gradient of [`conv_transpose2d`] with respect to its input: a plain
/// [`conv2d`] of the output gradient with the same weight.
pub fn conv_transpose2d_grad_input(w: &Tensor, gy: &Tensor, cfg: ConvCfg) -> Tensor {
    conv2d(gy, w, None, cfg)
}

/// Gradient of [`conv_transpose2d`] with respect to its weight.
pub fn conv_transpose2d_grad_weight(
    x: &Tensor,
    gy: &Tensor,
    kernel_hw: (usize, usize),
    cfg: ConvCfg,
) -> Tensor {
    // In the adjoint view, `gy` plays the conv input and `x` the conv
    // output-gradient.
    conv2d_grad_weight(gy, x, kernel_hw, cfg)
}

/// The 2-D view of a 1-D convolution: a unit height axis.
fn conv1d_cfg(stride: usize, padding: usize, groups: usize) -> ConvCfg {
    ConvCfg {
        stride: (1, stride),
        padding: (0, padding),
        groups,
    }
}

/// `[N, C, L]` as `[N, C, 1, L]` (and weights `[Cout, Cin/g, k]` as
/// `[Cout, Cin/g, 1, k]`).
fn unit_height(t: &Tensor) -> Tensor {
    t.reshape(&[t.dim(0), t.dim(1), 1, t.dim(2)])
}

/// 1-D convolution: `x [N, Cin, L]`, `w [Cout, Cin/g, k]` → `[N, Cout, Lo]`.
///
/// Delegates to [`conv2d`] with a unit height axis.
///
/// # Panics
///
/// Panics on inconsistent shapes.
pub fn conv1d(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    stride: usize,
    padding: usize,
    groups: usize,
) -> Tensor {
    assert_eq!(x.rank(), 3, "conv1d input must be [N, C, L]");
    assert_eq!(w.rank(), 3, "conv1d weight must be [Cout, Cin/g, k]");
    let cfg = conv1d_cfg(stride, padding, groups);
    let y = conv2d(&unit_height(x), &unit_height(w), b, cfg);
    y.reshape(&[y.dim(0), y.dim(1), y.dim(3)])
}

/// Gradient of [`conv1d`] with respect to its input of length `len` and
/// `cin` channels.
pub fn conv1d_grad_input(
    w: &Tensor,
    gy: &Tensor,
    (cin, len): (usize, usize),
    stride: usize,
    padding: usize,
    groups: usize,
) -> Tensor {
    let cfg = conv1d_cfg(stride, padding, groups);
    let gx = conv2d_grad_input(&unit_height(w), &unit_height(gy), (1, len), cin, cfg);
    gx.reshape(&[gy.dim(0), cin, len])
}

/// Gradient of [`conv1d`] with respect to its weight of kernel size `k`.
pub fn conv1d_grad_weight(
    x: &Tensor,
    gy: &Tensor,
    k: usize,
    stride: usize,
    padding: usize,
    groups: usize,
) -> Tensor {
    let cfg = conv1d_cfg(stride, padding, groups);
    let gw = conv2d_grad_weight(&unit_height(x), &unit_height(gy), (1, k), cfg);
    gw.reshape(&[gw.dim(0), gw.dim(1), k])
}

/// Gradient of [`conv1d`] with respect to its bias: `gy` summed over batch
/// and length (the sums [`conv2d_grad_bias`] takes over the unit-height
/// view, whose extra size-1 reduction adds each sum to `+0.0` unchanged).
pub fn conv1d_grad_bias(gy: &Tensor) -> Tensor {
    gy.sum_axis(2, false).sum_axis(0, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_kernels::reference;
    use proptest::prelude::*;

    /// Lowers one padded image `[c, hp, wp]` into `cols` (`[c*kh*kw, ho*wo]`,
    /// fully overwritten), so callers can hand in recycled scratch.
    fn im2col_into(
        cols: &mut [f32],
        img: &[f32],
        c: usize,
        (hp, wp): (usize, usize),
        (kh, kw): (usize, usize),
        (sh, sw): (usize, usize),
        (ho, wo): (usize, usize),
    ) {
        debug_assert_eq!(cols.len(), c * kh * kw * ho * wo);
        let col_w = ho * wo;
        for ci in 0..c {
            for u in 0..kh {
                for v in 0..kw {
                    let row = ((ci * kh + u) * kw + v) * col_w;
                    for p in 0..ho {
                        let src_row = (ci * hp + p * sh + u) * wp + v;
                        let dst = row + p * wo;
                        for q in 0..wo {
                            cols[dst + q] = img[src_row + q * sw];
                        }
                    }
                }
            }
        }
    }

    /// Adjoint of [`im2col_into`]: accumulates columns back into the padded image.
    fn col2im(
        cols: &[f32],
        img: &mut [f32],
        c: usize,
        (hp, wp): (usize, usize),
        (kh, kw): (usize, usize),
        (sh, sw): (usize, usize),
        (ho, wo): (usize, usize),
    ) {
        let col_w = ho * wo;
        for ci in 0..c {
            for u in 0..kh {
                for v in 0..kw {
                    let row = ((ci * kh + u) * kw + v) * col_w;
                    for p in 0..ho {
                        let dst_row = (ci * hp + p * sh + u) * wp + v;
                        let src = row + p * wo;
                        for q in 0..wo {
                            img[dst_row + q * sw] += cols[src + q];
                        }
                    }
                }
            }
        }
    }

    /// One conv's geometry, as every oracle below needs it.
    struct Geom {
        g: usize,
        cing: usize,
        coutg: usize,
        padded: (usize, usize),
        kernel: (usize, usize),
        out: (usize, usize),
        krows: usize,
        spatial: usize,
    }

    impl Geom {
        fn new(
            cin: usize,
            cout: usize,
            hw: (usize, usize),
            kernel: (usize, usize),
            cfg: &ConvCfg,
        ) -> Self {
            let g = cfg.groups;
            let out = cfg.out_hw(hw, kernel);
            Geom {
                g,
                cing: cin / g,
                coutg: cout / g,
                padded: (hw.0 + 2 * cfg.padding.0, hw.1 + 2 * cfg.padding.1),
                kernel,
                out,
                krows: cin / g * kernel.0 * kernel.1,
                spatial: out.0 * out.1,
            }
        }

        /// The im2col matrix of padded image block `(ni, gi)`.
        fn cols(&self, xp: &[f32], cin: usize, ni: usize, gi: usize, cfg: &ConvCfg) -> Vec<f32> {
            let plane = self.padded.0 * self.padded.1;
            let img = &xp[(ni * cin + gi * self.cing) * plane..][..self.cing * plane];
            let mut cols = vec![0.0f32; self.krows * self.spatial];
            im2col_into(
                &mut cols,
                img,
                self.cing,
                self.padded,
                self.kernel,
                cfg.stride,
                self.out,
            );
            cols
        }
    }

    /// What this module computed before it stopped materialising columns:
    /// pad → im2col → the reference GEMM on the bias-seeded block.
    fn oracle_conv2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, cfg: ConvCfg) -> Tensor {
        let (n, cin, cout) = (x.dim(0), x.dim(1), w.dim(0));
        let geo = Geom::new(cin, cout, (x.dim(2), x.dim(3)), (w.dim(2), w.dim(3)), &cfg);
        let (coutg, krows, spatial) = (geo.coutg, geo.krows, geo.spatial);
        let xp = x.pad2d(cfg.padding.0, cfg.padding.1);
        let mut out = Tensor::zeros([n, cout, geo.out.0, geo.out.1]);
        for (idx, block) in out
            .as_mut_slice()
            .chunks_exact_mut(coutg * spatial)
            .enumerate()
        {
            let (ni, gi) = (idx / geo.g, idx % geo.g);
            if let Some(bias) = b {
                for (co, row) in block.chunks_exact_mut(spatial).enumerate() {
                    row.fill(bias.as_slice()[gi * coutg + co]);
                }
            }
            let cols = geo.cols(xp.as_slice(), cin, ni, gi, &cfg);
            let wmat = &w.as_slice()[gi * coutg * krows..][..coutg * krows];
            reference::gemm_ref(block, wmat, &cols, coutg, krows, spatial);
        }
        out
    }

    /// `w^T @ gy` into zeroed columns → col2im into the zeroed padded image
    /// → unpad.
    fn oracle_grad_input(
        w: &Tensor,
        gy: &Tensor,
        hw: (usize, usize),
        cin: usize,
        cfg: ConvCfg,
    ) -> Tensor {
        let (n, cout) = (gy.dim(0), gy.dim(1));
        let geo = Geom::new(cin, cout, hw, (w.dim(2), w.dim(3)), &cfg);
        assert_eq!(geo.out, (gy.dim(2), gy.dim(3)));
        let (coutg, krows, spatial) = (geo.coutg, geo.krows, geo.spatial);
        let mut gx_pad = Tensor::zeros([n, cin, geo.padded.0, geo.padded.1]);
        let block = geo.cing * geo.padded.0 * geo.padded.1;
        for (idx, img) in gx_pad.as_mut_slice().chunks_exact_mut(block).enumerate() {
            let (ni, gi) = (idx / geo.g, idx % geo.g);
            let wmat = &w.as_slice()[gi * coutg * krows..][..coutg * krows];
            let gymat = &gy.as_slice()[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
            let mut cols = vec![0.0f32; krows * spatial];
            reference::gemm_tn_ref(&mut cols, wmat, gymat, krows, coutg, spatial);
            col2im(
                &cols, img, geo.cing, geo.padded, geo.kernel, cfg.stride, geo.out,
            );
        }
        gx_pad.unpad2d(cfg.padding.0, cfg.padding.1)
    }

    /// Per group, samples ascending: `gw_g += gy @ cols^T`.
    fn oracle_grad_weight(x: &Tensor, gy: &Tensor, kernel: (usize, usize), cfg: ConvCfg) -> Tensor {
        let (n, cin, cout) = (x.dim(0), x.dim(1), gy.dim(1));
        let geo = Geom::new(cin, cout, (x.dim(2), x.dim(3)), kernel, &cfg);
        assert_eq!(geo.out, (gy.dim(2), gy.dim(3)));
        let (coutg, krows, spatial) = (geo.coutg, geo.krows, geo.spatial);
        let xp = x.pad2d(cfg.padding.0, cfg.padding.1);
        let mut gw = Tensor::zeros([cout, geo.cing, kernel.0, kernel.1]);
        for (gi, gw_g) in gw
            .as_mut_slice()
            .chunks_exact_mut(coutg * krows)
            .enumerate()
        {
            for ni in 0..n {
                let cols = geo.cols(xp.as_slice(), cin, ni, gi, &cfg);
                let gymat = &gy.as_slice()[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
                reference::gemm_nt_ref(gw_g, gymat, &cols, coutg, spatial, krows);
            }
        }
        gw
    }

    /// The adjoint conv's input gradient, then the bias as a second pass.
    fn oracle_conv_transpose2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, cfg: ConvCfg) -> Tensor {
        let cout = w.dim(1) * cfg.groups;
        let out_hw = cfg.transpose_out_hw((x.dim(2), x.dim(3)), (w.dim(2), w.dim(3)));
        let mut y = oracle_grad_input(w, x, out_hw, cout, cfg);
        if let Some(bias) = b {
            let plane = out_hw.0 * out_hw.1;
            for (idx, row) in y.as_mut_slice().chunks_exact_mut(plane).enumerate() {
                row.iter_mut()
                    .for_each(|v| *v += bias.as_slice()[idx % cout]);
            }
        }
        y
    }

    /// Bit patterns, so `-0.0 != 0.0` and NaNs compare by payload.
    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.dims().to_vec(),
            t.as_slice().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// Naive direct convolution reference (groups supported).
    fn conv2d_naive(x: &Tensor, w: &Tensor, b: Option<&Tensor>, cfg: ConvCfg) -> Tensor {
        let (n, cin, h, wdt) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (cout, _, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        let g = cfg.groups;
        let (cing, coutg) = (cin / g, cout / g);
        let (ho, wo) = cfg.out_hw((h, wdt), (kh, kw));
        let mut out = Tensor::zeros([n, cout, ho, wo]);
        for ni in 0..n {
            for co in 0..cout {
                let gi = co / coutg;
                for p in 0..ho {
                    for q in 0..wo {
                        let mut acc = b.map_or(0.0, |bias| bias.at(&[co]));
                        for ci in 0..cing {
                            for u in 0..kh {
                                for v in 0..kw {
                                    let yy =
                                        (p * cfg.stride.0 + u) as isize - cfg.padding.0 as isize;
                                    let xx =
                                        (q * cfg.stride.1 + v) as isize - cfg.padding.1 as isize;
                                    if yy >= 0
                                        && xx >= 0
                                        && (yy as usize) < h
                                        && (xx as usize) < wdt
                                    {
                                        acc +=
                                            x.at(&[ni, gi * cing + ci, yy as usize, xx as usize])
                                                * w.at(&[co, ci, u, v]);
                                    }
                                }
                            }
                        }
                        out.set(&[ni, co, p, q], acc);
                    }
                }
            }
        }
        out
    }

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        // Small deterministic pseudo-random fill.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state as f64 / u64::MAX as f64) as f32 - 0.5) * 2.0
            })
            .collect();
        Tensor::from_vec(data, shape.to_vec())
    }

    #[test]
    fn conv2d_matches_naive_basic() {
        let x = randn(&[2, 3, 5, 5], 1);
        let w = randn(&[4, 3, 3, 3], 2);
        let b = randn(&[4], 3);
        for cfg in [
            ConvCfg::unit(),
            ConvCfg::square(1, 1, 1),
            ConvCfg::square(2, 1, 1),
        ] {
            let fast = conv2d(&x, &w, Some(&b), cfg);
            let slow = conv2d_naive(&x, &w, Some(&b), cfg);
            assert!(fast.allclose(&slow, 1e-4), "cfg {cfg:?}");
        }
    }

    #[test]
    fn grouped_conv_matches_naive() {
        let x = randn(&[2, 4, 6, 6], 4);
        let w = randn(&[6, 2, 3, 3], 5); // groups=2: Cin/g = 2
        let cfg = ConvCfg::square(1, 1, 2);
        let fast = conv2d(&x, &w, None, cfg);
        let slow = conv2d_naive(&x, &w, None, cfg);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn grouped_conv_equals_concat_of_independent_convs() {
        // The HFTA identity: B independent convs == one grouped conv on
        // channel-concatenated input with block-diagonal (stacked) weights.
        let b = 3;
        let cfg = ConvCfg::square(1, 1, 1);
        let xs: Vec<Tensor> = (0..b)
            .map(|i| randn(&[2, 3, 5, 5], 10 + i as u64))
            .collect();
        let ws: Vec<Tensor> = (0..b)
            .map(|i| randn(&[4, 3, 3, 3], 20 + i as u64))
            .collect();
        let bs: Vec<Tensor> = (0..b).map(|i| randn(&[4], 30 + i as u64)).collect();
        let per_model: Vec<Tensor> = (0..b)
            .map(|i| conv2d(&xs[i], &ws[i], Some(&bs[i]), cfg))
            .collect();
        let x_fused = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 1);
        let w_fused = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0);
        let b_fused = Tensor::concat(&bs.iter().collect::<Vec<_>>(), 0);
        let fused = conv2d(&x_fused, &w_fused, Some(&b_fused), cfg.fused(b));
        let expect = Tensor::concat(&per_model.iter().collect::<Vec<_>>(), 1);
        // Table 6 is an identity here, not an approximation.
        assert_eq!(bits(&fused), bits(&expect));
    }

    #[test]
    fn conv_adjoint_identity_input() {
        // <conv(x), y> == <x, conv_grad_input(y)> proves the adjoint pair.
        let cfg = ConvCfg::square(2, 1, 1);
        let x = randn(&[1, 2, 6, 6], 7);
        let w = randn(&[3, 2, 3, 3], 8);
        let y = conv2d(&x, &w, None, cfg);
        let gy = randn(y.dims(), 9);
        let gx = conv2d_grad_input(&w, &gy, (6, 6), 2, cfg);
        let lhs = y.flatten().dot(&gy.flatten());
        let rhs = x.flatten().dot(&gx.flatten());
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_adjoint_identity_weight() {
        let cfg = ConvCfg::square(1, 1, 2);
        let x = randn(&[2, 4, 5, 5], 11);
        let w = randn(&[4, 2, 3, 3], 12);
        let y = conv2d(&x, &w, None, cfg);
        let gy = randn(y.dims(), 13);
        let gw = conv2d_grad_weight(&x, &gy, (3, 3), cfg);
        assert_eq!(gw.dims(), w.dims());
        let lhs = y.flatten().dot(&gy.flatten());
        // d<conv(x;w), gy>/dw . w == <gw, w> because conv is linear in w.
        let rhs = gw.flatten().dot(&w.flatten());
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn grad_bias_sums_spatial_and_batch() {
        let gy = Tensor::ones([2, 3, 4, 4]);
        let gb = conv2d_grad_bias(&gy);
        assert_eq!(gb.dims(), &[3]);
        assert_eq!(gb.to_vec(), vec![32.0; 3]);
    }

    #[test]
    fn conv_transpose_shape_and_upsampling() {
        // DCGAN-style: stride-2 convtranspose doubles spatial size.
        let x = randn(&[1, 8, 4, 4], 21);
        let w = randn(&[8, 4, 4, 4], 22);
        let cfg = ConvCfg::square(2, 1, 1);
        let y = conv_transpose2d(&x, &w, None, cfg);
        assert_eq!(y.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <convT(x), z> == <x, conv(z)> for weight-shared pair.
        let cfg = ConvCfg::square(2, 1, 1);
        let x = randn(&[1, 6, 4, 4], 31);
        let w = randn(&[6, 3, 4, 4], 32);
        let y = conv_transpose2d(&x, &w, None, cfg);
        let z = randn(y.dims(), 33);
        let back = conv2d(&z, &w, None, cfg);
        let lhs = y.flatten().dot(&z.flatten());
        let rhs = x.flatten().dot(&back.flatten());
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_transpose_grouped_equals_concat() {
        let b = 2;
        let cfg = ConvCfg::square(2, 1, 1);
        let xs: Vec<Tensor> = (0..b)
            .map(|i| randn(&[1, 4, 3, 3], 40 + i as u64))
            .collect();
        let ws: Vec<Tensor> = (0..b)
            .map(|i| randn(&[4, 2, 4, 4], 50 + i as u64))
            .collect();
        let bs: Vec<Tensor> = (0..b).map(|i| randn(&[2], 60 + i as u64)).collect();
        let per: Vec<Tensor> = (0..b)
            .map(|i| conv_transpose2d(&xs[i], &ws[i], Some(&bs[i]), cfg))
            .collect();
        let xf = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 1);
        let wf = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0);
        let bf = Tensor::concat(&bs.iter().collect::<Vec<_>>(), 0);
        let fused = conv_transpose2d(&xf, &wf, Some(&bf), cfg.fused(b));
        let expect = Tensor::concat(&per.iter().collect::<Vec<_>>(), 1);
        assert_eq!(bits(&fused), bits(&expect));
    }

    #[test]
    fn conv_transpose_backward_adjoints() {
        let cfg = ConvCfg::square(2, 1, 1);
        let x = randn(&[2, 4, 3, 3], 71);
        let w = randn(&[4, 2, 4, 4], 72);
        let y = conv_transpose2d(&x, &w, None, cfg);
        let gy = randn(y.dims(), 73);
        let gx = conv_transpose2d_grad_input(&w, &gy, cfg);
        assert_eq!(gx.dims(), x.dims());
        let gw = conv_transpose2d_grad_weight(&x, &gy, (4, 4), cfg);
        assert_eq!(gw.dims(), w.dims());
        // Linearity adjoint checks.
        let lhs = y.flatten().dot(&gy.flatten());
        assert!((lhs - x.flatten().dot(&gx.flatten())).abs() < 1e-2 * lhs.abs().max(1.0));
        assert!((lhs - w.flatten().dot(&gw.flatten())).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn conv1d_matches_manual() {
        // x = [1,2,3], kernel = [1,1] -> [3, 5]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 1, 3]);
        let w = Tensor::from_vec(vec![1.0, 1.0], [1, 1, 2]);
        let y = conv1d(&x, &w, None, 1, 0, 1);
        assert_eq!(y.dims(), &[1, 1, 2]);
        assert_eq!(y.to_vec(), vec![3.0, 5.0]);
    }

    #[test]
    fn conv1d_backward_shapes() {
        let x = randn(&[2, 3, 10], 81);
        let w = randn(&[4, 3, 3], 82);
        let y = conv1d(&x, &w, None, 1, 1, 1);
        assert_eq!(y.dims(), &[2, 4, 10]);
        let gy = randn(y.dims(), 83);
        let gx = conv1d_grad_input(&w, &gy, (3, 10), 1, 1, 1);
        let gw = conv1d_grad_weight(&x, &gy, 3, 1, 1, 1);
        let gb = conv1d_grad_bias(&gy);
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(gw.dims(), w.dims());
        assert_eq!(gb.dims(), &[4]);
        assert_eq!(
            bits(&gb),
            bits(&conv2d_grad_bias(&gy.reshape(&[2, 4, 1, 10])))
        );
    }

    #[test]
    fn parallel_conv_matches_sequential_path() {
        // A shape big enough to cross the multithreading threshold must
        // produce exactly the same output as the naive reference.
        let x = randn(&[8, 8, 16, 16], 91);
        let w = randn(&[16, 8, 3, 3], 92);
        let cfg = ConvCfg::square(1, 1, 1);
        let fast = conv2d(&x, &w, None, cfg);
        let slow = conv2d_naive(&x, &w, None, cfg);
        assert!(fast.allclose(&slow, 1e-3));
    }

    #[test]
    #[should_panic(expected = "grad output extent for input (6, 6)")]
    fn grad_input_rejects_a_grad_output_of_the_wrong_extent() {
        // (6 + 2 - 3) / 2 + 1 = 3, not 4.
        let (w, gy) = (randn(&[3, 2, 3, 3], 1), randn(&[1, 3, 4, 4], 2));
        conv2d_grad_input(&w, &gy, (6, 6), 2, ConvCfg::square(2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "grad output extent for input (6, 6)")]
    fn grad_weight_rejects_a_grad_output_of_the_wrong_extent() {
        let (x, gy) = (randn(&[1, 2, 6, 6], 1), randn(&[1, 3, 3, 2], 2));
        conv2d_grad_weight(&x, &gy, (3, 3), ConvCfg::square(2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "channels 4 -> 3 not divisible by groups 2")]
    fn grad_input_rejects_channels_the_groups_do_not_divide() {
        let (w, gy) = (randn(&[3, 2, 3, 3], 1), randn(&[1, 3, 3, 3], 2));
        conv2d_grad_input(&w, &gy, (6, 6), 4, ConvCfg::square(2, 1, 2));
    }

    const KERNELS: [(usize, usize); 4] = [(1, 1), (3, 3), (4, 4), (2, 3)];
    const GROUPS: [usize; 3] = [1, 2, 6];
    /// Output rows that end inside, on and beyond an 8-wide panel.
    const OUT_WIDTHS: [usize; 5] = [1, 4, 5, 8, 16];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Strides 1-3, paddings 0-2, square / pointwise / non-square
        // kernels, groups up to the fused width of `dcgan_compute`,
        // non-square inputs the stride does not divide. Nearly half the
        // cases put a (sample, group) block above the GEMM's small-shape
        // threshold, the rest run its direct loops.
        #[test]
        fn every_op_is_bitwise_the_im2col_composition(
            n in 1usize..3,
            g in 0usize..3,
            cing in 1usize..7,
            coutg in 1usize..13,
            kernel in 0usize..4,
            sh in 1usize..4,
            sw in 1usize..4,
            ph in 0usize..3,
            pw in 0usize..3,
            ho in 1usize..9,
            wo in 0usize..5,
            // Rows / columns past the last tap, which no output reads.
            eh in 0usize..3,
            ew in 0usize..3,
            seed in 0u64..1000,
        ) {
            let (g, (kh, kw), wo) = (GROUPS[g], KERNELS[kernel], OUT_WIDTHS[wo]);
            // The taps span `(th, tw)`; the padding leaves at least one pixel
            // of input (and of the transposed conv's output) inside them.
            let (th, tw) = ((ho - 1) * sh + kh, (wo - 1) * sw + kw);
            let (ph, pw) = (ph.min((th - 1) / 2), pw.min((tw - 1) / 2));
            let (hp, wp) = (th + eh % sh, tw + ew % sw);
            let (hw, cin, cout) = ((hp - 2 * ph, wp - 2 * pw), g * cing, g * coutg);
            let cfg = ConvCfg { stride: (sh, sw), padding: (ph, pw), groups: g };
            prop_assert_eq!(cfg.out_hw(hw, (kh, kw)), (ho, wo));
            let x = randn(&[n, cin, hw.0, hw.1], seed);
            let w = randn(&[cout, cing, kh, kw], seed + 1);
            let bias = randn(&[cout], seed + 2);
            let gy = randn(&[n, cout, ho, wo], seed + 3);
            for b in [None, Some(&bias)] {
                prop_assert_eq!(bits(&conv2d(&x, &w, b, cfg)), bits(&oracle_conv2d(&x, &w, b, cfg)));
            }
            prop_assert_eq!(
                bits(&conv2d_grad_input(&w, &gy, hw, cin, cfg)),
                bits(&oracle_grad_input(&w, &gy, hw, cin, cfg))
            );
            prop_assert_eq!(
                bits(&conv2d_grad_weight(&x, &gy, (kh, kw), cfg)),
                bits(&oracle_grad_weight(&x, &gy, (kh, kw), cfg))
            );
            // The transposed conv runs the other way: a `gy`-shaped input,
            // the same weight read as `[Cin, Cout/g, kh, kw]`, `cin` outputs.
            let tbias = randn(&[cin], seed + 4);
            for b in [None, Some(&tbias)] {
                prop_assert_eq!(
                    bits(&conv_transpose2d(&gy, &w, b, cfg)),
                    bits(&oracle_conv_transpose2d(&gy, &w, b, cfg))
                );
            }
        }

        #[test]
        fn conv1d_is_bitwise_the_im2col_composition(
            n in 1usize..3,
            g in 0usize..3,
            cing in 1usize..4,
            coutg in 1usize..4,
            k in 1usize..5,
            stride in 1usize..4,
            padding in 0usize..3,
            lo in 0usize..5,
            seed in 0u64..1000,
        ) {
            let (g, lo) = (GROUPS[g], 2 * OUT_WIDTHS[lo] + 1);
            if (lo - 1) * stride + k <= 2 * padding {
                return Ok(());
            }
            let len = (lo - 1) * stride + k - 2 * padding;
            let x = randn(&[n, g * cing, len], seed);
            let w = randn(&[g * coutg, cing, k], seed + 1);
            let bias = randn(&[g * coutg], seed + 2);
            let cfg = ConvCfg { stride: (1, stride), padding: (0, padding), groups: g };
            let x4 = x.reshape(&[n, g * cing, 1, len]);
            let w4 = w.reshape(&[g * coutg, cing, 1, k]);
            let y = conv1d(&x, &w, Some(&bias), stride, padding, g);
            prop_assert_eq!(y.dims(), &[n, g * coutg, lo]);
            prop_assert_eq!(bits(&y).1, bits(&oracle_conv2d(&x4, &w4, Some(&bias), cfg)).1);
            let gy = randn(y.dims(), seed + 3);
            let gy4 = gy.reshape(&[n, g * coutg, 1, lo]);
            let gx = conv1d_grad_input(&w, &gy, (g * cing, len), stride, padding, g);
            let gw = conv1d_grad_weight(&x, &gy, k, stride, padding, g);
            let want_gx = oracle_grad_input(&w4, &gy4, (1, len), g * cing, cfg);
            prop_assert_eq!(bits(&gx).1, bits(&want_gx).1);
            prop_assert_eq!(bits(&gw).1, bits(&oracle_grad_weight(&x4, &gy4, (1, k), cfg)).1);
        }
    }

    #[test]
    fn out_hw_math() {
        let cfg = ConvCfg::square(2, 1, 1);
        assert_eq!(cfg.out_hw((5, 5), (3, 3)), (3, 3));
        assert_eq!(cfg.transpose_out_hw((3, 3), (3, 3)), (5, 5));
        // Transposed conv inverts conv's spatial map for exact geometries.
        let cfg2 = ConvCfg::square(2, 1, 1);
        let (ho, wo) = cfg2.out_hw((8, 8), (4, 4));
        assert_eq!(cfg2.transpose_out_hw((ho, wo), (4, 4)), (8, 8));
    }
}
