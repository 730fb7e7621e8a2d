//! Convolution kernels with **group support** and their gradients.
//!
//! Grouped convolution is the cornerstone of HFTA: the horizontal fusion of
//! `B` convolutions with `G = g` groups is one convolution with `G = B * g`
//! groups over channel-concatenated inputs (Table 6 of the paper). Both the
//! serial and fused paths in this workspace execute through these kernels.
//!
//! # One GEMM call per op, no column matrix
//!
//! Each op is one [`kernels::gemm_batched`] call over its `(sample, group)`
//! blocks; the weight gradient's batch runs `(group, sample)` with the
//! samples reducing into each group's block in ascending order. How the
//! batch splits across threads is the kernel layer's one shape-only rule.
//!
//! im2col is *separable*: `cols[(ci,u,v), (oy,ox)] = x[koff + soff]` with
//! `koff = ci*h*w + (u-ph)*w + (v-pw)` and `soff = oy*sh*w + ox*sw` on the
//! unpadded block, where the [`Window`] of shifts `(u-ph, v-pw) + (oy*sh,
//! ox*sw)` lies in `[0, h) x [0, w)`: padding reads `+0.0`, writes nowhere.
//! The forward pass and the weight gradient *gather* their operand through
//! the tables ([`PackB::Gather`]; `cols^T` swaps them), which the GEMM's
//! tiles read where it lies as a view of the image's padded planes (packed
//! once only when many row panels read it), the input gradient — hence the
//! transposed convolution's forward — *scatter-adds* `w^T @ gy` into the
//! gradient as if zeroed ([`Out::ScatterWrite`]) one row strip at a time in
//! ascending `(ci,u,v)`, `col2im`'s order for each pixel's taps.
//! Every op is bit-identical to pad → im2col → GEMM → col2im → unpad, with
//! no padded tensor.
//!
//! Every output is handed to the GEMM unfilled and written there
//! ([`Out::Write`], [`Out::ScatterWrite`]), never zero-filled first; only a
//! bias, which leads each forward chain, is filled in ahead of the adds.
//!
//! A 1x1, stride-1, unpadded convolution's tables are the identity: its image
//! block *is* the operand and is read densely, and its input gradient is a
//! dense write, each element its chain from `+0.0` (one that underflows to
//! `-0.0` stays so, where an add into a zeroed image would give `+0.0`).

use crate::tensor::Tensor;
use hfta_kernels::{self as kernels, Axis, Offsets, Out, PackA, PackB, Window};

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
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (an empty input, or padding
    /// wider than the kernel taps span).
    pub fn transpose_out_hw(
        &self,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
    ) -> (usize, usize) {
        assert!(h > 0 && w > 0, "transposed conv input ({h}, {w}) is empty");
        let (th, tw) = ((h - 1) * self.stride.0 + kh, (w - 1) * self.stride.1 + kw);
        let (ph, pw) = self.padding;
        assert!(
            th >= 2 * ph && tw >= 2 * pw,
            "transposed conv taps ({th}, {tw}) narrower than padding ({ph}, {pw}) on both sides"
        );
        (th - 2 * ph, tw - 2 * pw)
    }
}

impl Default for ConvCfg {
    fn default() -> Self {
        Self::unit()
    }
}

/// The im2col tables of one `[c, h, w]` block, taps then pixels: offsets
/// and, under padding, `[y, x]` shifts.
struct Tables {
    off: [Vec<isize>; 2],
    shift: [[Vec<i32>; 2]; 2],
    hw: (usize, usize),
}

impl Tables {
    fn new(c: usize, (h, w): (usize, usize), (kh, kw): (usize, usize), cfg: &ConvCfg) -> Self {
        let ((ph, pw), (sh, sw), hw) = (cfg.padding, cfg.stride, (h, w));
        let (ho, wo) = cfg.out_hw(hw, (kh, kw));
        let (lens, padded) = ([c * kh * kw, ho * wo], (ph, pw) != (0, 0));
        let off = lens.map(Vec::with_capacity);
        let shift = lens.map(|n| [n * usize::from(padded); 2].map(Vec::with_capacity));
        let mut t = Tables { off, shift, hw };
        let mut push = |side: usize, base: usize, y: isize, x: isize| {
            t.off[side].push(base as isize + y * w as isize + x);
            if padded {
                t.shift[side][0].push(y as i32);
                t.shift[side][1].push(x as i32);
            }
        };
        let (ph, pw) = (ph as isize, pw as isize);
        for ci in 0..c {
            for u in 0..kh as isize {
                for v in 0..kw as isize {
                    push(0, ci * h * w, u - ph, v - pw);
                }
            }
        }
        for oy in 0..ho {
            for ox in 0..wo {
                push(1, 0, (oy * sh) as isize, (ox * sw) as isize);
            }
        }
        t
    }

    /// The padding window of the `[taps, pixels]` matrix, or (`swap`) of
    /// its transpose; then its tables through it.
    fn window(&self, swap: bool) -> Option<Window<'_>> {
        let yx = |s: usize| [&self.shift[s][0][..], &self.shift[s][1][..]];
        let (row, col, hw) = (yx(usize::from(swap)), yx(usize::from(!swap)), self.hw);
        (!row[0].is_empty()).then_some(Window { row, col, hw })
    }

    fn offsets<'a>(&'a self, swap: bool, window: &'a Option<Window<'a>>) -> Offsets<'a> {
        let (r, c) = (usize::from(swap), usize::from(!swap));
        Offsets::windowed(&self.off[r], &self.off[c], window.as_ref())
    }
}

/// One batch axis: `count` entries, `a`, `b` and `out` elements apart.
fn axis(count: usize, a: usize, b: usize, out: usize) -> Axis {
    Axis { count, a, b, out }
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

/// `[N, C, H, W]` extents of a convolution operand; a 1-D one `[N, C, L]`
/// is read where it lies at unit height, `[N, C, 1, L]`.
fn nchw(t: &Tensor) -> [usize; 4] {
    match *t.dims() {
        [a, b, l] => [a, b, 1, l],
        [a, b, h, w] => [a, b, h, w],
        ref d => panic!("convolution operand {d:?} is neither [N, C, L] nor [N, C, H, W]"),
    }
}

/// 2-D convolution: `x [N, Cin, H, W]`, `w [Cout, Cin/g, kh, kw]`,
/// optional `b [Cout]` → `[N, Cout, Ho, Wo]`; 1-D operands at unit height
/// (see [`conv1d`]).
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
    let ([n, cin, h, wdt], [cout, wcin, kh, kw], g) = (nchw(x), nchw(w), cfg.groups);
    check_groups(cin, cout, g);
    let cing = cin / g;
    assert_eq!(wcin, cing, "weight in-channels {wcin} != Cin/groups {cing}");
    let coutg = cout / g;
    let (ho, wo) = cfg.out_hw((h, wdt), (kh, kw));
    let (krows, spatial, plane) = (cing * kh * kw, ho * wo, h * wdt);
    let tables = (!pointwise((kh, kw), &cfg)).then(|| Tables::new(cing, (h, wdt), (kh, kw), &cfg));
    let window = tables.as_ref().and_then(|t| t.window(false));
    let image = match &tables {
        Some(tables) => PackB::Gather(x.as_slice(), tables.offsets(false, &window)),
        None => PackB::N(x.as_slice()),
    };
    // Each output row starts from its channel's bias and the GEMM adds on
    // top: the bias comes first in every element's chain, with no second
    // pass over the output. Without one the GEMM writes every element.
    let mut out = Tensor::unfilled([n, cout, ho, wo]);
    let blocks = match b {
        Some(bias) => {
            assert_eq!(bias.dims(), &[cout], "bias must be [Cout]");
            let rows = out.as_mut_slice().chunks_exact_mut(spatial.max(1));
            for (row, &bv) in rows.zip(bias.as_slice().iter().cycle()) {
                row.fill(bv);
            }
            Out::Add(out.as_mut_slice())
        }
        None => Out::Write(out.as_mut_slice()),
    };
    // out[ni, gi] += w[gi] @ cols(x[ni, gi]) : [coutg, spatial]
    let batch = [
        axis(n, 0, cin * plane, cout * spatial),
        axis(g, coutg * krows, cing * plane, coutg * spatial),
    ];
    let weights = PackA::N(w.as_slice());
    kernels::gemm_batched(blocks, weights, image, (coutg, krows, spatial), batch);
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
    let ([n, cout, ho, wo], [_, _, kh, kw]) = (nchw(gy), nchw(w));
    let g = cfg.groups;
    check_groups(cin, cout, g);
    check_out_hw(&cfg, input_hw, (kh, kw), (ho, wo));
    let (cing, coutg) = (cin / g, cout / g);
    assert_eq!(w.dim(0), cout, "weight Cout mismatch");
    assert_eq!(w.dim(1), cing, "weight Cin/g mismatch");
    let (krows, spatial, plane) = (cing * kh * kw, ho * wo, input_hw.0 * input_hw.1);
    let tables = (!pointwise((kh, kw), &cfg)).then(|| Tables::new(cing, input_hw, (kh, kw), &cfg));
    let window = tables.as_ref().and_then(|t| t.window(false));
    let mut gx = Tensor::unfilled([n, cin, input_hw.0, input_hw.1]);
    // gx[ni, gi][cols] = w[gi]^T @ gy[ni, gi] : [krows, spatial]
    let batch = [
        axis(n, 0, cout * spatial, cin * plane),
        axis(g, coutg * krows, coutg * spatial, cing * plane),
    ];
    let sink = match &tables {
        Some(tables) => Out::ScatterWrite(gx.as_mut_slice(), tables.offsets(false, &window)),
        None => Out::Write(gx.as_mut_slice()),
    };
    let (weights, grads) = (PackA::T(w.as_slice()), PackB::N(gy.as_slice()));
    kernels::gemm_batched(sink, weights, grads, (krows, coutg, spatial), batch);
    gx
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
    let ([n, cin, h, wdt], [n2, cout, ho, wo]) = (nchw(x), nchw(gy));
    assert_eq!(n, n2, "batch mismatch between input and grad output");
    let (kh, kw) = kernel_hw;
    let g = cfg.groups;
    check_groups(cin, cout, g);
    check_out_hw(&cfg, (h, wdt), (kh, kw), (ho, wo));
    let (cing, coutg) = (cin / g, cout / g);
    let (krows, spatial, plane) = (cing * kh * kw, ho * wo, h * wdt);
    let tables = (!pointwise((kh, kw), &cfg)).then(|| Tables::new(cing, (h, wdt), (kh, kw), &cfg));
    let window = tables.as_ref().and_then(|t| t.window(true));
    let image_t = match &tables {
        Some(tables) => PackB::Gather(x.as_slice(), tables.offsets(true, &window)),
        None => PackB::T(x.as_slice()),
    };
    let mut gw = Tensor::unfilled([cout, cing, kh, kw]);
    // gw[gi] = Σ_ni gy[ni, gi] @ cols(x[ni, gi])^T : [coutg, krows]. The
    // weight gradient REDUCES over the batch: the sample axis writes no new
    // block, so each group's samples add into it in ascending order.
    let batch = [
        axis(g, coutg * spatial, cing * plane, coutg * krows),
        axis(n, cout * spatial, cin * plane, 0),
    ];
    let (blocks, grads) = (Out::Write(gw.as_mut_slice()), PackA::N(gy.as_slice()));
    kernels::gemm_batched(blocks, grads, image_t, (coutg, spatial, krows), batch);
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

/// `[a, b, 1, l]` as `[a, b, l]`, its storage moved.
fn drop_height(t: Tensor) -> Tensor {
    let dims = [t.dim(0), t.dim(1), t.dim(3)];
    t.into_shape(dims)
}

/// 1-D convolution: `x [N, Cin, L]`, `w [Cout, Cin/g, k]` → `[N, Cout, Lo]`.
///
/// [`conv2d`] at unit height, over the operands where they lie.
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
    drop_height(conv2d(x, w, b, conv1d_cfg(stride, padding, groups)))
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
    drop_height(conv2d_grad_input(w, gy, (1, len), cin, cfg))
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
    drop_height(conv2d_grad_weight(x, gy, (1, k), cfg))
}

/// Gradient of [`conv1d`] with respect to its bias: `gy` summed over length
/// per sample, then over the batch — batch norm's per-channel `Σgy` pass
/// (the sums [`conv2d_grad_bias`] takes over the unit-height view, whose
/// extra size-1 reduction adds each sum to `+0.0` unchanged).
pub fn conv1d_grad_bias(gy: &Tensor) -> Tensor {
    assert_eq!(gy.rank(), 3, "conv1d gradient must be [N, C, L]");
    let dims = (1, gy.dim(0), gy.dim(1), gy.dim(2));
    let sums = crate::norm::channel_sums([gy.as_slice()], dims, [], true, |_, [g]| [g]);
    Tensor::from_slice(sums.as_flattened(), [dims.2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_kernels::reference;
    use proptest::prelude::*;

    /// The zero-padding copies the ops made before padding became a window,
    /// kept for the oracles.
    trait Pad2d {
        fn pad2d(&self, pad_h: usize, pad_w: usize) -> Tensor;
        fn unpad2d(&self, pad_h: usize, pad_w: usize) -> Tensor;
    }

    impl Pad2d for Tensor {
        /// Zero-pads the last two axes by `(pad_h, pad_w)` on each side.
        fn pad2d(&self, pad_h: usize, pad_w: usize) -> Tensor {
            let rank = self.rank();
            let (h, w) = (self.dim(rank - 2), self.dim(rank - 1));
            let (nh, nw) = (h + 2 * pad_h, w + 2 * pad_w);
            let mut dims = self.dims().to_vec();
            dims[rank - 2..].copy_from_slice(&[nh, nw]);
            let mut out = Tensor::zeros(dims);
            let planes = out.as_mut_slice().chunks_exact_mut(nh * nw);
            for (to, from) in planes.zip(self.as_slice().chunks_exact(h * w)) {
                for (y, row) in from.chunks_exact(w).enumerate() {
                    to[(y + pad_h) * nw + pad_w..][..w].copy_from_slice(row);
                }
            }
            out
        }

        /// Removes `(pad_h, pad_w)` from each side of the last two axes.
        fn unpad2d(&self, pad_h: usize, pad_w: usize) -> Tensor {
            let rank = self.rank();
            let (h, w) = (self.dim(rank - 2), self.dim(rank - 1));
            self.narrow(rank - 2, pad_h, h - 2 * pad_h)
                .narrow(rank - 1, pad_w, w - 2 * pad_w)
        }
    }

    #[test]
    fn pad_unpad_round_trip() {
        let t = Tensor::arange(4).reshape(&[1, 1, 2, 2]);
        let p = t.pad2d(1, 2);
        assert_eq!(p.dims(), &[1, 1, 4, 6]);
        assert_eq!(p.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(p.at(&[0, 0, 1, 2]), t.at(&[0, 0, 0, 0]));
        assert_eq!(p.unpad2d(1, 2), t);
    }

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

        // Results that hang on the padding taps, on the geometries above.
        // Every weight tap that only ever meets padding holds ±inf or NaN,
        // so each chain through it must still take the padding's `+0.0` and
        // turn NaN (and the input gradient must drop what it scatters
        // there); the input's, the weight's and `gy`'s borders and half the
        // biases hold `-0.0`, which a chain that skipped a `+0.0` tap would
        // leave as it is.
        #[test]
        fn padding_taps_keep_their_non_finite_and_signed_zero_bits(
            n in 1usize..3,
            g in 0usize..3,
            cing in 1usize..4,
            coutg in 1usize..9,
            kernel in 0usize..4,
            sh in 1usize..4,
            sw in 1usize..4,
            ph in 0usize..3,
            pw in 0usize..3,
            ho in 1usize..6,
            wo in 0usize..5,
            eh in 0usize..3,
            ew in 0usize..3,
            special in 0usize..3,
            seed in 0u64..1000,
        ) {
            let (g, (kh, kw), wo) = (GROUPS[g], KERNELS[kernel], OUT_WIDTHS[wo]);
            let (th, tw) = ((ho - 1) * sh + kh, (wo - 1) * sw + kw);
            let (ph, pw) = (ph.min((th - 1) / 2), pw.min((tw - 1) / 2));
            let (hp, wp) = (th + eh % sh, tw + ew % sw);
            let (hw, cin, cout) = ((hp - 2 * ph, wp - 2 * pw), g * cing, g * coutg);
            let cfg = ConvCfg { stride: (sh, sw), padding: (ph, pw), groups: g };
            // Tap `u` of an axis meets only padding when no output reads a pixel with it.
            let padding_only = |taps: usize, out: usize, s: usize, p: usize, len: usize| {
                (0..taps)
                    .map(|u| (0..out).all(|o| o * s + u < p || o * s + u >= p + len))
                    .collect::<Vec<_>>()
            };
            let (rows, cols) = (padding_only(kh, ho, sh, ph, hw.0), padding_only(kw, wo, sw, pw, hw.1));
            let bad = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][special];
            let border = |y: usize, x: usize, (h, w): (usize, usize)| {
                y == 0 || x == 0 || y + 1 == h || x + 1 == w
            };
            // `-0.0` on every other border cell of each `[h, w]` plane.
            let zero_borders = |t: &mut Tensor, hw: (usize, usize)| {
                for (at, v) in t.as_mut_slice().iter_mut().enumerate() {
                    let (y, x) = (at / hw.1 % hw.0, at % hw.1);
                    if border(y, x, hw) && (at + seed as usize).is_multiple_of(2) {
                        *v = -0.0;
                    }
                }
            };
            let mut x = randn(&[n, cin, hw.0, hw.1], seed);
            let mut w = randn(&[cout, cing, kh, kw], seed + 1);
            let mut gy = randn(&[n, cout, ho, wo], seed + 3);
            zero_borders(&mut x, hw);
            zero_borders(&mut w, (kh, kw));
            zero_borders(&mut gy, (ho, wo));
            for (at, v) in w.as_mut_slice().iter_mut().enumerate() {
                let (u, t) = (at / kw % kh, at % kw);
                if rows[u] || cols[t] {
                    *v = if at % 2 == 0 { bad } else { -bad };
                }
            }
            let half_zero = |len: usize, seed: u64| {
                let mut b = randn(&[len], seed);
                b.as_mut_slice().iter_mut().step_by(2).for_each(|v| *v = -0.0);
                b
            };
            let (bias, tbias) = (half_zero(cout, seed + 2), half_zero(cin, seed + 4));
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

    /// Every conv geometry of the benchmark's three conv workloads, fused
    /// and serial, as `(cin, cout, hw, kernel, cfg)` at batch 2. DCGAN at
    /// B = 6 (width 12, 64x64): the discriminator's five convs; the
    /// generator's stride-2 transposed convs are the adjoints of the first
    /// four, and its 1 -> 4 projection is the adjoint of the sixth. PointNet
    /// at B = 8 (width 4, 32 points): the three 1x1 conv1d stages on their
    /// unit-height view. Each of the first four puts one group's
    /// weight-gradient reduction (both samples) above the GEMM's per-chunk
    /// FLOP target. Both again at `groups = 1`, one lane as the serial leg
    /// runs it. `mixed_plan`'s discriminators (width 8, 64x64): the width-4
    /// blocks at `groups = 4`, and the width-1 convs, the 3x3 refinement
    /// block among them, at `groups = 1`.
    #[allow(clippy::type_complexity)]
    fn fused_workload_layers() -> Vec<(usize, usize, (usize, usize), (usize, usize), ConvCfg)> {
        let down = |g| ConvCfg::square(2, 1, g);
        let edge = |g| ConvCfg::square(1, 0, g);
        let pointwise = |g| ConvCfg::unit().fused(g);
        let mut layers = Vec::new();
        // DCGAN, then mixed_plan: the discriminator of `width` at `g` groups.
        for (width, g) in [(12, 6), (12, 1), (8, 4), (8, 1)] {
            let (c, w) = (width * g, 3 * g);
            layers.extend([
                (w, c, (64, 64), (4, 4), down(g)),
                (c, 2 * c, (32, 32), (4, 4), down(g)),
                (2 * c, 4 * c, (16, 16), (4, 4), down(g)),
                (4 * c, 8 * c, (8, 8), (4, 4), down(g)),
                (8 * c, g, (4, 4), (4, 4), edge(g)),
            ]);
        }
        layers.extend([
            (576, 192, (4, 4), (4, 4), edge(6)),
            (96, 32, (4, 4), (4, 4), edge(1)),
            (8, 8, (32, 32), (3, 3), ConvCfg::square(1, 1, 1)),
        ]);
        // PointNet, fused and serial.
        for g in [8, 1] {
            layers.extend([
                (3 * g, 4 * g, (1, 32), (1, 1), pointwise(g)),
                (4 * g, 8 * g, (1, 32), (1, 1), pointwise(g)),
                (8 * g, 64 * g, (1, 32), (1, 1), pointwise(g)),
            ]);
        }
        layers
    }

    #[test]
    fn fused_workload_layers_are_the_im2col_composition_at_every_thread_count() {
        let ops = [
            "conv2d",
            "conv2d + bias",
            "conv2d_grad_input",
            "conv2d_grad_weight",
            "conv_transpose2d",
            "conv_transpose2d + bias",
        ];
        for (layer, (cin, cout, hw, kernel, cfg)) in fused_workload_layers().into_iter().enumerate()
        {
            let seed = 100 * layer as u64;
            let (ho, wo) = cfg.out_hw(hw, kernel);
            let x = randn(&[2, cin, hw.0, hw.1], seed);
            let w = randn(&[cout, cin / cfg.groups, kernel.0, kernel.1], seed + 1);
            let bias = randn(&[cout], seed + 2);
            let gy = randn(&[2, cout, ho, wo], seed + 3);
            let tbias = randn(&[cin], seed + 4);
            let want = [
                bits(&oracle_conv2d(&x, &w, None, cfg)),
                bits(&oracle_conv2d(&x, &w, Some(&bias), cfg)),
                bits(&oracle_grad_input(&w, &gy, hw, cin, cfg)),
                bits(&oracle_grad_weight(&x, &gy, kernel, cfg)),
                bits(&oracle_conv_transpose2d(&gy, &w, None, cfg)),
                bits(&oracle_conv_transpose2d(&gy, &w, Some(&tbias), cfg)),
            ];
            crate::thread_counts::each(|threads| {
                let got = [
                    bits(&conv2d(&x, &w, None, cfg)),
                    bits(&conv2d(&x, &w, Some(&bias), cfg)),
                    bits(&conv2d_grad_input(&w, &gy, hw, cin, cfg)),
                    bits(&conv2d_grad_weight(&x, &gy, kernel, cfg)),
                    bits(&conv_transpose2d(&gy, &w, None, cfg)),
                    bits(&conv_transpose2d(&gy, &w, Some(&tbias), cfg)),
                ];
                for (op, (got, want)) in ops.iter().zip(got.iter().zip(&want)) {
                    assert!(got == want, "{op} of layer {layer} at {threads} threads");
                }
            });
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

    #[test]
    #[should_panic(
        expected = "transposed conv taps (3, 3) narrower than padding (2, 2) on both sides"
    )]
    fn transpose_out_hw_rejects_padding_wider_than_the_taps() {
        ConvCfg::square(1, 2, 1).transpose_out_hw((1, 1), (3, 3));
    }

    #[test]
    #[should_panic(expected = "transposed conv input (0, 4) is empty")]
    fn transpose_out_hw_rejects_an_empty_input() {
        ConvCfg::square(2, 1, 1).transpose_out_hw((0, 4), (4, 4));
    }
}
