//! Property-based tests of tensor invariants.

use hfta_tensor::conv::{conv2d, ConvCfg};
use hfta_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_for(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    prop::collection::vec(-10.0f32..10.0, n)
        .prop_map(move |data| Tensor::from_vec(data, dims.clone()))
}

proptest! {
    #[test]
    fn add_commutes(dims in small_dims()) {
        let n: usize = dims.iter().product();
        let a = Tensor::from_vec((0..n).map(|i| i as f32 * 0.5).collect(), dims.clone());
        let b = Tensor::from_vec((0..n).map(|i| (n - i) as f32).collect(), dims);
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn mul_by_one_is_identity(t in small_dims().prop_flat_map(tensor_for)) {
        prop_assert_eq!(t.mul(&t.ones_like()), t.clone());
        prop_assert_eq!(t.mul_scalar(1.0), t);
    }

    #[test]
    fn reshape_round_trip(t in small_dims().prop_flat_map(tensor_for)) {
        let flat = t.flatten();
        prop_assert_eq!(flat.reshape(t.dims()), t);
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6) {
        let t = Tensor::arange(rows * cols).reshape(&[rows, cols]);
        prop_assert_eq!(t.t().t(), t);
    }

    #[test]
    fn chunk_concat_round_trip(chunks in 1usize..4, per in 1usize..4, inner in 1usize..4) {
        let t = Tensor::arange(chunks * per * inner).reshape(&[chunks * per, inner]);
        let parts = t.chunk(chunks, 0);
        let refs: Vec<&Tensor> = parts.iter().collect();
        prop_assert_eq!(Tensor::concat(&refs, 0), t);
    }

    #[test]
    fn sum_to_is_broadcast_adjoint(outer in 1usize..5, inner in 1usize..5) {
        // <broadcast(x), y> == <x, sum_to(y)>
        let x = Tensor::arange(inner);
        let y = Tensor::arange(outer * inner)
            .map(|v| (v * 0.37).sin())
            .reshape(&[outer, inner]);
        let broadcast = Tensor::zeros([outer, inner]).add(&x);
        let lhs = broadcast.flatten().dot(&y.flatten());
        let reduced = y.sum_to(&Shape::new(vec![inner]));
        let rhs = x.dot(&reduced);
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn matmul_identity(n in 1usize..6, m in 1usize..6) {
        let a = Tensor::arange(n * m).reshape(&[n, m]);
        prop_assert_eq!(a.matmul(&Tensor::eye(m)), a.clone());
        prop_assert_eq!(Tensor::eye(n).matmul(&a), a);
    }

    #[test]
    fn matmul_distributes_over_addition(n in 1usize..4, k in 1usize..4, m in 1usize..4) {
        let a = Tensor::arange(n * k).map(|v| v * 0.1).reshape(&[n, k]);
        let b = Tensor::arange(k * m).map(|v| (v * 0.3).cos()).reshape(&[k, m]);
        let c = Tensor::arange(k * m).map(|v| (v * 0.7).sin()).reshape(&[k, m]);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn softmax_rows_sum_to_one(rows in 1usize..5, cols in 1usize..6) {
        let t = Tensor::arange(rows * cols).map(|v| (v * 1.7).sin() * 5.0).reshape(&[rows, cols]);
        let s = t.softmax(1);
        for r in 0..rows {
            let sum: f32 = (0..cols).map(|c| s.at(&[r, c])).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn grouped_conv_equals_concat_of_convs(
        b in 1usize..4,
        cin in 1usize..3,
        cout in 1usize..3,
        hw in 3usize..6,
    ) {
        // The HFTA Table 6 identity over random small shapes.
        let cfg = ConvCfg::square(1, 1, 1);
        let mk = |seed: usize, dims: &[usize]| {
            let n: usize = dims.iter().product();
            Tensor::from_vec(
                (0..n).map(|i| ((i + seed) as f32 * 0.61).sin()).collect(),
                dims.to_vec(),
            )
        };
        let xs: Vec<Tensor> = (0..b).map(|i| mk(i * 101, &[2, cin, hw, hw])).collect();
        let ws: Vec<Tensor> = (0..b).map(|i| mk(i * 37 + 5, &[cout, cin, 3, 3])).collect();
        let per: Vec<Tensor> = (0..b).map(|i| conv2d(&xs[i], &ws[i], None, cfg)).collect();
        let xf = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 1);
        let wf = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0);
        let fused = conv2d(&xf, &wf, None, cfg.fused(b));
        let expect = Tensor::concat(&per.iter().collect::<Vec<_>>(), 1);
        prop_assert!(fused.allclose(&expect, 1e-3));
    }

    #[test]
    fn max_pool_bounded_by_input_extrema(hw in 2usize..8) {
        let t = Tensor::arange(hw * hw).map(|v| (v * 2.3).sin()).reshape(&[1, 1, hw, hw]);
        let r = hfta_tensor::pool::max_pool2d(&t, (2, 2), (1, 1));
        prop_assert!(r.output.max_value() <= t.max_value() + 1e-6);
        prop_assert!(r.output.min_value() >= t.min_value() - 1e-6);
    }

    #[test]
    fn repeat_interleave_preserves_multiset(len in 1usize..6, reps in 1usize..4) {
        let t = Tensor::arange(len);
        let r = t.repeat_interleave(reps, 0);
        prop_assert_eq!(r.numel(), len * reps);
        prop_assert!((r.sum().item() - t.sum().item() * reps as f32).abs() < 1e-4);
    }
}

// --- Kernel determinism contract at the conv level -------------------------
//
// The forward and both backward convolutions must be **bit-identical** at
// every thread count: HFTA's Figure 3 claim (fused training is bit-exact
// with serial training) only survives if the compute layer underneath is
// deterministic. (That conv equals its im2col + reference oracle is a unit
// test in `src/conv.rs`.) Each test sets its own thread's count.

use hfta_kernels::set_num_threads;
use hfta_tensor::conv::{conv2d_grad_input, conv2d_grad_weight};

fn mk_tensor(seed: usize, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| ((i * 7 + seed) as f32 * 0.61).sin())
            .collect(),
        dims.to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // About two cases in three put a (sample, group) block above the GEMM's
    // small-shape threshold (2 * coutg * cing * 9 * spatial >= 4 kFLOP), so
    // the tiled gather / scatter paths are compared, not only the direct
    // loops; the rest stay below it.
    #[test]
    fn conv2d_bit_identical_across_threads(
        n in 1usize..4,
        g in 1usize..4,
        cing in 1usize..6,
        coutg in 1usize..9,
        hw in 6usize..15,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0usize..1000,
    ) {
        let cfg = ConvCfg::square(stride, pad, g);
        let x = mk_tensor(seed, &[n, g * cing, hw, hw]);
        let w = mk_tensor(seed + 13, &[g * coutg, cing, 3, 3]);
        let bias = mk_tensor(seed + 29, &[g * coutg]);
        let y = conv2d(&x, &w, Some(&bias), cfg);
        let gy = mk_tensor(seed + 71, y.dims());
        let gx = conv2d_grad_input(&w, &gy, (hw, hw), g * cing, cfg);
        let gw = conv2d_grad_weight(&x, &gy, (3, 3), cfg);
        for threads in [1usize, 2, 4] {
            set_num_threads(threads);
            prop_assert_eq!(&conv2d(&x, &w, Some(&bias), cfg), &y);
            prop_assert_eq!(&conv2d_grad_input(&w, &gy, (hw, hw), g * cing, cfg), &gx);
            prop_assert_eq!(&conv2d_grad_weight(&x, &gy, (3, 3), cfg), &gw);
        }
    }

    #[test]
    fn batched_matmul_bit_identical_across_threads(
        b in 1usize..7,
        m in 1usize..10,
        k in 1usize..10,
        nn in 1usize..10,
        seed in 0usize..1000,
    ) {
        let x = mk_tensor(seed, &[b, m, k]);
        let w = mk_tensor(seed + 3, &[b, k, nn]);
        let p = x.bmm(&w);
        let pn = x.bmm_nt(&w.transpose(1, 2));
        let pt = x.transpose(1, 2).bmm_tn(&w);
        for threads in [1usize, 2, 4] {
            set_num_threads(threads);
            prop_assert_eq!(&x.bmm(&w), &p);
            prop_assert_eq!(&x.bmm_nt(&w.transpose(1, 2)), &pn);
            prop_assert_eq!(&x.transpose(1, 2).bmm_tn(&w), &pt);
        }
    }
}

// The three conv ops against pad -> im2col -> GEMM -> col2im -> unpad, bit
// for bit. The GEMM reads a gathered image as a view (one row panel, or a
// weight gradient folding more steps than a packed `B` does) or packs it,
// and adds the input gradient through its tables; the cases span both
// sides of that split and of an 8-column panel.

use hfta_kernels::reference::{gemm_nt_ref, gemm_ref, gemm_tn_ref};

/// Bit patterns with every NaN as one (a NaN product's payload is the
/// platform's).
fn canon(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
        .collect()
}

/// `conv2d(x, w, bias)`, `conv2d_grad_input(w, gy)` and
/// `conv2d_grad_weight(x, gy)` by the oracle: each `(sample, group)` block's
/// zero-padded image lowered to columns, the reference loops over them
/// (every output chain from its bias or `+0.0`, each weight-gradient block
/// through the samples in order), the input gradient's product added back
/// into zeroed padded planes tap by tap and cropped; a pointwise one is the
/// product itself.
fn conv_oracle(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    gy: &Tensor,
    cfg: ConvCfg,
) -> [Vec<f32>; 3] {
    let (&[n, cin, h, wd], &[cout, cing, kh, kw]) = (x.dims(), w.dims()) else {
        panic!("4-d operands")
    };
    let (g, (ph, pw), (sh, sw)) = (cfg.groups, cfg.padding, cfg.stride);
    let (coutg, hp, wp) = (cout / g, h + 2 * ph, wd + 2 * pw);
    let (ho, wo) = ((hp - kh) / sh + 1, (wp - kw) / sw + 1);
    let (krows, spatial, plane) = (cing * kh * kw, ho * wo, hp * wp);
    let tap = |r: usize, q: usize| {
        let (ci, u, v, oy, ox) = (r / (kh * kw), r / kw % kh, r % kw, q / wo, q % wo);
        (ci * hp + oy * sh + u) * wp + ox * sw + v
    };
    let mut y = vec![0.0f32; n * cout * spatial];
    if let Some(b) = bias {
        for (row, &bv) in y.chunks_exact_mut(spatial).zip(b.as_slice().iter().cycle()) {
            row.fill(bv);
        }
    }
    let (mut gx, mut gw) = (vec![0.0f32; x.numel()], vec![0.0f32; w.numel()]);
    let pointwise = (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0);
    for (gi, ni) in (0..g).flat_map(|gi| (0..n).map(move |ni| (gi, ni))) {
        let img = &x.as_slice()[(ni * cin + gi * cing) * h * wd..][..cing * h * wd];
        let mut padded = vec![0.0f32; cing * plane];
        for (c, row) in (0..cing * h).zip(img.chunks_exact(wd)) {
            padded[(c / h * hp + c % h + ph) * wp + pw..][..wd].copy_from_slice(row);
        }
        let mut cols = vec![0.0f32; krows * spatial];
        for (r, q) in (0..krows).flat_map(|r| (0..spatial).map(move |q| (r, q))) {
            cols[r * spatial + q] = padded[tap(r, q)];
        }
        let wg = &w.as_slice()[gi * coutg * krows..][..coutg * krows];
        let gyg = &gy.as_slice()[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
        let yg = &mut y[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
        gemm_ref(yg, wg, &cols, coutg, krows, spatial);
        let mut product = vec![0.0f32; krows * spatial];
        gemm_tn_ref(&mut product, wg, gyg, krows, coutg, spatial);
        let gxg = &mut gx[(ni * cin + gi * cing) * h * wd..][..cing * h * wd];
        if pointwise {
            gxg.copy_from_slice(&product);
        } else {
            let mut back = vec![0.0f32; cing * plane];
            for (r, q) in (0..krows).flat_map(|r| (0..spatial).map(move |q| (r, q))) {
                back[tap(r, q)] += product[r * spatial + q];
            }
            for (c, row) in (0..cing * h).zip(gxg.chunks_exact_mut(wd)) {
                row.copy_from_slice(&back[(c / h * hp + c % h + ph) * wp + pw..][..wd]);
            }
        }
        let gwg = &mut gw[gi * coutg * krows..][..coutg * krows];
        gemm_nt_ref(gwg, gyg, &cols, coutg, spatial, krows);
    }
    [y, gx, gw]
}

/// The three ops at `threads` against `want`, NaNs as one pattern.
fn conv_ops_match(
    (x, w, bias, gy): (&Tensor, &Tensor, Option<&Tensor>, &Tensor),
    cfg: ConvCfg,
    want: &[Vec<f32>; 3],
    threads: usize,
) -> Result<(), String> {
    set_num_threads(threads);
    let (&[_, cin, h, wd], &[_, _, kh, kw]) = (x.dims(), w.dims()) else {
        panic!("4-d operands")
    };
    let got = [
        conv2d(x, w, bias, cfg),
        conv2d_grad_input(w, gy, (h, wd), cin, cfg),
        conv2d_grad_weight(x, gy, (kh, kw), cfg),
    ];
    for ((op, got), want) in ["forward", "input gradient", "weight gradient"]
        .iter()
        .zip(&got)
        .zip(want)
    {
        if canon(got.as_slice()) != canon(want) {
            return Err(format!("{op} differs at {threads} threads, {cfg:?}"));
        }
    }
    Ok(())
}

/// The operands of one conv: seeded image, weight (its cell `special.1`
/// set to `special.0` when given), bias and output gradient.
fn conv_operands(
    (n, g, cing, coutg): (usize, usize, usize, usize),
    (h, wd, kh, kw): (usize, usize, usize, usize),
    cfg: ConvCfg,
    special: Option<(f32, usize)>,
    seed: usize,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let x = mk_tensor(seed, &[n, g * cing, h, wd]);
    let mut w = mk_tensor(seed + 13, &[g * coutg, cing, kh, kw]);
    if let Some((v, at)) = special {
        let cells = w.numel();
        w.as_mut_slice()[at % cells] = v;
    }
    let bias = mk_tensor(seed + 29, &[g * coutg]);
    let (ho, wo) = cfg.out_hw((h, wd), (kh, kw));
    let gy = mk_tensor(seed + 71, &[n, g * coutg, ho, wo]);
    (x, w, bias, gy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Strides 1 and 2, kernels 1-5, padding 0-2, output rows from 1 to 25
    // wide, 1-3 groups of 1-11 output channels (views at up to 8, packed
    // past), one or two samples reducing into the weight gradient, with and
    // without a bias (an adding and a writing sink), a NaN or an infinite
    // weight, at 1 and 4 threads.
    #[test]
    fn conv_ops_equal_the_im2col_oracle(
        n in 1usize..3,
        g in 1usize..4,
        cing in 1usize..4,
        coutg in 1usize..12,
        h in 1usize..9,
        wd in 1usize..22,
        kh in 1usize..6,
        kw in 1usize..6,
        stride in 1usize..3,
        pad in 0usize..3,
        bias in any::<bool>(),
        special in 0usize..4,
        seed in 0usize..1000,
    ) {
        if h + 2 * pad < kh || wd + 2 * pad < kw {
            return Ok(());
        }
        let cfg = ConvCfg::square(stride, pad, g);
        let special = [None, Some((f32::NAN, seed)), Some((f32::INFINITY, seed)), Some((-0.0, seed))][special];
        let (x, w, b, gy) = conv_operands((n, g, cing, coutg), (h, wd, kh, kw), cfg, special, seed);
        let bias = bias.then_some(&b);
        let want = conv_oracle(&x, &w, bias, &gy, cfg);
        for threads in [1, 4] {
            conv_ops_match((&x, &w, bias, &gy), cfg, &want, threads)?;
        }
    }
}

/// Every conv layer shape of the `mixed_plan` and `dcgan_compute` workloads
/// (batch 2; a DCGAN generator layer as the conv it is the adjoint of), its
/// three ops against the oracle at 1 and 4 threads.
#[test]
fn workload_conv_layers_equal_the_im2col_oracle() {
    // (groups, cing, coutg, plane, kernel, stride, padding)
    let layers = [
        // mixed_plan: width-4 blocks of D1-D5 and the 3x3 refinements at widths 1 and 2.
        (4, 3, 8, 64, 4, 2, 1),
        (1, 8, 8, 32, 3, 1, 1),
        (2, 8, 8, 32, 3, 1, 1),
        (4, 8, 16, 32, 4, 2, 1),
        (4, 16, 32, 16, 4, 2, 1),
        (4, 32, 64, 8, 4, 2, 1),
        (4, 64, 1, 4, 4, 1, 0),
        // dcgan_compute at B = 6: D1-D5, and G1's conv (G2-G5's are D4-D1's).
        (6, 3, 12, 64, 4, 2, 1),
        (6, 12, 24, 32, 4, 2, 1),
        (6, 24, 48, 16, 4, 2, 1),
        (6, 48, 96, 8, 4, 2, 1),
        (6, 96, 1, 4, 4, 1, 0),
        (6, 96, 32, 4, 4, 1, 0),
    ];
    for (seed, &(g, cing, coutg, hw, k, stride, pad)) in layers.iter().enumerate() {
        let cfg = ConvCfg::square(stride, pad, g);
        let (x, w, _, gy) = conv_operands((2, g, cing, coutg), (hw, hw, k, k), cfg, None, seed);
        let want = conv_oracle(&x, &w, None, &gy, cfg);
        for threads in [1, 4] {
            conv_ops_match((&x, &w, None, &gy), cfg, &want, threads).unwrap();
        }
    }
}
