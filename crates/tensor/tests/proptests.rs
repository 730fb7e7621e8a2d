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
// test in `src/conv.rs`.) `set_num_threads` is process-wide, so these tests
// serialize on a mutex and restore the thread count before releasing it.

use hfta_kernels::set_num_threads;
use hfta_tensor::conv::{conv2d_grad_input, conv2d_grad_weight};
use std::sync::Mutex;

static THREADS_LOCK: Mutex<()> = Mutex::new(());

struct RestoreThreads(usize);

impl Drop for RestoreThreads {
    fn drop(&mut self) {
        set_num_threads(self.0);
    }
}

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
        let _l = THREADS_LOCK.lock().unwrap();
        let _restore = RestoreThreads(hfta_kernels::num_threads());
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
        let _l = THREADS_LOCK.lock().unwrap();
        let _restore = RestoreThreads(hfta_kernels::num_threads());
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
