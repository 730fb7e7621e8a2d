//! A 1-D convolution reads its operands where they lie: the forward pass
//! and each gradient draw their output and, where the product needs one,
//! the batched GEMM's workspace, and no im2col columns.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

use hfta_tensor::conv::{conv1d, conv1d_grad_input, conv1d_grad_weight};
use hfta_tensor::{Rng, Tensor};

/// Elements of the pool class that serves a request of `len` elements.
fn class_of(len: usize) -> usize {
    len.next_power_of_two().max(hfta_mem::pool::MIN_CLASS_ELEMS)
}

/// Storage buffers drawn from the pool (fresh or recycled) while `f` runs,
/// on its second run so the pool is warm: in all, and in the class of
/// `cols` elements.
fn pool_draws(cols: usize, f: impl Fn() -> Tensor) -> (u64, u64) {
    drop(f());
    let before = hfta_mem::stats();
    drop(f());
    let after = hfta_mem::stats();
    let draws = |s: &hfta_mem::MemStats| {
        let all = s.pool_fresh_allocs + s.pool_reuses;
        let class = s.classes.iter().find(|c| c.elems == class_of(cols));
        (all, class.map_or(0, |c| c.fresh_allocs + c.reuses))
    };
    let ((all, in_class), (all_before, in_class_before)) = (draws(&after), draws(&before));
    (all - all_before, in_class - in_class_before)
}

#[test]
fn conv1d_and_its_gradients_draw_their_outputs_and_one_workspace() {
    let mut rng = Rng::seed_from(5);
    // PointNet's fused 8 -> 64 pointwise stage at B = 8, and a padded,
    // strided, grouped kernel; each op's draws in all.
    for ((n, cin, cout, len, k, stride, padding, groups, bias), want) in [
        ((2, 64, 256, 32, 1, 1, 0, 8, true), (1, 1, 2)),
        ((3, 6, 4, 17, 3, 2, 1, 2, false), (2, 2, 2)),
    ] {
        let x = rng.randn([n, cin, len]);
        let w = rng.randn([cout, cin / groups, k]);
        let b = bias.then(|| rng.randn([cout]));
        let y = conv1d(&x, &w, b.as_ref(), stride, padding, groups);
        let gy = rng.randn(y.dims().to_vec());
        // The im2col columns of the batch, `[n, cin * k, lout]`, which an
        // im2col forward pass, input gradient or weight gradient would hold.
        let cols = n * cin * k * y.dims()[2];
        let forward = pool_draws(cols, || conv1d(&x, &w, b.as_ref(), stride, padding, groups));
        let grad_input = pool_draws(cols, || {
            conv1d_grad_input(&w, &gy, (cin, len), stride, padding, groups)
        });
        let grad_weight = pool_draws(cols, || {
            conv1d_grad_weight(&x, &gy, k, stride, padding, groups)
        });
        let at = format!("conv1d over [{n}, {cin}, {len}], k = {k}");
        assert_eq!(
            (forward.0, grad_input.0, grad_weight.0),
            want,
            "pool draws of {at}"
        );
        // In the columns' class only an output that falls there draws.
        let outputs = [y.numel(), x.numel(), w.numel()];
        let in_class = outputs.map(|len| u64::from(class_of(len) == class_of(cols)));
        assert_eq!(
            [forward.1, grad_input.1, grad_weight.1],
            in_class,
            "draws of {at} in the class of its {cols} im2col columns"
        );
    }
}
