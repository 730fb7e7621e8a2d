//! A 1-D convolution reads its operands where they lie: the forward pass
//! and each gradient draw exactly one pooled buffer, their output.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

use hfta_tensor::conv::{conv1d, conv1d_grad_input, conv1d_grad_weight};
use hfta_tensor::{Rng, Tensor};

/// Storage buffers drawn from the pool (fresh or recycled) while `f` runs,
/// on its second run so the pool is warm.
fn pool_draws(f: impl Fn() -> Tensor) -> u64 {
    drop(f());
    let before = hfta_mem::stats();
    drop(f());
    let after = hfta_mem::stats();
    let draws = |s: &hfta_mem::MemStats| s.pool_fresh_allocs + s.pool_reuses;
    draws(&after) - draws(&before)
}

#[test]
fn conv1d_and_its_gradients_draw_only_their_outputs() {
    let mut rng = Rng::seed_from(5);
    // PointNet's fused 8 -> 64 pointwise stage at B = 8, and a padded,
    // strided, grouped kernel.
    for (n, cin, cout, len, k, stride, padding, groups, bias) in [
        (2, 64, 256, 32, 1, 1, 0, 8, true),
        (3, 6, 4, 17, 3, 2, 1, 2, false),
    ] {
        let x = rng.randn([n, cin, len]);
        let w = rng.randn([cout, cin / groups, k]);
        let b = bias.then(|| rng.randn([cout]));
        let y = conv1d(&x, &w, b.as_ref(), stride, padding, groups);
        let gy = rng.randn(y.dims().to_vec());
        let forward = pool_draws(|| conv1d(&x, &w, b.as_ref(), stride, padding, groups));
        let grad_input =
            pool_draws(|| conv1d_grad_input(&w, &gy, (cin, len), stride, padding, groups));
        let grad_weight = pool_draws(|| conv1d_grad_weight(&x, &gy, k, stride, padding, groups));
        assert_eq!(
            (forward, grad_input, grad_weight),
            (1, 1, 1),
            "pool draws of conv1d over [{n}, {cin}, {len}], k = {k}"
        );
    }
}
