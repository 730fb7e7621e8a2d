//! Parameters enter the tape shared. `Tape::param` draws no pool buffer;
//! an optimizer update copies the value once while a live tape still
//! shares it, and not at all once every such tape is gone; `zero_grad`
//! draws nothing either.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

use hfta_nn::{Parameter, Tape};
use hfta_tensor::Tensor;

/// Buffers the pool hands out (fresh or recycled) while `f` runs.
fn pool_draws(f: impl FnOnce()) -> u64 {
    let before = hfta_mem::stats();
    f();
    let after = hfta_mem::stats();
    (after.pool_fresh_allocs + after.pool_reuses) - (before.pool_fresh_allocs + before.pool_reuses)
}

#[test]
fn tape_params_share_their_value_until_a_write() {
    let params: Vec<Parameter> = (0..4)
        .map(|i| Parameter::new(Tensor::full([64, 32], i as f32), format!("p{i}")))
        .collect();
    let step = |p: &Parameter| p.update(|v, _| v.as_mut_slice()[0] += 1.0);

    let tape = Tape::new();
    let vars = pool_draws(|| {
        let _: Vec<_> = params.iter().map(|p| tape.param(p)).collect();
    });
    assert_eq!(vars, 0, "Tape::param copied a value");
    assert_eq!(pool_draws(|| params.iter().for_each(|p| p.zero_grad())), 0);

    // Shared with a live tape: one copy each, and the tape keeps the old.
    assert_eq!(pool_draws(|| params.iter().for_each(step)), 4);
    let seen = tape.param(&params[0]);
    assert_eq!(pool_draws(|| step(&params[0])), 1);
    assert_eq!(seen.with_value(|v| v.as_slice()[0]), 1.0);
    drop((seen, tape));
    assert_eq!(pool_draws(|| params.iter().for_each(step)), 0);
    assert_eq!(params[0].value().as_slice()[0], 3.0);
}
