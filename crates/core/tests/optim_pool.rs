//! A fused optimizer step moves no memory through the pool: the one-pass
//! lane kernels update `value` and the state tensors in place and
//! `zero_grad` fills the gradient slot in place. The pool counters are
//! process-global, so this is the only test in its binary (see
//! `crates/bench/tests/mem_gate.rs`).

use hfta_core::ops::FusedParameter;
use hfta_core::optim::{FusedAdadelta, FusedAdam, FusedOptimizer, FusedSgd, PerModel};
use hfta_nn::Parameter;
use hfta_tensor::Rng;

#[test]
fn steady_state_zero_grad_and_step_never_touch_the_pool() {
    hfta_mem::set_pool_enabled(true);
    let b = 3;
    let mut rng = Rng::seed_from(17);
    let params: Vec<FusedParameter> = [vec![b * 4, 5, 3, 3], vec![b * 4], vec![b * 2, 70_000]]
        .into_iter()
        .map(|dims| FusedParameter {
            param: Parameter::new(rng.randn(dims), "w"),
            b,
        })
        .collect();
    let lr = PerModel::new(vec![0.1, 0.01, 0.001]);
    let rho = PerModel::new(vec![0.9, 0.8, 0.95]);
    let momenta = PerModel::new(vec![0.9, 0.0, 0.5]);
    let mut opts: Vec<(&str, Box<dyn FusedOptimizer>)> = vec![
        (
            "sgd",
            Box::new(FusedSgd::new(params.clone(), lr.clone(), 0.0).unwrap()),
        ),
        (
            "sgd+momentum",
            Box::new(FusedSgd::with_momenta(params.clone(), lr.clone(), momenta).unwrap()),
        ),
        (
            "adam",
            Box::new(FusedAdam::new(params.clone(), lr.clone()).unwrap()),
        ),
        (
            "adadelta",
            Box::new(FusedAdadelta::new(params.clone(), lr, rho, 1e-6).unwrap()),
        ),
    ];
    opts[2].1.quarantine(1);
    for (name, opt) in &mut opts {
        let mut iterate = || {
            opt.zero_grad();
            for p in &params {
                p.param.update_grad(|g| g.as_mut_slice().fill(0.25));
            }
            opt.step();
        };
        iterate();
        let before = hfta_mem::stats();
        for _ in 0..3 {
            iterate();
        }
        let after = hfta_mem::stats();
        let traffic = |s: &hfta_mem::MemStats| {
            (
                s.pool_fresh_allocs,
                s.pool_reuses,
                s.scratch_checkouts,
                s.scratch_fresh_allocs,
            )
        };
        assert_eq!(traffic(&after), traffic(&before), "{name}: pool traffic");
        assert_eq!(after.live_bytes, before.live_bytes, "{name}: live bytes");
    }
}
