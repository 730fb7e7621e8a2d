//! A fused optimizer step moves no memory through the pool: the one-pass
//! lane kernels update `value` and the state tensors in place and
//! `zero_grad` fills the gradient slot in place. `hfta_mem::stats()` sums
//! every thread's counters, so this is the only test in its binary (see
//! `crates/bench/tests/mem_gate.rs`).

use hfta_core::ops::FusedParameter;
use hfta_core::optim::{
    FusedAdadelta, FusedAdam, FusedOptimizer, FusedSgd, PerModel, SgdUpdate, Update,
};
use hfta_core::planned::{PlannedArray, PlannedOptimizer};
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_nn::Parameter;
use hfta_plan::{FusionPlan, ModelGraph, OpSpec};
use hfta_tensor::Rng;

/// Runs `zero_grad` + `step` to a steady state and asserts three more
/// iterations move nothing through the pool.
fn assert_no_pool_traffic<U: Update>(name: &str, mut opt: FusedOptimizer<U>) {
    let mut iterate = || {
        opt.zero_grad();
        for p in opt.params() {
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
    let traffic = |s: &hfta_mem::MemStats| (s.pool_fresh_allocs, s.pool_reuses);
    assert_eq!(traffic(&after), traffic(&before), "{name}: pool traffic");
    assert_eq!(after.live_bytes, before.live_bytes, "{name}: live bytes");
}

/// A conv net with `extra` refinement convs: lanes with different `extra`
/// share a fused stem and head around serial middles.
fn net(extra: usize) -> ModelGraph {
    let conv = |c_in| OpSpec::conv2d(Conv2dCfg::new(c_in, 3, 3).stride(1).padding(1));
    let mut ops = vec![conv(2), OpSpec::relu()];
    for _ in 0..extra {
        ops.extend([conv(3), OpSpec::relu()]);
    }
    ops.extend([OpSpec::flatten(), OpSpec::linear(LinearCfg::new(3 * 16, 2))]);
    ModelGraph::new(format!("net+{extra}"), vec![2, 4, 4], ops)
}

#[test]
fn steady_state_zero_grad_and_step_never_touch_the_pool() {
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
    let sgd = FusedSgd::new(params.clone(), lr.clone(), 0.0).unwrap();
    assert_no_pool_traffic("sgd", sgd);
    let sgd = FusedSgd::with_momenta(params.clone(), lr.clone(), momenta).unwrap();
    assert_no_pool_traffic("sgd+momentum", sgd);
    let mut adam = FusedAdam::new(params.clone(), lr.clone()).unwrap();
    adam.quarantine(1);
    assert_no_pool_traffic("adam", adam);
    let adadelta = FusedAdadelta::new(params, lr, rho, 1e-6).unwrap();
    assert_no_pool_traffic("adadelta", adadelta);

    // The grouped path: one group per parameter-carrying block of a mixed
    // plan, with a quarantined lane that is fused in some blocks and
    // serial in others.
    let graphs: Vec<ModelGraph> = [0, 1, 0, 2].into_iter().map(net).collect();
    let plan = FusionPlan::plan(&graphs).unwrap();
    assert!(plan.fused_fraction() > 0.0 && plan.fused_fraction() < 1.0);
    let array = PlannedArray::build(&graphs, &plan, &[1, 2, 3, 4]).unwrap();
    let lr = PerModel::new(vec![0.1, 0.05, 0.02, 0.01]);
    let momentum = PerModel::new(vec![0.9, 0.0, 0.5, 0.9]);
    let mut planned: PlannedOptimizer =
        FusedOptimizer::planned(&array, &lr, SgdUpdate { momentum }).unwrap();
    planned.quarantine(1);
    assert_no_pool_traffic("planned sgd", planned);
}
