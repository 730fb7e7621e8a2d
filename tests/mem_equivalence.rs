//! Pooled-storage equivalence and steady-state allocation guards.
//!
//! The size-class pool under `Tensor` recycles buffers between steps; the
//! HFTA bit-identity contract (fused training reproduces serial training
//! bit-for-bit) only survives if recycling changes *nothing* about the
//! computed values. These tests train real fused models twice — pool on
//! vs plain allocation (`set_pool_enabled(false)`) — and
//! compare every parameter bit-for-bit at 1 and 4 worker threads, then
//! pin down the two properties the memory layer itself claims: fixed
//! workloads produce identical pool statistics, and after warm-up a
//! training step performs zero fresh allocations.

use std::sync::Mutex;

use hfta_core::format::{conv_to_array, stack_conv, stack_targets};
use hfta_core::loss::{fused_bce_with_logits, fused_cross_entropy, fused_nll_loss, Reduction};
use hfta_core::ops::{FusedConv2d, FusedLinear, FusedModule};
use hfta_core::optim::{FusedAdam, FusedOptimizer, FusedSgd, PerModel};
use hfta_data::PointClouds;
use hfta_models::{DcganCfg, FusedDiscriminator, FusedPointNetCls, PointNetCfg};
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// The pool toggle, thread count and statistics are process-global, so
/// every test in this binary runs under one lock and restores the
/// defaults (pool on) before releasing it.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Trains a fused conv → linear classifier for `steps` and returns every
/// parameter as raw `f32` bit patterns.
fn conv_linear_param_bits(
    b: usize,
    steps: usize,
    seed: u64,
    threads: usize,
    pooled: bool,
) -> Vec<Vec<u32>> {
    hfta_kernels::set_num_threads(threads);
    hfta_mem::set_pool_enabled(pooled);
    hfta_mem::trim();
    let mut rng = Rng::seed_from(seed);
    let conv = FusedConv2d::new(b, Conv2dCfg::new(3, 6, 3), &mut rng);
    let x = rng.rand([2, 3 * b, 8, 8], -1.0, 1.0);
    // Probe the conv output shape once to size the classifier head.
    let flat = {
        let tape = Tape::new();
        let h = conv.forward(&tape.leaf(x.clone()));
        let d = h.dims();
        d[1] / b * d[2] * d[3]
    };
    let fc = FusedLinear::new(b, LinearCfg::new(flat, 4), &mut rng);
    let mut params = conv.fused_parameters();
    params.extend(fc.fused_parameters());
    let mut opt =
        FusedSgd::new(params.clone(), PerModel::uniform(b, 0.05), 0.9).expect("widths match");
    let targets: Vec<usize> = (0..2 * b).map(|_| rng.below(4)).collect();
    for _ in 0..steps {
        opt.zero_grad();
        let tape = Tape::new();
        let h = conv.forward(&tape.leaf(x.clone())).relu();
        let logits = fc.forward(&conv_to_array(&h.flatten_from(1), b));
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
    }
    params
        .iter()
        .map(|p| {
            p.param
                .value_cloned()
                .to_vec()
                .into_iter()
                .map(f32::to_bits)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite (c): pooled and unpooled fused conv+linear training is
    /// bit-identical at 1 and 4 worker threads, for arbitrary seeds and
    /// array widths.
    #[test]
    fn pooled_training_is_bit_identical(b in 1usize..4, seed in 0u64..1_000) {
        let _g = lock();
        for threads in [1usize, 4] {
            let pooled = conv_linear_param_bits(b, 2, seed, threads, true);
            let plain = conv_linear_param_bits(b, 2, seed, threads, false);
            prop_assert_eq!(&pooled, &plain);
        }
        hfta_mem::set_pool_enabled(true);
    }
}

/// One fused DCGAN discriminator step; returns the step closure's driver
/// state so callers control warm-up vs measured windows.
fn run_dcgan_steps(b: usize, steps: usize) {
    let mut rng = Rng::seed_from(21);
    let disc = FusedDiscriminator::new(b, DcganCfg::mini(), &mut rng);
    disc.set_training(false);
    let mut opt =
        FusedAdam::new(disc.fused_parameters(), PerModel::uniform(b, 2e-3)).expect("widths match");
    let real = rng.rand([4, 3, 16, 16], -1.0, 1.0);
    let labels = Tensor::ones([4, b]);
    for _ in 0..steps {
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = vec![real.clone(); b];
        let d = disc.forward(&tape.leaf(stack_conv(&copies).expect("stackable")));
        fused_bce_with_logits(&d, &labels, b, Reduction::Mean).backward();
        opt.step();
    }
}

/// DCGAN bit-identity at the full-model level, pool on vs off.
#[test]
fn dcgan_step_pooled_matches_unpooled() {
    let _g = lock();
    let run = |pooled: bool, threads: usize| -> Vec<Vec<u32>> {
        hfta_kernels::set_num_threads(threads);
        hfta_mem::set_pool_enabled(pooled);
        hfta_mem::trim();
        let mut rng = Rng::seed_from(33);
        let disc = FusedDiscriminator::new(3, DcganCfg::mini(), &mut rng);
        disc.set_training(false);
        let params = disc.fused_parameters();
        let mut opt =
            FusedAdam::new(params.clone(), PerModel::uniform(3, 2e-3)).expect("widths match");
        let real = rng.rand([4, 3, 16, 16], -1.0, 1.0);
        let labels = Tensor::ones([4, 3]);
        for _ in 0..2 {
            opt.zero_grad();
            let tape = Tape::new();
            let copies: Vec<Tensor> = vec![real.clone(); 3];
            let d = disc.forward(&tape.leaf(stack_conv(&copies).expect("stackable")));
            fused_bce_with_logits(&d, &labels, 3, Reduction::Mean).backward();
            opt.step();
        }
        params
            .iter()
            .map(|p| {
                p.param
                    .value_cloned()
                    .to_vec()
                    .into_iter()
                    .map(f32::to_bits)
                    .collect()
            })
            .collect()
    };
    for threads in [1usize, 4] {
        assert_eq!(
            run(true, threads),
            run(false, threads),
            "pooled DCGAN diverged at {threads} threads"
        );
    }
    hfta_mem::set_pool_enabled(true);
}

/// PointNet bit-identity at the full-model level, pool on vs off.
#[test]
fn pointnet_step_pooled_matches_unpooled() {
    let _g = lock();
    let run = |pooled: bool, threads: usize| -> Vec<Vec<u32>> {
        hfta_kernels::set_num_threads(threads);
        hfta_mem::set_pool_enabled(pooled);
        hfta_mem::trim();
        let mut rng = Rng::seed_from(34);
        let net = FusedPointNetCls::new(2, PointNetCfg::mini(6), &mut rng);
        net.set_training(false);
        let params = net.fused_parameters();
        let mut opt =
            FusedAdam::new(params.clone(), PerModel::uniform(2, 1e-3)).expect("widths match");
        let mut data = PointClouds::new(32, 8);
        let (x, y) = data.batch(6);
        let targets = stack_targets(&vec![y.clone(); 2]).expect("stackable");
        for _ in 0..2 {
            opt.zero_grad();
            let tape = Tape::new();
            let copies: Vec<Tensor> = vec![x.clone(); 2];
            let lp = net.forward(&tape.leaf(stack_conv(&copies).expect("stackable")));
            fused_nll_loss(&lp, &targets, Reduction::Mean).backward();
            opt.step();
        }
        params
            .iter()
            .map(|p| {
                p.param
                    .value_cloned()
                    .to_vec()
                    .into_iter()
                    .map(f32::to_bits)
                    .collect()
            })
            .collect()
    };
    for threads in [1usize, 4] {
        assert_eq!(
            run(true, threads),
            run(false, threads),
            "pooled PointNet diverged at {threads} threads"
        );
    }
    hfta_mem::set_pool_enabled(true);
}

/// Satellite (c): identical workloads produce identical pool statistics —
/// the accounting itself is deterministic (fixed to 1 worker thread, the
/// configuration where scratch-arena growth order is fully determined).
#[test]
fn pool_stats_are_deterministic_for_fixed_workload() {
    let _g = lock();
    hfta_kernels::set_num_threads(1);
    hfta_mem::set_pool_enabled(true);
    let observe = || {
        hfta_mem::trim();
        hfta_mem::reset_stats();
        run_dcgan_steps(2, 3);
        let s = hfta_mem::stats();
        (
            s.pool_fresh_allocs,
            s.pool_reuses,
            s.scratch_fresh_allocs,
            s.peak_footprint_bytes,
            s.live_bytes,
        )
    };
    let a = observe();
    let b = observe();
    assert_eq!(a, b, "same workload, different pool statistics");
    assert!(a.1 > 0, "workload never reused a pooled buffer");
}

/// Satellite (f): after warm-up, a training step allocates nothing fresh —
/// every buffer on the hot path comes from the pool or a scratch arena.
#[test]
fn steady_state_steps_allocate_nothing() {
    let _g = lock();
    hfta_kernels::set_num_threads(4);
    hfta_mem::set_pool_enabled(true);
    for b in [1usize, 4] {
        hfta_mem::trim();
        hfta_mem::reset_stats();
        run_dcgan_steps(b, 3); // warm-up: grows pool + arenas to steady state
        let before = hfta_mem::stats();
        run_dcgan_steps(b, 2); // rebuilds the model too: still no fresh allocs
        let after = hfta_mem::stats();
        assert_eq!(
            after.fresh_allocs() - before.fresh_allocs(),
            0,
            "B={b}: steady-state steps allocated fresh memory"
        );
        assert!(
            after.pool_reuses > before.pool_reuses,
            "B={b}: steady-state steps never hit the pool"
        );
    }
}
