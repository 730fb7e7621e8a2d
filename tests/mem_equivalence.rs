//! Recycled-buffer equivalence and steady-state allocation guards.
//!
//! The size-class pool under `Tensor` recycles buffers between steps, and
//! `Storage::unfilled` hands a pass a recycled buffer without filling it.
//! The HFTA bit-identity contract (fused training reproduces serial
//! training bit-for-bit) only survives if what a recycled buffer held never
//! reaches a result. These tests train real fused models twice — from a
//! cold pool (`hfta_mem::trim()`: every buffer fresh) and from a dirty one
//! whose free lists hold only NaN-filled buffers — and compare every
//! parameter bit-for-bit at 1 and 4 worker threads, so a pass that reads an
//! unfilled buffer before writing it fails here. Then they pin down the two
//! properties the memory layer itself claims: fixed workloads produce
//! identical pool statistics, and after warm-up a training step performs
//! zero fresh allocations.

use std::sync::{Mutex, MutexGuard};

use hfta_core::format::{conv_to_array, stack_conv, stack_targets};
use hfta_core::loss::{fused_bce_with_logits, fused_cross_entropy, fused_nll_loss, Reduction};
use hfta_core::ops::{Fused, FusedLinear, FusedModule, FusedParameter, Ops};
use hfta_core::optim::{FusedAdam, FusedSgd, PerModel};
use hfta_data::PointClouds;
use hfta_mem::Storage;
use hfta_models::{DcganCfg, FusedDiscriminator, FusedGenerator, FusedPointNetCls, PointNetCfg};
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// The worker-thread count is process-wide, and `hfta_mem::stats()` sums
/// every thread's pool counters: every test in this binary runs under one
/// lock.
static GLOBAL: Mutex<()> = Mutex::new(());

/// The lock, held by one test. Each thread owns its pool and `trim()`
/// frees only the caller's, so a test frees what its thread cached before
/// it lets the next one in; otherwise the next test's footprint would
/// count buffers a finished test's thread still holds until it exits.
struct Exclusive {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        hfta_mem::trim();
    }
}

fn lock() -> Exclusive {
    Exclusive {
        _guard: GLOBAL.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Every parameter of a fused model as raw `f32` bit patterns.
fn param_bits(params: &[FusedParameter]) -> Vec<Vec<u32>> {
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

/// Leaves every buffer the pool holds NaN-filled: for each size class it
/// has ever served, checks out full-class buffers of NaN until the class
/// runs dry (a fresh allocation), then drops them all back into the free
/// lists.
fn poison_pool() {
    let mut held = Vec::new();
    for class in hfta_mem::stats().classes {
        if class.elems == 0 || class.fresh_allocs == 0 {
            continue;
        }
        loop {
            let fresh = hfta_mem::stats().pool_fresh_allocs;
            held.push(Storage::filled(class.elems, f32::NAN));
            if hfta_mem::stats().pool_fresh_allocs > fresh {
                break;
            }
        }
    }
}

/// Runs `train` from a cold pool and again from a poisoned one, at 1 and 4
/// worker threads, and requires the same bits each time.
fn assert_cold_matches_dirty(what: &str, train: impl Fn() -> Vec<Vec<u32>>) {
    for threads in [1usize, 4] {
        hfta_kernels::set_num_threads(threads);
        hfta_mem::trim();
        let cold = train();
        poison_pool();
        assert!(
            cold == train(),
            "{what}: a dirty pool changed the result at {threads} threads"
        );
    }
}

/// Trains a fused conv → linear classifier for two steps and returns every
/// parameter's bits.
fn conv_linear_param_bits(b: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::seed_from(seed);
    let conv = Fused(b).conv2d(Conv2dCfg::new(3, 6, 3), &mut Fused(b).lanes(&mut rng));
    let x = rng.rand([2, 3 * b, 8, 8], -1.0, 1.0);
    // Probe the conv output shape once to size the classifier head.
    let flat = {
        let tape = Tape::new();
        let h = conv.forward(&tape.leaf(x.clone()));
        let d = h.dims();
        d[1] / b * d[2] * d[3]
    };
    let fc = FusedLinear::new(b, LinearCfg::new(flat, 4), &mut rng);
    let mut params = FusedParameter::of(&conv, b);
    params.extend(fc.fused_parameters());
    let mut opt =
        FusedSgd::new(params.clone(), PerModel::uniform(b, 0.05), 0.9).expect("widths match");
    let targets: Vec<usize> = (0..2 * b).map(|_| rng.below(4)).collect();
    for _ in 0..2 {
        opt.zero_grad();
        let tape = Tape::new();
        let h = conv.forward(&tape.leaf(x.clone())).relu();
        let logits = fc.forward(&conv_to_array(&h.flatten_from(1), b));
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
    }
    param_bits(&params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fused conv+linear training is bit-identical from a cold and a dirty
    /// pool at 1 and 4 worker threads, for arbitrary seeds and array widths.
    #[test]
    fn pooled_training_is_bit_identical(b in 1usize..4, seed in 0u64..1_000) {
        let _g = lock();
        assert_cold_matches_dirty("conv+linear", || conv_linear_param_bits(b, seed));
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

/// DCGAN-D bit-identity at the full-model level, cold pool vs dirty pool.
#[test]
fn dcgan_step_cold_pool_matches_dirty_pool() {
    let _g = lock();
    assert_cold_matches_dirty("DCGAN-D", || {
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
        param_bits(&params)
    });
}

/// DCGAN-G bit-identity at the full-model level, cold pool vs dirty pool:
/// the generator trained through a discriminator, so its transposed
/// convolutions' forwards write through windowed (and, for the latent
/// projection, unwindowed) scatter sinks and their weight gradients
/// through reductions over the batch, all into unfilled tensors.
#[test]
fn dcgan_generator_step_cold_pool_matches_dirty_pool() {
    let _g = lock();
    assert_cold_matches_dirty("DCGAN-G", || {
        let mut rng = Rng::seed_from(35);
        let gen = FusedGenerator::new(3, DcganCfg::mini(), &mut rng);
        let disc = FusedDiscriminator::new(3, DcganCfg::mini(), &mut rng);
        disc.set_training(false);
        let params = gen.fused_parameters();
        let mut opt =
            FusedAdam::new(params.clone(), PerModel::uniform(3, 2e-3)).expect("widths match");
        let labels = Tensor::ones([4, 3]);
        for _ in 0..2 {
            opt.zero_grad();
            let tape = Tape::new();
            let z = tape.leaf(rng.randn([4, 3 * DcganCfg::mini().latent, 1, 1]));
            let d = disc.forward(&gen.forward(&z));
            fused_bce_with_logits(&d, &labels, 3, Reduction::Mean).backward();
            opt.step();
        }
        param_bits(&params)
    });
}

/// PointNet bit-identity at the full-model level, cold pool vs dirty pool.
#[test]
fn pointnet_step_cold_pool_matches_dirty_pool() {
    let _g = lock();
    assert_cold_matches_dirty("PointNet", || {
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
        param_bits(&params)
    });
}

/// Satellite (c): identical workloads produce identical pool statistics —
/// the accounting itself is deterministic (fixed to 1 worker thread, the
/// configuration where scratch-arena growth order is fully determined).
#[test]
fn pool_stats_are_deterministic_for_fixed_workload() {
    let _g = lock();
    hfta_kernels::set_num_threads(1);
    let observe = || {
        hfta_mem::trim();
        hfta_mem::reset_stats();
        run_dcgan_steps(2, 3);
        let s = hfta_mem::stats();
        (
            s.pool_fresh_allocs,
            s.pool_reuses,
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
