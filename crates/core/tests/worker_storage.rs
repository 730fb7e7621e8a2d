//! The kernels' worker threads check out no storage: every tensor a
//! training step makes, and each GEMM call's workspace, is built and
//! dropped on the thread that runs the step. Each thread owns its storage
//! pool, so a buffer a worker checked out would miss on that worker's empty
//! free lists every step; a conv + linear training step therefore has the
//! same storage counts at 4 threads, where the products fan out across the
//! workers, as at 1.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

use hfta_core::format::conv_to_array;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{Fused, FusedLinear, FusedModule, FusedParameter, Ops};
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_kernels::{pool_dispatches, set_num_threads};
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_nn::{Module, Tape};
use hfta_tensor::Rng;

/// Per step: (fresh, reuses, live bytes, peak live bytes, pooled bytes).
type Counts = Vec<(u64, u64, u64, u64, u64)>;

/// Trains a fused conv → linear classifier from a cold pool at `threads`
/// worker threads; returns each step's storage counts and how many times
/// the steps fanned out across the workers.
fn step_counts(threads: usize) -> (Counts, u64) {
    set_num_threads(threads);
    hfta_mem::trim();
    hfta_mem::reset_stats();
    let dispatches = pool_dispatches();
    let b = 2;
    let mut rng = Rng::seed_from(5);
    let conv = Fused(b).conv2d(Conv2dCfg::new(3, 16, 3), &mut Fused(b).lanes(&mut rng));
    let fc = FusedLinear::new(b, LinearCfg::new(16 * 14 * 14, 4), &mut rng);
    let mut params = FusedParameter::of(&conv, b);
    params.extend(fc.fused_parameters());
    let mut opt = FusedSgd::new(params, PerModel::uniform(b, 0.05), 0.9).expect("widths match");
    let x = rng.rand([8, 3 * b, 16, 16], -1.0, 1.0);
    let targets: Vec<usize> = (0..8 * b).map(|_| rng.below(4)).collect();
    let mut counts = Vec::new();
    for _ in 0..4 {
        opt.zero_grad();
        let tape = Tape::new();
        let h = conv.forward(&tape.leaf(x.clone())).relu();
        let logits = fc.forward(&conv_to_array(&h.flatten_from(1), b));
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
        drop(tape);
        let s = hfta_mem::stats();
        counts.push((
            s.pool_fresh_allocs,
            s.pool_reuses,
            s.live_bytes,
            s.peak_live_bytes,
            s.pooled_free_bytes,
        ));
    }
    (counts, pool_dispatches() - dispatches)
}

#[test]
fn workers_check_out_no_storage() {
    let (serial, serial_dispatches) = step_counts(1);
    let (parallel, parallel_dispatches) = step_counts(4);
    assert_eq!(serial_dispatches, 0);
    assert!(
        parallel_dispatches > 0,
        "the steps never reached the workers"
    );
    assert_eq!(parallel, serial, "storage counts at 4 threads vs 1");
    let (fresh, reuses, ..) = serial[3];
    assert!(reuses > 0 && fresh == serial[0].0, "steady steps reuse");
}
