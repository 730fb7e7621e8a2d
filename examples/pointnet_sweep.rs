//! Hyper-parameter sweep over PointNet classification — serial vs HFTA.
//!
//! Trains four PointNet-mini classifiers with different Adam learning
//! rates on the synthetic ShapeNet-part stand-in, first as four serial
//! jobs and then as one fused array, verifying the loss curves match and
//! reporting the real CPU wall-clock comparison (fusion amortizes
//! per-operator dispatch even on CPU).
//!
//! Run with: `cargo run --release --example pointnet_sweep`

use std::time::Instant;

use hfta_core::array::copy_model_weights;
use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_nll_loss, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_data::{PointClouds, SHAPE_CLASSES};
use hfta_models::{FusedPointNetCls, PointNetCfg, PointNetCls};
use hfta_nn::{Adam, Module, Optimizer, Tape};
use hfta_tensor::{Rng, Tensor};

fn main() {
    let lrs = [0.01f32, 0.005, 0.001, 0.0005];
    let b = lrs.len();
    let cfg = PointNetCfg::mini(SHAPE_CLASSES);
    let iters = 12;
    let batch = 8;
    let points = 64;

    let mut rng = Rng::seed_from(3);
    let fused = FusedPointNetCls::new(b, cfg, &mut rng);
    fused.set_training(false); // freeze dropout/BN mode for exact comparison
    let serial: Vec<PointNetCls> = (0..b)
        .map(|_| {
            let m = PointNetCls::new(cfg, &mut rng);
            m.set_training(false);
            m
        })
        .collect();
    for (i, m) in serial.iter().enumerate() {
        copy_model_weights(&fused.fused_parameters(), i, &m.parameters());
    }

    let mut data = PointClouds::new(points, 11);
    let batches: Vec<(Tensor, Vec<usize>)> = (0..iters).map(|_| data.batch(batch)).collect();

    // --- Serial: four independent jobs ---
    let t0 = Instant::now();
    let mut serial_losses = vec![Vec::new(); b];
    for (i, model) in serial.iter().enumerate() {
        let mut opt = Adam::new(model.parameters(), lrs[i]);
        for (x, y) in &batches {
            opt.zero_grad();
            let tape = Tape::new();
            let loss = model.forward(&tape.leaf(x.clone())).nll_loss(y);
            serial_losses[i].push(loss.item());
            loss.backward();
            opt.step();
        }
    }
    let serial_time = t0.elapsed();

    // --- HFTA: one fused array ---
    let t0 = Instant::now();
    let mut opt = FusedAdam::new(fused.fused_parameters(), PerModel::new(lrs.to_vec()))
        .expect("widths match");
    let mut fused_losses = vec![Vec::new(); b];
    for (x, y) in &batches {
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let fx = tape.leaf(stack_conv(&copies).expect("uniform")); // [N, B*3, P]
        let log_probs = fused.forward(&fx); // [B, N, classes]
        for (i, f) in fused_losses.iter_mut().enumerate() {
            let per = log_probs
                .narrow(0, i, 1)
                .reshape(&[batch, SHAPE_CLASSES])
                .nll_loss(y);
            f.push(per.item());
        }
        let targets = stack_targets(&vec![y.clone(); b]).expect("uniform");
        fused_nll_loss(&log_probs, &targets, Reduction::Mean).backward();
        opt.step();
    }
    let fused_time = t0.elapsed();

    // --- Report ---
    println!("PointNet-mini classification sweep, {b} learning rates, {iters} iters\n");
    println!("final losses (serial vs HFTA — must match):");
    let mut max_div = 0.0f32;
    for i in 0..b {
        let s = *serial_losses[i].last().unwrap();
        let f = *fused_losses[i].last().unwrap();
        max_div = max_div.max((s - f).abs());
        println!("  lr={:<7} serial {:.5}  hfta {:.5}", lrs[i], s, f);
    }
    println!("\nmax loss divergence across all iterations: {max_div:.2e}");
    println!(
        "wall clock: serial {:.2?}  hfta {:.2?}  ({:.2}x)",
        serial_time,
        fused_time,
        serial_time.as_secs_f64() / fused_time.as_secs_f64()
    );
}
