//! Hyper-parameter tuning on top of HFTA — the paper's §6 integration
//! target. Random-search candidates over (learning rate, momentum) are
//! packed into fused arrays; each array trains `B` AlexNet-mini models on
//! one (simulated-shared) device and reports per-model validation scores.
//!
//! Run with: `cargo run --release --example tuner`

use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::tuner::{random_search, sweep};
use hfta_data::LabeledImages;
use hfta_models::{AlexNetCfg, FusedAlexNet};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

fn main() {
    // 12 random-search candidates over two axes (log-uniform), packed into
    // arrays of 4 — three devices' worth of training replaces twelve.
    let candidates = random_search(&[("lr", 1e-3, 3e-1), ("momentum", 0.5, 0.99)], 12, 42);
    let array_width = 4;
    let cfg = AlexNetCfg::mini(4);

    let mut array_counter = 0;
    let report = sweep(candidates, array_width, |chunk| {
        array_counter += 1;
        let b = chunk.len();
        let lrs: Vec<f32> = chunk.iter().map(|c| c[0].1).collect();
        let moms: Vec<f32> = chunk.iter().map(|c| c[1].1).collect();
        println!(
            "array {array_counter}: training {b} models (lr {:?})",
            lrs.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>()
        );

        let mut rng = Rng::seed_from(1000 + array_counter);
        let model = FusedAlexNet::new(b, cfg, &mut rng);
        model.set_training(false);
        let mut opt = FusedSgd::with_momenta(
            model.fused_parameters(),
            PerModel::new(lrs),
            PerModel::new(moms),
        )
        .expect("widths match");

        let mut data = LabeledImages::new(16, 4, 7);
        for _ in 0..15 {
            let (x, y) = data.batch(16);
            opt.zero_grad();
            let tape = Tape::new();
            let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
            let logits = model.forward(&tape.leaf(stack_conv(&copies).expect("uniform")));
            let targets = stack_targets(&vec![y.clone(); b]).expect("uniform");
            fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
            opt.step();
        }
        // Validation: negative loss on a held-out batch, per model.
        let mut val = LabeledImages::new(16, 4, 99);
        let (x, y) = val.batch(32);
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let logits = model.forward(&tape.leaf(stack_conv(&copies).expect("uniform")));
        (0..b)
            .map(|i| {
                -logits
                    .narrow(0, i, 1)
                    .reshape(&[32, 4])
                    .cross_entropy(&y)
                    .item()
            })
            .collect()
    })
    .expect("sweep runs");

    println!(
        "\n{} candidates evaluated with {} fused arrays ({}x fewer jobs)",
        report.serial_jobs_replaced,
        report.arrays_trained,
        report.serial_jobs_replaced / report.arrays_trained
    );
    println!("\nrank | val loss | lr      | momentum");
    for (i, t) in report.trials.iter().take(5).enumerate() {
        println!(
            "{:>4} | {:>8.4} | {:.5} | {:.3}",
            i + 1,
            -t.score,
            t.config[0].1,
            t.config[1].1
        );
    }
    let best = report.best();
    println!(
        "\nbest: lr = {:.5}, momentum = {:.3} (val loss {:.4})",
        best.config[0].1, best.config[1].1, -best.score
    );
}
