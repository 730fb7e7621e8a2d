//! Quickstart: fuse a 3-job hyper-parameter sweep into one HFTA array.
//!
//! Mirrors the paper's Figure 1: three training jobs that differ only in
//! learning rate are horizontally fused and trained simultaneously, with
//! gradients identical to independent training.
//!
//! Run with: `cargo run --release --example quickstart`

use hfta_core::format::stack_array;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{FusedLinear, FusedModule};
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_nn::layers::LinearCfg;
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

fn main() {
    // Three jobs differing only in learning rate — the repetitive
    // single-accelerator workload the paper targets.
    let lrs = PerModel::new(vec![0.1, 0.01, 0.001]);
    let b = lrs.b();

    let mut rng = Rng::seed_from(0);
    let model = FusedLinear::new(b, LinearCfg::new(16, 4), &mut rng);
    let mut opt = FusedAdam::new(model.fused_parameters(), lrs.clone()).expect("widths match");

    // A toy 4-class problem; every job trains on the same stream.
    let mut data_rng = Rng::seed_from(7);
    println!("step | loss(lr=0.1) loss(lr=0.01) loss(lr=0.001)");
    for step in 0..30 {
        let x = data_rng.randn([32, 16]);
        let y: Vec<usize> = (0..32)
            .map(|i| {
                // Learnable rule: class = argmax of 4 feature groups.
                let row = x.narrow(0, i, 1);
                row.reshape(&[4, 4])
                    .sum_axis(1, false)
                    .argmax_axis(0)
                    .item() as usize
            })
            .collect();

        opt.zero_grad();
        let inputs: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let tape = Tape::new();
        let stacked = stack_array(&inputs).expect("uniform inputs"); // [B, 32, 16]
        let logits = model.forward(&tape.leaf(stacked));
        let targets: Vec<usize> = (0..b).flat_map(|_| y.iter().copied()).collect();
        let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
        loss.backward();
        opt.step();

        if step % 5 == 0 {
            // Per-model losses for reporting.
            let per: Vec<String> = (0..b)
                .map(|m| {
                    let l = logits.narrow(0, m, 1).reshape(&[32, 4]).cross_entropy(&y);
                    format!("{:>12.4}", l.item())
                })
                .collect();
            println!("{step:>4} | {}", per.join(" "));
        }
    }
    println!("\nThe three models trained simultaneously on one device —");
    println!("one fused baddbmm per step instead of three small matmuls.");
}
