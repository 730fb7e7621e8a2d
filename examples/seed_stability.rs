//! Convergence stability testing — the paper's *other* repetitive-job use
//! case (§2.1): train the same model with the same hyper-parameters but
//! different random seeds, fused into one array, and report the spread of
//! final losses.
//!
//! Run with: `cargo run --release --example seed_stability`

use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_data::LabeledImages;
use hfta_models::{FusedResNet, ResNetCfg};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

fn main() {
    // Six replicas: identical architecture and hyper-parameters, different
    // initialization seeds — FusedResNet::new draws each model's weights
    // from an independent RNG stream, which is exactly the seed sweep.
    let b = 6;
    let cfg = ResNetCfg::mini(4);
    let mut rng = Rng::seed_from(123);
    let array = FusedResNet::new(b, cfg, &mut rng);
    array.set_training(false);
    let mut opt = FusedSgd::new(array.fused_parameters(), PerModel::uniform(b, 0.05), 0.9)
        .expect("widths match");

    let mut data = LabeledImages::new(8, 4, 77);
    let mut finals = vec![0.0f32; b];
    for step in 0..25 {
        let (x, y) = data.batch(12);
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let logits = array.forward(&tape.leaf(stack_conv(&copies).expect("uniform")));
        for (i, slot) in finals.iter_mut().enumerate() {
            *slot = logits
                .narrow(0, i, 1)
                .reshape(&[12, 4])
                .cross_entropy(&y)
                .item();
        }
        let targets = stack_targets(&vec![y.clone(); b]).expect("uniform");
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
        if step % 8 == 0 {
            let mean: f32 = finals.iter().sum::<f32>() / b as f32;
            println!("step {step:>3}: mean loss {mean:.4}, per-seed {finals:?}");
        }
    }
    let mean: f32 = finals.iter().sum::<f32>() / b as f32;
    let var: f32 = finals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / b as f32;
    println!(
        "\nfinal: mean {:.4}, std {:.4} across {b} seeds",
        mean,
        var.sqrt()
    );
    println!("One device answered the stability question that would have taken {b} GPUs.");
}
