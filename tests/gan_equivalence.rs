//! GAN-specific equivalence: the fused DCGAN generator/discriminator pair
//! (transposed convolutions, BN, leaky-ReLU, BCE) matches per-model serial
//! execution, and a full fused adversarial step reproduces serial
//! gradients.

use hfta_core::array::copy_model_weights;
use hfta_core::format::{stack_conv, unstack_conv};
use hfta_core::loss::{fused_bce_with_logits, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_models::{DcganCfg, Discriminator, FusedDiscriminator, FusedGenerator, Generator};
use hfta_nn::{Adam, Module, Optimizer, Tape};
use hfta_tensor::{Rng, Tensor};

fn build_pair(
    b: usize,
    seed: u64,
) -> (
    Vec<Generator>,
    Vec<Discriminator>,
    FusedGenerator,
    FusedDiscriminator,
) {
    let cfg = DcganCfg::mini();
    let mut rng = Rng::seed_from(seed);
    let fg = FusedGenerator::new(b, cfg, &mut rng);
    let fd = FusedDiscriminator::new(b, cfg, &mut rng);
    let gens: Vec<Generator> = (0..b).map(|_| Generator::new(cfg, &mut rng)).collect();
    let discs: Vec<Discriminator> = (0..b).map(|_| Discriminator::new(cfg, &mut rng)).collect();
    for (i, g) in gens.iter().enumerate() {
        copy_model_weights(&fg.fused_parameters(), i, &g.parameters());
    }
    for (i, d) in discs.iter().enumerate() {
        copy_model_weights(&fd.fused_parameters(), i, &d.parameters());
    }
    for m in &gens {
        m.set_training(false);
    }
    for m in &discs {
        m.set_training(false);
    }
    fg.set_training(false);
    fd.set_training(false);
    (gens, discs, fg, fd)
}

#[test]
fn fused_generator_matches_serial() {
    let b = 3;
    let (gens, _, fg, _) = build_pair(b, 1);
    let mut rng = Rng::seed_from(100);
    let zs: Vec<Tensor> = (0..b).map(|_| rng.randn([2, 16, 1, 1])).collect();
    let tape = Tape::new();
    let fused_out = fg.forward(&tape.leaf(stack_conv(&zs).unwrap())).value();
    let parts = unstack_conv(&fused_out, b);
    for (i, g) in gens.iter().enumerate() {
        let tape = Tape::new();
        let y = g.forward(&tape.leaf(zs[i].clone())).value();
        assert!(
            parts[i].allclose(&y, 1e-3),
            "generator {i}: diff {}",
            parts[i].max_abs_diff(&y)
        );
    }
}

#[test]
fn fused_discriminator_matches_serial() {
    let b = 3;
    let (_, discs, _, fd) = build_pair(b, 2);
    let mut rng = Rng::seed_from(200);
    let xs: Vec<Tensor> = (0..b)
        .map(|_| rng.rand([2, 3, 16, 16], -1.0, 1.0))
        .collect();
    let tape = Tape::new();
    let fused_out = fd.forward(&tape.leaf(stack_conv(&xs).unwrap())).value(); // [N, B]
    for (i, d) in discs.iter().enumerate() {
        let tape = Tape::new();
        let y = d.forward(&tape.leaf(xs[i].clone())).value(); // [N, 1]
        let col = fused_out.narrow(1, i, 1);
        assert!(
            col.allclose(&y, 1e-3),
            "discriminator {i}: diff {}",
            col.max_abs_diff(&y)
        );
    }
}

#[test]
fn fused_adversarial_step_matches_serial_d_update() {
    // One discriminator step on (real, fake) batches, fused vs serial.
    let b = 2;
    let (gens, discs, fg, fd) = build_pair(b, 3);
    let mut rng = Rng::seed_from(300);
    let real = rng.rand([4, 3, 16, 16], -1.0, 1.0);
    let z = rng.randn([4, 16, 1, 1]);
    let lrs = [4e-4f32, 1e-4];

    // Serial D updates.
    for (i, d) in discs.iter().enumerate() {
        let mut opt = Adam::new(d.parameters(), lrs[i]);
        opt.zero_grad();
        let tape = Tape::new();
        let d_real = d.forward(&tape.leaf(real.clone()));
        let l_real = d_real.bce_with_logits(&Tensor::ones([4, 1]));
        let fake = gens[i].forward(&tape.leaf(z.clone())).value();
        let d_fake = d.forward(&tape.leaf(fake));
        let l_fake = d_fake.bce_with_logits(&Tensor::zeros([4, 1]));
        l_real.add(&l_fake).backward();
        opt.step();
    }

    // Fused D update on the same data.
    let mut opt = FusedAdam::new(fd.fused_parameters(), PerModel::new(lrs.to_vec())).unwrap();
    opt.zero_grad();
    let tape = Tape::new();
    let reals: Vec<Tensor> = (0..b).map(|_| real.clone()).collect();
    let d_real = fd.forward(&tape.leaf(stack_conv(&reals).unwrap()));
    let l_real = fused_bce_with_logits(&d_real, &Tensor::ones([4, b]), b, Reduction::Mean);
    let zs: Vec<Tensor> = (0..b).map(|_| z.clone()).collect();
    let fake = fg.forward(&tape.leaf(stack_conv(&zs).unwrap())).value();
    let d_fake = fd.forward(&tape.leaf(fake));
    let l_fake = fused_bce_with_logits(&d_fake, &Tensor::zeros([4, b]), b, Reduction::Mean);
    l_real.add(&l_fake).backward();
    opt.step();

    // Weights must agree model by model.
    for (i, d) in discs.iter().enumerate() {
        for (fp, sp) in fd.fused_parameters().iter().zip(d.parameters()) {
            let slice = fp.model_slice(i);
            let dest_dims = sp.value().dims().to_vec();
            let slice = slice.reshape(&dest_dims);
            assert!(
                slice.allclose(&sp.value_cloned(), 1e-4),
                "disc {i} param {} diff {}",
                sp.name(),
                slice.max_abs_diff(&sp.value_cloned())
            );
        }
    }
}
