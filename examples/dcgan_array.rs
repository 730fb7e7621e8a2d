//! Trains a fused array of DCGAN-mini generators/discriminators with
//! per-model learning rates on the synthetic LSUN stand-in — the paper's
//! GAN workload, where increasing the batch size is *not* a viable way to
//! raise utilization (GAN stability), making HFTA the right tool.
//!
//! Run with: `cargo run --release --example dcgan_array`

use hfta_core::loss::{fused_bce_with_logits, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_data::GanImages;
use hfta_models::{DcganCfg, FusedDiscriminator, FusedGenerator};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

fn main() {
    // Two jobs sweeping the classic DCGAN learning rate around 2e-4.
    let lrs = PerModel::new(vec![4e-4, 1e-4]);
    let b = lrs.b();
    let cfg = DcganCfg::mini();
    let batch = 8;

    let mut rng = Rng::seed_from(0);
    let gen = FusedGenerator::new(b, cfg, &mut rng);
    let disc = FusedDiscriminator::new(b, cfg, &mut rng);
    let mut opt_g = FusedAdam::with_betas(gen.fused_parameters(), lrs.clone(), 0.5, 0.999, 1e-8)
        .expect("widths match");
    let mut opt_d = FusedAdam::with_betas(disc.fused_parameters(), lrs, 0.5, 0.999, 1e-8)
        .expect("widths match");

    let mut data = GanImages::new(cfg.image, 5);
    let mut noise = Rng::seed_from(9);

    println!("step |   D loss   G loss  (fused over {b} models)");
    for step in 0..20 {
        // --- Discriminator step: real batch up, fake batch down ---
        opt_d.zero_grad();
        let tape = Tape::new();
        let real = data.batch(batch);
        let real_fused: Vec<&Tensor> = std::iter::repeat_n(&real, b).collect();
        let real_x = tape.leaf(Tensor::concat(&real_fused, 1));
        let d_real = disc.forward(&real_x); // [N, B]
        let loss_real =
            fused_bce_with_logits(&d_real, &Tensor::ones([batch, b]), b, Reduction::Mean);
        let z = tape.leaf(noise.randn([batch, b * cfg.latent, 1, 1]));
        let fake = gen.forward(&z);
        // Detach the generator: feed the fake image values as a leaf.
        let d_fake = disc.forward(&tape.leaf(fake.value()));
        let loss_fake =
            fused_bce_with_logits(&d_fake, &Tensor::zeros([batch, b]), b, Reduction::Mean);
        let d_loss = loss_real.add(&loss_fake);
        d_loss.backward();
        opt_d.step();

        // --- Generator step: fool the discriminator ---
        opt_g.zero_grad();
        let tape = Tape::new();
        let z = tape.leaf(noise.randn([batch, b * cfg.latent, 1, 1]));
        let fake = gen.forward(&z);
        let d_out = disc.forward(&fake);
        let g_loss = fused_bce_with_logits(&d_out, &Tensor::ones([batch, b]), b, Reduction::Mean);
        g_loss.backward();
        opt_g.step();

        if step % 4 == 0 {
            println!(
                "{step:>4} | {:>8.4} {:>8.4}",
                d_loss.item() / b as f32,
                g_loss.item() / b as f32
            );
        }
    }
    println!("\nBoth GANs trained in lock-step on one device; per-model Adam");
    println!("learning rates rode along as a broadcast vector (paper Figure 1).");
}
