//! Pins the parameter lifecycle of adversarial training: a fused B=2 and
//! a serial DCGAN-mini alternate a discriminator step and a generator step
//! (the benchmark's loop: both tapes stay alive through both optimizer
//! steps), and after every step an FNV-1a digest is taken of every
//! parameter value, the generator's gradients and every Adam moment. On
//! odd steps the discriminator's gradients are read too, after the
//! generator step and without zeroing them, so the contributions the
//! generator step's backward sent into them must come out as if they had
//! been added when they arrived; on even steps they are left unread and
//! the next discriminator step zeroes them.
//!
//! The constants were taken before parameter values entered the tape
//! shared and gradient slots could be left empty or pending; they are the
//! same at every thread count. The fused pin moved once since, when lane
//! `i` came to be built from lane `i`'s own generator.

use hfta_core::loss::{fused_bce_with_logits, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_models::{DcganCfg, Discriminator, FusedDiscriminator, FusedGenerator, Generator};
use hfta_nn::{Adam, Module, Optimizer, Parameter, Tape};
use hfta_tensor::{Rng, Tensor};

const STEPS: usize = 6;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rank() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        for x in t.as_slice() {
            self.u64(u64::from(x.to_bits()));
        }
    }
}

/// Digest of one step's state: values of `params`, the gradients of
/// `read`, then `moments`, then the loss bits.
fn digest<'a>(
    params: &[Parameter],
    read: &[Parameter],
    moments: impl IntoIterator<Item = &'a Tensor>,
    losses: [f32; 2],
) -> u64 {
    let mut h = Fnv::new();
    for p in params {
        h.tensor(&p.value());
    }
    for p in read {
        h.tensor(&p.grad());
    }
    for m in moments {
        h.tensor(m);
    }
    for l in losses {
        h.u64(u64::from(l.to_bits()));
    }
    h.0
}

#[test]
fn fused_alternating_gan_steps_are_pinned() {
    let (b, n, cfg) = (2, 2, DcganCfg::mini());
    let mut rng = Rng::seed_from(11);
    let gen = FusedGenerator::new(b, cfg, &mut rng);
    let disc = FusedDiscriminator::new(b, cfg, &mut rng);
    let lr = || PerModel::new(vec![2e-4, 1e-3]);
    let mut opt_g = FusedAdam::new(gen.fused_parameters(), lr()).unwrap();
    let mut opt_d = FusedAdam::new(disc.fused_parameters(), lr()).unwrap();
    let params = [gen.parameters(), disc.parameters()].concat();
    let s = cfg.image;
    let mut data = Rng::seed_from(110);
    let mut got = Vec::new();
    for step in 0..STEPS {
        let real = data.rand([n, b * 3, s, s], -1.0, 1.0);
        let z_d = data.randn([n, b * cfg.latent, 1, 1]);
        let z_g = data.randn([n, b * cfg.latent, 1, 1]);
        opt_d.zero_grad();
        let tape = Tape::new();
        let d_real = disc.forward(&tape.leaf(real));
        let fake = gen.forward(&tape.leaf(z_d)).value();
        let d_fake = disc.forward(&tape.leaf(fake));
        let d_loss = fused_bce_with_logits(&d_real, &Tensor::ones([n, b]), b, Reduction::Mean).add(
            &fused_bce_with_logits(&d_fake, &Tensor::zeros([n, b]), b, Reduction::Mean),
        );
        d_loss.backward();
        opt_d.step();
        opt_g.zero_grad();
        let tape = Tape::new();
        let d_out = disc.forward(&gen.forward(&tape.leaf(z_g)));
        let g_loss = fused_bce_with_logits(&d_out, &Tensor::ones([n, b]), b, Reduction::Mean);
        g_loss.backward();
        opt_g.step();
        let read = if step % 2 == 1 {
            params.clone()
        } else {
            gen.parameters()
        };
        let moments: Vec<&Tensor> = [&opt_g, &opt_d]
            .into_iter()
            .flat_map(|o| {
                (0..o.params().len()).flat_map(move |pi| [o.state(pi, 0), o.state(pi, 1)])
            })
            .collect();
        got.push(digest(
            &params,
            &read,
            moments,
            [d_loss.item(), g_loss.item()],
        ));
    }
    let want: [u64; STEPS] = [
        0x36ae7fab5d296121,
        0x792d86be04d3a6d7,
        0x79a60d0ca510d5b0,
        0x9c02350c798ff1ef,
        0xa7944184fd3c54ce,
        0x140baf6a1fd6b514,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn serial_alternating_gan_steps_are_pinned() {
    let (n, cfg) = (2, DcganCfg::mini());
    let mut rng = Rng::seed_from(12);
    let gen = Generator::new(cfg, &mut rng);
    let disc = Discriminator::new(cfg, &mut rng);
    let mut opt_g = Adam::new(gen.parameters(), 1e-3);
    let mut opt_d = Adam::new(disc.parameters(), 2e-4);
    let params = [gen.parameters(), disc.parameters()].concat();
    let s = cfg.image;
    let mut data = Rng::seed_from(120);
    let mut got = Vec::new();
    for step in 0..STEPS {
        let real = data.rand([n, 3, s, s], -1.0, 1.0);
        let z_d = data.randn([n, cfg.latent, 1, 1]);
        let z_g = data.randn([n, cfg.latent, 1, 1]);
        opt_d.zero_grad();
        let tape = Tape::new();
        let up = disc
            .forward(&tape.leaf(real))
            .bce_with_logits(&Tensor::ones([n, 1]));
        let fake = gen.forward(&tape.leaf(z_d)).value();
        let down = disc
            .forward(&tape.leaf(fake))
            .bce_with_logits(&Tensor::zeros([n, 1]));
        let d_loss = up.add(&down);
        d_loss.backward();
        opt_d.step();
        opt_g.zero_grad();
        let tape = Tape::new();
        let g_loss = disc
            .forward(&gen.forward(&tape.leaf(z_g)))
            .bce_with_logits(&Tensor::ones([n, 1]));
        g_loss.backward();
        opt_g.step();
        let read = if step % 2 == 1 {
            params.clone()
        } else {
            gen.parameters()
        };
        let (gm, gv) = opt_g.moments();
        let (dm, dv) = opt_d.moments();
        let moments = gm.iter().chain(gv).chain(dm).chain(dv);
        got.push(digest(
            &params,
            &read,
            moments,
            [d_loss.item(), g_loss.item()],
        ));
    }
    let want: [u64; STEPS] = [
        0xbdea035a33339ddd,
        0xce26b630985ec572,
        0xe465d1ec36002b25,
        0x3bda8807ebdedec9,
        0x5a8f134dc351b3ae,
        0xb9ac91806eaba4ac,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
