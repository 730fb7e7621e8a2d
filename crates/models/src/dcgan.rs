//! DCGAN (Radford et al., 2016) generator and discriminator, following the
//! PyTorch official example the paper benchmarks. One definition, two
//! instantiations: [`DcganG`] and [`DcganD`] are written once over an
//! operator family ([`hfta_core::ops::Ops`]); [`Generator`] /
//! [`Discriminator`] are the serial models and [`FusedGenerator`] /
//! [`FusedDiscriminator`] the HFTA-fused arrays of the same code.
//!
//! A `width`/`image` knob scales the networks so CPU training is feasible;
//! the paper-scale op traces live in [`crate::traces`].

use hfta_core::ops::{Fused, Ops, Serial};
use hfta_nn::layers::Conv2dCfg;
use hfta_nn::{Module, Parameter, Var};
use hfta_tensor::Rng;

/// DCGAN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcganCfg {
    /// Latent dimension (`nz`, 100 in the paper).
    pub latent: usize,
    /// Base feature width (`ngf`/`ndf`, 64 in the paper).
    pub width: usize,
    /// Output image side; 16 (mini) or 64 (paper). Must be 16 or 64.
    pub image: usize,
}

impl DcganCfg {
    /// CPU-friendly mini configuration: 16x16 images.
    pub fn mini() -> Self {
        DcganCfg {
            latent: 16,
            width: 8,
            image: 16,
        }
    }

    /// Paper-scale configuration: 64x64 images, width 64, nz 100.
    pub fn paper() -> Self {
        DcganCfg {
            latent: 100,
            width: 64,
            image: 64,
        }
    }

    fn check(&self) {
        assert!(
            self.image == 16 || self.image == 64,
            "DCGAN image size must be 16 or 64"
        );
    }

    /// Number of stride-2 up/down-sampling stages between 4x4 and the
    /// image resolution.
    pub(crate) fn stages(&self) -> usize {
        match self.image {
            16 => 2,
            _ => 4,
        }
    }
}

/// A (transposed) convolution and the batch norm that follows it, if any.
type Stage<C, N> = (C, Option<N>);

fn stage_parameters<C: Module, N: Module>(layers: &[Stage<C, N>]) -> Vec<Parameter> {
    layers
        .iter()
        .flat_map(|(conv, bn)| {
            let mut ps = conv.parameters();
            if let Some(bn) = bn {
                ps.extend(bn.parameters());
            }
            ps
        })
        .collect()
}

fn set_stage_training<C, N: Module>(layers: &[Stage<C, N>], t: bool) {
    for bn in layers.iter().filter_map(|(_, bn)| bn.as_ref()) {
        bn.set_training(t);
    }
}

/// DCGAN generator over the operator family `O`: latent `[N, B*nz, 1, 1]`
/// → images `[N, B*3, S, S]` in `[-1, 1]` (`B = 1` for [`Serial`]).
#[derive(Debug)]
pub struct DcganG<O: Ops> {
    layers: Vec<Stage<O::ConvTranspose2d, O::BatchNorm>>,
    ops: O,
}

/// Serial DCGAN generator: latent `[N, nz, 1, 1]` → image `[N, 3, S, S]`.
pub type Generator = DcganG<Serial>;
/// HFTA-fused DCGAN generator array.
pub type FusedGenerator = DcganG<Fused>;

impl<O: Ops> DcganG<O> {
    /// Builds the generator out of `ops`' layers.
    pub fn build(ops: O, cfg: DcganCfg, rng: &mut Rng) -> Self {
        cfg.check();
        let s = cfg.stages();
        let mut layers = Vec::new();
        // Project latent to (width * 2^(s-1)) x 4 x 4.
        let mut c = cfg.width << (s - 1);
        layers.push((
            ops.conv_transpose2d(
                Conv2dCfg::new(cfg.latent, c, 4)
                    .stride(1)
                    .padding(0)
                    .bias(false),
                rng,
            ),
            Some(ops.batch_norm(c)),
        ));
        for _ in 0..s - 1 {
            layers.push((
                ops.conv_transpose2d(
                    Conv2dCfg::new(c, c / 2, 4).stride(2).padding(1).bias(false),
                    rng,
                ),
                Some(ops.batch_norm(c / 2)),
            ));
            c /= 2;
        }
        layers.push((
            ops.conv_transpose2d(
                Conv2dCfg::new(c, 3, 4).stride(2).padding(1).bias(false),
                rng,
            ),
            None,
        ));
        DcganG { layers, ops }
    }
}

impl<O: Ops> Module for DcganG<O> {
    fn forward(&self, z: &Var) -> Var {
        let mut h = z.clone();
        let last = self.layers.len() - 1;
        for (i, (deconv, bn)) in self.layers.iter().enumerate() {
            h = deconv.forward(&h);
            if let Some(bn) = bn {
                h = bn.forward(&h).relu();
            }
            if i == last {
                h = h.tanh();
            }
        }
        h
    }

    fn parameters(&self) -> Vec<Parameter> {
        stage_parameters(&self.layers)
    }

    fn set_training(&self, t: bool) {
        set_stage_training(&self.layers, t);
    }
}

/// DCGAN discriminator over the operator family `O`: images
/// `[N, B*3, S, S]` → real/fake logits `[N, B]`, one column per model
/// (`B = 1` for [`Serial`]).
#[derive(Debug)]
pub struct DcganD<O: Ops> {
    layers: Vec<Stage<O::Conv2d, O::BatchNorm>>,
    ops: O,
}

/// Serial DCGAN discriminator: image `[N, 3, S, S]` → logit `[N, 1]`.
pub type Discriminator = DcganD<Serial>;
/// HFTA-fused DCGAN discriminator array.
pub type FusedDiscriminator = DcganD<Fused>;

impl<O: Ops> DcganD<O> {
    /// Builds the discriminator out of `ops`' layers.
    pub fn build(ops: O, cfg: DcganCfg, rng: &mut Rng) -> Self {
        cfg.check();
        let s = cfg.stages();
        let mut layers = Vec::new();
        let mut c = cfg.width;
        layers.push((
            ops.conv2d(
                Conv2dCfg::new(3, c, 4).stride(2).padding(1).bias(false),
                rng,
            ),
            None, // first layer has no BN, per the DCGAN recipe
        ));
        for _ in 0..s - 1 {
            layers.push((
                ops.conv2d(
                    Conv2dCfg::new(c, c * 2, 4).stride(2).padding(1).bias(false),
                    rng,
                ),
                Some(ops.batch_norm(c * 2)),
            ));
            c *= 2;
        }
        layers.push((
            ops.conv2d(
                Conv2dCfg::new(c, 1, 4).stride(1).padding(0).bias(false),
                rng,
            ),
            None,
        ));
        DcganD { layers, ops }
    }
}

impl<O: Ops> Module for DcganD<O> {
    fn forward(&self, x: &Var) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, (conv, bn)) in self.layers.iter().enumerate() {
            h = conv.forward(&h);
            if let Some(bn) = bn {
                h = bn.forward(&h);
            }
            if i != last {
                h = h.leaky_relu(0.2);
            }
        }
        let n = h.dim(0);
        h.reshape(&[n, self.ops.b()])
    }

    fn parameters(&self) -> Vec<Parameter> {
        stage_parameters(&self.layers)
    }

    fn set_training(&self, t: bool) {
        set_stage_training(&self.layers, t);
    }
}

instantiate!(DcganG, DcganCfg);
instantiate!(DcganD, DcganCfg);

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::Tape;

    #[test]
    fn generator_produces_images_in_range() {
        let mut rng = Rng::seed_from(0);
        let g = Generator::new(DcganCfg::mini(), &mut rng);
        let tape = Tape::new();
        let z = tape.leaf(rng.randn([2, 16, 1, 1]));
        let img = g.forward(&z);
        assert_eq!(img.dims(), vec![2, 3, 16, 16]);
        let v = img.value();
        assert!(v.max_value() <= 1.0 && v.min_value() >= -1.0);
    }

    #[test]
    fn discriminator_emits_one_logit() {
        let mut rng = Rng::seed_from(1);
        let d = Discriminator::new(DcganCfg::mini(), &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(rng.randn([3, 3, 16, 16]));
        assert_eq!(d.forward(&x).dims(), vec![3, 1]);
    }

    #[test]
    fn fused_gan_shapes() {
        let mut rng = Rng::seed_from(2);
        let b = 3;
        let g = FusedGenerator::new(b, DcganCfg::mini(), &mut rng);
        let d = FusedDiscriminator::new(b, DcganCfg::mini(), &mut rng);
        let tape = Tape::new();
        let z = tape.leaf(rng.randn([2, b * 16, 1, 1]));
        let img = g.forward(&z);
        assert_eq!(img.dims(), vec![2, b * 3, 16, 16]);
        let logits = d.forward(&img);
        assert_eq!(logits.dims(), vec![2, b]);
    }

    #[test]
    fn one_gan_training_step_runs() {
        use hfta_nn::{Adam, Optimizer};
        let mut rng = Rng::seed_from(3);
        let cfg = DcganCfg::mini();
        let g = Generator::new(cfg, &mut rng);
        let d = Discriminator::new(cfg, &mut rng);
        let mut opt_d = Adam::new(d.parameters(), 2e-4);
        let mut opt_g = Adam::new(g.parameters(), 2e-4);
        let real = rng.rand([4, 3, 16, 16], -1.0, 1.0);
        // D step.
        opt_d.zero_grad();
        let tape = Tape::new();
        let d_real = d.forward(&tape.leaf(real));
        let loss_real = d_real.bce_with_logits(&hfta_tensor::Tensor::ones([4, 1]));
        let z = tape.leaf(rng.randn([4, 16, 1, 1]));
        let fake = g.forward(&z);
        let d_fake = d.forward(&tape.leaf(fake.value())); // detached fake
        let loss_fake = d_fake.bce_with_logits(&hfta_tensor::Tensor::zeros([4, 1]));
        let d_loss = loss_real.add(&loss_fake);
        d_loss.backward();
        opt_d.step();
        // G step.
        opt_g.zero_grad();
        let tape = Tape::new();
        let z = tape.leaf(rng.randn([4, 16, 1, 1]));
        let fake = g.forward(&z);
        let d_out = d.forward(&fake);
        let g_loss = d_out.bce_with_logits(&hfta_tensor::Tensor::ones([4, 1]));
        let before = g_loss.item();
        g_loss.backward();
        opt_g.step();
        assert!(before.is_finite());
        assert!(d_loss.item().is_finite());
    }

    #[test]
    fn paper_cfg_builds_deep_stacks() {
        let cfg = DcganCfg::paper();
        assert_eq!(cfg.stages(), 4);
        let mut rng = Rng::seed_from(4);
        let g = Generator::new(cfg, &mut rng);
        // 5 deconvs: 4->8->16->32->64 plus the latent projection.
        assert_eq!(g.layers.len(), 5);
    }
}
