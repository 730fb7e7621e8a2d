//! AlexNet (Krizhevsky et al., 2012) — the paper's Figure 2 example of
//! "how to enable HFTA". One definition, two instantiations: [`AlexNetOn`]
//! is written once over an operator family ([`hfta_core::ops::Ops`]);
//! [`AlexNet`] is the serial model and [`FusedAlexNet`] the HFTA-fused
//! array of the same code — only the operator classes change.

use hfta_core::ops::{Fused, Ops, Serial};
use hfta_nn::layers::{Conv2dCfg, Dropout, LinearCfg, MaxPool2d};
use hfta_nn::{Module, Parameter, Var};
use hfta_tensor::Rng;

/// AlexNet configuration (CIFAR-scale mini by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlexNetCfg {
    /// Base width (64 in the original).
    pub width: usize,
    /// Output classes.
    pub classes: usize,
    /// Input image side (must be divisible by 8).
    pub image: usize,
}

impl AlexNetCfg {
    /// CPU-friendly mini configuration for 16x16 inputs.
    pub fn mini(classes: usize) -> Self {
        AlexNetCfg {
            width: 8,
            classes,
            image: 16,
        }
    }

    fn spatial_out(&self) -> usize {
        self.image / 8 // three stride-2 max pools
    }
}

/// AlexNet (CIFAR-style kernel sizes) over the operator family `O`: conv
/// format `[N, B*3, S, S]` → logits in the family's `Linear` layout
/// (`[N, classes]` for [`Serial`], array format `[B, N, classes]` for
/// [`Fused`]). Pooling and dropout are stateless and serve both families.
#[derive(Debug)]
pub struct AlexNetOn<O: Ops> {
    convs: Vec<O::Conv2d>,
    pool: MaxPool2d,
    drop1: Dropout,
    fc1: O::Linear,
    drop2: Dropout,
    fc2: O::Linear,
    fc3: O::Linear,
    ops: O,
}

/// Serial AlexNet: `[N, 3, S, S]` → logits `[N, classes]`.
pub type AlexNet = AlexNetOn<Serial>;
/// HFTA-fused AlexNet array.
pub type FusedAlexNet = AlexNetOn<Fused>;

impl<O: Ops> AlexNetOn<O> {
    /// Builds the network out of `ops`' layers.
    pub fn build(ops: O, cfg: AlexNetCfg, rng: &mut Rng) -> Self {
        let w = cfg.width;
        let convs = vec![
            ops.conv2d(Conv2dCfg::new(3, w, 3).padding(1), rng),
            ops.conv2d(Conv2dCfg::new(w, 2 * w, 3).padding(1), rng),
            ops.conv2d(Conv2dCfg::new(2 * w, 4 * w, 3).padding(1), rng),
            ops.conv2d(Conv2dCfg::new(4 * w, 4 * w, 3).padding(1), rng),
            ops.conv2d(Conv2dCfg::new(4 * w, 2 * w, 3).padding(1), rng),
        ];
        let s = cfg.spatial_out();
        let flat = 2 * w * s * s;
        AlexNetOn {
            convs,
            pool: MaxPool2d::new(2),
            drop1: Dropout::new(0.5, rng.split().below(u32::MAX as usize) as u64),
            fc1: ops.linear(LinearCfg::new(flat, 4 * w), rng),
            drop2: Dropout::new(0.5, rng.split().below(u32::MAX as usize) as u64),
            fc2: ops.linear(LinearCfg::new(4 * w, 4 * w), rng),
            fc3: ops.linear(LinearCfg::new(4 * w, cfg.classes), rng),
            ops,
        }
    }
}

impl<O: Ops> Module for AlexNetOn<O> {
    fn forward(&self, x: &Var) -> Var {
        let mut h = x.clone();
        for (i, conv) in self.convs.iter().enumerate() {
            h = conv.forward(&h).relu();
            // Pools after conv 0, 1 and 4 (the classic 3-pool layout).
            if i == 0 || i == 1 || i == 4 {
                h = self.pool.forward(&h);
            }
        }
        // [N, B*C, s, s] flattens with each model's block contiguous.
        let h = self.ops.to_linear(&h.flatten_from(1));
        let h = self.fc1.forward(&self.drop1.forward(&h)).relu();
        let h = self.fc2.forward(&self.drop2.forward(&h)).relu();
        self.fc3.forward(&h)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps: Vec<Parameter> = self.convs.iter().flat_map(|c| c.parameters()).collect();
        ps.extend(self.fc1.parameters());
        ps.extend(self.fc2.parameters());
        ps.extend(self.fc3.parameters());
        ps
    }

    fn set_training(&self, t: bool) {
        self.drop1.set_training(t);
        self.drop2.set_training(t);
    }
}

instantiate!(AlexNetOn, AlexNetCfg);

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::Tape;

    #[test]
    fn serial_forward_shapes() {
        let mut rng = Rng::seed_from(0);
        let m = AlexNet::new(AlexNetCfg::mini(10), &mut rng);
        let tape = Tape::new();
        let y = m.forward(&tape.leaf(rng.randn([2, 3, 16, 16])));
        assert_eq!(y.dims(), vec![2, 10]);
    }

    #[test]
    fn fused_forward_shapes() {
        let mut rng = Rng::seed_from(1);
        let m = FusedAlexNet::new(4, AlexNetCfg::mini(10), &mut rng);
        let tape = Tape::new();
        let y = m.forward(&tape.leaf(rng.randn([2, 12, 16, 16])));
        assert_eq!(y.dims(), vec![4, 2, 10]);
    }

    #[test]
    fn param_scaling() {
        let mut rng = Rng::seed_from(2);
        let cfg = AlexNetCfg::mini(10);
        let serial: usize = AlexNet::new(cfg, &mut rng)
            .parameters()
            .iter()
            .map(|p| p.numel())
            .sum();
        let fused: usize = FusedAlexNet::new(3, cfg, &mut rng)
            .parameters()
            .iter()
            .map(|p| p.numel())
            .sum();
        assert_eq!(fused, 3 * serial);
    }
}
