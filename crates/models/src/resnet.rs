//! ResNet-18 (He et al., 2016), CIFAR variant — the paper's
//! conventional-model check (Figures 3 and 5). One definition, two
//! instantiations: [`ResNetOn`] is written once over an operator family
//! ([`hfta_core::ops::Ops`]); [`ResNet`] is the serial model and
//! [`FusedResNet`] the HFTA-fused array of the same code.

use hfta_core::ops::{Fused, Ops, Serial};
use hfta_nn::layers::{BatchNorm, Conv2d, Conv2dCfg, LinearCfg};
use hfta_nn::{Module, Parameter, Var};

/// ResNet configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetCfg {
    /// Stem width (64 in the paper's ResNet-18).
    pub width: usize,
    /// Blocks per stage (ResNet-18 uses `[2, 2, 2, 2]`; the mini config
    /// trims stages for CPU runs).
    pub stages: usize,
    /// Output classes.
    pub classes: usize,
}

impl ResNetCfg {
    /// CPU-friendly mini: width 8, 2 stages.
    pub fn mini(classes: usize) -> Self {
        ResNetCfg {
            width: 8,
            stages: 2,
            classes,
        }
    }

    /// Paper-scale ResNet-18 (CIFAR stem): width 64, 4 stages of 2 blocks.
    pub fn paper(classes: usize) -> Self {
        ResNetCfg {
            width: 64,
            stages: 4,
            classes,
        }
    }
}

/// A residual basic block. Both operator families build it from the same
/// layer types, the fused one at the widened configuration.
#[derive(Debug)]
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm,
    conv2: Conv2d,
    bn2: BatchNorm,
    down: Option<(Conv2d, BatchNorm)>,
}

impl BasicBlock {
    fn forward(&self, x: &Var) -> Var {
        let h = self.bn1.forward(&self.conv1.forward(x)).relu();
        let h = self.bn2.forward(&self.conv2.forward(&h));
        let skip = match &self.down {
            Some((conv, bn)) => bn.forward(&conv.forward(x)),
            None => x.clone(),
        };
        h.add(&skip).relu()
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = [
            self.conv1.parameters(),
            self.bn1.parameters(),
            self.conv2.parameters(),
            self.bn2.parameters(),
        ]
        .concat();
        if let Some((c, b)) = &self.down {
            ps.extend(c.parameters());
            ps.extend(b.parameters());
        }
        ps
    }

    fn set_training(&self, t: bool) {
        self.bn1.set_training(t);
        self.bn2.set_training(t);
        if let Some((_, b)) = &self.down {
            b.set_training(t);
        }
    }
}

fn conv3(cin: usize, cout: usize, stride: usize) -> Conv2dCfg {
    Conv2dCfg::new(cin, cout, 3)
        .stride(stride)
        .padding(1)
        .bias(false)
}

fn conv1(cin: usize, cout: usize, stride: usize) -> Conv2dCfg {
    Conv2dCfg::new(cin, cout, 1).stride(stride).bias(false)
}

/// ResNet (CIFAR stem, 2 basic blocks per stage) over the operator family
/// `O`: conv format `[N, B*3, S, S]` → logits in the family's `Linear`
/// layout (`[N, classes]` for [`Serial`], array format `[B, N, classes]`
/// for [`Fused`]).
#[derive(Debug)]
pub struct ResNetOn<O: Ops> {
    stem: Conv2d,
    stem_bn: BatchNorm,
    blocks: Vec<BasicBlock>,
    fc: O::Linear,
    ops: O,
}

/// Serial ResNet: `[N, 3, S, S]` → logits `[N, classes]`.
pub type ResNet = ResNetOn<Serial>;
/// HFTA-fused ResNet array.
pub type FusedResNet = ResNetOn<Fused>;

impl<O: Ops> ResNetOn<O> {
    /// Builds the network out of `ops`' layers.
    pub fn build(ops: O, cfg: ResNetCfg, init: &mut O::Init) -> Self {
        let w = cfg.width;
        let mut blocks = Vec::new();
        let mut cin = w;
        for stage in 0..cfg.stages {
            let cout = w << stage;
            let stride = if stage == 0 { 1 } else { 2 };
            for block in 0..2 {
                let (s, ci) = if block == 0 { (stride, cin) } else { (1, cout) };
                let down = (s != 1 || ci != cout)
                    .then(|| (ops.conv2d(conv1(ci, cout, s), init), ops.batch_norm(cout)));
                blocks.push(BasicBlock {
                    conv1: ops.conv2d(conv3(ci, cout, s), init),
                    bn1: ops.batch_norm(cout),
                    conv2: ops.conv2d(conv3(cout, cout, 1), init),
                    bn2: ops.batch_norm(cout),
                    down,
                });
            }
            cin = cout;
        }
        ResNetOn {
            stem: ops.conv2d(conv3(3, w, 1), init),
            stem_bn: ops.batch_norm(w),
            blocks,
            fc: ops.linear(LinearCfg::new(cin, cfg.classes), init),
            ops,
        }
    }
}

impl<O: Ops> Module for ResNetOn<O> {
    fn forward(&self, x: &Var) -> Var {
        let mut h = self.stem_bn.forward(&self.stem.forward(x)).relu();
        for b in &self.blocks {
            h = b.forward(&h);
        }
        // Global average pool.
        let pooled = h.mean_axis_keep(3).mean_axis_keep(2);
        let dims = pooled.dims();
        let flat = pooled.reshape(&[dims[0], dims[1]]);
        self.fc.forward(&self.ops.to_linear(&flat))
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = self.stem.parameters();
        ps.extend(self.stem_bn.parameters());
        for b in &self.blocks {
            ps.extend(b.parameters());
        }
        ps.extend(self.fc.parameters());
        ps
    }

    fn set_training(&self, t: bool) {
        self.stem_bn.set_training(t);
        for b in &self.blocks {
            b.set_training(t);
        }
    }
}

instantiate!(ResNetOn, ResNetCfg);

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::Tape;
    use hfta_tensor::Rng;

    #[test]
    fn serial_forward_shapes() {
        let mut rng = Rng::seed_from(0);
        let m = ResNet::new(ResNetCfg::mini(10), &mut rng);
        let tape = Tape::new();
        let y = m.forward(&tape.leaf(rng.randn([2, 3, 8, 8])));
        assert_eq!(y.dims(), vec![2, 10]);
    }

    #[test]
    fn fused_forward_shapes() {
        let mut rng = Rng::seed_from(1);
        let m = FusedResNet::new(3, ResNetCfg::mini(10), &mut rng);
        let tape = Tape::new();
        let y = m.forward(&tape.leaf(rng.randn([2, 9, 8, 8])));
        assert_eq!(y.dims(), vec![3, 2, 10]);
    }

    #[test]
    fn downsample_blocks_present() {
        let mut rng = Rng::seed_from(2);
        let m = ResNet::new(ResNetCfg::mini(10), &mut rng);
        // Stage 2's first block downsamples.
        assert!(m.blocks[2].down.is_some());
        assert!(m.blocks[0].down.is_none());
    }

    #[test]
    fn training_step_decreases_loss() {
        use hfta_nn::{Optimizer, Sgd};
        let mut rng = Rng::seed_from(3);
        let m = ResNet::new(ResNetCfg::mini(4), &mut rng);
        let mut opt = Sgd::new(m.parameters(), 0.05, 0.9);
        let x = rng.randn([8, 3, 8, 8]);
        let t: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..10 {
            opt.zero_grad();
            let tape = Tape::new();
            let loss = m.forward(&tape.leaf(x.clone())).cross_entropy(&t);
            if step == 0 {
                first = loss.item();
            }
            last = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn fused_param_count_is_b_times_serial() {
        let mut rng = Rng::seed_from(4);
        let cfg = ResNetCfg::mini(10);
        let serial: usize = ResNet::new(cfg, &mut rng)
            .parameters()
            .iter()
            .map(|p| p.numel())
            .sum();
        let fused: usize = FusedResNet::new(5, cfg, &mut rng)
            .parameters()
            .iter()
            .map(|p| p.numel())
            .sum();
        assert_eq!(fused, 5 * serial);
    }
}
