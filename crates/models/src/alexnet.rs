//! AlexNet (Krizhevsky et al., 2012) — the paper's Figure 2 example of
//! "how to enable HFTA". One definition, two instantiations: [`AlexNetOn`]
//! is written once over an operator family ([`hfta_core::ops::Ops`]);
//! [`AlexNet`] is the serial model and [`FusedAlexNet`] the HFTA-fused
//! array of the same code — only the operator classes change.

use hfta_core::error::Result;
use hfta_core::format::stack_conv;
use hfta_core::ops::{Architecture, Fused, Ops, Serial};
use hfta_data::LabeledImages;
use hfta_nn::layers::{Conv2d, Conv2dCfg, Dropout, LinearCfg, MaxPool2d};
use hfta_nn::{Module, Parameter, Var};
use hfta_plan::{ModelGraph, OpSpec};
use hfta_sim::TrainingJob;
use hfta_tensor::Tensor;

use crate::lower_plan::{lane_job, PlanSimCfg};

/// Per-model batch of a tuning trial's step.
const TUNING_BATCH: usize = 8;

/// The convolutions a 2x2 max pool follows (the classic 3-pool layout).
const POOLED: [usize; 3] = [0, 1, 4];

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

    /// The five 3x3 convolutions, in order.
    fn convs(&self) -> [Conv2dCfg; 5] {
        let w = self.width;
        [
            (3, w),
            (w, 2 * w),
            (2 * w, 4 * w),
            (4 * w, 4 * w),
            (4 * w, 2 * w),
        ]
        .map(|(cin, cout)| Conv2dCfg::new(cin, cout, 3).padding(1))
    }

    /// The three fully connected layers, in order.
    fn fcs(&self) -> [LinearCfg; 3] {
        let (w, s) = (self.width, self.spatial_out());
        [
            LinearCfg::new(2 * w * s * s, 4 * w),
            LinearCfg::new(4 * w, 4 * w),
            LinearCfg::new(4 * w, self.classes),
        ]
    }

    /// One model's forward program as a planner graph; dropout, an
    /// identity in eval mode, has no op.
    fn graph(&self) -> ModelGraph {
        let mut ops = Vec::new();
        for (i, cfg) in self.convs().into_iter().enumerate() {
            ops.extend([OpSpec::conv2d(cfg), OpSpec::relu()]);
            if POOLED.contains(&i) {
                ops.push(OpSpec::max_pool2d(2));
            }
        }
        ops.push(OpSpec::flatten());
        let [fc1, fc2, fc3] = self.fcs();
        ops.extend([OpSpec::linear(fc1), OpSpec::relu()]);
        ops.extend([OpSpec::linear(fc2), OpSpec::relu()]);
        ops.push(OpSpec::linear(fc3));
        ModelGraph::new("alexnet", vec![3, self.image, self.image], ops)
    }
}

/// AlexNet as a tuning service trains it: synthetic labeled images
/// ([`LabeledImages`]) of the configured side and classes, batches of 8
/// per model, and a cost profile lowered from its op graph.
impl Architecture for AlexNetCfg {
    type Model<O: Ops> = AlexNetOn<O>;

    fn build<O: Ops>(&self, ops: O, init: &mut O::Init) -> AlexNetOn<O> {
        AlexNetOn::build(ops, *self, init)
    }

    fn batch(&self, seed: u64) -> (Tensor, Vec<usize>) {
        LabeledImages::new(self.image, self.classes, seed).batch(TUNING_BATCH)
    }

    fn stack(inputs: &[Tensor]) -> Result<Tensor> {
        stack_conv(inputs)
    }

    fn job_profile(&self) -> TrainingJob {
        let cfg = PlanSimCfg {
            batch: TUNING_BATCH,
            ..PlanSimCfg::default()
        };
        lane_job(&self.graph(), &cfg).expect("AlexNet's graph shape-checks")
    }
}

/// AlexNet (CIFAR-style kernel sizes) over the operator family `O`: conv
/// format `[N, B*3, S, S]` → logits in the family's `Linear` layout
/// (`[N, classes]` for [`Serial`], array format `[B, N, classes]` for
/// [`Fused`]). Pooling and dropout are stateless and serve both families.
#[derive(Debug)]
pub struct AlexNetOn<O: Ops> {
    convs: Vec<Conv2d>,
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
    pub fn build(ops: O, cfg: AlexNetCfg, init: &mut O::Init) -> Self {
        let convs = cfg
            .convs()
            .into_iter()
            .map(|c| ops.conv2d(c, init))
            .collect();
        let [fc1, fc2, fc3] = cfg.fcs();
        AlexNetOn {
            convs,
            pool: MaxPool2d::new(2),
            drop1: ops.dropout(0.5, init),
            fc1: ops.linear(fc1, init),
            drop2: ops.dropout(0.5, init),
            fc2: ops.linear(fc2, init),
            fc3: ops.linear(fc3, init),
            ops,
        }
    }
}

impl<O: Ops> Module for AlexNetOn<O> {
    fn forward(&self, x: &Var) -> Var {
        let mut h = x.clone();
        for (i, conv) in self.convs.iter().enumerate() {
            h = conv.forward(&h).relu();
            if POOLED.contains(&i) {
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
    use hfta_tensor::Rng;

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

    /// The graph the job profile is lowered from is the model's program:
    /// the same parameter count and the same logits shape.
    #[test]
    fn graph_matches_the_model() {
        let cfg = AlexNetCfg::mini(10);
        let model = AlexNet::new(cfg, &mut Rng::seed_from(3));
        let ops = cfg.graph().shaped(1).unwrap();
        let params: usize = model.parameters().iter().map(|p| p.numel()).sum();
        assert_eq!(ops.iter().map(|o| o.param_count()).sum::<usize>(), params);
        assert_eq!(ops.last().unwrap().out_shape(), vec![10]);
        assert_eq!(cfg.job_profile().examples_per_iteration, TUNING_BATCH);
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
