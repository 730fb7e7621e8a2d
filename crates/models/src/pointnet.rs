//! PointNet classification and segmentation (Qi et al., 2017). One
//! definition, two instantiations: every block here is written once over
//! an operator family ([`hfta_core::ops::Ops`]); [`PointNetCls`],
//! [`PointNetSeg`] and [`Stn3d`] are the serial models and
//! [`FusedPointNetCls`], [`FusedPointNetSeg`] and [`FusedStn3d`] the
//! HFTA-fused arrays of the same code.
//!
//! The architecture follows the third-party PyTorch implementation the
//! paper benchmarks (`fxia22/pointnet.pytorch`), including the optional
//! STN3d input transformer ([`PointNetStn`]; enable with
//! [`PointNetCfg::stn`]). The feature transform (STNkd) is omitted, as in
//! the reference default. A `width` knob scales all channel counts so
//! convergence experiments run quickly on CPU while the structure matches
//! the paper's.

use hfta_core::ops::{Fused, Ops, Serial};
use hfta_nn::layers::{BatchNorm, Conv1d, Dropout, LinearCfg};
use hfta_nn::{Module, Parameter, Var};
use hfta_tensor::{Rng, Tensor};

/// Configuration shared by the serial and fused PointNet variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointNetCfg {
    /// Base channel width (the paper's models use 64).
    pub width: usize,
    /// Number of output classes (16 categories for classification,
    /// part count for segmentation).
    pub classes: usize,
    /// Whether to include the STN3d input transformer of the reference
    /// implementation.
    pub with_stn: bool,
}

impl PointNetCfg {
    /// A CPU-friendly mini configuration (no STN).
    pub fn mini(classes: usize) -> Self {
        PointNetCfg {
            width: 8,
            classes,
            with_stn: false,
        }
    }

    /// The paper-scale configuration (width 64, with STN3d).
    pub fn paper(classes: usize) -> Self {
        PointNetCfg {
            width: 64,
            classes,
            with_stn: true,
        }
    }

    /// Enables or disables the STN3d input transformer.
    pub fn stn(mut self, on: bool) -> Self {
        self.with_stn = on;
        self
    }

    fn dims(&self) -> (usize, usize, usize) {
        // conv channels: (w, 2w, 16w) mirroring (64, 128, 1024).
        (self.width, 2 * self.width, 16 * self.width)
    }
}

/// The STN3d input spatial transformer of the reference implementation,
/// over the operator family `O`: regresses one 3x3 alignment matrix per
/// model from the cloud and applies it to that model's input coordinates
/// (initialized to the identity transform).
#[derive(Debug)]
pub struct PointNetStn<O: Ops> {
    trunk: PointNetFeat,
    fc1: O::Linear,
    bn1: BatchNorm,
    fc2: O::Linear,
    bn2: BatchNorm,
    fc3: O::Linear,
    ops: O,
}

/// Serial STN3d over `[N, 3, P]`.
pub type Stn3d = PointNetStn<Serial>;
/// HFTA-fused STN3d array over conv format `[N, B*3, P]`.
pub type FusedStn3d = PointNetStn<Fused>;

impl Stn3d {
    /// Builds the transformer at the given width.
    pub fn new(cfg: PointNetCfg, rng: &mut Rng) -> Self {
        Self::build(Serial, cfg, rng)
    }
}

impl FusedStn3d {
    /// Builds a `b`-wide fused transformer.
    pub fn new(b: usize, cfg: PointNetCfg, rng: &mut Rng) -> Self {
        Self::build(Fused(b), cfg, &mut Fused(b).lanes(rng))
    }
}

impl<O: Ops> PointNetStn<O> {
    /// Builds the transformer out of `ops`' layers.
    pub fn build(ops: O, cfg: PointNetCfg, init: &mut O::Init) -> Self {
        let (_, _, c3) = cfg.dims();
        let (f1, f2) = (8 * cfg.width, 4 * cfg.width);
        let fc3 = ops.linear(LinearCfg::new(f2, 9), init);
        // Reference init: zero weights, identity bias, so every model's
        // transform starts as the identity.
        let params = fc3.parameters();
        let (weight, bias) = (&params[0], &params[1]);
        let zeros = weight.value().zeros_like();
        weight.set_value(zeros);
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0].repeat(ops.b());
        let bias_shape = bias.value().shape().clone();
        bias.set_value(Tensor::from_vec(eye, bias_shape));
        PointNetStn {
            trunk: PointNetFeat::build(ops, cfg, init),
            fc1: ops.linear(LinearCfg::new(c3, f1), init),
            bn1: ops.batch_norm(f1),
            fc2: ops.linear(LinearCfg::new(f1, f2), init),
            bn2: ops.batch_norm(f2),
            fc3,
            ops,
        }
    }

    /// Regresses the transforms and applies them:
    /// `x [N, B*3, P] -> [N, B*3, P]`.
    pub fn transform(&self, x: &Var) -> Var {
        let o = &self.ops;
        let (global, _) = self.trunk.forward(x);
        let h = self.fc1.forward(&o.to_linear(&global));
        let h = o.batch_norm_linear(&self.bn1, &h).relu();
        let h = o.batch_norm_linear(&self.bn2, &self.fc2.forward(&h)).relu();
        o.transform_points(x, &self.fc3.forward(&h))
    }

    fn parameters(&self) -> Vec<Parameter> {
        [
            self.trunk.parameters(),
            self.fc1.parameters(),
            self.bn1.parameters(),
            self.fc2.parameters(),
            self.bn2.parameters(),
            self.fc3.parameters(),
        ]
        .concat()
    }

    fn set_training(&self, t: bool) {
        self.trunk.set_training(t);
        self.bn1.set_training(t);
        self.bn2.set_training(t);
    }
}

/// The shared PointNet feature extractor over conv format `[N, B*3, P]`:
/// three 1x1 `Conv1d`+BN+ReLU stages followed by a global max-pool over
/// points.
#[derive(Debug)]
struct PointNetFeat {
    conv1: Conv1d,
    bn1: BatchNorm,
    conv2: Conv1d,
    bn2: BatchNorm,
    conv3: Conv1d,
    bn3: BatchNorm,
}

impl PointNetFeat {
    fn build<O: Ops>(ops: O, cfg: PointNetCfg, init: &mut O::Init) -> Self {
        let (c1, c2, c3) = cfg.dims();
        PointNetFeat {
            conv1: ops.conv1d(3, c1, 1, 1, 0, init),
            bn1: ops.batch_norm(c1),
            conv2: ops.conv1d(c1, c2, 1, 1, 0, init),
            bn2: ops.batch_norm(c2),
            conv3: ops.conv1d(c2, c3, 1, 1, 0, init),
            bn3: ops.batch_norm(c3),
        }
    }

    /// Returns `(global [N, B*16w], pointwise [N, B*w, P])`.
    fn forward(&self, x: &Var) -> (Var, Var) {
        let h1 = self.bn1.forward(&self.conv1.forward(x)).relu();
        let h2 = self.bn2.forward(&self.conv2.forward(&h1)).relu();
        let h3 = self.bn3.forward(&self.conv3.forward(&h2));
        (h3.max_axis(2), h1)
    }

    fn parameters(&self) -> Vec<Parameter> {
        [
            self.conv1.parameters(),
            self.bn1.parameters(),
            self.conv2.parameters(),
            self.bn2.parameters(),
            self.conv3.parameters(),
            self.bn3.parameters(),
        ]
        .concat()
    }

    fn set_training(&self, t: bool) {
        self.bn1.set_training(t);
        self.bn2.set_training(t);
        self.bn3.set_training(t);
    }
}

/// PointNet classifier over the operator family `O`: feature extractor
/// plus a 3-layer MLP head with batch norm and dropout, emitting
/// log-probabilities.
///
/// Input is conv format `[N, B*3, P]` (stack per-model clouds with
/// [`hfta_core::format::stack_conv`]); output is the family's `Linear`
/// layout — `[N, classes]` for [`Serial`], array format
/// `[B, N, classes]` for [`Fused`], ready for
/// [`hfta_core::loss::fused_nll_loss`].
#[derive(Debug)]
pub struct PointNetClassifier<O: Ops> {
    stn: Option<PointNetStn<O>>,
    feat: PointNetFeat,
    fc1: O::Linear,
    bnf1: BatchNorm,
    fc2: O::Linear,
    bnf2: BatchNorm,
    dropout: Dropout,
    fc3: O::Linear,
    ops: O,
}

/// Serial PointNet classifier: `[N, 3, P]` → `[N, classes]`.
pub type PointNetCls = PointNetClassifier<Serial>;
/// HFTA-fused PointNet classifier array: `B` models trained together.
pub type FusedPointNetCls = PointNetClassifier<Fused>;

impl<O: Ops> PointNetClassifier<O> {
    /// Builds the classifier out of `ops`' layers.
    pub fn build(ops: O, cfg: PointNetCfg, init: &mut O::Init) -> Self {
        let (_, _, c3) = cfg.dims();
        let (f1, f2) = (8 * cfg.width, 4 * cfg.width);
        PointNetClassifier {
            stn: cfg.with_stn.then(|| PointNetStn::build(ops, cfg, init)),
            feat: PointNetFeat::build(ops, cfg, init),
            fc1: ops.linear(LinearCfg::new(c3, f1), init),
            bnf1: ops.batch_norm(f1),
            fc2: ops.linear(LinearCfg::new(f1, f2), init),
            bnf2: ops.batch_norm(f2),
            dropout: ops.dropout(0.3, init),
            fc3: ops.linear(LinearCfg::new(f2, cfg.classes), init),
            ops,
        }
    }
}

impl<O: Ops> Module for PointNetClassifier<O> {
    fn forward(&self, x: &Var) -> Var {
        let o = &self.ops;
        let x = match &self.stn {
            Some(stn) => stn.transform(x),
            None => x.clone(),
        };
        let (global, _) = self.feat.forward(&x);
        let h = self.fc1.forward(&o.to_linear(&global));
        let h = o.batch_norm_linear(&self.bnf1, &h).relu();
        let h = o.batch_norm_linear(&self.bnf2, &self.fc2.forward(&h));
        let logits = self.fc3.forward(&self.dropout.forward(&h).relu());
        // A `Linear` output carries its classes on the last axis in
        // either family.
        logits.log_softmax(logits.dims().len() - 1)
    }

    fn parameters(&self) -> Vec<Parameter> {
        let mut ps = self
            .stn
            .as_ref()
            .map(|s| s.parameters())
            .unwrap_or_default();
        ps.extend(
            [
                self.feat.parameters(),
                self.fc1.parameters(),
                self.bnf1.parameters(),
                self.fc2.parameters(),
                self.bnf2.parameters(),
                self.fc3.parameters(),
            ]
            .concat(),
        );
        ps
    }

    fn set_training(&self, t: bool) {
        if let Some(stn) = &self.stn {
            stn.set_training(t);
        }
        self.feat.set_training(t);
        self.bnf1.set_training(t);
        self.bnf2.set_training(t);
        self.dropout.set_training(t);
    }
}

/// PointNet segmentation model over the operator family `O`: per-point
/// part log-probabilities from concatenated local + global features, conv
/// format `[N, B*3, P]` → `[N, B*classes, P]` (per-model channel blocks
/// contiguous).
#[derive(Debug)]
pub struct PointNetSegmenter<O: Ops> {
    feat: PointNetFeat,
    conv1: Conv1d,
    bn1: BatchNorm,
    conv2: Conv1d,
    bn2: BatchNorm,
    conv3: Conv1d,
    ops: O,
}

/// Serial PointNet segmentation model: `[N, 3, P]` → `[N, classes, P]`.
pub type PointNetSeg = PointNetSegmenter<Serial>;
/// HFTA-fused PointNet segmentation array.
pub type FusedPointNetSeg = PointNetSegmenter<Fused>;

impl<O: Ops> PointNetSegmenter<O> {
    /// Builds the segmentation model out of `ops`' layers.
    pub fn build(ops: O, cfg: PointNetCfg, init: &mut O::Init) -> Self {
        let (c1, _, c3) = cfg.dims();
        let concat = c1 + c3; // local + global (1088 at paper scale)
        let (h1, h2) = (8 * cfg.width, 4 * cfg.width);
        PointNetSegmenter {
            feat: PointNetFeat::build(ops, cfg, init),
            conv1: ops.conv1d(concat, h1, 1, 1, 0, init),
            bn1: ops.batch_norm(h1),
            conv2: ops.conv1d(h1, h2, 1, 1, 0, init),
            bn2: ops.batch_norm(h2),
            conv3: ops.conv1d(h2, cfg.classes, 1, 1, 0, init),
            ops,
        }
    }
}

impl<O: Ops> Module for PointNetSegmenter<O> {
    fn forward(&self, x: &Var) -> Var {
        let (n, p) = (x.dim(0), x.dim(2));
        let (global, local) = self.feat.forward(x);
        // Broadcast the global feature over points and concat with local.
        let c = global.dim(1);
        let zeros = x.tape().leaf(Tensor::zeros([n, c, p]));
        let global_rep = global.reshape(&[n, c, 1]).add(&zeros);
        let h = self.ops.concat_channels(&local, &global_rep);
        let h = self.bn1.forward(&self.conv1.forward(&h)).relu();
        let h = self.bn2.forward(&self.conv2.forward(&h)).relu();
        self.ops.log_softmax_channels(&self.conv3.forward(&h))
    }

    fn parameters(&self) -> Vec<Parameter> {
        [
            self.feat.parameters(),
            self.conv1.parameters(),
            self.bn1.parameters(),
            self.conv2.parameters(),
            self.bn2.parameters(),
            self.conv3.parameters(),
        ]
        .concat()
    }

    fn set_training(&self, t: bool) {
        self.feat.set_training(t);
        self.bn1.set_training(t);
        self.bn2.set_training(t);
    }
}

instantiate!(PointNetClassifier, PointNetCfg);
instantiate!(PointNetSegmenter, PointNetCfg);

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_core::ops::FusedModule;
    use hfta_nn::Tape;

    #[test]
    fn cls_forward_shapes() {
        let mut rng = Rng::seed_from(0);
        let m = PointNetCls::new(PointNetCfg::mini(6), &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(rng.randn([4, 3, 32]));
        let y = m.forward(&x);
        assert_eq!(y.dims(), vec![4, 6]);
        // log-probs sum to 1 after exp.
        let probs = y.value().exp();
        let row = probs.narrow(0, 0, 1).sum().item();
        assert!((row - 1.0).abs() < 1e-4);
    }

    #[test]
    fn fused_cls_forward_shapes() {
        let mut rng = Rng::seed_from(1);
        let m = FusedPointNetCls::new(3, PointNetCfg::mini(6), &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(rng.randn([4, 9, 32]));
        let y = m.forward(&x);
        assert_eq!(y.dims(), vec![3, 4, 6]);
    }

    #[test]
    fn seg_forward_shapes() {
        let mut rng = Rng::seed_from(2);
        let m = PointNetSeg::new(PointNetCfg::mini(4), &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(rng.randn([2, 3, 16]));
        let y = m.forward(&x);
        assert_eq!(y.dims(), vec![2, 4, 16]);
    }

    #[test]
    fn fused_seg_forward_shapes() {
        let mut rng = Rng::seed_from(3);
        let m = FusedPointNetSeg::new(2, PointNetCfg::mini(4), &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(rng.randn([2, 6, 16]));
        let y = m.forward(&x);
        assert_eq!(y.dims(), vec![2, 8, 16]);
    }

    #[test]
    fn fused_seg_matches_serial_values() {
        // The segmentation path exercises the trickiest fused plumbing:
        // per-model-contiguous channel concat of local + broadcast global
        // features, then per-model log-softmax over class blocks.
        use hfta_core::array::copy_model_weights;
        use hfta_core::format::stack_conv;
        let mut rng = Rng::seed_from(21);
        let cfg = PointNetCfg::mini(4);
        let b = 2;
        let fused = FusedPointNetSeg::new(b, cfg, &mut rng);
        fused.set_training(false);
        let serial: Vec<PointNetSeg> = (0..b)
            .map(|_| {
                let m = PointNetSeg::new(cfg, &mut rng);
                m.set_training(false);
                m
            })
            .collect();
        for (i, m) in serial.iter().enumerate() {
            copy_model_weights(&fused.fused_parameters(), i, &m.parameters());
        }
        let inputs: Vec<hfta_tensor::Tensor> = (0..b).map(|_| rng.randn([2, 3, 12])).collect();
        let tape = Tape::new();
        let out = fused
            .forward(&tape.leaf(stack_conv(&inputs).unwrap()))
            .value(); // [N, B*4, P]
        for (i, m) in serial.iter().enumerate() {
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(inputs[i].clone())).value(); // [N, 4, P]
            let block = out.narrow(1, i * 4, 4);
            assert!(
                block.allclose(&y, 1e-3),
                "seg model {i} diff {}",
                block.max_abs_diff(&y)
            );
        }
    }

    #[test]
    fn training_backward_reduces_loss() {
        use hfta_nn::{Adam, Optimizer};
        let mut rng = Rng::seed_from(4);
        let m = PointNetCls::new(PointNetCfg::mini(3), &mut rng);
        let mut opt = Adam::new(m.parameters(), 1e-2);
        let x = rng.randn([8, 3, 16]);
        let targets: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..15 {
            opt.zero_grad();
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(x.clone()));
            let loss = y.nll_loss(&targets);
            if step == 0 {
                first = loss.item();
            }
            last = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn stn_starts_as_identity_transform() {
        let mut rng = Rng::seed_from(7);
        let cfg = PointNetCfg::mini(4).stn(true);
        let stn = Stn3d::new(cfg, &mut rng);
        stn.set_training(false);
        // With zeroed fc3 weight and identity bias, the regressed matrix is
        // the identity, so transform(x) == x.
        let tape = Tape::new();
        let x = rng.randn([2, 3, 16]);
        let y = stn.transform(&tape.leaf(x.clone()));
        assert!(y.value().allclose(&x, 1e-4));
    }

    #[test]
    fn fused_stn_cls_matches_serial() {
        use hfta_core::array::copy_model_weights;
        use hfta_core::format::stack_conv;
        let mut rng = Rng::seed_from(8);
        let cfg = PointNetCfg::mini(4).stn(true);
        let b = 2;
        let fused = FusedPointNetCls::new(b, cfg, &mut rng);
        fused.set_training(false);
        let serial: Vec<PointNetCls> = (0..b)
            .map(|_| {
                let m = PointNetCls::new(cfg, &mut rng);
                m.set_training(false);
                m
            })
            .collect();
        for (i, m) in serial.iter().enumerate() {
            copy_model_weights(&fused.fused_parameters(), i, &m.parameters());
        }
        let inputs: Vec<hfta_tensor::Tensor> = (0..b).map(|_| rng.randn([3, 3, 16])).collect();
        let tape = Tape::new();
        let out = fused
            .forward(&tape.leaf(stack_conv(&inputs).unwrap()))
            .value();
        for (i, m) in serial.iter().enumerate() {
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(inputs[i].clone())).value();
            let slice = out.narrow(0, i, 1).reshape(&[3, 4]);
            assert!(
                slice.allclose(&y, 1e-3),
                "model {i} diff {}",
                slice.max_abs_diff(&y)
            );
        }
    }

    #[test]
    fn parameter_counts_match_between_serial_and_fused() {
        let mut rng = Rng::seed_from(5);
        let cfg = PointNetCfg::mini(6);
        let serial = PointNetCls::new(cfg, &mut rng);
        let fused = FusedPointNetCls::new(4, cfg, &mut rng);
        let serial_n: usize = serial.parameters().iter().map(|p| p.numel()).sum();
        let fused_n: usize = fused.parameters().iter().map(|p| p.numel()).sum();
        assert_eq!(fused_n, 4 * serial_n);
    }
}
