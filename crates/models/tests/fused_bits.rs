//! Pins the bits of fused training end to end: for each fused model and
//! for planned arrays, an FNV-1a digest of the initial parameters, of the
//! losses of three training steps, of the parameters after them, and of
//! one eval-mode forward (which reads every batch norm's running
//! statistics).
//!
//! The constants were taken before the fused conv and batch-norm layers
//! became the `hfta-nn` layers at the widened configuration. The five model
//! pins moved once since, when lane `i` of a fused model came to be built
//! from lane `i`'s own generator (the planned-array pins did not: planned
//! arrays already built lanes that way). Any change to initialisation,
//! stacking, a layer's forward or backward, or an optimizer shows up here
//! as a changed digest.

use hfta_core::loss::{fused_bce_with_logits, fused_cross_entropy, fused_nll_loss, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, FusedSgd, PerModel, Update};
use hfta_core::planned::{PlannedArray, PlannedOptimizer};
use hfta_models::graphs::{discriminator_variant_graph, generator_graph};
use hfta_models::{
    AlexNetCfg, DcganCfg, FusedAlexNet, FusedDiscriminator, FusedGenerator, FusedPointNetCls,
    FusedPointNetSeg, FusedResNet, PointNetCfg, ResNetCfg,
};
use hfta_nn::{Module, Parameter, Tape, Var};
use hfta_plan::{FusionPlan, ModelGraph};
use hfta_tensor::{Rng, Tensor};

const STEPS: usize = 3;

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

fn tensors_digest<'a>(ts: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h = Fnv::new();
    for t in ts {
        h.tensor(t);
    }
    h.0
}

fn params_digest(params: &[Parameter]) -> u64 {
    let values: Vec<Tensor> = params.iter().map(Parameter::value_cloned).collect();
    tensors_digest(&values)
}

/// `[init params, per-step losses, trained params, eval forward]`.
fn pin(
    params: &[Parameter],
    mut step: impl FnMut() -> Vec<f32>,
    eval: impl FnOnce() -> Vec<Tensor>,
) -> [u64; 4] {
    let init = params_digest(params);
    let mut losses = Fnv::new();
    for _ in 0..STEPS {
        for l in step() {
            losses.u64(u64::from(l.to_bits()));
        }
    }
    let trained = params_digest(params);
    [init, losses.0, trained, tensors_digest(&eval())]
}

fn lrs(values: &[f32]) -> PerModel {
    PerModel::new(values.to_vec())
}

#[test]
fn dcgan_bits_are_pinned() {
    let (b, n, cfg) = (3, 2, DcganCfg::mini());
    let mut rng = Rng::seed_from(7);
    let gen = FusedGenerator::new(b, cfg, &mut rng);
    let disc = FusedDiscriminator::new(b, cfg, &mut rng);
    let mut opt_g = FusedAdam::new(gen.fused_parameters(), lrs(&[2e-4, 1e-3, 5e-3])).unwrap();
    let mut opt_d = FusedAdam::new(disc.fused_parameters(), lrs(&[5e-3, 2e-4, 1e-3])).unwrap();
    let params = [gen.parameters(), disc.parameters()].concat();
    let s = cfg.image;
    let mut data = Rng::seed_from(70);
    let step = || {
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
        vec![d_loss.item(), g_loss.item()]
    };
    let z = Rng::seed_from(71).randn([n, b * cfg.latent, 1, 1]);
    let eval = || {
        gen.set_training(false);
        disc.set_training(false);
        let tape = Tape::new();
        let image = gen.forward(&tape.leaf(z));
        vec![image.value(), disc.forward(&image).value()]
    };
    let got = pin(&params, step, eval);
    let want: [u64; 4] = [
        0x0632cbd6197c2f9a,
        0x5f05dce37c0be0e0,
        0x2714f5d672a0d93e,
        0x4f9b25f3643d68e1,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn pointnet_cls_with_stn_bits_are_pinned() {
    let (b, n, p, classes) = (3, 4, 16, 4);
    let cfg = PointNetCfg::mini(classes).stn(true);
    let mut rng = Rng::seed_from(8);
    let model = FusedPointNetCls::new(b, cfg, &mut rng);
    let mut opt = FusedAdam::new(model.fused_parameters(), lrs(&[1e-3, 5e-3, 1e-2])).unwrap();
    let mut data = Rng::seed_from(80);
    let step = || {
        let x = data.randn([n, b * 3, p]);
        let targets: Vec<usize> = (0..b * n).map(|_| data.below(classes)).collect();
        opt.zero_grad();
        let tape = Tape::new();
        let loss = fused_nll_loss(&model.forward(&tape.leaf(x)), &targets, Reduction::Mean);
        loss.backward();
        opt.step();
        vec![loss.item()]
    };
    let x = Rng::seed_from(81).randn([n, b * 3, p]);
    let eval = || {
        model.set_training(false);
        vec![model.forward(&Tape::new().leaf(x)).value()]
    };
    let got = pin(&model.parameters(), step, eval);
    let want: [u64; 4] = [
        0xc3d9205e4f5ec594,
        0x474bcb811240b158,
        0x75193986e8eb58b8,
        0xfa276c81d11f4242,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn pointnet_seg_bits_are_pinned() {
    let (b, n, p, classes) = (2, 2, 12, 4);
    let mut rng = Rng::seed_from(9);
    let model = FusedPointNetSeg::new(b, PointNetCfg::mini(classes), &mut rng);
    let mut opt = FusedAdam::new(model.fused_parameters(), lrs(&[1e-2, 1e-3])).unwrap();
    let mut data = Rng::seed_from(90);
    let step = || {
        let x = data.randn([n, b * 3, p]);
        let targets: Vec<usize> = (0..b * n * p).map(|_| data.below(classes)).collect();
        opt.zero_grad();
        let tape = Tape::new();
        // [N, B*K, P] -> [B, N*P, K]: one NLL term per point per model.
        let log_probs = model
            .forward(&tape.leaf(x))
            .reshape(&[n, b, classes, p])
            .permute(&[1, 0, 3, 2])
            .reshape(&[b, n * p, classes]);
        let loss = fused_nll_loss(&log_probs, &targets, Reduction::Mean);
        loss.backward();
        opt.step();
        vec![loss.item()]
    };
    let x = Rng::seed_from(91).randn([n, b * 3, p]);
    let eval = || {
        model.set_training(false);
        vec![model.forward(&Tape::new().leaf(x)).value()]
    };
    let got = pin(&model.parameters(), step, eval);
    let want: [u64; 4] = [
        0xe80e0668f5418a8f,
        0x75b1662762fcbbaf,
        0xc32c49dbebc6ddc3,
        0xc691a075f7bd19b8,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn resnet_bits_are_pinned() {
    let (b, n, classes) = (2, 2, 4);
    let mut rng = Rng::seed_from(10);
    let model = FusedResNet::new(b, ResNetCfg::mini(classes), &mut rng);
    let mut opt = FusedSgd::new(model.fused_parameters(), lrs(&[0.05, 0.01]), 0.9).unwrap();
    let mut data = Rng::seed_from(100);
    let step = || {
        let x = data.randn([n, b * 3, 8, 8]);
        let targets: Vec<usize> = (0..b * n).map(|_| data.below(classes)).collect();
        opt.zero_grad();
        let tape = Tape::new();
        let loss = fused_cross_entropy(&model.forward(&tape.leaf(x)), &targets, Reduction::Mean);
        loss.backward();
        opt.step();
        vec![loss.item()]
    };
    let x = Rng::seed_from(101).randn([n, b * 3, 8, 8]);
    let eval = || {
        model.set_training(false);
        vec![model.forward(&Tape::new().leaf(x)).value()]
    };
    let got = pin(&model.parameters(), step, eval);
    let want: [u64; 4] = [
        0xc25ac8158c8efc6f,
        0x7014dbfd9e51d9b9,
        0xf0ed611a9edbefa7,
        0x959bd26a0016fc7f,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn alexnet_eval_mode_bits_are_pinned() {
    let (b, n, classes) = (2, 2, 4);
    let mut rng = Rng::seed_from(11);
    let model = FusedAlexNet::new(b, AlexNetCfg::mini(classes), &mut rng);
    model.set_training(false);
    let mut opt = FusedSgd::new(model.fused_parameters(), lrs(&[0.02, 0.005]), 0.9).unwrap();
    let mut data = Rng::seed_from(110);
    let step = || {
        let x = data.randn([n, b * 3, 16, 16]);
        let targets: Vec<usize> = (0..b * n).map(|_| data.below(classes)).collect();
        opt.zero_grad();
        let tape = Tape::new();
        let loss = fused_cross_entropy(&model.forward(&tape.leaf(x)), &targets, Reduction::Mean);
        loss.backward();
        opt.step();
        vec![loss.item()]
    };
    let x = Rng::seed_from(111).randn([n, b * 3, 16, 16]);
    let eval = || vec![model.forward(&Tape::new().leaf(x)).value()];
    let got = pin(&model.parameters(), step, eval);
    let want: [u64; 4] = [
        0x1f4d1e35ee5a80e5,
        0x0368105575bfbc3b,
        0x387591f781c42a1f,
        0x0e82922fde0e995c,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

/// Trains `plan` over `graphs` with `loss` per lane output and pins it.
fn pin_planned<U: Update>(
    graphs: &[ModelGraph],
    plan: &FusionPlan,
    optimizer: impl Fn(&PlannedArray, &PerModel) -> PlannedOptimizer<U>,
    input: &[usize],
    loss: impl Fn(&Var) -> Var,
) -> [u64; 4] {
    let lanes = graphs.len();
    let seeds: Vec<u64> = (0..lanes as u64).map(|l| 200 + l).collect();
    let array = PlannedArray::build(graphs, plan, &seeds).unwrap();
    let lr = PerModel::new((0..lanes).map(|l| 0.01 + 0.005 * l as f32).collect());
    let mut opt = optimizer(&array, &lr);
    let params: Vec<Parameter> = array
        .fused_parameters()
        .into_iter()
        .map(|p| p.param)
        .collect();
    let batch = |rng: &mut Rng| -> Vec<Tensor> {
        (0..lanes)
            .map(|_| rng.rand(input.to_vec(), -1.0, 1.0))
            .collect()
    };
    let mut data = Rng::seed_from(120);
    let step = || {
        opt.zero_grad();
        let (_tape, outs) = array.forward(&batch(&mut data)).unwrap();
        let per_lane: Vec<Var> = outs.iter().map(&loss).collect();
        let total = per_lane[1..]
            .iter()
            .fold(per_lane[0].clone(), |acc, l| acc.add(l));
        total.backward();
        opt.step();
        per_lane.iter().map(Var::item).collect()
    };
    let eval_inputs = batch(&mut Rng::seed_from(121));
    let eval = || {
        array.set_training(false);
        let (_tape, outs) = array.forward(&eval_inputs).unwrap();
        outs.iter().map(Var::value).collect()
    };
    pin(&params, step, eval)
}

#[test]
fn planned_array_bits_are_pinned() {
    let cfg = DcganCfg::mini();
    let s = cfg.image;
    let labels = Tensor::from_vec(vec![1.0, 0.0], [2, 1]);
    let discs: Vec<ModelGraph> = [0, 1, 0, 2]
        .iter()
        .map(|&extra| discriminator_variant_graph(cfg, extra))
        .collect();
    let mixed = FusionPlan::plan(&discs).unwrap();
    assert!(mixed.fused_fraction() > 0.0 && mixed.fused_fraction() < 1.0);
    let bce = |out: &Var| out.bce_with_logits(&labels);
    let gens = vec![generator_graph(cfg); 2];
    let gen_plan = FusionPlan::plan(&gens).unwrap();
    let mse = |out: &Var| out.square().mean();
    let sgd = |a: &PlannedArray, lr: &PerModel| PlannedOptimizer::sgd(a, lr, 0.9).unwrap();
    let adam = |a: &PlannedArray, lr: &PerModel| PlannedOptimizer::adam(a, lr).unwrap();
    let got = [
        pin_planned(&discs, &mixed, sgd, &[2, 3, s, s], bce),
        pin_planned(&discs, &mixed, adam, &[2, 3, s, s], bce),
        pin_planned(&gens, &gen_plan, adam, &[2, cfg.latent, 1, 1], mse),
    ];
    let want: [[u64; 4]; 3] = [
        [
            0xa2787df78a16f985,
            0xdaabe250dcb82832,
            0xe3a2bf6a656cc515,
            0x84ca5569ff03f8a1,
        ],
        [
            0xa2787df78a16f985,
            0xd550d1f3184e1519,
            0xf8dafbaf8e4e23bc,
            0x778c7165a4d9bd9a,
        ],
        [
            0x355124196fb984b1,
            0x510261e516273266,
            0x19df862e233278ca,
            0x1e1618dc463d3e28,
        ],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
