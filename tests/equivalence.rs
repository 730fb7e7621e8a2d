//! End-to-end equivalence tests: training `B` models serially must match
//! training them as one HFTA array — the paper's central correctness
//! claim (§3.2–3.3), exercised across model families and optimizers.

use hfta_core::array::copy_model_weights;
use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_cross_entropy, fused_nll_loss, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdadelta, FusedAdam, FusedOptimizer, FusedSgd, PerModel, Update};
use hfta_data::{LabeledImages, PointClouds};
use hfta_models::{
    AlexNet, AlexNetCfg, FusedAlexNet, FusedPointNetCls, FusedResNet, PointNetCfg, PointNetCls,
    ResNet, ResNetCfg,
};
use hfta_nn::{Adadelta, Adam, Module, Optimizer, Sgd, Tape};
use hfta_tensor::{Rng, Tensor};

/// Drives `iters` training steps of `b` serial models and the fused array
/// on identical data, returning (serial losses, fused losses) per model.
fn run_pair<MSerial, MFused, U: Update>(
    serial: Vec<MSerial>,
    fused: MFused,
    mut serial_opts: Vec<Box<dyn Optimizer>>,
    mut fused_opt: FusedOptimizer<U>,
    batches: &[(Tensor, Vec<usize>)],
    classes: usize,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>)
where
    MSerial: Module,
    MFused: FusedModule,
{
    let b = serial.len();
    for (i, m) in serial.iter().enumerate() {
        copy_model_weights(&fused.fused_parameters(), i, &m.parameters());
        m.set_training(false);
    }
    fused.set_training(false);

    let mut serial_losses = vec![Vec::new(); b];
    for (i, model) in serial.iter().enumerate() {
        for (x, y) in batches {
            serial_opts[i].zero_grad();
            let tape = Tape::new();
            let loss = model.forward(&tape.leaf(x.clone())).cross_entropy(y);
            serial_losses[i].push(loss.item());
            loss.backward();
            serial_opts[i].step();
        }
    }

    let mut fused_losses = vec![Vec::new(); b];
    for (x, y) in batches {
        fused_opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let fx = tape.leaf(stack_conv(&copies).unwrap());
        let logits = fused.forward(&fx); // [B, N, classes]
        let n = x.dim(0);
        for (i, f) in fused_losses.iter_mut().enumerate() {
            let per = logits
                .narrow(0, i, 1)
                .reshape(&[n, classes])
                .cross_entropy(y);
            f.push(per.item());
        }
        let targets = stack_targets(&vec![y.clone(); b]).unwrap();
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        fused_opt.step();
    }
    (serial_losses, fused_losses)
}

fn assert_matching(serial: &[Vec<f32>], fused: &[Vec<f32>], tol: f32, what: &str) {
    for (m, (s, f)) in serial.iter().zip(fused).enumerate() {
        for (t, (a, b)) in s.iter().zip(f).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "{what}: model {m} iter {t}: serial {a} vs fused {b}"
            );
        }
        // And training actually moved.
        assert!(
            s.iter().any(|v| (v - s[0]).abs() > 1e-7),
            "{what}: static loss"
        );
    }
}

#[test]
fn alexnet_array_matches_serial_sgd() {
    let b = 3;
    let cfg = AlexNetCfg::mini(4);
    let mut rng = Rng::seed_from(1);
    let fused = FusedAlexNet::new(b, cfg, &mut rng);
    let serial: Vec<AlexNet> = (0..b).map(|_| AlexNet::new(cfg, &mut rng)).collect();
    let lrs = [0.05f32, 0.01, 0.002];
    let opts: Vec<Box<dyn Optimizer>> = serial
        .iter()
        .zip(lrs)
        .map(|(m, lr)| Box::new(Sgd::new(m.parameters(), lr, 0.9)) as Box<dyn Optimizer>)
        .collect();
    let fopt = FusedSgd::new(fused.fused_parameters(), PerModel::new(lrs.to_vec()), 0.9).unwrap();
    let mut data = LabeledImages::new(16, 4, 5);
    let batches: Vec<_> = (0..5).map(|_| data.batch(6)).collect();
    let (s, f) = run_pair(serial, fused, opts, fopt, &batches, 4);
    assert_matching(&s, &f, 2e-3, "alexnet/sgd");
}

#[test]
fn resnet_array_matches_serial_adam() {
    let b = 2;
    let cfg = ResNetCfg::mini(4);
    let mut rng = Rng::seed_from(2);
    let fused = FusedResNet::new(b, cfg, &mut rng);
    let serial: Vec<ResNet> = (0..b).map(|_| ResNet::new(cfg, &mut rng)).collect();
    let lrs = [0.01f32, 0.001];
    let opts: Vec<Box<dyn Optimizer>> = serial
        .iter()
        .zip(lrs)
        .map(|(m, lr)| Box::new(Adam::new(m.parameters(), lr)) as Box<dyn Optimizer>)
        .collect();
    let fopt = FusedAdam::new(fused.fused_parameters(), PerModel::new(lrs.to_vec())).unwrap();
    let mut data = LabeledImages::new(8, 4, 6);
    let batches: Vec<_> = (0..5).map(|_| data.batch(6)).collect();
    let (s, f) = run_pair(serial, fused, opts, fopt, &batches, 4);
    assert_matching(&s, &f, 2e-3, "resnet/adam");
}

#[test]
fn resnet_array_matches_serial_adadelta() {
    // The paper trains ResNet-18 with Adadelta (§4); verify that fused
    // Adadelta with per-model rho matches too.
    let b = 2;
    let cfg = ResNetCfg::mini(4);
    let mut rng = Rng::seed_from(3);
    let fused = FusedResNet::new(b, cfg, &mut rng);
    let serial: Vec<ResNet> = (0..b).map(|_| ResNet::new(cfg, &mut rng)).collect();
    let lrs = [1.0f32, 0.5];
    let rhos = [0.9f32, 0.85];
    let opts: Vec<Box<dyn Optimizer>> = serial
        .iter()
        .zip(lrs.iter().zip(rhos))
        .map(|(m, (&lr, rho))| {
            Box::new(Adadelta::with_rho(m.parameters(), lr, rho, 1e-6)) as Box<dyn Optimizer>
        })
        .collect();
    let fopt = FusedAdadelta::new(
        fused.fused_parameters(),
        PerModel::new(lrs.to_vec()),
        PerModel::new(rhos.to_vec()),
        1e-6,
    )
    .unwrap();
    let mut data = LabeledImages::new(8, 4, 7);
    let batches: Vec<_> = (0..4).map(|_| data.batch(6)).collect();
    let (s, f) = run_pair(serial, fused, opts, fopt, &batches, 4);
    assert_matching(&s, &f, 2e-3, "resnet/adadelta");
}

#[test]
fn pointnet_cls_array_matches_serial() {
    let b = 3;
    let cfg = PointNetCfg::mini(6);
    let mut rng = Rng::seed_from(4);
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
    let lrs = [0.01f32, 0.003, 0.001];
    let mut data = PointClouds::new(32, 8);
    let batches: Vec<_> = (0..5).map(|_| data.batch(6)).collect();

    // Serial.
    let mut serial_losses = vec![Vec::new(); b];
    for (i, model) in serial.iter().enumerate() {
        let mut opt = Adam::new(model.parameters(), lrs[i]);
        for (x, y) in &batches {
            opt.zero_grad();
            let tape = Tape::new();
            let loss = model.forward(&tape.leaf(x.clone())).nll_loss(y);
            serial_losses[i].push(loss.item());
            loss.backward();
            opt.step();
        }
    }
    // Fused (PointNet outputs log-probs, so drive nll over array format).
    let mut opt = FusedAdam::new(fused.fused_parameters(), PerModel::new(lrs.to_vec())).unwrap();
    let mut fused_losses = vec![Vec::new(); b];
    for (x, y) in &batches {
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let fx = tape.leaf(stack_conv(&copies).unwrap());
        let lp = fused.forward(&fx);
        for (i, f) in fused_losses.iter_mut().enumerate() {
            f.push(lp.narrow(0, i, 1).reshape(&[6, 6]).nll_loss(y).item());
        }
        let targets = stack_targets(&vec![y.clone(); b]).unwrap();
        fused_nll_loss(&lp, &targets, Reduction::Mean).backward();
        opt.step();
    }
    assert_matching(&serial_losses, &fused_losses, 2e-3, "pointnet/adam");
}

#[test]
fn fuse_then_unfuse_preserves_training_state() {
    // Train fused, unfuse, keep training serially: the continued runs must
    // behave like normal models (finite losses that keep improving).
    let b = 2;
    let mut rng = Rng::seed_from(9);
    let fused = FusedAlexNet::new(b, AlexNetCfg::mini(4), &mut rng);
    fused.set_training(false);
    let mut data = LabeledImages::new(16, 4, 10);
    let mut opt = FusedSgd::new(fused.fused_parameters(), PerModel::uniform(b, 0.05), 0.9).unwrap();
    for _ in 0..4 {
        let (x, y) = data.batch(6);
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let logits = fused.forward(&tape.leaf(stack_conv(&copies).unwrap()));
        let targets = stack_targets(&vec![y.clone(); b]).unwrap();
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
    }
    // Extract model 0 and continue serially.
    let serial = AlexNet::new(AlexNetCfg::mini(4), &mut rng);
    serial.set_training(false);
    copy_model_weights(&fused.fused_parameters(), 0, &serial.parameters());
    let mut sopt = Sgd::new(serial.parameters(), 0.05, 0.9);
    let mut last = f32::INFINITY;
    for _ in 0..3 {
        let (x, y) = data.batch(6);
        sopt.zero_grad();
        let tape = Tape::new();
        let loss = serial.forward(&tape.leaf(x)).cross_entropy(&y);
        last = loss.item();
        assert!(last.is_finite());
        loss.backward();
        sopt.step();
    }
    assert!(last.is_finite());
}
