//! The Figure-3 convergence-equivalence experiment: train the same models
//! serially and as an HFTA array and record the per-iteration losses.
//!
//! The paper trains ResNet-18 on CIFAR-10 with three learning rates and
//! shows the serial and HFTA loss curves overlap completely. We do the
//! same with the CPU-scale ResNet mini on the synthetic CIFAR stand-in
//! (DESIGN.md §4) — down to fp32 round-off.

use hfta_core::array::{copy_model_weights, record_step_metrics};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_data::LabeledImages;
use hfta_models::{FusedResNet, ResNet, ResNetCfg};
use hfta_nn::{Module, Optimizer, Sgd, Tape};
use hfta_telemetry::Profiler;
use hfta_tensor::{Rng, Tensor};

/// Per-iteration training losses of serial vs HFTA runs.
#[derive(Debug, Clone)]
pub struct LossCurves {
    /// The learning rates swept (one model per LR).
    pub lrs: Vec<f32>,
    /// `serial[m][t]` = model `m`'s loss at iteration `t`, trained alone.
    pub serial: Vec<Vec<f32>>,
    /// `fused[m][t]` = model `m`'s loss at iteration `t`, trained fused.
    pub fused: Vec<Vec<f32>>,
}

impl LossCurves {
    /// Maximum absolute divergence between any serial and fused curve.
    pub fn max_divergence(&self) -> f32 {
        self.serial
            .iter()
            .zip(&self.fused)
            .flat_map(|(s, f)| s.iter().zip(f).map(|(a, b)| (a - b).abs()))
            .fold(0.0, f32::max)
    }
}

/// Runs the experiment: `iters` training iterations of the ResNet mini at
/// each learning rate, serial and fused, on identical data and identical
/// initial weights.
pub fn resnet_convergence(lrs: &[f32], iters: usize, seed: u64) -> LossCurves {
    let b = lrs.len();
    let cfg = ResNetCfg::mini(4);
    let mut rng = Rng::seed_from(seed);

    // Build the fused array first; serial replicas copy its weights.
    let fused_model = FusedResNet::new(b, cfg, &mut rng);
    let serial_models: Vec<ResNet> = (0..b).map(|_| ResNet::new(cfg, &mut rng)).collect();
    for (i, m) in serial_models.iter().enumerate() {
        copy_model_weights(&fused_model.fused_parameters(), i, &m.parameters());
    }

    // One fixed dataset; every model sees the same batches (the
    // hyper-parameter-tuning setting).
    let mut data = LabeledImages::new(8, 4, seed ^ 0xDA7A);
    let batches: Vec<(Tensor, Vec<usize>)> = (0..iters).map(|_| data.batch(8)).collect();

    // Serial runs, every replica one step at a time. A traced run records
    // them in their own `fig3_serial` scope, each replica under its own
    // model id, apart from the fused lanes' streams.
    let profiler = Profiler::current();
    let serial_scope = profiler.as_ref().map(|p| p.experiment("fig3_serial"));
    let mut opts: Vec<Sgd> = serial_models
        .iter()
        .zip(lrs)
        .map(|(model, &lr)| Sgd::new(model.parameters(), lr, 0.9))
        .collect();
    let mut serial = vec![Vec::with_capacity(iters); b];
    for (t, (x, y)) in batches.iter().enumerate() {
        for ((model, opt), curve) in serial_models.iter().zip(&mut opts).zip(&mut serial) {
            opt.zero_grad();
            let tape = Tape::new();
            let loss = model.forward(&tape.leaf(x.clone())).cross_entropy(y);
            curve.push(loss.item());
            loss.backward();
            opt.step();
        }
        let step_losses: Vec<f32> = serial.iter().map(|curve| curve[t]).collect();
        record_step_metrics(t as u64, &step_losses, 0.0, 1);
    }
    drop(serial_scope);

    // Fused run: stack the same batch B times (same data per model).
    let mut opt = FusedSgd::new(
        fused_model.fused_parameters(),
        PerModel::new(lrs.to_vec()),
        0.9,
    )
    .expect("matching widths");
    let mut fused = vec![Vec::with_capacity(iters); b];
    for (t, (x, y)) in batches.iter().enumerate() {
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<&Tensor> = std::iter::repeat_n(x, b).collect();
        let fused_x = tape.leaf(Tensor::concat(&copies, 1));
        let logits = fused_model.forward(&fused_x); // [B, N, classes]
                                                    // Record each model's own loss, then train on the fused loss.
        let n = x.dim(0);
        let mut step_losses = Vec::with_capacity(b);
        for (i, f) in fused.iter_mut().enumerate() {
            let per = logits.narrow(0, i, 1).reshape(&[n, 4]).cross_entropy(y);
            f.push(per.item());
            step_losses.push(per.item());
        }
        record_step_metrics(t as u64, &step_losses, 0.0, b as u64);
        let targets: Vec<usize> = (0..b).flat_map(|_| y.iter().copied()).collect();
        let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
        loss.backward();
        opt.step();
    }

    LossCurves {
        lrs: lrs.to_vec(),
        serial,
        fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_overlap_like_figure3() {
        let curves = resnet_convergence(&[0.1, 0.05, 0.01], 6, 42);
        let d = curves.max_divergence();
        assert!(
            d < 5e-3,
            "serial and fused curves diverged by {d} (must overlap)"
        );
        // And the curves are not trivially constant.
        for s in &curves.serial {
            assert!(s.iter().any(|&v| (v - s[0]).abs() > 1e-6));
        }
    }

    #[test]
    fn traced_run_streams_each_replica_under_its_own_id() {
        let p = Profiler::new("fig3");
        let guard = p.install();
        let curves = resnet_convergence(&[0.1, 0.05, 0.01], 3, 42);
        drop(guard);
        let report = p.report();
        let streams = |scope: &str| -> Vec<Vec<f32>> {
            let exp = report.experiment(scope).expect("a scope");
            assert_eq!(exp.scalar_models(), vec![0, 1, 2], "{scope}");
            (0..3)
                .map(|m| {
                    let stream = exp.scalar_stream(m, "loss").expect("a loss stream");
                    stream.points.iter().map(|pt| pt.value as f32).collect()
                })
                .collect()
        };
        assert_eq!(streams("fig3_serial"), curves.serial);
        assert_eq!(streams("fig3"), curves.fused);
        let serial = report.experiment("fig3_serial").unwrap();
        assert!(serial.steps.iter().all(|s| s.fused_width == 1));
        let fused = report.experiment("fig3").unwrap();
        assert!(fused.steps.iter().all(|s| s.fused_width == 3));
    }

    #[test]
    fn different_lrs_produce_different_curves() {
        let curves = resnet_convergence(&[0.2, 0.001], 6, 7);
        let diff: f32 = curves.serial[0]
            .iter()
            .zip(&curves.serial[1])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "distinct LRs must diverge, got {diff}");
    }
}
