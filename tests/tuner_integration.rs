//! End-to-end tuning integration: a mixed hyper-parameter + architecture
//! search over AlexNet-mini widths 4 and 8. Only same-shape models fuse
//! (the paper's Observation 1), so the search runs one tuning service per
//! width, each over its own `ModelBackend`: two widths never share an array
//! by construction. Each service packs its width's trials into one fused
//! array, trains them, and every trial comes back ranked.

use hfta_models::AlexNetCfg;
use hfta_sched::{asha::RungPolicy, ModelBackend, TrialCfg};
use hfta_serve::{AdmitPolicy, ServeCfg, ServeCmd, ServeEngine, ServeRun, SweepSpec};
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_tensor::Rng;

/// One service run training `lrs` on AlexNet-mini at `width`, every trial
/// to the end of one 6-step rung.
fn search(width: usize, lrs: &[f32]) -> ServeRun {
    let cfg = AlexNetCfg {
        width,
        classes: 4,
        image: 16,
    };
    let spec = SweepSpec {
        tenant: format!("width-{width}"),
        priority: 1.0,
        configs: lrs
            .iter()
            .map(|&lr| TrialCfg {
                lr,
                poison_at: None,
            })
            .collect(),
        archs: Vec::new(),
    };
    let serve = ServeCfg {
        policy: AdmitPolicy::FairShare,
        rung: RungPolicy {
            base_steps: 6,
            eta: 2,
            rungs: 1,
        },
        width_cap: 4,
        checkpoint_dir: None,
    };
    let mut engine = ServeEngine::new(
        ModelBackend::new(cfg),
        DeviceFleet::homogeneous(DeviceSpec::v100(), false, 1),
        serve,
        vec![(0.0, ServeCmd::Submit(spec))],
    )
    .unwrap();
    engine.drain().unwrap();
    engine.finish()
}

#[test]
fn architecture_search_partitions_then_fuses() {
    // 8 log-uniform learning rates across two widths.
    let mut rng = Rng::seed_from(5);
    let lrs: Vec<f32> = (0..8)
        .map(|_| rng.uniform(1e-3f32.ln(), 1e-1f32.ln()).exp())
        .collect();
    let mut ranked: Vec<(f32, usize, f32)> = Vec::new();
    let mut arrays = 0;
    for width in [4, 8] {
        // Even candidates are width 4, odd ones width 8.
        let first = if width == 4 { 0 } else { 1 };
        let group: Vec<f32> = lrs[first..].iter().step_by(2).copied().collect();
        let run = search(width, &group);
        assert_eq!(run.report.trials, 4);
        assert_eq!(run.report.finished, 4, "one rung: every trial finishes");
        arrays += run.report.arrays_built;
        for o in &run.outcomes {
            assert!(o.has_loss, "trial {} of width {width} has no loss", o.trial);
            ranked.push((f32::from_bits(o.loss_bits), width, group[o.trial as usize]));
        }
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));

    assert_eq!(ranked.len(), 8);
    // 8 serial jobs collapsed into 2 fused arrays, one per width.
    assert_eq!(arrays, 2);
    // Every loss is finite and positive.
    for (loss, width, lr) in &ranked {
        assert!(
            loss.is_finite() && *loss > 0.0,
            "width {width}, lr {lr}: loss {loss}"
        );
    }
}
