//! Hyper-parameter tuning on top of HFTA — the paper's §6 integration
//! target. Random-search learning rates for AlexNet-mini go to a tuning
//! service as two tenants' sweeps; the service packs each sweep's trials
//! into fused arrays on a simulated two-GPU fleet, stops the weaker half
//! at every rung (successive halving), lets the later, higher-priority
//! sweep preempt the first, and ranks every trial that finished.
//!
//! Run with: `cargo run --release --example tuner`

use hfta_models::AlexNetCfg;
use hfta_sched::{asha::RungPolicy, ModelBackend, TrialCfg};
use hfta_serve::{AdmitPolicy, ServeCfg, ServeCmd, ServeEngine, SweepSpec};
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_tensor::Rng;

/// Samples `n` learning rates log-uniformly from `[lo, hi]` — the
/// random-search baseline of Bergstra & Bengio (2012), which the paper
/// cites as the standard tuning practice.
fn random_search(lo: f32, hi: f32, n: usize, seed: u64) -> Vec<f32> {
    assert!(lo > 0.0 && hi > lo, "log-uniform needs 0 < lo < hi");
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| rng.uniform(lo.ln(), hi.ln()).exp())
        .collect()
}

fn sweep(tenant: &str, priority: f64, lrs: &[f32]) -> SweepSpec<TrialCfg> {
    SweepSpec {
        tenant: tenant.to_string(),
        priority,
        configs: lrs
            .iter()
            .map(|&lr| TrialCfg {
                lr,
                poison_at: None,
            })
            .collect(),
        archs: Vec::new(),
    }
}

fn main() {
    let lrs = random_search(1e-3, 3e-1, 12, 42);
    let backend = ModelBackend::new(AlexNetCfg::mini(4));
    let fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
    let cfg = ServeCfg {
        policy: AdmitPolicy::FairShare,
        rung: RungPolicy {
            base_steps: 8,
            eta: 2,
            rungs: 3,
        },
        width_cap: 4,
        checkpoint_dir: None,
    };
    let commands = vec![
        (0.0, ServeCmd::Submit(sweep("explore", 1.0, &lrs[..8]))),
        (0.05, ServeCmd::Submit(sweep("refine", 4.0, &lrs[8..]))),
    ];
    let mut engine = ServeEngine::new(backend, fleet, cfg, commands).expect("no journal to open");
    engine.drain().expect("no journal to write");
    let run = engine.finish();

    let r = &run.report;
    println!(
        "{} trials in {} sweeps: {} finished, {} stopped early, {} killed",
        r.trials, r.sweeps, r.finished, r.stopped, r.killed
    );
    println!(
        "{} fused arrays (max width {}), {} preemptions, {} lanes migrated",
        r.arrays_built, r.max_width, r.preemptions, r.lanes_migrated
    );
    let mut finished: Vec<(f32, f32, &str)> = run
        .outcomes
        .iter()
        .filter(|o| o.has_loss)
        .map(|o| {
            let lr = lrs[o.trial as usize];
            (f32::from_bits(o.loss_bits), lr, o.tenant.as_str())
        })
        .collect();
    finished.sort_by(|a, b| a.0.total_cmp(&b.0));
    println!("\nrank | loss     | lr      | tenant");
    for (i, (loss, lr, tenant)) in finished.iter().enumerate() {
        println!("{:>4} | {loss:>8.4} | {lr:.5} | {tenant}", i + 1);
    }
    if let Some((loss, lr, _)) = finished.first() {
        println!("\nbest: lr = {lr:.5} (loss {loss:.4})");
    }
}
