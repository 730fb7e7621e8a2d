//! The soak shared by `restart.rs` and `crash_matrix.rs`: a two-device
//! fleet, a three-rung ladder, and a linear-classifier command stream that
//! saturates the fleet with big low-priority sweeps before high-priority
//! arrivals trigger preemption. [`run_soak`] runs any backend's stream on
//! the same fleet and ladder.

use std::fs;
use std::path::PathBuf;

use hfta_sched::asha::RungPolicy;
use hfta_sched::backend::ArrayBackend;
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_serve::engine::{ServeCfg, ServeCmd, ServeEngine, ServeRun, SweepSpec};
use hfta_serve::AdmitPolicy;
use hfta_sim::{DeviceFleet, DeviceSpec};

pub fn fleet() -> DeviceFleet {
    DeviceFleet::heterogeneous(&[(DeviceSpec::v100(), 1), (DeviceSpec::a100(), 1)], false)
}

pub fn cfg(policy: AdmitPolicy, dir: Option<PathBuf>) -> ServeCfg {
    ServeCfg {
        policy,
        rung: RungPolicy {
            base_steps: 2,
            eta: 2,
            rungs: 3,
        },
        width_cap: 6,
        checkpoint_dir: dir,
    }
}

pub fn sweep(tenant: &str, priority: f64, n: usize, salt: usize) -> SweepSpec<LinearTrialCfg> {
    SweepSpec {
        tenant: tenant.to_string(),
        priority,
        configs: (0..n)
            .map(|k| LinearTrialCfg {
                lr: 0.004 * (1.0 + ((k + salt) % 12) as f32),
                poison_at: ((k + salt) % 9 == 4).then_some(1),
            })
            .collect(),
        archs: Vec::new(),
    }
}

/// A stream that saturates the two-device fleet with big low-priority
/// sweeps, then lands high-priority arrivals that trigger preemption.
pub fn commands() -> Vec<(f64, ServeCmd<LinearTrialCfg>)> {
    vec![
        (0.0, ServeCmd::Submit(sweep("batch-a", 1.0, 12, 0))),
        (0.0002, ServeCmd::Submit(sweep("batch-b", 1.0, 10, 3))),
        (0.0010, ServeCmd::Submit(sweep("urgent-a", 4.0, 4, 7))),
        (0.0018, ServeCmd::Submit(sweep("urgent-b", 8.0, 4, 11))),
        (0.0026, ServeCmd::Submit(sweep("batch-c", 2.0, 8, 5))),
    ]
}

pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfta-serve-restart-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Uninterrupted run of `commands` over `backend`; returns the result and
/// its batch count.
pub fn run_soak<B: ArrayBackend>(
    backend: B,
    commands: Vec<(f64, ServeCmd<B::Config>)>,
    policy: AdmitPolicy,
) -> (ServeRun, u64) {
    let mut eng = ServeEngine::new(backend, fleet(), cfg(policy, None), commands).unwrap();
    eng.drain().unwrap();
    let batches = eng.batches();
    (eng.finish(), batches)
}

/// Uninterrupted run of the linear soak.
pub fn run_full(policy: AdmitPolicy) -> (ServeRun, u64) {
    run_soak(LinearBackend::default(), commands(), policy)
}
