//! Command-line client for the in-process tuning service.
//!
//! Spawns a service over a simulated heterogeneous fleet, submits a
//! scripted set of tenant sweeps through the async API, polls status,
//! optionally cancels a sweep mid-flight, and prints the final
//! per-tenant outcome table.
//!
//! Usage: serve_cli [--tenants N] [--trials N] [--cancel SWEEP]
//!                  [--policy static|fair-share] [--ckpt-dir DIR]
//!                  [--mixed-arch]
//!
//! `--mixed-arch` demonstrates planner-gated admission: it submits a
//! deliberately unfusible two-architecture sweep, prints the typed
//! `ServeError` the service replies with, and exits non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_plan::{ModelGraph, OpSpec};
use hfta_sched::asha::RungPolicy;
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_serve::engine::{ServeCfg, SweepSpec};
use hfta_serve::{AdmitPolicy, ServeHandle};
use hfta_sim::{DeviceFleet, DeviceSpec};

const USAGE: &str = "usage: serve_cli [--tenants N] [--trials N] [--cancel SWEEP] \
                     [--policy static|fair-share] [--ckpt-dir DIR] [--mixed-arch]";

struct Args {
    tenants: usize,
    trials: usize,
    cancel: Option<u64>,
    policy: AdmitPolicy,
    ckpt_dir: Option<PathBuf>,
    mixed_arch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tenants: 3,
        trials: 8,
        cancel: None,
        policy: AdmitPolicy::FairShare,
        ckpt_dir: None,
        mixed_arch: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--tenants" => {
                args.tenants = value("--tenants")?.parse().map_err(|e| format!("{e}"))?
            }
            "--trials" => args.trials = value("--trials")?.parse().map_err(|e| format!("{e}"))?,
            "--cancel" => {
                args.cancel = Some(value("--cancel")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--policy" => {
                args.policy = match value("--policy")?.as_str() {
                    "static" => AdmitPolicy::Static,
                    "fair-share" => AdmitPolicy::FairShare,
                    other => return Err(format!("unknown policy {other:?}")),
                }
            }
            "--ckpt-dir" => args.ckpt_dir = Some(PathBuf::from(value("--ckpt-dir")?)),
            "--mixed-arch" => args.mixed_arch = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let fleet = DeviceFleet::heterogeneous(
        &[
            (DeviceSpec::v100(), 2),
            (DeviceSpec::rtx6000(), 1),
            (DeviceSpec::a100(), 1),
        ],
        false,
    );
    let cfg = ServeCfg {
        policy: args.policy,
        rung: RungPolicy {
            base_steps: 2,
            eta: 2,
            rungs: 3,
        },
        width_cap: 8,
        checkpoint_dir: args.ckpt_dir,
    };
    println!(
        "serve_cli: policy {} over {} devices",
        args.policy.name(),
        fleet.len()
    );

    let handle = match ServeHandle::spawn(LinearBackend::default(), fleet, cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("service failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.mixed_arch {
        // Two model graphs with no isomorphic same-shaped structure: the
        // planner fuses nothing, so admission must reject the sweep with
        // a typed error rather than degrade to all-serial execution.
        let spec = SweepSpec {
            tenant: "mixed".into(),
            priority: 1.0,
            configs: vec![
                LinearTrialCfg {
                    lr: 0.01,
                    poison_at: None,
                },
                LinearTrialCfg {
                    lr: 0.02,
                    poison_at: None,
                },
            ],
            archs: vec![
                ModelGraph::new(
                    "convnet",
                    vec![2, 4, 4],
                    vec![
                        OpSpec::conv2d(Conv2dCfg::new(2, 3, 3).stride(1).padding(1).bias(false)),
                        OpSpec::relu(),
                    ],
                ),
                ModelGraph::new(
                    "mlp",
                    vec![8],
                    vec![OpSpec::linear(LinearCfg::new(8, 4)), OpSpec::tanh()],
                ),
            ],
        };
        return match handle.submit(spec) {
            Err(e) => {
                eprintln!("admission rejected: {e}");
                let _ = handle.shutdown();
                ExitCode::FAILURE
            }
            Ok(sweep) => {
                eprintln!("error: unfusible sweep {sweep} was admitted");
                let _ = handle.shutdown();
                ExitCode::SUCCESS
            }
        };
    }
    for u in 0..args.tenants {
        // Later tenants get higher priority so fair-share preemption has
        // something to do on a saturated fleet.
        let spec = SweepSpec {
            tenant: format!("tenant-{u}"),
            priority: (u + 1) as f64,
            configs: (0..args.trials)
                .map(|k| LinearTrialCfg {
                    lr: 0.004 * (1.0 + (k % 12) as f32),
                    poison_at: (k % 9 == 4).then_some(1),
                })
                .collect(),
            archs: Vec::new(),
        };
        let sweep = match handle.submit(spec) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("submission rejected: {e}");
                let _ = handle.shutdown();
                return ExitCode::FAILURE;
            }
        };
        println!(
            "submitted sweep {sweep} for tenant-{u} ({} trials)",
            args.trials
        );
    }
    if let Some(sweep) = args.cancel {
        handle.cancel(sweep);
        println!("cancelled sweep {sweep}");
    }
    for s in handle.status() {
        println!(
            "status: sweep {} trials {} queued {} running {} buffered {} done {}",
            s.sweep,
            s.trials,
            s.queued,
            s.running,
            s.buffered,
            s.finished + s.stopped + s.killed + s.cancelled
        );
    }

    let run = match handle.shutdown() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("service failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = &run.report;
    println!(
        "done: {} sweeps, {} trials -> {} finished / {} stopped / {} killed / {} cancelled",
        r.sweeps, r.trials, r.finished, r.stopped, r.killed, r.cancelled
    );
    println!(
        "fleet: makespan {:.4}s occupancy {:.3} arrays {} preemptions {} checkpoints {}",
        r.makespan_s, r.occupancy, r.arrays_built, r.preemptions, r.checkpoints
    );
    for o in run.outcomes.iter().filter(|o| o.has_loss).take(8) {
        println!(
            "  trial {:>3} ({}) loss {:.6}",
            o.trial,
            o.tenant,
            f32::from_bits(o.loss_bits)
        );
    }
    ExitCode::SUCCESS
}
