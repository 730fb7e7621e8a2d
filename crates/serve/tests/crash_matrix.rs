//! Crash injection at every persistence boundary: the checkpoint store's
//! fail-point kills the service at each staged record, each snapshot write
//! (half the file lands) and each commit (nothing, half, or all but the
//! newline of the line lands) of a soak, and every recovery must settle
//! every trial with the terminal status and final loss bits of the
//! uninterrupted run. The soaks: `restart.rs`'s linear stream under both
//! policies, and two AlexNet-mini sweeps, the second preempting the first.
//!
//! It holds because a step reaches the journal as one line or not at all,
//! and a snapshot file is immutable and counts only once a committed
//! `ckpt` record names it (see `hfta_serve::checkpoint`).

mod common;

use std::fs;

use common::{cfg, commands, fleet, run_full, run_soak, tmpdir};
use hfta_models::AlexNetCfg;
use hfta_sched::backend::ArrayBackend;
use hfta_sched::linear::LinearBackend;
use hfta_sched::{ModelBackend, Trial, TrialCfg};
use hfta_serve::engine::{ServeCmd, ServeEngine, ServeRun, SweepSpec};
use hfta_serve::{AdmitPolicy, CheckpointStore};

/// Kills a durable service running `commands` over `backend` at every
/// fail-point tick, which must journal at least `min_records` records (the
/// record-level points); every recovery must end as `full` did.
fn kill_everywhere<B: ArrayBackend + Clone>(
    backend: B,
    commands: Vec<(f64, ServeCmd<B::Config>)>,
    full: &ServeRun,
    policy: AdmitPolicy,
    tag: &str,
    min_records: usize,
) {
    let dir = tmpdir(tag);
    let fresh = || {
        ServeEngine::new(
            backend.clone(),
            fleet(),
            cfg(policy, Some(dir.clone())),
            commands.clone(),
        )
        .unwrap()
    };
    // An uninterrupted durable run gives the clock's range.
    let mut eng = fresh();
    let first = eng.store_mut().unwrap().ticks.get();
    eng.drain().unwrap();
    let end = eng.store_mut().unwrap().ticks.get();
    assert_eq!(eng.finish().outcomes, full.outcomes);
    let records = CheckpointStore::read_journal(&dir).unwrap().len() - 1;
    assert!(records >= min_records, "only {records} records journaled");

    for tick in first..end {
        let mut eng = fresh();
        eng.store_mut().unwrap().fail_at = tick;
        eng.drain().expect_err("the armed tick lies inside the run");
        // Hard kill: only the journal and the snapshot files survive.
        drop(eng);
        let mut eng = ServeEngine::recover(
            backend.clone(),
            fleet(),
            cfg(policy, Some(dir.clone())),
            commands.clone(),
        )
        .unwrap_or_else(|e| panic!("{policy:?}, kill at tick {tick}: recovery failed: {e}"));
        eng.drain().unwrap();
        assert_eq!(
            eng.finish().outcomes,
            full.outcomes,
            "{policy:?}: kill at tick {tick} changed the outcome"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

// One test per policy so the two linear matrices run side by side: 197 +
// 179 record-level kill points, plus the snapshot writes and torn commits.

#[test]
fn fair_share_recovers_from_a_kill_at_every_boundary() {
    let policy = AdmitPolicy::FairShare;
    let (full, _) = run_full(policy);
    kill_everywhere(
        LinearBackend::default(),
        commands(),
        &full,
        policy,
        "matrix-fair",
        197,
    );
}

#[test]
fn static_policy_recovers_from_a_kill_at_every_boundary() {
    let policy = AdmitPolicy::Static;
    let (full, _) = run_full(policy);
    kill_everywhere(
        LinearBackend::default(),
        commands(),
        &full,
        policy,
        "matrix-static",
        179,
    );
}

fn alexnet_sweep(tenant: &str, priority: f64, lrs: &[f32]) -> SweepSpec<TrialCfg> {
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

/// AlexNet-mini trials (width 4, 8x8 images) through preemption and a kill
/// at every boundary: a low-priority sweep fills both devices, and a
/// high-priority one lands mid-segment and preempts it. Every finished
/// trial's final loss is its solo width-1 run's, bit for bit, and so after
/// every recovery (54 record-level kill points).
#[test]
fn alexnet_sweeps_recover_from_a_kill_at_every_boundary() {
    let backend = ModelBackend::new(AlexNetCfg {
        width: 4,
        classes: 4,
        image: 8,
    });
    let commands = vec![
        (
            0.0,
            ServeCmd::Submit(alexnet_sweep(
                "batch",
                1.0,
                &[0.01, 0.02, 0.03, 0.05, 0.08, 0.13, 0.2],
            )),
        ),
        (
            0.02,
            ServeCmd::Submit(alexnet_sweep("urgent", 8.0, &[0.04, 0.08])),
        ),
    ];
    let (full, _) = run_soak(backend.clone(), commands.clone(), AdmitPolicy::FairShare);
    assert!(full.report.preemptions > 0, "no preemption fired");
    assert!(full.report.finished > 0, "no trial finished");
    let configs: Vec<TrialCfg> = commands
        .iter()
        .flat_map(|(_, cmd)| match cmd {
            ServeCmd::Submit(spec) => spec.configs.clone(),
            ServeCmd::Cancel { .. } => Vec::new(),
        })
        .collect();
    let rung = cfg(AdmitPolicy::FairShare, None).rung;
    let total_steps = rung.total_steps_at(rung.final_rung());
    for o in full.outcomes.iter().filter(|o| o.has_loss) {
        let trial = Trial {
            id: o.trial,
            config: configs[o.trial as usize],
        };
        let mut solo = backend.build(&[trial]);
        let score = backend.train(&mut solo, total_steps).scores[0];
        assert_eq!(
            (-score).to_bits(),
            o.loss_bits,
            "trial {}: final loss differs from its solo run",
            o.trial
        );
    }
    kill_everywhere(
        backend,
        commands,
        &full,
        AdmitPolicy::FairShare,
        "matrix-alexnet",
        50,
    );
}
