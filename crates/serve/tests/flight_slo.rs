//! Flight-journal integrity for the serve engine: every trial must emit
//! a well-formed causal event sequence through preemption, checkpoint,
//! and restore — and because recovery re-emits the journaled flight
//! history before resuming, the stream stays well-formed *across a
//! service restart*, with the four SLO buckets still telescoping
//! bit-exactly to end-to-end latency.

use std::fs;
use std::path::PathBuf;

use hfta_sched::asha::RungPolicy;
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_serve::engine::{ServeCfg, ServeCmd, ServeEngine, SweepSpec};
use hfta_serve::AdmitPolicy;
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_telemetry::flight::{derive_terminated, SloRollup};
use hfta_telemetry::{FlightKind, Profiler};

fn fleet() -> DeviceFleet {
    DeviceFleet::heterogeneous(
        &[(DeviceSpec::v100(), 1), (DeviceSpec::rtx6000(), 1)],
        false,
    )
}

fn cfg(dir: Option<PathBuf>) -> ServeCfg {
    ServeCfg {
        policy: AdmitPolicy::FairShare,
        rung: RungPolicy {
            base_steps: 2,
            eta: 2,
            rungs: 3,
        },
        width_cap: 6,
        checkpoint_dir: dir,
    }
}

fn sweep(tenant: &str, priority: f64, n: usize, salt: usize) -> SweepSpec<LinearTrialCfg> {
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

fn commands() -> Vec<(f64, ServeCmd<LinearTrialCfg>)> {
    vec![
        (0.0, ServeCmd::Submit(sweep("batch-a", 1.0, 10, 0))),
        (0.0003, ServeCmd::Submit(sweep("batch-b", 1.0, 8, 3))),
        (0.0012, ServeCmd::Submit(sweep("urgent", 6.0, 4, 7))),
    ]
}

#[test]
fn serve_journal_is_well_formed_with_preemption_and_checkpoints() {
    let profiler = Profiler::new("serve-flight");
    let _guard = profiler.install();
    let _exp = profiler.experiment("fair-share");
    let dir = std::env::temp_dir().join(format!("hfta-serve-slo-full-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut eng = ServeEngine::new(
        LinearBackend::default(),
        fleet(),
        cfg(Some(dir.clone())),
        commands(),
    )
    .unwrap();
    eng.drain().unwrap();
    let run = eng.finish();
    assert!(run.report.preemptions > 0, "stream should preempt");
    assert!(run.report.checkpoints > 0);

    let events = profiler.flight_events();
    assert!(events.iter().any(|e| e.kind == FlightKind::Preempt));
    assert!(events.iter().any(|e| e.kind == FlightKind::Checkpoint));
    let (slos, open) = derive_terminated(&events).expect("well-formed serve journal");
    assert!(open.is_empty(), "unterminated trials {open:?}");
    assert_eq!(slos.len(), run.outcomes.len());
    for slo in &slos {
        assert_eq!(
            slo.queue_ns + slo.compute_ns + slo.surgery_ns + slo.quarantine_ns,
            slo.e2e_ns(),
            "trial {}: SLO buckets must telescope to e2e",
            slo.trial
        );
    }
    // Preempted/buffered time lands in the surgery bucket, so the fleet
    // rollup must attribute nonzero surgery (barrier + preemption waits).
    let rollup = SloRollup::from_slos(slos);
    assert!(rollup.surgery_us > 0.0);
    assert!(rollup.compute_us > 0.0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn slo_decomposition_spans_a_service_restart() {
    let profiler = Profiler::new("serve-flight-restart");
    let _guard = profiler.install();
    let dir = std::env::temp_dir().join(format!("hfta-serve-slo-restart-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Crash half-way through, in its own experiment scope.
    let crashed_batches = {
        let _exp = profiler.experiment("crashed-half");
        let mut eng = ServeEngine::new(
            LinearBackend::default(),
            fleet(),
            cfg(Some(dir.clone())),
            commands(),
        )
        .unwrap();
        let mut n = 0;
        while n < 14 && eng.step().unwrap() {
            n += 1;
        }
        n
    };
    assert!(crashed_batches > 4, "crash site must be mid-run");

    // Recover in a fresh scope: the journaled flight history is
    // re-emitted first, so this scope holds each trial's *complete*
    // timeline — pre-crash events, the Restore marker, and everything
    // after — and strict derivation must accept it.
    let _exp = profiler.experiment("recovered");
    let mut eng = ServeEngine::recover(
        LinearBackend::default(),
        fleet(),
        cfg(Some(dir.clone())),
        commands(),
    )
    .unwrap();
    eng.drain().unwrap();
    let run = eng.finish();
    assert!(run.report.restores > 0);

    let events = profiler.flight_events();
    assert!(
        events.iter().any(|e| e.kind == FlightKind::Restore),
        "recovery must mark restored trials"
    );
    let (slos, open) = derive_terminated(&events).expect("restart-spanning journal is well-formed");
    assert!(open.is_empty(), "unterminated trials {open:?}");
    assert_eq!(slos.len(), run.outcomes.len());
    for slo in &slos {
        assert_eq!(
            slo.queue_ns + slo.compute_ns + slo.surgery_ns + slo.quarantine_ns,
            slo.e2e_ns(),
            "trial {}: buckets must telescope across the restart",
            slo.trial
        );
    }
    // The report's fleet decomposition is the same fold.
    let rollup = SloRollup::from_slos(slos);
    let sum = rollup.queue_us + rollup.compute_us + rollup.surgery_us + rollup.quarantine_us;
    let e2e_total: f64 = rollup.e2e_us.iter().sum();
    assert!((sum - e2e_total).abs() < 1e-6);
    let _ = fs::remove_dir_all(&dir);
}
