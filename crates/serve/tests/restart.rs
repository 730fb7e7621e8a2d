//! Kill-and-restart bit-identity: a service killed mid-soak and
//! recovered from its checkpoint directory must settle every trial with
//! exactly the same terminal status and final loss bits as an
//! uninterrupted run of the same command stream.
//!
//! This holds because per-trial trajectories depend only on
//! `(trial id, global step)` — never on device, array width, or
//! scheduling order — and rung decisions are synchronous barriers
//! ranked by `(score, trial id)` alone. The restart changes *when* and
//! *where* lanes train (in-flight segments at the crash retrain from
//! their last snapshot), but not what they compute.

mod common;

use std::fs;
use std::io;

use common::{cfg, commands, fleet, run_full, tmpdir};
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_serve::checkpoint::{ServeJournalRec, JOURNAL_FILE};
use hfta_serve::engine::{ServeCmd, ServeEngine, ServeRun};
use hfta_serve::{AdmitPolicy, CheckpointStore};
use hfta_sim::{DeviceFleet, DeviceSpec};

/// Run that is killed after `crash_after` batches, then recovered from
/// its journal and drained.
fn run_with_crash(policy: AdmitPolicy, tag: &str, crash_after: u64) -> ServeRun {
    let dir = tmpdir(tag);
    {
        let mut eng = ServeEngine::new(
            LinearBackend::default(),
            fleet(),
            cfg(policy, Some(dir.clone())),
            commands(),
        )
        .unwrap();
        for _ in 0..crash_after {
            if !eng.step().unwrap() {
                break;
            }
        }
        // Hard kill: the engine (with every booked in-flight segment)
        // is dropped on the floor; only journal + snapshots survive.
    }
    let mut eng = ServeEngine::recover(
        LinearBackend::default(),
        fleet(),
        cfg(policy, Some(dir.clone())),
        commands(),
    )
    .unwrap();
    eng.drain().unwrap();
    let run = eng.finish();
    let _ = fs::remove_dir_all(&dir);
    run
}

#[test]
fn recover_without_a_checkpoint_dir_is_an_invalid_input_error() {
    let err = ServeEngine::recover(
        LinearBackend::default(),
        fleet(),
        cfg(AdmitPolicy::FairShare, None),
        commands(),
    )
    .err()
    .expect("nothing to recover from");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("checkpoint_dir"), "{err}");
}

#[test]
fn fair_share_restart_is_bit_identical_mid_soak() {
    let (full, batches) = run_full(AdmitPolicy::FairShare);
    assert!(
        full.report.preemptions > 0,
        "stream should exercise priority preemption"
    );
    assert!(batches > 4, "need room to crash mid-run, got {batches}");
    let restarted = run_with_crash(AdmitPolicy::FairShare, "fair", batches / 2);
    assert!(
        restarted.report.restores > 0,
        "recovery should restore lanes from snapshots"
    );
    assert!(restarted.report.checkpoints > 0);
    assert_eq!(
        full.outcomes, restarted.outcomes,
        "statuses and final loss bits must survive the restart bit-identically"
    );
}

#[test]
fn restart_at_every_early_batch_converges_to_the_same_outcomes() {
    // Crashing at different points must never change outcomes: probe a
    // few crash sites including "before anything ran" and "almost done".
    let (full, batches) = run_full(AdmitPolicy::FairShare);
    for crash_after in [0, 1, batches / 4, (3 * batches) / 4, batches] {
        let restarted = run_with_crash(
            AdmitPolicy::FairShare,
            &format!("site{crash_after}"),
            crash_after,
        );
        assert_eq!(
            full.outcomes, restarted.outcomes,
            "crash after {crash_after} batches changed the outcome"
        );
    }
}

#[test]
fn static_policy_restart_is_bit_identical() {
    let (full, batches) = run_full(AdmitPolicy::Static);
    assert!(batches > 4);
    let restarted = run_with_crash(AdmitPolicy::Static, "static", batches / 2);
    assert_eq!(full.outcomes, restarted.outcomes);
}

#[test]
fn preempted_lanes_resume_on_any_device_bit_identically() {
    // The same stream on a fleet with the device order swapped: trial
    // trajectories (hence outcomes) must not change even though every
    // placement decision does.
    let (full, _) = run_full(AdmitPolicy::FairShare);
    let swapped =
        DeviceFleet::heterogeneous(&[(DeviceSpec::a100(), 1), (DeviceSpec::v100(), 1)], false);
    let mut eng = ServeEngine::new(
        LinearBackend::default(),
        swapped,
        cfg(AdmitPolicy::FairShare, None),
        commands(),
    )
    .unwrap();
    eng.drain().unwrap();
    let other = eng.finish();
    assert_eq!(full.outcomes, other.outcomes);
}

#[test]
fn malformed_journals_are_typed_errors_never_panics() {
    // A real journal from a service killed after its first batch: one
    // submit replayed, four commands still unprocessed.
    let dir = tmpdir("malformed");
    {
        let mut eng = ServeEngine::new(
            LinearBackend::default(),
            fleet(),
            cfg(AdmitPolicy::FairShare, Some(dir.clone())),
            commands(),
        )
        .unwrap();
        eng.step().unwrap();
    }
    let good = CheckpointStore::read_journal(&dir).unwrap();
    let submit = good.iter().position(|r| r.kind == "submit").unwrap();
    assert_eq!(good.iter().filter(|r| r.kind == "submit").count(), 1);

    // Each case: the journal edited, or the command list swapped.
    type Journal = Vec<ServeJournalRec>;
    let append = |kind: &str, edit: fn(&mut ServeJournalRec)| {
        let mut journal = good.clone();
        let mut rec = ServeJournalRec::blank(kind, 1);
        edit(&mut rec);
        journal.push(rec);
        (journal, commands())
    };
    let edit_submit = |edit: fn(&mut ServeJournalRec)| {
        let mut journal = good.clone();
        edit(&mut journal[submit]);
        (journal, commands())
    };
    let with_command = |at: usize, cmd: ServeCmd<LinearTrialCfg>, extra: Option<&str>| {
        let mut cmds = commands();
        cmds[at].1 = cmd;
        let mut journal = good.clone();
        journal.extend(extra.map(|kind| ServeJournalRec::blank(kind, 1)));
        (journal, cmds)
    };
    let cases: Vec<(&str, (Journal, Vec<_>))> = vec![
        ("unknown kind", append("mystery", |_| {})),
        (
            "unknown status",
            append("terminal", |r| r.status = "exploded".into()),
        ),
        (
            "non-terminal status",
            append("terminal", |r| r.status = "running".into()),
        ),
        (
            "terminal for a trial never submitted",
            append("terminal", |r| {
                (r.status, r.trial) = ("finished".into(), 10_000)
            }),
        ),
        (
            "report for a cohort never opened",
            append("report", |r| r.sweep = 99),
        ),
        (
            "decision for a cohort never opened",
            append("decision", |r| r.rung = 7),
        ),
        ("cancel where the commands submit", append("cancel", |_| {})),
        (
            "cancel of another sweep than the commands'",
            with_command(1, ServeCmd::Cancel { sweep: 3 }, Some("cancel")),
        ),
        (
            "submit where the commands cancel",
            with_command(0, ServeCmd::Cancel { sweep: 0 }, None),
        ),
        ("more submits than commands", (good.clone(), Vec::new())),
        ("sweep size mismatch", edit_submit(|r| r.n_trials += 1)),
        ("sweep id out of order", edit_submit(|r| r.sweep = 5)),
        ("trial id out of order", edit_submit(|r| r.base_trial = 5)),
    ];
    for (name, (journal, cmds)) in cases {
        // One commit line per record.
        let text: String = journal
            .iter()
            .map(|r| serde_json::to_string(&[r]).unwrap() + "\n")
            .collect();
        fs::write(dir.join(JOURNAL_FILE), text).unwrap();
        let recovered = ServeEngine::recover(
            LinearBackend::default(),
            fleet(),
            cfg(AdmitPolicy::FairShare, Some(dir.clone())),
            cmds,
        );
        match recovered {
            Ok(_) => panic!("{name}: recovery accepted a malformed journal"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{name}: {e}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
