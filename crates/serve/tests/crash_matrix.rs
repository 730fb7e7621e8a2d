//! Crash injection at every persistence boundary: the checkpoint store's
//! fail-point kills the service at each staged record, each snapshot write
//! (half the file lands) and each commit (nothing, half, or all but the
//! newline of the line lands) of the `restart.rs` soak, and every recovery
//! must settle every trial with the terminal status and final loss bits of
//! the uninterrupted run.
//!
//! It holds because a step reaches the journal as one line or not at all,
//! and a snapshot file is immutable and counts only once a committed
//! `ckpt` record names it (see `hfta_serve::checkpoint`).

mod common;

use std::fs;

use common::{cfg, commands, fleet, run_full, tmpdir};
use hfta_sched::linear::LinearBackend;
use hfta_serve::engine::ServeEngine;
use hfta_serve::{AdmitPolicy, CheckpointStore};

/// Kills a durable service at every fail-point tick of the soak, which
/// must journal at least `min_records` records (the record-level points).
fn kill_everywhere(policy: AdmitPolicy, tag: &str, min_records: usize) {
    let (full, _) = run_full(policy);
    let dir = tmpdir(tag);
    let fresh = || {
        ServeEngine::new(
            LinearBackend::default(),
            fleet(),
            cfg(policy, Some(dir.clone())),
            commands(),
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
            LinearBackend::default(),
            fleet(),
            cfg(policy, Some(dir.clone())),
            commands(),
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

// One test per policy so the two matrices run side by side: 197 + 179
// record-level kill points, plus the snapshot writes and torn commits.

#[test]
fn fair_share_recovers_from_a_kill_at_every_boundary() {
    kill_everywhere(AdmitPolicy::FairShare, "matrix-fair", 197);
}

#[test]
fn static_policy_recovers_from_a_kill_at_every_boundary() {
    kill_everywhere(AdmitPolicy::Static, "matrix-static", 179);
}
