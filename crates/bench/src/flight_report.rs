//! hfta-flight reporting: rebuild causal trial timelines from the
//! `*.flight.jsonl` journals a `--trace` run leaves behind, render ASCII
//! Gantt charts, critical paths and SLO tables, and summarize to a
//! machine-independent [`FlightSummary`] (the record `hfta_report diff`
//! gates — its schema lives in [`crate::record`]).
//!
//! Everything here works on *simulated* integer-nanosecond timestamps, so
//! a committed golden summary gates bit-identically across machines and
//! thread counts. `hfta_report flight` (offline report) and `hfta_report
//! top` (live refresh-in-place dashboard) are both thin CLIs over this
//! module.

use std::collections::BTreeMap;
use std::path::Path;

use hfta_telemetry::flight::{bucket_intervals, derive_all_strict, nearest_rank};
use hfta_telemetry::{FlightEvent, FlightKind, JournalLine, TrialSlo, FLEET_TRIAL};

use crate::record::{ExpSlo, FlightSummary, FLIGHT_SCHEMA};

/// A loaded trace directory's journals: experiment scope → events, in
/// recorded order. Trial ids repeat across experiments (each policy replays
/// the same arrival stream), so the scope tag is the outer key.
pub type FlightJournal = BTreeMap<String, Vec<FlightEvent>>;

/// Parses JSONL journal text into lines; malformed lines are errors (a
/// journal is machine-written, so damage means a real bug).
///
/// # Errors
///
/// Returns a message naming the first unparsable line.
pub fn parse_journal(text: &str) -> Result<Vec<JournalLine>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str::<JournalLine>(l).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Loads every `*.flight.jsonl` under `dir` and groups events by
/// experiment scope.
///
/// # Errors
///
/// Returns a message on I/O failure, parse failure, or when the directory
/// holds no journal files.
pub fn load_journal_dir(dir: &Path) -> Result<FlightJournal, String> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".flight.jsonl"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.flight.jsonl files in {}", dir.display()));
    }
    let mut journal = FlightJournal::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        for line in parse_journal(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            journal.entry(line.exp).or_default().push(line.event);
        }
    }
    Ok(journal)
}

/// Derives per-trial SLOs for one experiment's journal, strictly: a
/// malformed timeline is an error, not a skip.
///
/// # Errors
///
/// Propagates [`derive_all_strict`] diagnostics prefixed with the scope.
pub fn experiment_slos(name: &str, events: &[FlightEvent]) -> Result<Vec<TrialSlo>, String> {
    derive_all_strict(events).map_err(|e| format!("{name}: {e}"))
}

/// Summarizes a loaded journal into the golden-gated aggregate.
///
/// # Errors
///
/// Any experiment with a malformed trial timeline fails the whole summary.
pub fn summarize(journal: &FlightJournal) -> Result<FlightSummary, String> {
    let mut experiments = Vec::new();
    for (name, events) in journal {
        let slos = experiment_slos(name, events)?;
        let us = |ns: u64| ns as f64 / 1e3;
        let queues: Vec<f64> = slos.iter().map(|s| us(s.queue_ns)).collect();
        let e2es: Vec<f64> = slos.iter().map(|s| us(s.e2e_ns())).collect();
        experiments.push(ExpSlo {
            name: name.clone(),
            trials: slos.len() as u64,
            completed: slos
                .iter()
                .filter(|s| s.outcome == FlightKind::Complete)
                .count() as u64,
            evicted: slos
                .iter()
                .filter(|s| s.outcome == FlightKind::Evict)
                .count() as u64,
            faulted: slos.iter().filter(|s| s.faulted).count() as u64,
            queue_wait_p50_us: nearest_rank(&queues, 0.50),
            queue_wait_p95_us: nearest_rank(&queues, 0.95),
            queue_wait_p99_us: nearest_rank(&queues, 0.99),
            e2e_p50_us: nearest_rank(&e2es, 0.50),
            e2e_p95_us: nearest_rank(&e2es, 0.95),
            e2e_p99_us: nearest_rank(&e2es, 0.99),
            queue_us: slos.iter().map(|s| us(s.queue_ns)).sum(),
            compute_us: slos.iter().map(|s| us(s.compute_ns)).sum(),
            surgery_us: slos.iter().map(|s| us(s.surgery_ns)).sum(),
            quarantine_us: slos.iter().map(|s| us(s.quarantine_ns)).sum(),
        });
    }
    Ok(FlightSummary {
        schema: FLIGHT_SCHEMA,
        experiments,
    })
}

/// Renders the SLO table of a summary: one row per experiment.
pub fn render_slo_table(summary: &FlightSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>6} {:>5} {:>5} {:>5} {:>11} {:>11} {:>11} {:>11}\n",
        "experiment",
        "trials",
        "done",
        "evict",
        "fault",
        "qwait p50",
        "qwait p99",
        "e2e p50",
        "e2e p99"
    ));
    for e in &summary.experiments {
        out.push_str(&format!(
            "{:<14} {:>6} {:>5} {:>5} {:>5} {:>9.1}us {:>9.1}us {:>9.1}us {:>9.1}us\n",
            e.name,
            e.trials,
            e.completed,
            e.evicted,
            e.faulted,
            e.queue_wait_p50_us,
            e.queue_wait_p99_us,
            e.e2e_p50_us,
            e.e2e_p99_us
        ));
    }
    for e in &summary.experiments {
        let total = e.queue_us + e.compute_us + e.surgery_us + e.quarantine_us;
        if total <= 0.0 {
            continue;
        }
        out.push_str(&format!(
            "{:<14} decomposition: queue {:.1}% compute {:.1}% surgery {:.1}% quarantine {:.1}%\n",
            e.name,
            100.0 * e.queue_us / total,
            100.0 * e.compute_us / total,
            100.0 * e.surgery_us / total,
            100.0 * e.quarantine_us / total,
        ));
    }
    out
}

/// Renders one experiment's per-trial ASCII Gantt over `width` columns:
/// each row is a trial, each column a time bucket, each cell the bucket
/// glyph (`.` queue, `#` compute, `s` surgery, `!` quarantine). The
/// longest-latency trial's row is marked `<- critical`, followed by its
/// critical-path chain with per-phase durations.
///
/// # Errors
///
/// Propagates malformed-timeline diagnostics.
pub fn render_gantt(name: &str, events: &[FlightEvent], width: usize) -> Result<String, String> {
    let slos = experiment_slos(name, events)?;
    let width = width.max(10);
    let mut by_trial: BTreeMap<u64, Vec<FlightEvent>> = BTreeMap::new();
    for e in events {
        if e.trial != FLEET_TRIAL {
            by_trial.entry(e.trial).or_default().push(e.clone());
        }
    }
    let t0 = slos.iter().map(|s| s.submit_ns).min().unwrap_or(0);
    let t1 = slos
        .iter()
        .map(|s| s.terminal_ns)
        .max()
        .unwrap_or(1)
        .max(t0 + 1);
    let span = (t1 - t0) as f64;
    let critical = slos.iter().max_by_key(|s| s.e2e_ns()).map(|s| s.trial);
    let mut out = format!(
        "# {name}: {} trials over {:.1}us ({} cols, '.'=queue '#'=compute 's'=surgery '!'=quarantine)\n",
        slos.len(),
        span / 1e3,
        width
    );
    for (trial, seq) in &by_trial {
        let mut seq = seq.clone();
        seq.sort_by_key(|e| e.seq);
        let spans = bucket_intervals(&seq).map_err(|e| format!("{name}: {e}"))?;
        let mut row = vec![' '; width];
        for (from, to, bucket) in &spans {
            let a = (((from - t0) as f64 / span) * width as f64) as usize;
            let b = ((((to - t0) as f64 / span) * width as f64).ceil() as usize).min(width);
            for cell in row.iter_mut().take(b.max(a + 1).min(width)).skip(a) {
                *cell = bucket.glyph();
            }
        }
        let marker = if Some(*trial) == critical {
            "  <- critical"
        } else {
            ""
        };
        out.push_str(&format!(
            "trial {:>3} |{}|{}\n",
            trial,
            row.into_iter().collect::<String>(),
            marker
        ));
    }
    if let Some(ct) = critical {
        if let Some(seq) = by_trial.get(&ct) {
            let mut seq = seq.clone();
            seq.sort_by_key(|e| e.seq);
            let spans = bucket_intervals(&seq).map_err(|e| format!("{name}: {e}"))?;
            let e2e: u64 = spans.iter().map(|(a, b, _)| b - a).sum();
            let chain: Vec<String> = spans
                .iter()
                .map(|(a, b, k)| format!("{} {:.1}us", k.label(), (b - a) as f64 / 1e3))
                .collect();
            out.push_str(&format!(
                "critical path (trial {ct}, e2e {:.1}us): {}\n",
                e2e as f64 / 1e3,
                chain.join(" -> ")
            ));
            if let Some((from, to, k)) = spans.iter().max_by_key(|(a, b, _)| b - a) {
                out.push_str(&format!(
                    "  dominant: {} [{:.1}us .. {:.1}us] ({:.1}% of e2e)\n",
                    k.label(),
                    (*from - t0) as f64 / 1e3,
                    (*to - t0) as f64 / 1e3,
                    100.0 * (to - from) as f64 / e2e.max(1) as f64
                ));
            }
        }
    }
    Ok(out)
}

/// One device's state at a dashboard instant, parsed from the fleet's
/// bind/release events.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceNow {
    /// Device id.
    pub device: u64,
    /// Busy right now?
    pub busy: bool,
    /// Array currently bound (when busy).
    pub array: Option<u64>,
    /// `width N live M` detail of the active binding.
    pub detail: String,
}

/// A snapshot of one experiment's journal at simulated instant `now_ns` —
/// the data behind one `hfta_report top` frame.
#[derive(Debug, Clone, Default)]
pub struct FleetSnapshot {
    /// Simulated instant.
    pub now_ns: u64,
    /// Per-device states, sorted by id.
    pub devices: Vec<DeviceNow>,
    /// Trials submitted/queued but not yet dispatched.
    pub queue_depth: usize,
    /// Trials currently running a rung segment.
    pub running: usize,
    /// Trials in the repack buffer.
    pub buffered: usize,
    /// Trials terminal by now.
    pub done: usize,
    /// Worst end-to-end latencies among terminal trials, µs, descending
    /// `(trial, e2e_us)` — the "worst-p99 offenders" panel.
    pub worst_e2e_us: Vec<(u64, f64)>,
}

/// Replays `events` up to `now_ns` and snapshots fleet + trial state.
pub fn snapshot_at(events: &[FlightEvent], now_ns: u64) -> FleetSnapshot {
    let mut devices: BTreeMap<u64, DeviceNow> = BTreeMap::new();
    let mut last_kind: BTreeMap<u64, FlightKind> = BTreeMap::new();
    let mut submit_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut worst: Vec<(u64, f64)> = Vec::new();
    for e in events {
        if e.t_ns > now_ns {
            // Journals interleave trials but each trial's own sequence is
            // time-ordered; a linear scan with a time filter is exact.
            continue;
        }
        if e.trial == FLEET_TRIAL {
            let Some(device) = e.device else { continue };
            let slot = devices.entry(device).or_insert(DeviceNow {
                device,
                busy: false,
                array: None,
                detail: String::new(),
            });
            match e.kind {
                FlightKind::DeviceBind => {
                    slot.busy = true;
                    slot.array = e.array;
                    slot.detail = e.detail.clone();
                }
                FlightKind::DeviceRelease => {
                    slot.busy = false;
                    slot.array = None;
                    slot.detail.clear();
                }
                _ => {}
            }
            continue;
        }
        if e.kind == FlightKind::Submit {
            submit_ns.insert(e.trial, e.t_ns);
        }
        if e.kind.is_terminal() {
            let e2e = e.t_ns - submit_ns.get(&e.trial).copied().unwrap_or(e.t_ns);
            worst.push((e.trial, e2e as f64 / 1e3));
        }
        last_kind.insert(e.trial, e.kind);
    }
    let mut snap = FleetSnapshot {
        now_ns,
        devices: devices.into_values().collect(),
        ..FleetSnapshot::default()
    };
    for kind in last_kind.values() {
        use FlightKind as K;
        match kind {
            K::Submit | K::Enqueue | K::Restore => snap.queue_depth += 1,
            K::Dispatch | K::RungStart | K::RungEnd | K::Promote | K::Fault | K::Preempt => {
                snap.running += 1
            }
            K::Extract | K::Splice | K::Checkpoint => snap.buffered += 1,
            K::Evict | K::Complete => snap.done += 1,
            K::DeviceBind | K::DeviceRelease => {}
        }
    }
    worst.sort_by(|a, b| b.1.total_cmp(&a.1));
    worst.truncate(5);
    snap.worst_e2e_us = worst;
    snap
}

/// Renders one `hfta_report top` frame for `exp` at `now_ns`.
pub fn render_frame(exp: &str, events: &[FlightEvent], now_ns: u64) -> String {
    let snap = snapshot_at(events, now_ns);
    let busy = snap.devices.iter().filter(|d| d.busy).count();
    let mut out = format!(
        "hfta_top | exp {exp} | t = {:>10.1}us | occupancy {}/{} devices\n",
        now_ns as f64 / 1e3,
        busy,
        snap.devices.len().max(1)
    );
    out.push_str(&format!(
        "trials: {} queued  {} running  {} buffered  {} done\n",
        snap.queue_depth, snap.running, snap.buffered, snap.done
    ));
    for d in &snap.devices {
        if d.busy {
            let array = d
                .array
                .map(|a| format!("array {a}"))
                .unwrap_or_else(|| "array ?".to_string());
            out.push_str(&format!(
                "  dev{} [####] {} {}\n",
                d.device, array, d.detail
            ));
        } else {
            out.push_str(&format!("  dev{} [    ] idle\n", d.device));
        }
    }
    if snap.worst_e2e_us.is_empty() {
        out.push_str("worst e2e: (no terminal trials yet)\n");
    } else {
        let rows: Vec<String> = snap
            .worst_e2e_us
            .iter()
            .map(|(t, us)| format!("trial {t} {us:.1}us"))
            .collect();
        out.push_str(&format!("worst e2e: {}\n", rows.join("  ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trial: u64, seq: u64, t_ns: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            trial,
            seq,
            t_ns,
            kind,
            device: None,
            array: None,
            lane: None,
            detail: String::new(),
        }
    }

    fn journal_one_exp() -> FlightJournal {
        use FlightKind as K;
        let events = vec![
            // Trial 0: 100ns queue, 200ns compute.
            ev(0, 0, 0, K::Submit),
            ev(0, 1, 0, K::Enqueue),
            ev(0, 2, 100, K::Dispatch),
            ev(0, 3, 100, K::RungStart),
            ev(0, 4, 300, K::RungEnd),
            ev(0, 5, 300, K::Complete),
            // Trial 1: 50ns queue, 100ns compute, faulted + quarantined 50ns.
            ev(1, 0, 0, K::Submit),
            ev(1, 1, 0, K::Enqueue),
            ev(1, 2, 50, K::Dispatch),
            ev(1, 3, 50, K::RungStart),
            ev(1, 4, 150, K::Fault),
            ev(1, 5, 200, K::Evict),
        ];
        let mut j = FlightJournal::new();
        j.insert("elastic".into(), events);
        j
    }

    #[test]
    fn summarize_counts_and_decomposes() {
        let s = summarize(&journal_one_exp()).expect("well-formed");
        assert_eq!(s.schema, FLIGHT_SCHEMA);
        assert_eq!(s.experiments.len(), 1);
        let e = &s.experiments[0];
        assert_eq!(e.name, "elastic");
        assert_eq!((e.trials, e.completed, e.evicted, e.faulted), (2, 1, 1, 1));
        assert!((e.queue_us - 0.15).abs() < 1e-12);
        assert!((e.compute_us - 0.3).abs() < 1e-12);
        assert!((e.quarantine_us - 0.05).abs() < 1e-12);
        assert!((e.e2e_p99_us - 0.3).abs() < 1e-12);
        // The experiment-level decomposition balances too.
        let total = e.queue_us + e.compute_us + e.surgery_us + e.quarantine_us;
        assert!((total - (0.3 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = summarize(&journal_one_exp()).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FlightSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn malformed_journal_fails_summarize() {
        let mut j = journal_one_exp();
        j.get_mut("elastic").unwrap().pop(); // drop trial 1's terminal
        assert!(summarize(&j).is_err());
    }

    #[test]
    fn gantt_marks_the_critical_trial() {
        let j = journal_one_exp();
        let g = render_gantt("elastic", &j["elastic"], 24).expect("render");
        assert!(g.contains("trial   0"), "{g}");
        assert!(g.contains("<- critical"), "{g}");
        // Trial 0 has the larger e2e (300 vs 200).
        assert!(g.contains("critical path (trial 0"), "{g}");
        assert!(g.contains("queue 0.1us -> compute 0.2us"), "{g}");
        assert!(g.contains('#'), "compute glyph missing: {g}");
    }

    #[test]
    fn diff_gates_counts_exactly_and_latency_by_budget() {
        use crate::record::{diff_records, Doc};
        let diff = |base: &FlightSummary, cand: &FlightSummary| {
            diff_records(&Doc::of(base), &Doc::of(cand)).unwrap()
        };
        let base = summarize(&journal_one_exp()).unwrap();
        // Identical candidate: clean.
        assert!(!diff(&base, &base).regressed());
        // Any latency growth is beyond the 0% bound: regression.
        let mut slow = base.clone();
        slow.experiments[0].e2e_p99_us += 0.001;
        let out = diff(&base, &slow);
        assert_eq!(out.regressions.len(), 1, "{:?}", out.regressions);
        assert!(out.regressions[0].starts_with("elastic e2e_p99_us:"));
        // Latency improvement: informational, not gated.
        let mut fast = base.clone();
        fast.experiments[0].e2e_p99_us *= 0.5;
        assert!(!diff(&base, &fast).regressed());
        // A changed trial count is always a regression.
        let mut fewer = base.clone();
        fewer.experiments[0].trials = 1;
        assert!(diff(&base, &fewer).regressed());
        // A missing experiment is a regression; a new one is not.
        let empty = FlightSummary {
            schema: FLIGHT_SCHEMA,
            experiments: vec![],
        };
        assert!(diff(&base, &empty).regressed());
        assert!(!diff(&empty, &base).regressed());
    }

    #[test]
    fn journal_round_trips_through_jsonl_files() {
        let dir = std::env::temp_dir().join(format!("hfta_flight_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = journal_one_exp();
        let mut text = String::new();
        for (exp, events) in &j {
            for e in events {
                let line = JournalLine {
                    exp: exp.clone(),
                    event: e.clone(),
                };
                text.push_str(&serde_json::to_string(&line).unwrap());
                text.push('\n');
            }
        }
        std::fs::write(dir.join("sweep.flight.jsonl"), &text).unwrap();
        let loaded = load_journal_dir(&dir).expect("load");
        assert_eq!(loaded, j);
        assert!(load_journal_dir(&dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_tracks_queue_running_and_devices() {
        use FlightKind as K;
        let mut events = journal_one_exp()["elastic"].clone();
        let bind = FlightEvent {
            trial: FLEET_TRIAL,
            seq: 0,
            t_ns: 100,
            kind: K::DeviceBind,
            device: Some(0),
            array: Some(3),
            lane: None,
            detail: "width 2 live 2".into(),
        };
        let mut release = bind.clone();
        release.seq = 1;
        release.t_ns = 300;
        release.kind = K::DeviceRelease;
        events.push(bind);
        events.push(release);

        // t=60: trial 0 still queued, trial 1 dispatched, device idle.
        let s = snapshot_at(&events, 60);
        assert_eq!((s.queue_depth, s.running, s.done), (1, 1, 0));
        assert!(s.devices.is_empty());
        // t=150: both running, device 0 bound to array 3.
        let s = snapshot_at(&events, 150);
        assert_eq!((s.queue_depth, s.running, s.done), (0, 2, 0));
        assert_eq!(s.devices.len(), 1);
        assert!(s.devices[0].busy);
        assert_eq!(s.devices[0].array, Some(3));
        // t=400: everything terminal, device released, worst e2e is trial 0.
        let s = snapshot_at(&events, 400);
        assert_eq!((s.queue_depth, s.running, s.done), (0, 0, 2));
        assert!(!s.devices[0].busy);
        assert_eq!(s.worst_e2e_us.first().map(|w| w.0), Some(0));
        let frame = render_frame("elastic", &events, 400);
        assert!(frame.contains("2 done"), "{frame}");
        assert!(frame.contains("idle"), "{frame}");
    }
}
