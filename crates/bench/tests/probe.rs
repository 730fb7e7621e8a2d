//! hfta-probe integration tests: the `hfta_report roofline` pipeline on a
//! traced fused DCGAN-style training step (the ISSUE acceptance case:
//! per-op roofline classification plus per-lane and per-device utilization
//! must come out of the trace), perf-history appends from `bench_kernels`,
//! and the `hfta_report history` drift-gate exit-code contract — 0 on the
//! committed CI baseline, 1 on an injected ≥10% utilization drop or when
//! the latest record has nothing to drift from.

use std::path::{Path, PathBuf};
use std::process::Command;

use hfta_bench::telemetry_cli::TraceSession;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{FusedConv2d, FusedModule};
use hfta_core::optim::{FusedOptimizer, FusedSgd, PerModel};
use hfta_nn::layers::Conv2dCfg;
use hfta_nn::{Module, Tape};
use hfta_probe::{HistoryRecord, OpUtil, PerfHistory, HISTORY_SCHEMA};
use hfta_tensor::Rng;

const B: usize = 4;

/// Traces one fused DCGAN-style training step (conv forward, fused CE
/// loss, backward, SGD) into `dir`, with step metrics carrying the fused
/// width and a synthetic per-device utilization series.
fn trace_dcgan_step(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let session = TraceSession::active("dcgan_step", dir);
    let p = session.profiler().expect("active session").clone();

    let mut rng = Rng::seed_from(11);
    let conv = FusedConv2d::new(B, Conv2dCfg::new(3, 8, 3), &mut rng);
    let mut opt = FusedSgd::new(conv.fused_parameters(), PerModel::new(vec![0.01; B]), 0.9)
        .expect("matching widths");
    let x = rng.randn([2, B * 3, 16, 16]);
    let targets = vec![0usize; B * 2];

    opt.zero_grad();
    let tape = Tape::new();
    let y = conv.forward(&tape.leaf(x));
    let dims = y.dims();
    let pooled = y
        .reshape(&[dims[0], dims[1], dims[2] * dims[3]])
        .mean_axis_keep(2);
    let logits = pooled.reshape(&[dims[0], B, 8]).permute(&[1, 0, 2]);
    let losses: Vec<f32> = vec![0.5; B];
    hfta_core::array::record_step_metrics(0, &losses, 0.0, B as u64);
    fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
    opt.step();

    // A device utilization series like the scheduler's, so the report can
    // render the Fig-8 timeline strip.
    let lane = p.lane("fleet", "V100#0");
    p.counter_at(lane, "sched/V100#0/util", 0.0, 0.9);
    p.counter_at(lane, "sched/V100#0/util", 50.0, 0.2);
    session.finish().expect("trace written");
}

/// Writes a synthetic probe database so tests never pay (or depend on)
/// real machine calibration.
fn synthetic_db(path: &Path) {
    hfta_probe::MachinePeaks::synthetic(50.0, 20.0)
        .save(path)
        .expect("probe db written");
}

#[test]
fn probe_report_classifies_a_traced_dcgan_step() {
    let dir = std::env::temp_dir().join("hfta-probe-dcgan-test");
    trace_dcgan_step(&dir);
    let db = dir.join("probe_db.json");
    synthetic_db(&db);

    let out = Command::new(env!("CARGO_BIN_EXE_hfta_report"))
        .args(["roofline", &dir.display().to_string()])
        .args(["--probe-db", &db.display().to_string()])
        .output()
        .expect("hfta_report runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "hfta_report roofline failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Per-op roofline classification with bound labels.
    assert!(
        stdout.contains("roofline @"),
        "no roofline header: {stdout}"
    );
    assert!(stdout.contains("%peak"), "no pct-of-peak column: {stdout}");
    assert!(
        stdout.contains("compute") || stdout.contains("bandwidth"),
        "no bound classification: {stdout}"
    );
    // The conv step's dominant ops must be attributed by name.
    assert!(stdout.contains("conv2d"), "conv ops missing: {stdout}");
    // Per-lane attribution at the fused width.
    assert!(stdout.contains("lane"), "no lane table: {stdout}");
    for lane in 0..B {
        assert!(
            stdout
                .lines()
                .any(|l| l.trim().starts_with(&lane.to_string())),
            "lane {lane} row missing: {stdout}"
        );
    }
    // Per-device utilization timeline.
    assert!(
        stdout.contains("sched/V100#0/util"),
        "device timeline missing: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn probe_report_appends_history_records() {
    let dir = std::env::temp_dir().join("hfta-probe-history-append-test");
    trace_dcgan_step(&dir);
    synthetic_db(&dir.join("probe_db.json"));
    let history_path = dir.join("history.jsonl");

    for _ in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_hfta_report"))
            .args(["roofline", &dir.display().to_string()])
            .args(["--history", &history_path.display().to_string()])
            .output()
            .expect("hfta_report runs");
        assert!(out.status.success());
    }
    let records = PerfHistory::new(&history_path).load().expect("loads");
    assert_eq!(records.len(), 2, "one record per run");
    assert!(!records[0].ops.is_empty());
    assert_eq!(records[0].threads, records[1].threads);
    let _ = std::fs::remove_dir_all(&dir);
}

fn history_rec(pct: f64) -> HistoryRecord {
    HistoryRecord {
        schema: HISTORY_SCHEMA,
        label: "test".into(),
        git_rev: "deadbee".into(),
        threads: 4,
        backend: "blocked".into(),
        ops: vec![OpUtil {
            name: "gemm/test".into(),
            pct_of_peak: pct,
            gflops: pct,
            bound: "compute".into(),
        }],
    }
}

fn report_history(path: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hfta_report"))
        .args(["history", &path.display().to_string()])
        .output()
        .expect("hfta_report runs")
}

#[test]
fn history_drift_gate_exit_codes() {
    let dir = std::env::temp_dir().join("hfta-probe-drift-gate-test");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("history.jsonl");
    let history = PerfHistory::new(&path);

    // A lone record has nothing to drift from: a gate that cannot fail is
    // reported as such (exit 1), not passed.
    history.append(&history_rec(60.0)).expect("append");
    let out = report_history(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "no baseline must fail: {stdout}"
    );
    assert!(stdout.contains("no baseline"), "no callout: {stdout}");

    for pct in [61.0, 59.5] {
        history.append(&history_rec(pct)).expect("append");
    }

    // Steady utilization: exit 0 and a trajectory table.
    let out = report_history(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean history must pass: {stdout}"
    );
    assert!(stdout.contains("gemm/test"), "no trajectory row: {stdout}");
    assert!(stdout.contains("no drift"), "no verdict line: {stdout}");

    // An injected >=10% drop vs the trailing median (60) must exit 1.
    history.append(&history_rec(50.0)).expect("append");
    let out = report_history(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "drop must fail: {stdout}");
    assert!(stdout.contains("DRIFT"), "no drift callout: {stdout}");

    // Missing file is a usage error, not a drift.
    let out = report_history(&dir.join("nope.jsonl"));
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_history_baseline_passes_the_gate() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci/golden/probe_history.jsonl");
    let out = report_history(&golden);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "committed baseline must stay clean: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...and for a reason: every op of the latest record has a trail.
    assert!(stdout.contains("<- ["), "no trajectory: {stdout}");
    assert!(!stdout.contains("no baseline"), "vacuous gate: {stdout}");
}

#[test]
fn sched_sweep_history_needs_no_trace_to_record_real_latencies() {
    // The SLOs are read back from the profiler's flight journal: without
    // `--trace` there used to be none, and the record appended was all
    // `gflops = 0, pct_of_peak = 1e15` — a poisoned drift baseline.
    let dir = std::env::temp_dir().join("hfta-probe-sched-history-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let append = |file: &str, extra: &[&str]| {
        let path = dir.join(file);
        let out = Command::new(env!("CARGO_BIN_EXE_sched_sweep"))
            .args(["--history", &path.display().to_string()])
            .args(extra)
            .output()
            .expect("sched_sweep runs");
        assert!(
            out.status.success(),
            "sched_sweep failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut records = PerfHistory::new(&path).load().expect("history loads");
        assert_eq!(records.len(), 1);
        records.remove(0).ops
    };
    let untraced = append("untraced.jsonl", &[]);
    assert_eq!(untraced.len(), 6, "ops: {untraced:?}");
    for op in &untraced {
        assert!(
            op.gflops > 0.0 && op.pct_of_peak < 1e6,
            "zero record: {op:?}"
        );
    }
    // Simulated time is bit-exact, so tracing must not change a digit.
    let trace_dir = dir.join("trace").display().to_string();
    assert_eq!(untraced, append("traced.jsonl", &["--trace", &trace_dir]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_kernels_emits_scaling_efficiency_and_history() {
    let dir = std::env::temp_dir().join("hfta-probe-bench-kernels-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("BENCH_kernels.json");
    let db = dir.join("probe_db.json");
    synthetic_db(&db);
    let history_path = dir.join("history.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_bench_kernels"))
        .args(["--quick", "--bench-json", &json.display().to_string()])
        .args(["--probe-db", &db.display().to_string()])
        .args(["--history", &history_path.display().to_string()])
        .output()
        .expect("bench_kernels runs");
    assert!(
        out.status.success(),
        "bench_kernels failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&json).expect("bench json written");
    assert!(
        text.contains("\"scaling_efficiency\""),
        "scaling_efficiency missing from {text}"
    );
    let records = PerfHistory::new(&history_path)
        .load()
        .expect("history loads");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].label, "bench_kernels");
    // Every benched (op, shape, backend, threads) cell lands in the record.
    assert!(records[0].ops.len() >= 6, "ops: {:?}", records[0].ops);
    assert!(records[0].ops.iter().all(|o| o.gflops > 0.0));
    let _ = std::fs::remove_dir_all(&dir);
}
