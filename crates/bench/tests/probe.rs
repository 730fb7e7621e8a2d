//! hfta-probe integration tests: the `hfta_report roofline` pipeline on a
//! traced fused DCGAN-style training step (per-op roofline classification —
//! forward and `bwd:` rows — plus per-lane and per-device utilization must
//! come out of the trace), and the two producers the roofline used to be
//! appended from: `bench_kernels`' scaling-efficiency rows and
//! `sched_sweep`'s latencies, which must be real with or without `--trace`.

use std::path::Path;
use std::process::Command;

use hfta_bench::telemetry_cli::TraceSession;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{FusedConv2d, FusedModule};
use hfta_core::optim::{FusedOptimizer, FusedSgd, PerModel};
use hfta_nn::layers::Conv2dCfg;
use hfta_nn::{Module, Tape};
use hfta_sched::sched::SchedReport;
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

#[test]
fn probe_report_classifies_a_traced_dcgan_step() {
    let dir = std::env::temp_dir().join("hfta-probe-dcgan-test");
    trace_dcgan_step(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_hfta_report"))
        .args(["roofline", &dir.display().to_string()])
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
    // The conv step's dominant op must be attributed by name, once forward
    // and once backward: the tape is the only recorder.
    let rows = |op: &str| {
        stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(op))
            .count()
    };
    assert_eq!(rows("conv2d"), 1, "conv2d rows: {stdout}");
    assert_eq!(rows("bwd:conv2d"), 1, "bwd:conv2d rows: {stdout}");
    assert_eq!(rows("conv2d_grad_input"), 0, "kernel-level row: {stdout}");
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
fn sched_sweep_needs_no_trace_to_record_real_latencies() {
    // The SLOs are read back from the profiler's flight journal: without
    // `--trace` there used to be none, and every latency read zero.
    let dir = std::env::temp_dir().join("hfta-probe-sched-latency-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let latencies = |file: &str, extra: &[&str]| {
        let path = dir.join(file);
        let out = Command::new(env!("CARGO_BIN_EXE_sched_sweep"))
            .args(["--bench-json", &path.display().to_string()])
            .args(extra)
            .output()
            .expect("sched_sweep runs");
        assert!(
            out.status.success(),
            "sched_sweep failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("bench json written");
        let doc: serde::Value = serde_json::from_str(&text).expect("bench json parses");
        let records: Vec<SchedReport> =
            serde_json::from_value(doc.get("records").expect("records")).expect("sched reports");
        records
            .iter()
            .flat_map(|r| [r.queue_wait_p99_us, r.e2e_latency_p99_us])
            .collect::<Vec<f64>>()
    };
    let untraced = latencies("untraced.json", &[]);
    assert_eq!(untraced.len(), 6, "latencies: {untraced:?}");
    assert!(untraced.iter().all(|&us| us > 0.0), "zeros: {untraced:?}");
    // Simulated time is bit-exact, so tracing must not change a digit.
    let trace_dir = dir.join("trace").display().to_string();
    assert_eq!(untraced, latencies("traced.json", &["--trace", &trace_dir]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_kernels_emits_scaling_efficiency() {
    let dir = std::env::temp_dir().join("hfta-probe-bench-kernels-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("BENCH_kernels.json");

    let out = Command::new(env!("CARGO_BIN_EXE_bench_kernels"))
        .args(["--quick", "--bench-json", &json.display().to_string()])
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
    let _ = std::fs::remove_dir_all(&dir);
}
