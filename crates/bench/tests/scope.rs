//! hfta-scope integration tests: fused loss streams vs unfused runs, the
//! scope trace pipeline over `sched_sweep`'s traced run, and the
//! `hfta_report diff` exit-code contract (including the acceptance
//! cases: an injected ≥10% throughput regression must exit 1, a file the
//! record schema cannot parse must exit 2).

use hfta_bench::record::{PlanFile, PlanRecord};
use hfta_core::array::record_step_metrics;
use hfta_core::format::stack_array;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{FusedLinear, FusedModule};
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::scope::per_model_ce_losses;
use hfta_nn::layers::LinearCfg;
use hfta_nn::{Module, Tape};
use hfta_telemetry::{RunReport, SentinelKind};
use hfta_tensor::{Rng, Tensor};
use std::process::Command;

const STEPS: usize = 3;
const N: usize = 5;
const F_IN: usize = 6;
const CLASSES: usize = 3;

/// Trains a fused array on fixed batches and returns each model's loss
/// curve as recorded by `record_step_metrics` into the profiler's
/// per-model scalar streams.
fn loss_streams(
    model: FusedLinear,
    lrs: &[f32],
    batches: &[(Vec<Tensor>, Vec<usize>)],
) -> Vec<Vec<f64>> {
    let b = lrs.len();
    let mut opt = FusedSgd::new(model.fused_parameters(), PerModel::new(lrs.to_vec()), 0.9)
        .expect("matching widths");
    let profiler = hfta_telemetry::Profiler::new("stream-test");
    let guard = profiler.install();
    for (step, (xs, targets)) in batches.iter().enumerate() {
        opt.zero_grad();
        let tape = Tape::new();
        let logits = model.forward(&tape.leaf(stack_array(xs).unwrap()));
        let losses = per_model_ce_losses(&logits, targets);
        record_step_metrics(step as u64, &losses, 0.0, b as u64);
        fused_cross_entropy(&logits, targets, Reduction::Mean).backward();
        opt.step();
    }
    drop(guard);
    let report = profiler.report();
    let exp = &report.experiments[0];
    (0..b as u64)
        .map(|m| {
            exp.scalar_stream(m, "loss")
                .expect("every model streams a loss")
                .points
                .iter()
                .map(|p| p.value)
                .collect()
        })
        .collect()
}

/// The per-model losses `record_step_metrics` streams from a
/// fused run must equal what each model reports when trained alone (the
/// fused ops compute every lane independently, so this holds bit-for-bit,
/// not just approximately).
#[test]
fn fused_loss_streams_match_unfused_runs() {
    let mut rng = Rng::seed_from(99);
    let fused3 = FusedLinear::new(3, LinearCfg::new(F_IN, CLASSES), &mut rng);
    let members = fused3.unfuse();
    let batches: Vec<(Vec<Tensor>, Vec<usize>)> = (0..STEPS)
        .map(|_| {
            let xs: Vec<Tensor> = (0..3).map(|_| rng.randn([N, F_IN])).collect();
            let ys: Vec<usize> = (0..3 * N).map(|_| rng.below(CLASSES)).collect();
            (xs, ys)
        })
        .collect();
    let lrs = [0.2f32, 0.1, 0.05];
    let fused_curves = loss_streams(fused3, &lrs, &batches);
    for i in 0..3 {
        let solo = FusedLinear::from_models(&members[i..=i]).unwrap();
        let solo_batches: Vec<(Vec<Tensor>, Vec<usize>)> = batches
            .iter()
            .map(|(xs, ys)| (xs[i..=i].to_vec(), ys[i * N..(i + 1) * N].to_vec()))
            .collect();
        let solo_curves = loss_streams(solo, &lrs[i..=i], &solo_batches);
        assert_eq!(
            fused_curves[i], solo_curves[0],
            "model {i}'s fused loss stream differs from its unfused run"
        );
    }
}

fn hfta_report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hfta_report"))
        .args(args)
        .output()
        .expect("spawn hfta_report")
}

/// The sched sweep's trials poisoned at step 1 (`k % 9 == 4` of 48).
const POISONED: [u64; 5] = [4, 13, 22, 31, 40];

/// The scope gate rides `sched_sweep`'s traced run: every trial's four
/// streams, the poisoned trials' quarantined sentinels, the `health` view,
/// and the `diff` / `summarize` contract over the report.
#[test]
fn scope_sweep_trace_renders_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("hfta-scope-sweep-test");
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = Command::new(env!("CARGO_BIN_EXE_sched_sweep"))
        .args(["--trace", &dir.display().to_string()])
        .output()
        .expect("spawn sched_sweep");
    assert!(sweep.status.success(), "sched_sweep failed: {sweep:?}");

    // Each policy's scope holds the full picture: 48 trials' streams, one
    // quarantined NaN-gradient sentinel per poisoned trial at step 1.
    let report_path = dir.join("sched_sweep.report.json");
    let text = std::fs::read_to_string(&report_path).unwrap();
    let run: RunReport = serde_json::from_str(&text).expect("a run report");
    for policy in ["serial", "static-fusion", "elastic"] {
        let exp = run.experiment(policy).expect("a scope per policy");
        assert_eq!(exp.scalar_models(), (0..48).collect::<Vec<u64>>());
        for metric in ["loss", "grad_norm", "param_norm", "update_ratio"] {
            assert!(exp.scalar_stream(0, metric).is_some(), "missing {metric}");
        }
        let sentinels: Vec<u64> = exp.sentinels.iter().map(|e| e.model).collect();
        assert_eq!(sentinels, POISONED, "{policy}");
        for event in &exp.sentinels {
            assert_eq!(event.step, 1);
            assert_eq!(event.kind, SentinelKind::NonFiniteGrad);
            assert!(event.quarantined);
        }
    }

    // Health mode renders the quarantine.
    let health = hfta_report(&["health", &dir.display().to_string()]);
    assert!(health.status.success());
    let stdout = String::from_utf8_lossy(&health.stdout);
    assert!(stdout.contains("nan_grad@1 (quarantined)"), "{stdout}");

    // Self-diff is clean (exit 0) despite the NaN grad-norm points the
    // report round-trips through JSON `null`.
    let rp = report_path.display().to_string();
    assert!(hfta_report(&["diff", &rp, &rp]).status.success());

    // The summary (the committed-golden format) gates like the full report,
    // line for line.
    let summary = hfta_report(&["summarize", &rp]);
    assert!(summary.status.success(), "{summary:?}");
    let spath = dir.join("summary.report.json");
    std::fs::write(&spath, &summary.stdout).unwrap();
    let sp = spath.display().to_string();
    let full = hfta_report(&["diff", &rp, &rp]);
    let mixed = hfta_report(&["diff", &sp, &rp]);
    assert!(mixed.status.success(), "{mixed:?}");
    let body = |o: &std::process::Output| {
        let text = String::from_utf8_lossy(&o.stdout).into_owned();
        text.lines().skip(1).map(str::to_string).collect::<Vec<_>>()
    };
    assert_eq!(body(&full), body(&mixed));

    // A drifted loss fails the diff (exit 1).
    let mut tampered = run.clone();
    tampered
        .experiments
        .iter_mut()
        .find(|e| e.name == "serial")
        .unwrap()
        .scalars
        .iter_mut()
        .find(|s| s.model == 0 && s.metric == "loss")
        .unwrap()
        .points
        .last_mut()
        .unwrap()
        .value += 0.5;
    let tpath = dir.join("tampered.report.json");
    std::fs::write(&tpath, serde_json::to_string_pretty(&tampered).unwrap()).unwrap();
    let tp = tpath.display().to_string();
    let diff = hfta_report(&["diff", &rp, &tp]);
    assert_eq!(diff.status.code(), Some(1), "{diff:?}");
    assert_eq!(hfta_report(&["diff", &sp, &tp]).status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan bench file whose partial-fusion plan steps in `fused_us`
/// simulated µs.
fn bench_file(fused_us: f64) -> String {
    let record = |plan: &str, sim_step_us| PlanRecord {
        plan: plan.into(),
        sim_step_us,
    };
    let file = PlanFile {
        name: "bench_plan".into(),
        device: "V100".into(),
        lanes: 4,
        steps: 3,
        width: 8,
        batch: 2,
        fused_fraction: 0.824,
        max_fused_width: 4,
        records: vec![
            record("serial", 34607.5),
            record("partial-fusion", fused_us),
        ],
        partial_fusion_speedup: 34607.5 / 12417.7,
        bit_identical: true,
    };
    serde_json::to_string_pretty(&file).unwrap()
}

/// Injecting a ≥10% throughput regression into one of two
/// otherwise-identical plan bench files makes `hfta_report diff` exit
/// 1, naming the record and field.
#[test]
fn diff_cli_fails_on_injected_throughput_regression() {
    let dir = std::env::temp_dir().join("hfta-scope-diff-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let same = dir.join("same.json");
    let slow = dir.join("slow.json");
    std::fs::write(&base, bench_file(12417.7)).unwrap();
    std::fs::write(&same, bench_file(12417.7)).unwrap();
    std::fs::write(&slow, bench_file(13907.8)).unwrap(); // 12% slower step
    let (base, same, slow) = (
        base.display().to_string(),
        same.display().to_string(),
        slow.display().to_string(),
    );

    assert!(hfta_report(&["diff", &base, &same]).status.success());
    let regressed = hfta_report(&["diff", &base, &slow]);
    assert_eq!(regressed.status.code(), Some(1), "{regressed:?}");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(
        stdout.contains("REGRESSION: plan:partial-fusion sim_step_us"),
        "{stdout}"
    );
    // Usage errors exit 2; the bounds are constants, not flags.
    assert_eq!(hfta_report(&["diff", &base]).status.code(), Some(2));
    let flagged = hfta_report(&["diff", &base, &slow, "--bound", "20"]);
    assert_eq!(flagged.status.code(), Some(2));
    assert_eq!(hfta_report(&["frobnicate", &base]).status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A bench file whose records the schema cannot parse must be a typed
/// error naming the field (exit 2) — the same field renamed on both sides
/// used to drop every record from the diff and print `no regressions`.
#[test]
fn diff_cli_rejects_a_file_with_a_renamed_field() {
    let dir = std::env::temp_dir().join("hfta-scope-renamed-field-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("plan.bench.json");
    let plan = Command::new(env!("CARGO_BIN_EXE_bench_plan"))
        .args(["--quick", "--bench-json", &good.display().to_string()])
        .output()
        .expect("spawn bench_plan");
    assert!(plan.status.success(), "bench_plan failed: {plan:?}");
    let good_path = good.display().to_string();
    assert!(hfta_report(&["diff", &good_path, &good_path])
        .status
        .success());

    let text = std::fs::read_to_string(&good).unwrap();
    assert!(text.contains("\"sim_step_us\""));
    let renamed = dir.join("renamed.json");
    std::fs::write(&renamed, text.replace("\"sim_step_us\"", "\"step_us\"")).unwrap();
    let renamed = renamed.display().to_string();
    let out = hfta_report(&["diff", &renamed, &renamed]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing field `sim_step_us`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
