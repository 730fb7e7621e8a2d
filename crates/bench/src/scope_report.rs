//! hfta-scope reporting: per-model health tables and run comparison.
//!
//! The library half of `hfta_report health` and the run-report side of
//! `hfta_report diff`. It consumes the `<bin>.report.json` files the
//! [`crate::telemetry_cli::TraceSession`] writes (a serialized
//! [`hfta_telemetry::RunReport`]) and offers two views:
//!
//! * **health** — one table per experiment: each model's last/min loss,
//!   gradient- and parameter-norm trajectory endpoints, update ratio, and
//!   any sentinel events ([`print_health`]);
//! * **diff** — compares two runs ([`diff_runs`]) on what is deterministic
//!   across machines and thread counts: the stream set, each stream's
//!   point count, each model's final loss (within
//!   [`LOSS_TOL`](crate::record::LOSS_TOL)) and the sentinel events. Both
//!   sides are [`RunSummary`]s — a full report is reduced to one on load —
//!   so wall-clock fields never enter the comparison. Bench files and
//!   flight summaries diff through [`crate::record::diff_records`].

use hfta_telemetry::{ExperimentReport, SentinelEvent};

use crate::record::{DiffOutcome, ExpSummary, RunSummary, LOSS_TOL};
use crate::sweep::print_table;

fn fmt(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(x) if x.is_nan() => "nan".into(),
        Some(x) => format!("{x:.4}"),
    }
}

fn sentinel_summary(events: &[&SentinelEvent]) -> String {
    if events.is_empty() {
        return "-".into();
    }
    events
        .iter()
        .map(|e| {
            let q = if e.quarantined { " (quarantined)" } else { "" };
            format!("{}@{}{}", e.kind.label(), e.step, q)
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Renders the per-model health rows of one experiment (one row per model
/// appearing in any scalar stream).
pub fn health_rows(exp: &ExperimentReport) -> Vec<Vec<String>> {
    exp.scalar_models()
        .into_iter()
        .map(|m| {
            let stream = |metric: &str| exp.scalar_stream(m, metric);
            vec![
                m.to_string(),
                fmt(stream("loss").and_then(|s| s.last())),
                fmt(stream("loss").and_then(|s| s.min())),
                fmt(stream("grad_norm").and_then(|s| s.last())),
                fmt(stream("grad_norm").and_then(|s| s.max())),
                fmt(stream("param_norm").and_then(|s| s.last())),
                fmt(stream("update_ratio").and_then(|s| s.last())),
                sentinel_summary(&exp.sentinels_for(m)),
            ]
        })
        .collect()
}

/// Prints the health table for one experiment (skips experiments with no
/// scope data).
pub fn print_health(exp: &ExperimentReport) {
    let rows = health_rows(exp);
    if rows.is_empty() && exp.sentinels.is_empty() {
        return;
    }
    print_table(
        &format!("hfta-scope health: {}", exp.name),
        &[
            "model",
            "loss",
            "loss min",
            "grad norm",
            "grad max",
            "param norm",
            "update ratio",
            "sentinels",
        ],
        &rows,
    );
}

fn diff_experiment(base: &ExpSummary, cand: &ExpSummary, out: &mut DiffOutcome) {
    let name = &base.name;
    // Per-model scalar streams: structure (presence + step count) always
    // gates; the loss value gates within `LOSS_TOL`.
    for bs in base.streams() {
        let found = cand
            .streams()
            .find(|s| s.model == bs.model && s.metric == bs.metric);
        let Some(cs) = found else {
            out.regress(format!(
                "{name}: model {} lost its `{}` stream",
                bs.model, bs.metric
            ));
            continue;
        };
        if cs.points != bs.points {
            out.regress(format!(
                "{name}: model {} `{}` has {} points, expected {}",
                bs.model, bs.metric, cs.points, bs.points
            ));
            continue;
        }
        if let (Some(b), Some(c)) = (bs.final_loss, cs.final_loss) {
            let equal = (b.is_nan() && c.is_nan()) || (b - c).abs() <= LOSS_TOL;
            if !equal {
                out.regress(format!(
                    "{name}: model {} final loss {c:.6} differs from {b:.6} (tol {LOSS_TOL})",
                    bs.model
                ));
            } else {
                out.note(format!("{name}: model {} final loss {c:.6} ok", bs.model));
            }
        }
    }
    // Sentinels: any new fault in the candidate gates; a cleared fault is
    // an improvement worth noting.
    for e in &cand.sentinels {
        if !base.sentinels.contains(e) {
            out.regress(format!(
                "{name}: new sentinel {} on model {} at step {}",
                e.kind.label(),
                e.model,
                e.step
            ));
        }
    }
    for e in &base.sentinels {
        if !cand.sentinels.contains(e) {
            out.note(format!(
                "{name}: sentinel {} on model {} cleared",
                e.kind.label(),
                e.model
            ));
        }
    }
}

/// Diffs two run summaries experiment-by-experiment.
pub fn diff_runs(base: &RunSummary, cand: &RunSummary) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    for be in &base.experiments {
        match cand.experiments.iter().find(|e| e.name == be.name) {
            Some(ce) => diff_experiment(be, ce, &mut out),
            None => out.regress(format!("experiment `{}` missing from candidate", be.name)),
        }
    }
    for ce in &cand.experiments {
        if !base.experiments.iter().any(|e| e.name == ce.name) {
            out.note(format!("experiment `{}` only in candidate", ce.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::{kernels_file, mem_report, plan_file, serve_file};
    use crate::record::{diff_records, load, Doc, Loaded, Record, KERNELS};
    use hfta_telemetry::{RunReport, ScalarPoint, ScalarStream, SentinelKind};

    fn exp_with_losses(name: &str, losses: &[(u64, f64)]) -> ExperimentReport {
        ExperimentReport {
            name: name.into(),
            wall_ms: 1.0,
            steps: vec![],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            series: vec![],
            scalars: losses
                .iter()
                .map(|&(model, value)| ScalarStream {
                    run: name.into(),
                    model,
                    metric: "loss".into(),
                    points: vec![ScalarPoint { step: 0, value }],
                })
                .collect(),
            sentinels: vec![],
            ops: vec![],
            flight: vec![],
            trial_slo: vec![],
        }
    }

    fn run(exps: Vec<ExperimentReport>) -> RunReport {
        RunReport {
            name: "r".into(),
            wall_ms: 1.0,
            trace_events: 0,
            experiments: exps,
        }
    }

    fn diff_reports(base: &RunReport, cand: &RunReport) -> DiffOutcome {
        diff_runs(&RunSummary::of(base), &RunSummary::of(cand))
    }

    #[test]
    fn identical_reports_do_not_regress() {
        let a = run(vec![exp_with_losses("e", &[(0, 1.0), (1, 2.0)])]);
        let out = diff_reports(&a, &a.clone());
        assert!(!out.regressed(), "{:?}", out.regressions);
        assert_eq!(out.lines.len(), 2);
    }

    #[test]
    fn loss_drift_and_lost_streams_regress() {
        let a = run(vec![exp_with_losses("e", &[(0, 1.0), (1, 2.0)])]);
        let drift = run(vec![exp_with_losses("e", &[(0, 1.0), (1, 2.5)])]);
        assert!(diff_reports(&a, &drift).regressed());
        let lost = run(vec![exp_with_losses("e", &[(0, 1.0)])]);
        assert!(diff_reports(&a, &lost).regressed());
        let gone = run(vec![]);
        assert!(diff_reports(&a, &gone).regressed());
        // A stream that lost a point regresses even with the same final loss.
        let mut longer = a.clone();
        longer.experiments[0].scalars[0].points.insert(
            0,
            ScalarPoint {
                step: 0,
                value: 9.0,
            },
        );
        let out = diff_reports(&longer, &a);
        assert!(out.regressions[0].contains("has 1 points, expected 2"));
    }

    #[test]
    fn nan_losses_compare_equal_to_nan() {
        // The vendored JSON round-trips non-finite values through `null`,
        // so a poisoned model's NaN loss must diff clean against itself.
        let a = run(vec![exp_with_losses("e", &[(0, f64::NAN)])]);
        assert!(!diff_reports(&a, &a.clone()).regressed());
        let healthy = run(vec![exp_with_losses("e", &[(0, 1.0)])]);
        assert!(diff_reports(&a, &healthy).regressed());
    }

    #[test]
    fn new_sentinel_regresses_cleared_one_does_not() {
        let mut base = exp_with_losses("e", &[(0, 1.0)]);
        let mut cand = base.clone();
        cand.sentinels.push(hfta_telemetry::SentinelEvent {
            step: 1,
            model: 0,
            kind: SentinelKind::NonFiniteGrad,
            value: f64::NAN,
            quarantined: true,
        });
        let out = diff_reports(&run(vec![base.clone()]), &run(vec![cand.clone()]));
        assert!(out.regressed());
        // Swapped direction: the fault cleared — informational only.
        std::mem::swap(&mut base, &mut cand);
        let out = diff_reports(&run(vec![base]), &run(vec![cand]));
        assert!(!out.regressed());
        assert!(out.lines.iter().any(|l| l.contains("cleared")));
    }

    #[test]
    fn throughput_and_wall_time_never_enter_the_diff() {
        let mk = |eps: f64| {
            let mut e = exp_with_losses("e", &[(0, 1.0)]);
            e.wall_ms = 1e6 / eps;
            e.gauges.push(hfta_telemetry::CounterSample {
                name: "hfta4/throughput_eps".into(),
                value: eps,
            });
            run(vec![e])
        };
        let (base, slow) = (mk(1000.0), mk(100.0));
        assert_eq!(RunSummary::of(&base), RunSummary::of(&slow));
        assert!(!diff_reports(&base, &slow).regressed());
    }

    /// A full report, its summary, and the summary's JSON all diff alike:
    /// the committed goldens are summaries, candidates are full reports.
    #[test]
    fn summary_and_full_report_diffs_print_the_same_lines() {
        let mut exp = exp_with_losses("e", &[(0, 1.0), (1, f64::NAN)]);
        exp.sentinels.push(hfta_telemetry::SentinelEvent {
            step: 1,
            model: 1,
            kind: SentinelKind::NonFiniteLoss,
            value: f64::NAN,
            quarantined: true,
        });
        let base = run(vec![exp.clone()]);
        exp.scalars[0].points[0].value = 1.5;
        exp.sentinels.clear();
        let cand = run(vec![exp]);
        let load_run = |text: String| match load(&text).unwrap() {
            Loaded::Run(summary) => summary,
            Loaded::Records(d) => panic!("loaded as {}", d.kind()),
        };
        let full = |r: &RunReport| load_run(serde_json::to_string(r).unwrap());
        let summarized = |r: &RunReport| load_run(serde_json::to_string(&full(r)).unwrap());
        let a = diff_runs(&full(&base), &full(&cand));
        let b = diff_runs(&summarized(&base), &full(&cand));
        assert!(a.regressed());
        assert_eq!(
            (a.lines, a.regressions),
            (b.lines.clone(), b.regressions.clone())
        );
        let c = diff_runs(&full(&base), &summarized(&cand));
        assert_eq!((b.lines, b.regressions), (c.lines, c.regressions));
    }

    fn diff<T: Record>(base: &T, cand: &T) -> DiffOutcome {
        diff_records(&Doc::of(base), &Doc::of(cand)).unwrap()
    }

    #[test]
    fn bench_diff_gates_ten_percent_throughput_regressions() {
        let base = kernels_file(100.0, 2.0);
        // 12% gflops drop: over the 10% bound.
        let out = diff(&base, &kernels_file(88.0, 2.0));
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].starts_with("gemm/a/auto@4T gflops:"));
        // A 5% drop is within it.
        assert!(!diff(&base, &kernels_file(95.0, 2.0)).regressed());
        // The headline speedup gates too.
        let out = diff(&base, &kernels_file(100.0, 1.5));
        assert!(out.regressions[0].starts_with("fused_conv_speedup:"));
    }

    #[test]
    fn bench_diff_gates_scope_overhead_budget() {
        let base = kernels_file(100.0, 2.0);
        let mut cand = kernels_file(100.0, 2.0);
        cand.scope_overhead_pct = 7.5;
        let out = diff(&base, &cand);
        assert!(out.regressed());
        assert!(out.regressions[0].contains("scope_overhead_pct"));
        // The bound is absolute: a base already over it does not excuse it.
        assert!(diff(&cand, &cand).regressed());
    }

    #[test]
    fn bench_diff_gates_scaling_efficiency_only_when_both_report_it() {
        let base = kernels_file(100.0, 2.0);
        // A 20% efficiency drop gates at the 10% bound.
        let mut cand = kernels_file(100.0, 2.0);
        cand.scaling_efficiency[0].scaling_efficiency = 2.4;
        let out = diff(&base, &cand);
        assert!(out.regressed());
        assert!(out.regressions[0].contains("scaling:gemm/a"));
        // A 1-CPU candidate cannot measure scaling: skipped, not regressed.
        cand.scaling_efficiency.clear();
        let out = diff(&base, &cand);
        assert!(!out.regressed(), "{:?}", out.regressions);
    }

    #[test]
    fn mem_diff_gates_peak_growth_and_savings_drop() {
        let base = mem_report(300_000, 1.33, 0);
        // Identical: clean, with informational lines for both fields.
        let out = diff(&base, &mem_report(300_000, 1.33, 0));
        assert!(!out.regressed(), "{:?}", out.regressions);
        assert!(out.lines.iter().any(|l| l.contains("peak_bytes")));
        // 20% peak growth: over the 10% bound; 5% is within it.
        let out = diff(&base, &mem_report(360_000, 1.33, 0));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("mem:dcgan_d/B=4 peak_bytes"));
        assert!(!diff(&base, &mem_report(315_000, 1.33, 0)).regressed());
        // Savings ratio dropping 15% regresses; rising never does.
        let out = diff(&base, &mem_report(300_000, 1.13, 0));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("savings_ratio"));
        assert!(!diff(&base, &mem_report(300_000, 1.50, 0)).regressed());
    }

    #[test]
    fn mem_diff_fresh_allocs_gate_is_absolute() {
        let base = mem_report(300_000, 1.33, 0);
        let out = diff(&base, &mem_report(300_000, 1.33, 2));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("steady_fresh_allocs"));
    }

    #[test]
    fn mem_diff_flags_missing_records_and_skips_kernel_records() {
        let base = mem_report(300_000, 1.33, 0);
        let mut only_b1 = mem_report(300_000, 1.33, 0);
        only_b1.records.pop();
        let out = diff(&base, &only_b1);
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("mem:dcgan_d/B=4") && r.contains("missing")));
        // A kernel bench diff says nothing about memory.
        let kernels = kernels_file(100.0, 2.0);
        let out = diff(&kernels, &kernels);
        assert!(!out.regressed(), "{:?}", out.regressions);
        assert!(!out.lines.iter().any(|l| l.contains("mem:")));
    }

    #[test]
    fn serve_diff_gates_queue_latency_growth_and_occupancy_drop() {
        let base = serve_file(500.0, 2000.0, 0.60);
        // Identical: clean, with informational lines for all three gauges.
        let out = diff(&base, &serve_file(500.0, 2000.0, 0.60));
        assert!(!out.regressed(), "{:?}", out.regressions);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("serve:fair-share queue_wait_p99_us")));
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("serve:static occupancy")));
        // 25% p99 growth: over the 10% bound; 5% is within it.
        let out = diff(&base, &serve_file(500.0, 2500.0, 0.60));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("queue_wait_p99_us"));
        assert!(!diff(&base, &serve_file(500.0, 2100.0, 0.60)).regressed());
        // p50 gates too.
        let out = diff(&base, &serve_file(600.0, 2000.0, 0.60));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("queue_wait_p50_us"));
        // Occupancy dropping 20% regresses; improving latency never does.
        let out = diff(&base, &serve_file(500.0, 2000.0, 0.48));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("occupancy"));
        assert!(!diff(&base, &serve_file(300.0, 1000.0, 0.80)).regressed());
    }

    #[test]
    fn serve_diff_flags_missing_policy_and_skips_other_records() {
        let base = serve_file(500.0, 2000.0, 0.60);
        let mut static_only = serve_file(500.0, 2000.0, 0.60);
        static_only.records.pop();
        let out = diff(&base, &static_only);
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("serve:fair-share") && r.contains("missing")));
        // A memory bench diff says nothing about serving.
        let mem = mem_report(300_000, 1.33, 0);
        let out = diff(&mem, &mem);
        assert!(!out.lines.iter().any(|l| l.contains("serve:")));
    }

    #[test]
    fn plan_diff_gates_sim_step_growth_and_speedup_drop() {
        let base = plan_file(12417.7, 2.79, 0.824, true);
        // Identical: clean, with informational lines for every gauge.
        let out = diff(&base, &plan_file(12417.7, 2.79, 0.824, true));
        assert!(!out.regressed(), "{:?}", out.regressions);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("plan:partial-fusion sim_step_us")));
        assert!(out.lines.iter().any(|l| l.contains("fused_fraction")));
        // 20% simulated-step growth: over the 10% bound; 5% is within it.
        let out = diff(&base, &plan_file(14901.2, 2.79, 0.824, true));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("sim_step_us"));
        assert!(!diff(&base, &plan_file(13038.6, 2.79, 0.824, true)).regressed());
        // Speedup dropping 15% regresses; a faster plan never does.
        let out = diff(&base, &plan_file(12417.7, 2.37, 0.824, true));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("partial_fusion_speedup"));
        assert!(!diff(&base, &plan_file(11000.0, 3.10, 0.824, true)).regressed());
    }

    #[test]
    fn plan_diff_fused_fraction_and_bit_identity_gates_are_absolute() {
        let base = plan_file(12417.7, 2.79, 0.824, true);
        // Any fused-fraction shrink regresses, however small.
        let out = diff(&base, &plan_file(12417.7, 2.79, 0.823, true));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("fused_fraction"));
        // Growing is fine.
        assert!(!diff(&base, &plan_file(12417.7, 2.79, 0.900, true)).regressed());
        // A candidate that lost bit-identity always regresses.
        let out = diff(&base, &plan_file(12417.7, 2.79, 0.824, false));
        assert!(out.regressed());
        assert!(out.regressions[0].contains("bit_identical"));
    }

    #[test]
    fn plan_diff_flags_missing_plan_and_skips_other_records() {
        let base = plan_file(12417.7, 2.79, 0.824, true);
        let mut serial_only = plan_file(12417.7, 2.79, 0.824, true);
        serial_only.records.pop();
        let out = diff(&base, &serial_only);
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("plan:partial-fusion") && r.contains("missing")));
        // A serve bench diff says nothing about plans.
        let serve = serve_file(500.0, 2000.0, 0.60);
        let out = diff(&serve, &serve);
        assert!(!out.lines.iter().any(|l| l.contains("plan:")));
    }

    #[test]
    fn load_report_detects_both_kinds() {
        let bench = serde_json::to_string(&kernels_file(100.0, 2.0)).unwrap();
        assert!(matches!(load(&bench), Ok(Loaded::Records(d)) if d.kind() == KERNELS.name));
        let run_json = serde_json::to_string(&run(vec![])).unwrap();
        assert!(matches!(load(&run_json), Ok(Loaded::Run(_))));
    }
}
