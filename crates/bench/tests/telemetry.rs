//! Integration tests for the `--trace` telemetry pipeline: runs the real
//! binaries and validates the emitted Chrome trace (well-formed JSON,
//! monotone timestamps, balanced begin/end per lane) and the serialized
//! [`RunReport`] (round-trips losslessly, covers every experiment).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use hfta_telemetry::RunReport;
use serde::Value;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfta-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("expected number, found {}", other.kind()),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, found {}", other.kind()),
    }
}

/// Chrome-trace well-formedness: top-level `traceEvents` array, metadata
/// events lead, timestamps are monotone non-decreasing, and every lane's
/// begin/end events balance with matching names (proper nesting).
fn validate_trace(path: &Path) -> usize {
    let raw = std::fs::read_to_string(path).expect("read trace");
    let parsed: Value = serde_json::from_str(&raw).expect("trace is valid JSON");
    let Some(Value::Array(events)) = parsed.get("traceEvents") else {
        panic!("trace must have a traceEvents array");
    };
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut seen_non_meta = false;
    for e in events {
        let ph = text(e.get("ph").expect("ph"));
        if ph == "M" {
            assert!(!seen_non_meta, "metadata events must precede span events");
            continue;
        }
        seen_non_meta = true;
        let ts = num(e.get("ts").expect("ts"));
        assert!(
            ts >= last_ts,
            "timestamps must be monotone: {ts} after {last_ts}"
        );
        last_ts = ts;
        let lane = (
            num(e.get("pid").expect("pid")) as u64,
            num(e.get("tid").expect("tid")) as u64,
        );
        let name = text(e.get("name").expect("name")).to_string();
        match ph {
            "B" => stacks.entry(lane).or_default().push(name),
            "E" => {
                let open = stacks
                    .get_mut(&lane)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("end without begin on lane {lane:?}"));
                assert_eq!(open, name, "mismatched begin/end nesting on {lane:?}");
            }
            "C" => {
                let args = e.get("args").expect("counter args");
                num(args.get("value").expect("counter value"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (lane, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "unclosed spans on lane {lane:?}: {stack:?}"
        );
    }
    events.len()
}

/// RunReport JSON must deserialize and survive a serialize/deserialize
/// round trip bit-for-bit.
fn validate_report(path: &Path) -> RunReport {
    let raw = std::fs::read_to_string(path).expect("read report");
    let report: RunReport = serde_json::from_str(&raw).expect("report deserializes");
    let rendered = serde_json::to_string(&report).expect("report re-serializes");
    let again: RunReport = serde_json::from_str(&rendered).expect("round trip");
    assert_eq!(report, again, "RunReport must round-trip losslessly");
    report
}

#[test]
fn repro_all_trace_covers_every_experiment() {
    let dir = temp_dir("repro-all");
    let status = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--trace", "."])
        .current_dir(&dir)
        .output()
        .expect("spawn repro_all");
    assert!(
        status.status.success(),
        "repro_all failed:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );
    assert!(dir.join("EXPERIMENTS.md").exists());

    let events = validate_trace(&dir.join("repro_all.trace.json"));
    assert!(events > 100, "expected a dense trace, got {events} events");

    let report = validate_report(&dir.join("repro_all.report.json"));
    assert_eq!(report.name, "repro_all");
    for name in [
        "table1",
        "fig3",
        "table5_fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8_11_12",
        "table10",
    ] {
        let exp = report
            .experiment(name)
            .unwrap_or_else(|| panic!("report must cover experiment {name}"));
        assert!(exp.wall_ms >= 0.0);
    }
    // Figure 3 training runs feed per-step loss metrics.
    let fig3 = report.experiment("fig3").unwrap();
    assert!(!fig3.steps.is_empty(), "fig3 must record step metrics");
    assert!(fig3.steps.iter().any(|s| s.fused_width > 1));
    // Figures 8/11/12: the simulated DCGM counter time-series, including
    // the nvidia-smi utilization series of Figure 11.
    let fig8 = report.experiment("fig8_11_12").unwrap();
    for series in ["hfta8/smi_util", "hfta8/sm_active", "serial/smi_util"] {
        let s = fig8
            .series(series)
            .unwrap_or_else(|| panic!("missing counter series {series}"));
        assert!(!s.points.is_empty());
        assert!(s.points.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig3_without_trace_flag_writes_nothing() {
    let dir = temp_dir("fig3-plain");
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("fig3")
        .current_dir(&dir)
        .output()
        .expect("spawn repro_all fig3");
    assert!(out.status.success());
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftovers.is_empty(), "no flag must mean no files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig3_trace_records_autograd_spans() {
    let dir = temp_dir("fig3-traced");
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["fig3".to_string(), format!("--trace={}", dir.display())])
        .current_dir(&dir)
        .output()
        .expect("spawn repro_all fig3");
    assert!(
        out.status.success(),
        "repro_all fig3 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    validate_trace(&dir.join("repro_all.trace.json"));
    let raw = std::fs::read_to_string(dir.join("repro_all.trace.json")).unwrap();
    for needle in ["conv2d", "bwd:conv2d", "\"flops\""] {
        assert!(raw.contains(needle), "trace must contain {needle}");
    }
    let report = validate_report(&dir.join("repro_all.report.json"));
    let fig3 = report.experiment("fig3").expect("a fig3 scope");
    assert!(!fig3.steps.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mistyped flag used to be ignored (`table7 --tarce d` exited 0 and
/// wrote no trace); now it and an unknown section id are usage errors that
/// list the valid ids.
#[test]
fn repro_all_rejects_unknown_flags_and_section_ids() {
    let dir = temp_dir("repro-all-bad-args");
    for args in [
        &["table7", "--tarce", "x", "--bogus"][..],
        &["--bogus"][..],
        &["fig99"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro_all");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a section");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("ids:") && stderr.contains("table7"),
            "{stderr}"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftovers.is_empty(), "a usage error must write nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
