//! Rendering for `hfta_report roofline`: roofline attribution tables,
//! per-lane utilization, and the Fig-8-style per-device utilization
//! timeline, all computed from the `*.report.json` files a `--trace` run
//! leaves behind.
//!
//! The roofline side leans entirely on `hfta-probe`: op aggregates come
//! from [`ExperimentReport::ops`], peaks from `hfta_probe::calibrate`, and
//! this module only formats the result. The
//! timeline side re-samples the recorded utilization counter series
//! (`sched/<device>/util`, `<label>/smi_util`) onto a fixed-width ASCII
//! strip so a terminal shows what Perfetto would plot.

use std::path::{Path, PathBuf};

use hfta_probe::{classify_experiment, per_lane_utilization, PeakEntry};
use hfta_telemetry::{CounterSeries, ExperimentReport, RunReport};

/// Loads every `*.report.json` under `dir`, sorted by file name.
///
/// # Errors
///
/// Fails when the directory is unreadable, holds no report file, or one
/// does not parse.
pub fn collect_run_reports(dir: &Path) -> Result<Vec<(PathBuf, RunReport)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".report.json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.report.json files in {}", dir.display()));
    }
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let run: RunReport =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, run));
    }
    Ok(out)
}

/// Prints the per-op roofline table for one experiment; returns `false`
/// (and prints nothing) when the experiment recorded no op samples.
pub fn print_roofline(exp: &ExperimentReport, peak: &PeakEntry) -> bool {
    let rows = classify_experiment(exp, peak);
    if rows.is_empty() {
        return false;
    }
    println!(
        "  roofline @ {} threads: peak {:.1} GFLOP/s, {:.1} GB/s, ridge {:.2} FLOPs/B",
        peak.threads,
        peak.gflops,
        peak.stream_gbps,
        peak.ridge()
    );
    println!(
        "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>7}  bound",
        "op", "calls", "FLOPs/B", "GFLOP/s", "ceiling", "%peak"
    );
    for r in &rows {
        println!(
            "  {:<24} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>6.1}%  {}",
            r.name,
            r.calls,
            r.intensity,
            r.attained_gflops,
            r.attainable_gflops,
            r.pct_of_peak,
            r.bound.name()
        );
    }
    true
}

/// Prints the per-lane attribution table (one row per fused model lane).
pub fn print_lanes(exp: &ExperimentReport) {
    let lanes = per_lane_utilization(exp);
    if lanes.iter().all(|l| l.flops == 0.0) {
        return;
    }
    println!(
        "  {:<6} {:>14} {:>14} {:>10}",
        "lane", "GFLOPs", "GB moved", "GFLOP/s"
    );
    for l in &lanes {
        println!(
            "  {:<6} {:>14.3} {:>14.3} {:>10.2}",
            l.model,
            l.flops / 1e9,
            l.bytes / 1e9,
            l.gflops
        );
    }
}

/// The utilization counter series worth a timeline strip: the scheduler's
/// per-device `sched/<name>/util` and the simulated `…/smi_util` streams.
pub fn utilization_series(exp: &ExperimentReport) -> Vec<&CounterSeries> {
    exp.series
        .iter()
        .filter(|s| s.name.ends_with("/util") || s.name.ends_with("smi_util"))
        .collect()
}

/// Character ramp for one timeline cell, dimmest to brightest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Re-samples a counter series onto `cols` equal time buckets with
/// carry-forward semantics (a counter holds its value until the next
/// sample) and renders one ASCII strip, normalized to the series maximum.
pub fn render_timeline(series: &CounterSeries, cols: usize) -> String {
    let pts = &series.points;
    if pts.is_empty() || cols == 0 {
        return String::new();
    }
    let t0 = pts.first().map(|p| p.t_us).unwrap_or(0.0);
    let t1 = pts.last().map(|p| p.t_us).unwrap_or(0.0);
    let peak = pts.iter().map(|p| p.value).fold(0.0f64, f64::max);
    let mut out = String::with_capacity(cols);
    for i in 0..cols {
        let t = if t1 > t0 {
            t0 + (i as f64 + 0.5) / cols as f64 * (t1 - t0)
        } else {
            t0
        };
        let value = pts
            .iter()
            .take_while(|p| p.t_us <= t)
            .last()
            .map(|p| p.value)
            .unwrap_or(0.0);
        let level = if peak > 0.0 {
            ((value / peak) * (RAMP.len() - 1) as f64).round() as usize
        } else {
            0
        };
        out.push(RAMP[level.min(RAMP.len() - 1)] as char);
    }
    out
}

/// Prints one timeline strip per utilization series in the experiment
/// (the paper's Fig-8 view: who was busy when, device by device).
pub fn print_timelines(exp: &ExperimentReport, cols: usize) {
    let series = utilization_series(exp);
    if series.is_empty() {
        return;
    }
    println!("  utilization timeline (left = run start, @ = series peak):");
    let width = series.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in series {
        let peak = s.points.iter().map(|p| p.value).fold(0.0f64, f64::max);
        println!(
            "  {:<width$} |{}| peak {:.2}",
            s.name,
            render_timeline(s, cols),
            peak,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_telemetry::SeriesPoint;

    fn series(name: &str, pts: &[(f64, f64)]) -> CounterSeries {
        CounterSeries {
            name: name.into(),
            points: pts
                .iter()
                .map(|&(t_us, value)| SeriesPoint { t_us, value })
                .collect(),
        }
    }

    #[test]
    fn timeline_carries_counter_values_forward() {
        // 0..50 µs at 1.0, 50..100 µs at 0.0: half bright, half dark.
        let s = series(
            "sched/V100#0/util",
            &[(0.0, 1.0), (50.0, 0.0), (100.0, 0.0)],
        );
        let strip = render_timeline(&s, 8);
        assert_eq!(strip.len(), 8);
        assert_eq!(&strip[..4], "@@@@");
        assert_eq!(&strip[4..], "    ");
    }

    #[test]
    fn timeline_normalizes_to_series_peak() {
        let s = series("x/util", &[(0.0, 2.0), (5.0, 4.0), (10.0, 4.0)]);
        let strip = render_timeline(&s, 2);
        // 2.0 is half of the 4.0 peak → mid-ramp, 4.0 → brightest.
        assert_eq!(strip.as_bytes()[1], b'@');
        assert!(strip.as_bytes()[0] != b'@' && strip.as_bytes()[0] != b' ');
    }

    #[test]
    fn empty_and_degenerate_series_render_safely() {
        assert_eq!(render_timeline(&series("e", &[]), 10), "");
        let flat = render_timeline(&series("f", &[(5.0, 0.7)]), 4);
        assert_eq!(flat, "@@@@");
    }

    #[test]
    fn utilization_series_filters_by_suffix() {
        let mut exp = ExperimentReport {
            name: "t".into(),
            wall_ms: 1.0,
            steps: vec![],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            series: vec![
                series("sched/V100#0/util", &[(0.0, 1.0)]),
                series("v100/hfta8/smi_util", &[(0.0, 50.0)]),
                series("loss/model0", &[(0.0, 2.0)]),
            ],
            scalars: vec![],
            sentinels: vec![],
            ops: vec![],
            flight: vec![],
            trial_slo: vec![],
        };
        let names: Vec<&str> = utilization_series(&exp)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["sched/V100#0/util", "v100/hfta8/smi_util"]);
        exp.series.clear();
        assert!(utilization_series(&exp).is_empty());
    }
}
