//! Serializable run reports: what a bench bin writes next to its trace.
//!
//! A [`RunReport`] covers one process run; it holds one
//! [`ExperimentReport`] per experiment scope (a figure, a table, or a whole
//! bin) with wall time, per-step training metrics, final counter/gauge
//! totals, histogram summaries, and counter time-series (e.g. the simulated
//! `nvidia-smi` utilization the paper plots in Figure 11).

use crate::flight::FlightEvent;
use crate::metrics::{CounterSample, HistogramSummary};
use crate::scope::{ScalarStream, SentinelEvent};
use serde::{Deserialize, Serialize};

/// One point of a counter time-series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Sample time in microseconds (simulated or wall, per series).
    pub t_us: f64,
    /// Sampled value.
    pub value: f64,
}

/// A named counter time-series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSeries {
    /// Series name (e.g. `v100/hfta8/smi_util`).
    pub name: String,
    /// Samples in emission order.
    pub points: Vec<SeriesPoint>,
}

/// Per-training-step metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepMetric {
    /// Step index (0-based).
    pub step: u64,
    /// Model index within the fused array (0 for serial runs).
    pub model: u64,
    /// Training loss at this step.
    pub loss: f64,
    /// Throughput in samples per second (0 when not measured).
    pub samples_per_s: f64,
    /// Fused array width B (1 for serial runs).
    pub fused_width: u64,
}

/// Aggregated cost of every dispatch of one op kind inside an experiment
/// scope: the raw material for roofline classification in `hfta-probe`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpAgg {
    /// Op name as recorded by the span (e.g. `matmul`, `conv2d`).
    pub name: String,
    /// Number of dispatches.
    pub calls: u64,
    /// Total floating point operations across all dispatches.
    pub flops: f64,
    /// Total bytes moved (reads + writes) across all dispatches.
    pub bytes: f64,
    /// Total wall time across all dispatches, nanoseconds.
    pub ns: f64,
}

impl OpAgg {
    /// Arithmetic intensity in FLOPs per byte (0 when no bytes recorded).
    pub fn intensity(&self) -> f64 {
        if self.bytes > 0.0 {
            self.flops / self.bytes
        } else {
            0.0
        }
    }

    /// Attained GFLOP/s over the recorded wall time (0 when no time).
    pub fn attained_gflops(&self) -> f64 {
        if self.ns > 0.0 {
            self.flops / self.ns
        } else {
            0.0
        }
    }
}

/// Everything recorded inside one experiment scope.
///
/// `Deserialize` is hand-written because the vendored derive has no
/// `#[serde(default)]`: a report written before op samples or flight
/// tracing existed lacks the `ops` / `flight` key and must keep parsing.
/// (The committed CI goldens are not such files: they are `hfta-bench`'s
/// run summaries, which `record::load` parses on its own.)
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentReport {
    /// Experiment name (e.g. `fig3`, `table1`).
    pub name: String,
    /// Wall time spent inside the scope, milliseconds.
    pub wall_ms: f64,
    /// Per-step training metrics.
    pub steps: Vec<StepMetric>,
    /// Final counter totals.
    pub counters: Vec<CounterSample>,
    /// Final gauge values.
    pub gauges: Vec<CounterSample>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSummary>,
    /// Counter time-series.
    pub series: Vec<CounterSeries>,
    /// Per-model scalar streams (hfta-scope).
    pub scalars: Vec<ScalarStream>,
    /// Divergence sentinel events (hfta-scope).
    pub sentinels: Vec<SentinelEvent>,
    /// Per-op-kind aggregated cost samples (hfta-probe). Empty for reports
    /// written before op sampling existed.
    pub ops: Vec<OpAgg>,
    /// Trial-lifecycle journal (hfta-flight), every event the scope
    /// recorded; per-trial SLOs are derived from it. Empty for reports
    /// written before flight tracing existed.
    pub flight: Vec<FlightEvent>,
}

impl Deserialize for ExperimentReport {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ExperimentReport {
            name: Deserialize::deserialize(serde::field(v, "name")?)?,
            wall_ms: Deserialize::deserialize(serde::field(v, "wall_ms")?)?,
            steps: Deserialize::deserialize(serde::field(v, "steps")?)?,
            counters: Deserialize::deserialize(serde::field(v, "counters")?)?,
            gauges: Deserialize::deserialize(serde::field(v, "gauges")?)?,
            histograms: Deserialize::deserialize(serde::field(v, "histograms")?)?,
            series: Deserialize::deserialize(serde::field(v, "series")?)?,
            scalars: Deserialize::deserialize(serde::field(v, "scalars")?)?,
            sentinels: Deserialize::deserialize(serde::field(v, "sentinels")?)?,
            ops: match v.get("ops") {
                Some(o) => Deserialize::deserialize(o)?,
                None => Vec::new(),
            },
            flight: match v.get("flight") {
                Some(f) => Deserialize::deserialize(f)?,
                None => Vec::new(),
            },
        })
    }
}

/// Top-level report for one run of a bench bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Run name (usually the bin name).
    pub name: String,
    /// Total wall time from profiler creation to report, milliseconds.
    pub wall_ms: f64,
    /// Number of trace events recorded alongside this report.
    pub trace_events: u64,
    /// One entry per experiment scope, in execution order.
    pub experiments: Vec<ExperimentReport>,
}

impl RunReport {
    /// Finds an experiment by name.
    pub fn experiment(&self, name: &str) -> Option<&ExperimentReport> {
        self.experiments.iter().find(|e| e.name == name)
    }
}

impl ExperimentReport {
    /// Finds a counter time-series by name.
    pub fn series(&self, name: &str) -> Option<&CounterSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Finds the scalar stream for `(model, metric)`.
    pub fn scalar_stream(&self, model: u64, metric: &str) -> Option<&ScalarStream> {
        self.scalars
            .iter()
            .find(|s| s.model == model && s.metric == metric)
    }

    /// Model indices that appear in any scalar stream, ascending and
    /// deduplicated.
    pub fn scalar_models(&self) -> Vec<u64> {
        let mut models: Vec<u64> = self.scalars.iter().map(|s| s.model).collect();
        models.sort_unstable();
        models.dedup();
        models
    }

    /// Sentinel events attributed to `model`.
    pub fn sentinels_for(&self, model: u64) -> Vec<&SentinelEvent> {
        self.sentinels.iter().filter(|e| e.model == model).collect()
    }

    /// Finds an op aggregate by name.
    pub fn op(&self, name: &str) -> Option<&OpAgg> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// The widest fused array seen in any step metric (1 when untracked).
    pub fn fused_width(&self) -> u64 {
        self.steps.iter().map(|s| s.fused_width).max().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = RunReport {
            name: "fig11".into(),
            wall_ms: 12.5,
            trace_events: 3,
            experiments: vec![ExperimentReport {
                name: "fig11".into(),
                wall_ms: 12.0,
                steps: vec![StepMetric {
                    step: 0,
                    model: 1,
                    loss: 2.25,
                    samples_per_s: 1000.0,
                    fused_width: 8,
                }],
                counters: vec![CounterSample {
                    name: "sim.kernels".into(),
                    value: 42.0,
                }],
                gauges: vec![],
                histograms: vec![],
                series: vec![CounterSeries {
                    name: "v100/hfta8/smi_util".into(),
                    points: vec![SeriesPoint {
                        t_us: 1.0,
                        value: 0.98,
                    }],
                }],
                scalars: vec![crate::scope::ScalarStream {
                    run: "fig11".into(),
                    model: 1,
                    metric: "loss".into(),
                    points: vec![crate::scope::ScalarPoint {
                        step: 0,
                        value: 2.25,
                    }],
                }],
                sentinels: vec![crate::scope::SentinelEvent {
                    step: 0,
                    model: 1,
                    kind: crate::scope::SentinelKind::GradExplosion,
                    value: 1e9,
                    quarantined: false,
                }],
                ops: vec![OpAgg {
                    name: "matmul".into(),
                    calls: 4,
                    flops: 8e9,
                    bytes: 2e8,
                    ns: 1e9,
                }],
                flight: vec![crate::flight::FlightEvent {
                    trial: 7,
                    seq: 0,
                    t_ns: 1_000,
                    kind: crate::flight::FlightKind::Submit,
                    device: None,
                    array: Some(2),
                    lane: Some(0),
                    detail: "rung 0".into(),
                }],
            }],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let exp = back.experiment("fig11").unwrap();
        assert!(exp.series("v100/hfta8/smi_util").is_some());
        assert_eq!(exp.scalar_models(), vec![1]);
        assert_eq!(exp.scalar_stream(1, "loss").unwrap().last(), Some(2.25));
        assert_eq!(exp.sentinels_for(1).len(), 1);
        assert!(exp.sentinels_for(0).is_empty());
        let op = exp.op("matmul").unwrap();
        assert_eq!(op.intensity(), 40.0);
        assert_eq!(op.attained_gflops(), 8.0);
    }

    #[test]
    fn reports_without_ops_field_still_parse() {
        // Reports written before op sampling existed (e.g. the committed CI
        // goldens) lack the `ops` key entirely.
        let json = r#"{
            "name": "old", "wall_ms": 1.0, "trace_events": 0,
            "experiments": [{
                "name": "old", "wall_ms": 1.0, "steps": [],
                "counters": [], "gauges": [], "histograms": [],
                "series": [], "scalars": [], "sentinels": []
            }]
        }"#;
        let back: RunReport = serde_json::from_str(json).unwrap();
        assert!(back.experiments[0].ops.is_empty());
        assert!(back.experiments[0].flight.is_empty());
    }
}
