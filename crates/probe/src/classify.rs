//! Roofline classification of op samples and lane/device attribution.
//!
//! Every instrumented op closes into an `OpSample {flops, bytes, ns}`
//! aggregate ([`OpAgg`]); against a calibrated [`PeakEntry`] that is enough
//! to place the op on the roofline: arithmetic intensity below the ridge
//! point makes it bandwidth-bound (attainable = intensity × stream peak),
//! above it compute-bound (attainable = GEMM peak). `pct_of_peak` is the
//! fraction of *attainable* — not absolute — throughput, so a
//! bandwidth-bound op at 90% is healthy even when its GFLOP/s look tiny.

use hfta_telemetry::{ExperimentReport, OpAgg};
use serde::{Deserialize, Serialize};

use crate::roofline::PeakEntry;

/// Which roofline slope an op sits under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundKind {
    /// Arithmetic intensity above the ridge: limited by FLOP throughput.
    Compute,
    /// Intensity below the ridge: limited by memory bandwidth.
    Bandwidth,
}

impl BoundKind {
    /// Stable display name (`compute` / `bandwidth`).
    pub fn name(&self) -> &'static str {
        match self {
            BoundKind::Compute => "compute",
            BoundKind::Bandwidth => "bandwidth",
        }
    }
}

/// One op kind placed on the roofline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRoofline {
    /// Op name.
    pub name: String,
    /// Number of dispatches aggregated.
    pub calls: u64,
    /// Arithmetic intensity in FLOPs/byte.
    pub intensity: f64,
    /// Measured GFLOP/s over the op's recorded wall time.
    pub attained_gflops: f64,
    /// Roofline ceiling for this intensity, GFLOP/s.
    pub attainable_gflops: f64,
    /// `attained / attainable`, percent (0 when unattainable).
    pub pct_of_peak: f64,
    /// Which slope limits the op.
    pub bound: BoundKind,
}

/// Places one op aggregate on the roofline defined by `peak`.
pub fn classify(op: &OpAgg, peak: &PeakEntry) -> OpRoofline {
    let intensity = op.intensity();
    let (bound, attainable) = if op.bytes > 0.0 && intensity < peak.ridge() {
        (BoundKind::Bandwidth, intensity * peak.stream_gbps)
    } else {
        (BoundKind::Compute, peak.gflops)
    };
    let attained = op.attained_gflops();
    let pct = if attainable > 0.0 {
        100.0 * attained / attainable
    } else {
        0.0
    };
    OpRoofline {
        name: op.name.clone(),
        calls: op.calls,
        intensity,
        attained_gflops: attained,
        attainable_gflops: attainable,
        pct_of_peak: pct,
        bound,
    }
}

/// Classifies every op recorded in an experiment, ordered by descending
/// total FLOPs (the biggest consumers first).
pub fn classify_experiment(exp: &ExperimentReport, peak: &PeakEntry) -> Vec<OpRoofline> {
    let mut ops: Vec<&OpAgg> = exp.ops.iter().collect();
    ops.sort_by(|a, b| b.flops.total_cmp(&a.flops));
    ops.into_iter().map(|o| classify(o, peak)).collect()
}

/// One fused lane's share of an experiment's recorded op work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneUtil {
    /// Model index within the fused array (`0..B`).
    pub model: u64,
    /// FLOPs attributed to this lane.
    pub flops: f64,
    /// Bytes attributed to this lane.
    pub bytes: f64,
    /// This lane's GFLOP/s over the experiment wall time.
    pub gflops: f64,
}

/// Splits an experiment's total recorded op work across its fused lanes
/// (width from the step metrics, 1 when untracked), reusing the exact
/// even-split attribution from `hfta-sim`: every lane of a fused operator
/// does identical-shape work, so an even split *is* the attribution.
pub fn per_lane_utilization(exp: &ExperimentReport) -> Vec<LaneUtil> {
    let b = exp.fused_width().max(1) as usize;
    let total_flops: f64 = exp.ops.iter().map(|o| o.flops).sum();
    let total_bytes: f64 = exp.ops.iter().map(|o| o.bytes).sum();
    let wall_ns = exp.wall_ms * 1e6;
    let flops = hfta_sim::attribution::split_even(total_flops as u64, b);
    let bytes = hfta_sim::attribution::split_even(total_bytes as u64, b);
    flops
        .into_iter()
        .zip(bytes)
        .enumerate()
        .map(|(i, (f, by))| LaneUtil {
            model: i as u64,
            flops: f as f64,
            bytes: by as f64,
            gflops: if wall_ns > 0.0 {
                f as f64 / wall_ns
            } else {
                0.0
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_telemetry::StepMetric;

    fn peak() -> PeakEntry {
        // Ridge = 20/10 = 2 FLOPs/byte.
        PeakEntry {
            threads: 1,
            gflops: 20.0,
            stream_gbps: 10.0,
        }
    }

    fn agg(name: &str, flops: f64, bytes: f64, ns: f64) -> OpAgg {
        OpAgg {
            name: name.into(),
            calls: 1,
            flops,
            bytes,
            ns,
        }
    }

    #[test]
    fn intensity_below_ridge_is_bandwidth_bound() {
        // 1 FLOP/byte < ridge 2: attainable = 1 × 10 GB/s = 10 GFLOP/s.
        let op = agg("axpy", 1e9, 1e9, 2e8);
        let r = classify(&op, &peak());
        assert_eq!(r.bound, BoundKind::Bandwidth);
        assert_eq!(r.bound.name(), "bandwidth");
        assert!((r.attainable_gflops - 10.0).abs() < 1e-12);
        // Attained 1e9/2e8 = 5 GFLOP/s → 50% of attainable.
        assert!((r.pct_of_peak - 50.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_above_ridge_is_compute_bound() {
        // 10 FLOPs/byte > ridge 2: attainable = full 20 GFLOP/s.
        let op = agg("gemm", 1e10, 1e9, 1e9);
        let r = classify(&op, &peak());
        assert_eq!(r.bound, BoundKind::Compute);
        assert!((r.attainable_gflops - 20.0).abs() < 1e-12);
        // Attained 10 GFLOP/s → 50% of peak.
        assert!((r.pct_of_peak - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_ops_fall_back_to_compute_bound() {
        let op = agg("mystery", 1e9, 0.0, 1e9);
        let r = classify(&op, &peak());
        assert_eq!(r.bound, BoundKind::Compute);
        assert!(r.pct_of_peak > 0.0);
    }

    fn exp_with(ops: Vec<OpAgg>, width: u64, wall_ms: f64) -> ExperimentReport {
        ExperimentReport {
            name: "t".into(),
            wall_ms,
            steps: vec![StepMetric {
                step: 0,
                model: 0,
                loss: 0.0,
                samples_per_s: 0.0,
                fused_width: width,
            }],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            series: vec![],
            scalars: vec![],
            sentinels: vec![],
            flight: vec![],
            ops,
        }
    }

    #[test]
    fn experiment_classification_orders_by_flops() {
        let exp = exp_with(
            vec![agg("small", 1e6, 1e6, 1e6), agg("large", 1e9, 1e8, 1e8)],
            1,
            1.0,
        );
        let rows = classify_experiment(&exp, &peak());
        assert_eq!(rows[0].name, "large");
        assert_eq!(rows[1].name, "small");
    }

    #[test]
    fn lane_split_conserves_totals() {
        let exp = exp_with(vec![agg("gemm", 1e9 + 1.0, 4e8, 1e8)], 4, 1.0);
        let lanes = per_lane_utilization(&exp);
        assert_eq!(lanes.len(), 4);
        let total: f64 = lanes.iter().map(|l| l.flops).sum();
        assert_eq!(total, (1e9 + 1.0_f64).trunc());
        // Remainder lands on the lower lane indices.
        assert!(lanes[0].flops >= lanes[3].flops);
        assert!(lanes.iter().all(|l| l.gflops > 0.0));
    }
}
