//! Shared sweep machinery for the figure/table harnesses: runs every
//! sharing policy across model counts on a device and collects the
//! normalized curves the paper plots.

use hfta_models::Workload;
use hfta_sim::{DeviceSpec, GpuSim, SharingPolicy, SimResult};
use serde::{Deserialize, Serialize};

/// Cap on the number of co-located models probed per curve.
pub const MAX_MODELS: usize = 40;

/// One point of a Figure-4-style curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Number of models sharing the device.
    pub models: usize,
    /// Throughput normalized by the FP32 serial baseline.
    pub normalized: f64,
    /// Raw simulation result.
    pub result: SimResult,
}

/// One policy's curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Curve {
    /// The sharing policy.
    pub policy: SharingPolicy,
    /// Whether AMP was enabled.
    pub amp: bool,
    /// Curve points, increasing model count, up to the memory limit.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// Highest normalized throughput on the curve.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.normalized).fold(0.0, f64::max)
    }

    /// Largest model count that fit.
    pub fn max_models(&self) -> usize {
        self.points.iter().map(|p| p.models).max().unwrap_or(0)
    }

    /// Normalized throughput at exactly `models`, if that point exists.
    pub fn at(&self, models: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.models == models)
            .map(|p| p.normalized)
    }
}

/// All curves of one workload on one device (one Figure 4 panel,
/// both precisions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Panel {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// FP32 serial throughput (the normalization basis), examples/s.
    pub serial_fp32_eps: f64,
    /// Curves for every applicable policy and precision.
    pub curves: Vec<Curve>,
}

impl Panel {
    /// The curve for a policy/precision pair.
    pub fn curve(&self, policy: SharingPolicy, amp: bool) -> Option<&Curve> {
        self.curves
            .iter()
            .find(|c| c.policy == policy && c.amp == amp)
    }

    /// Peak speedup of HFTA over a baseline policy, taking the better of
    /// FP32/AMP for each side (the paper's Table 5 convention).
    pub fn peak_speedup_over(&self, baseline: SharingPolicy) -> f64 {
        let best = |policy: SharingPolicy| -> f64 {
            [false, true]
                .iter()
                .filter_map(|&amp| self.curve(policy, amp))
                .map(|c| c.peak())
                .fold(0.0, f64::max)
        };
        best(SharingPolicy::Hfta) / best(baseline).max(f64::MIN_POSITIVE)
    }

    /// Peak speedup at a fixed precision (Table 8 convention).
    pub fn peak_speedup_at(&self, baseline: SharingPolicy, amp: bool) -> f64 {
        let hfta = self
            .curve(SharingPolicy::Hfta, amp)
            .map_or(0.0, Curve::peak);
        let base = self.curve(baseline, amp).map_or(0.0, Curve::peak);
        hfta / base.max(f64::MIN_POSITIVE)
    }

    /// Max speedup of HFTA over `baseline` across equal model counts
    /// (Table 9 convention).
    pub fn same_count_speedup(&self, baseline: SharingPolicy, amp: bool) -> f64 {
        let (Some(h), Some(b)) = (
            self.curve(SharingPolicy::Hfta, amp),
            self.curve(baseline, amp),
        ) else {
            return 0.0;
        };
        let mut best = 0.0f64;
        for p in &h.points {
            if let Some(base) = b.at(p.models) {
                if base > 0.0 {
                    best = best.max(p.normalized / base);
                }
            }
        }
        best
    }

    /// Max AMP-over-FP32 gain for a policy (Table 10 convention).
    pub fn amp_gain(&self, policy: SharingPolicy) -> f64 {
        let (Some(a), Some(f)) = (self.curve(policy, true), self.curve(policy, false)) else {
            return 0.0;
        };
        if policy == SharingPolicy::Serial {
            return a.at(1).unwrap_or(0.0) / f.at(1).unwrap_or(f64::MIN_POSITIVE);
        }
        let mut best = 0.0f64;
        for p in &a.points {
            if let Some(base) = f.at(p.models) {
                if base > 0.0 {
                    best = best.max(p.normalized / base);
                }
            }
        }
        best
    }
}

/// Policies applicable to a device.
pub fn policies_for(device: &DeviceSpec) -> Vec<SharingPolicy> {
    let mut p = vec![
        SharingPolicy::Serial,
        SharingPolicy::Concurrent,
        SharingPolicy::Mps,
    ];
    if device.supports_mig() {
        p.push(SharingPolicy::Mig);
    }
    p.push(SharingPolicy::Hfta);
    p
}

/// Runs the full sweep for one workload on one GPU (both precisions).
pub fn gpu_panel(device: &DeviceSpec, workload: &Workload) -> Panel {
    let serial_fp32 = GpuSim::new(device.clone(), false)
        .simulate(SharingPolicy::Serial, &workload.serial_job(), 1)
        .throughput_eps;
    let mut curves = Vec::new();
    for amp in [false, true] {
        let sim = GpuSim::new(device.clone(), amp);
        for policy in policies_for(device) {
            let mut points = Vec::new();
            let limit = match policy {
                SharingPolicy::Serial => 1,
                SharingPolicy::Mig => device.mig_max_instances,
                _ => MAX_MODELS,
            };
            for j in 1..=limit {
                let result = match policy {
                    SharingPolicy::Hfta => sim.simulate(policy, &workload.fused_job(j), 1),
                    _ => sim.simulate(policy, &workload.serial_job(), j),
                };
                if !result.fits {
                    break;
                }
                points.push(CurvePoint {
                    models: result.models,
                    normalized: result.throughput_eps / serial_fp32,
                    result,
                });
            }
            curves.push(Curve {
                policy,
                amp,
                points,
            });
        }
    }
    Panel {
        device: device.name.clone(),
        workload: workload.name.to_string(),
        serial_fp32_eps: serial_fp32,
        curves,
    }
}

/// One point of a Figure-6 TPU curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TpuPoint {
    /// Models fused on the core.
    pub models: usize,
    /// Throughput normalized by the serial baseline.
    pub normalized: f64,
}

/// Runs the TPU v3 serial-vs-HFTA sweep for a workload (Figure 6).
pub fn tpu_curve(workload: &Workload) -> Vec<TpuPoint> {
    let sim = hfta_sim::TpuSim::new(DeviceSpec::tpu_v3());
    let serial = sim.simulate(&workload.serial_job()).throughput_eps;
    let mut points = Vec::new();
    for b in 1..=MAX_MODELS {
        let r = sim.simulate(&workload.fused_job(b));
        if !r.fits {
            break;
        }
        points.push(TpuPoint {
            models: b,
            normalized: r.throughput_eps / serial,
        });
    }
    points
}

/// Least-squares linear regression `y = slope * x + intercept`.
pub fn linear_regression(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

/// Appends a markdown-ish table, the form every harness prints, to `out`.
pub fn push_table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    out.push_str(&format!("\n## {title}\n\n| {} |\n", header.join(" | ")));
    out.push_str(&format!("|{}|\n", vec!["---"; header.len()].join("|")));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
}

/// Prints a [`push_table`] table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    push_table(&mut out, title, header, rows);
    print!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_cls_panel() -> Panel {
        gpu_panel(&DeviceSpec::v100(), &Workload::pointnet_cls())
    }

    #[test]
    fn serial_normalizes_to_one() {
        let p = v100_cls_panel();
        let serial = p.curve(SharingPolicy::Serial, false).unwrap();
        assert_eq!(serial.points.len(), 1);
        assert!((serial.points[0].normalized - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hfta_peak_beats_all_baselines() {
        let p = v100_cls_panel();
        for base in [
            SharingPolicy::Serial,
            SharingPolicy::Concurrent,
            SharingPolicy::Mps,
        ] {
            let s = p.peak_speedup_over(base);
            assert!(s > 1.2, "{}: {s}", base.name());
        }
    }

    #[test]
    fn paper_band_for_v100_cls() {
        // Paper Table 8: V100 FP32 PointNet-cls HFTA/serial = 2.62.
        let p = v100_cls_panel();
        let s = p.peak_speedup_at(SharingPolicy::Serial, false);
        assert!((1.8..4.5).contains(&s), "FP32 speedup {s}");
        // AMP peak exceeds FP32 peak (Table 8: 5.02 vs 2.62).
        let sa = p.peak_speedup_at(SharingPolicy::Serial, true);
        assert!(sa > s, "AMP {sa} should exceed FP32 {s}");
    }

    #[test]
    fn amp_gain_pattern_matches_table10() {
        let p = v100_cls_panel();
        let serial_gain = p.amp_gain(SharingPolicy::Serial);
        let hfta_gain = p.amp_gain(SharingPolicy::Hfta);
        assert!(serial_gain < 1.4, "serial AMP gain {serial_gain}");
        assert!(
            hfta_gain > serial_gain,
            "HFTA {hfta_gain} vs serial {serial_gain}"
        );
    }

    #[test]
    fn mig_only_on_a100() {
        assert!(!policies_for(&DeviceSpec::v100()).contains(&SharingPolicy::Mig));
        assert!(policies_for(&DeviceSpec::a100()).contains(&SharingPolicy::Mig));
    }

    #[test]
    fn hfta_fits_more_models_than_mps() {
        let p = v100_cls_panel();
        let hfta = p.curve(SharingPolicy::Hfta, false).unwrap().max_models();
        let mps = p.curve(SharingPolicy::Mps, false).unwrap().max_models();
        assert!(hfta > mps, "HFTA {hfta} vs MPS {mps}");
    }
}
