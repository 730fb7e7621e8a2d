//! The paper's three benchmark workloads, packaged for the simulator:
//! per-model and fused [`TrainingJob`] builders with calibrated host-side
//! data-pipeline costs.

use hfta_plan::ShapedOp;
use hfta_sim::TrainingJob;

use crate::lower::{build_job, fused_trace};
use crate::traces;

/// A simulator-ready workload: its per-model trace plus metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Forward trace of one model.
    pub trace: Vec<ShapedOp>,
    /// Per-model minibatch size.
    pub batch: usize,
    /// Host data-pipeline time per iteration per process, µs.
    pub host_us: f64,
    /// Per-kernel framework gap, µs (see
    /// [`TrainingJob::sync_us_per_kernel`]); calibrated per workload so
    /// serial `sm_active` lands in the paper's measured 0.1–0.3 band.
    pub sync_us: f64,
    /// Fraction of the gap that is per-process CPU work (see
    /// [`TrainingJob::cpu_gap_fraction`]).
    pub cpu_gap: f64,
}

impl Workload {
    /// PointNet classification on ShapeNet-part (memory-bound; light host
    /// pipeline — point clouds are small — but a gap-heavy eager loop,
    /// per the paper's serial counter profiles).
    pub fn pointnet_cls() -> Self {
        Workload {
            name: "PointNet-cls",
            trace: traces::pointnet_cls(),
            batch: traces::POINTNET_BATCH,
            host_us: 2_000.0,
            sync_us: 600.0,
            cpu_gap: 0.1,
        }
    }

    /// PointNet segmentation on ShapeNet-part.
    pub fn pointnet_seg() -> Self {
        Workload {
            name: "PointNet-seg",
            trace: traces::pointnet_seg(4),
            batch: traces::POINTNET_BATCH,
            host_us: 2_500.0,
            sync_us: 550.0,
            cpu_gap: 0.1,
        }
    }

    /// DCGAN on LSUN (compute-bound; heavy host pipeline — JPEG decode of
    /// 64 bedroom crops per iteration, the source of the paper's
    /// `concurrent` degradation in Figure 4c).
    pub fn dcgan() -> Self {
        Workload {
            name: "DCGAN",
            trace: traces::dcgan_iteration(),
            batch: traces::DCGAN_BATCH,
            host_us: 60_000.0,
            sync_us: 250.0,
            cpu_gap: 0.75,
        }
    }

    /// ResNet-18 on CIFAR-10 at batch 1000 (the Figure 5 conventional
    /// model; host pipeline heavy at this batch size).
    pub fn resnet18() -> Self {
        Workload {
            name: "ResNet-18",
            trace: traces::resnet18(),
            batch: traces::RESNET_BATCH,
            host_us: 100_000.0,
            sync_us: 300.0,
            cpu_gap: 0.4,
        }
    }

    /// All three paper benchmarks, in figure order.
    pub fn paper_benchmarks() -> Vec<Workload> {
        vec![Self::pointnet_cls(), Self::pointnet_seg(), Self::dcgan()]
    }

    /// The per-model (serial / concurrent / MPS / MIG) job.
    pub fn serial_job(&self) -> TrainingJob {
        build_job(
            self.name,
            &self.trace,
            1,
            self.batch,
            self.host_us,
            self.sync_us,
            self.cpu_gap,
        )
    }

    /// The HFTA-fused `b`-wide job. The host pipeline is *shared*: the
    /// array trains on the same input batch (the hyper-parameter-tuning
    /// use case), so host time does not scale with `b`; neither does the
    /// per-kernel framework gap (same number of fused kernels).
    pub fn fused_job(&self, b: usize) -> TrainingJob {
        build_job(
            format!("{}-hfta-x{b}", self.name),
            &fused_trace(&self.trace, b),
            b,
            self.batch,
            self.host_us,
            self.sync_us,
            self.cpu_gap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_sim::{DeviceSpec, GpuSim, SharingPolicy};

    #[test]
    fn workloads_build_jobs() {
        for w in Workload::paper_benchmarks() {
            let serial = w.serial_job();
            assert_eq!(serial.models_per_job, 1);
            let fused = w.fused_job(4);
            assert_eq!(fused.models_per_job, 4);
            assert_eq!(fused.kernel_count(), serial.kernel_count());
            assert!(fused.total_flops() >= 4 * serial.total_flops());
        }
    }

    #[test]
    fn hfta_beats_serial_on_every_benchmark() {
        let sim = GpuSim::new(DeviceSpec::v100(), false);
        for w in Workload::paper_benchmarks() {
            let serial = sim.simulate(SharingPolicy::Serial, &w.serial_job(), 1);
            let b = sim
                .max_jobs(SharingPolicy::Hfta, 64, |b| w.fused_job(b))
                .max(2);
            let hfta = sim.simulate(SharingPolicy::Hfta, &w.fused_job(b), 1);
            let speedup = hfta.throughput_eps / serial.throughput_eps;
            assert!(
                speedup > 1.5,
                "{}: HFTA speedup only {speedup:.2} at B = {b}",
                w.name
            );
        }
    }

    #[test]
    fn v100_fits_multiple_pointnet_models() {
        let sim = GpuSim::new(DeviceSpec::v100(), false);
        let w = Workload::pointnet_cls();
        let max_hfta = sim.max_jobs(SharingPolicy::Hfta, 64, |b| w.fused_job(b));
        let max_mps = sim.max_jobs(SharingPolicy::Mps, 64, |_| w.serial_job());
        assert!(max_hfta >= 4, "HFTA max {max_hfta}");
        assert!(max_hfta > max_mps, "HFTA {max_hfta} vs MPS {max_mps}");
    }
}
