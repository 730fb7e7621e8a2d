//! Device pool and occupancy accounting for multi-device trial
//! orchestration (`hfta-sched`).
//!
//! A [`DeviceFleet`] owns one [`GpuSim`] per device plus the bookkeeping a
//! scheduler needs: when each device frees up, how many busy
//! device-seconds accumulated, and — the HFTA-specific part — *lane*
//! accounting that splits every allocated fused lane-second into live
//! (training a surviving trial) versus dead (riding along after eviction).
//! `live / allocated` is the packing efficiency the elastic scheduler
//! exists to maximize.

use hfta_telemetry::flight::ns;
use hfta_telemetry::{FlightKind, Profiler, FLEET_TRIAL};

use crate::device::DeviceSpec;
use crate::gpu::{GpuSim, SharingPolicy};
use crate::kernel::{GemmDims, JobMemory, Kernel, TrainingJob};

/// Scales a per-model training job to a `B`-wide fused job, the way HFTA
/// fusion scales each kernel (paper §3.1): arithmetic, traffic and tiles
/// carry `B` models of work, GEMMs widen along `n`, weights and
/// activations replicate per model while the workspace is shared, and the
/// fused job trains `models_per_job = B` models.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn fuse_job(base: &TrainingJob, b: usize) -> TrainingJob {
    assert!(b > 0, "fused width must be positive");
    let kernels = base
        .kernels
        .iter()
        .map(|k| Kernel {
            flops: k.flops * b as u64,
            bytes: k.bytes * b as u64,
            tiles: k.tiles * b as u64,
            gemm: k.gemm.map(|g| GemmDims {
                n: g.n * b as u64,
                ..g
            }),
            pad_dim: k.pad_dim.map(|d| d * b as u64),
            tc_eligible: k.tc_eligible,
        })
        .collect();
    TrainingJob {
        kernels,
        memory: JobMemory {
            weights_gib: base.memory.weights_gib * b as f64,
            activations_gib: base.memory.activations_gib * b as f64,
            workspace_gib: base.memory.workspace_gib,
        },
        models_per_job: b,
        ..base.clone()
    }
}

/// One device of the fleet: its simulator plus busy/lane accounting.
#[derive(Debug)]
struct FleetDevice {
    sim: GpuSim,
    name: String,
    busy_until_s: f64,
    busy_s: f64,
    live_lane_s: f64,
    alloc_lane_s: f64,
    /// FLOPs charged for lanes still training a surviving trial.
    useful_flops: f64,
    /// FLOPs charged for the whole allocated width (dead lanes included).
    total_flops: f64,
}

/// A pool of simulated devices with occupancy and packing accounting.
#[derive(Debug)]
pub struct DeviceFleet {
    devices: Vec<FleetDevice>,
}

impl DeviceFleet {
    /// A fleet of `count` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn homogeneous(spec: DeviceSpec, amp: bool, count: usize) -> Self {
        assert!(count > 0, "fleet needs at least one device");
        Self::new((0..count).map(|_| GpuSim::new(spec.clone(), amp)).collect())
    }

    /// A heterogeneous fleet from `(spec, count)` device classes, in class
    /// order: `[(v100, 2), (a100, 1)]` yields devices `V100#0, V100#1,
    /// A100#2`. The class mix is what gives preemptive lane migration
    /// something to exploit — a trial extracted from a saturated slow class
    /// can resume bit-identically on a fast one.
    ///
    /// # Panics
    ///
    /// Panics if the classes sum to zero devices.
    pub fn heterogeneous(classes: &[(DeviceSpec, usize)], amp: bool) -> Self {
        Self::new(
            classes
                .iter()
                .flat_map(|(spec, count)| (0..*count).map(|_| GpuSim::new(spec.clone(), amp)))
                .collect(),
        )
    }

    /// The device-class (spec) name of device `id`, without the fleet
    /// index: `"V100"` for `"V100#3"`.
    pub fn device_class(&self, id: usize) -> &str {
        &self.devices[id].sim.device().name
    }

    /// A fleet from explicit per-device simulators.
    ///
    /// # Panics
    ///
    /// Panics if `sims` is empty.
    pub fn new(sims: Vec<GpuSim>) -> Self {
        assert!(!sims.is_empty(), "fleet needs at least one device");
        let devices = sims
            .into_iter()
            .enumerate()
            .map(|(i, sim)| {
                let name = format!("{}#{i}", sim.device().name);
                FleetDevice {
                    sim,
                    name,
                    busy_until_s: 0.0,
                    busy_s: 0.0,
                    live_lane_s: 0.0,
                    alloc_lane_s: 0.0,
                    useful_flops: 0.0,
                    total_flops: 0.0,
                }
            })
            .collect();
        DeviceFleet { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Unique display name of device `id` (spec name + fleet index), used
    /// for per-device Chrome-trace lanes.
    pub fn name(&self, id: usize) -> &str {
        &self.devices[id].name
    }

    /// The simulator of device `id`.
    pub fn sim(&self, id: usize) -> &GpuSim {
        &self.devices[id].sim
    }

    /// The largest fused width of `profile` that fits device `id`'s
    /// memory (framework reservation included), capped at `limit` — the
    /// per-device max-B selection mirroring the paper's Table 5. Returns 0
    /// when even width 1 does not fit.
    pub fn max_fused_width(&self, id: usize, profile: &TrainingJob, limit: usize) -> usize {
        self.devices[id]
            .sim
            .max_jobs(SharingPolicy::Hfta, limit, |b| fuse_job(profile, b))
    }

    /// Simulated seconds one training step of a `width`-wide fusion of
    /// `profile` takes on device `id`. `policy` is
    /// [`SharingPolicy::Serial`] for the width-1 serial baseline and
    /// [`SharingPolicy::Hfta`] for fused arrays.
    ///
    /// # Panics
    ///
    /// Panics if the job does not fit the device, or if a serial-policy
    /// call passes `width != 1`.
    pub fn step_time_s(
        &self,
        id: usize,
        profile: &TrainingJob,
        width: usize,
        policy: SharingPolicy,
    ) -> f64 {
        let result = match policy {
            SharingPolicy::Serial => {
                assert_eq!(width, 1, "serial baseline trains one model per device");
                self.devices[id].sim.simulate(policy, profile, 1)
            }
            _ => self.devices[id]
                .sim
                .simulate(policy, &fuse_job(profile, width), 1),
        };
        assert!(
            result.fits,
            "width-{width} job does not fit device {} — scheduler must respect max_fused_width",
            self.name(id)
        );
        result.round_us * 1e-6
    }

    /// The device that frees up first (lowest `busy_until`, ties to the
    /// lowest id) and the time it frees.
    pub fn next_free(&self) -> (usize, f64) {
        let mut best = 0;
        for (i, d) in self.devices.iter().enumerate() {
            if d.busy_until_s < self.devices[best].busy_until_s {
                best = i;
            }
        }
        (best, self.devices[best].busy_until_s)
    }

    /// Devices idle at simulated time `t`, in id order.
    pub fn idle_devices(&self, t: f64) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.busy_until_s <= t)
            .map(|(i, _)| i)
            .collect()
    }

    /// When device `id` frees up.
    pub fn busy_until_s(&self, id: usize) -> f64 {
        self.devices[id].busy_until_s
    }

    /// Occupies device `id` from `start_s` for `dur_s` with an array of
    /// allocated width `width`, of which `live` lanes still train a
    /// surviving trial.
    ///
    /// # Panics
    ///
    /// Panics if the device is still busy at `start_s`, or `live > width`.
    pub fn occupy(&mut self, id: usize, start_s: f64, dur_s: f64, width: usize, live: usize) {
        assert!(live <= width, "live lanes exceed allocated width");
        let d = &mut self.devices[id];
        assert!(
            d.busy_until_s <= start_s + 1e-12,
            "device {} is busy until {} (> {start_s})",
            d.name,
            d.busy_until_s
        );
        d.busy_until_s = start_s + dur_s;
        d.busy_s += dur_s;
        d.live_lane_s += live as f64 * dur_s;
        d.alloc_lane_s += width as f64 * dur_s;
        // Fleet-lane flight events: bind at the booking start, release at
        // its (future) end. Both ride under [`FLEET_TRIAL`], which the
        // per-trial monotone clamp and SLO derivation exempt. The array id
        // comes from the ambient cursor the scheduler sets before booking.
        if let Some(p) = Profiler::current() {
            let array = p.flight_cursor().array;
            let dev = Some(id as u64);
            p.flight_event(
                FLEET_TRIAL,
                ns(start_s),
                FlightKind::DeviceBind,
                dev,
                array,
                None,
                format!("width {width} live {live}"),
            );
            p.flight_event(
                FLEET_TRIAL,
                ns(start_s + dur_s),
                FlightKind::DeviceRelease,
                dev,
                array,
                None,
                format!("busy {:.3}s", d.busy_s),
            );
        }
    }

    /// Charges FLOPs to device `id`: `useful` for the lanes still training
    /// a surviving trial, `total` for the whole allocated width. Called by
    /// the scheduler alongside [`DeviceFleet::occupy`] so occupancy gains
    /// a quality dimension — a device can be 100% busy while most of its
    /// arithmetic rides on dead lanes.
    ///
    /// # Panics
    ///
    /// Panics if `useful > total`.
    pub fn charge_flops(&mut self, id: usize, useful: f64, total: f64) {
        assert!(
            useful <= total * (1.0 + 1e-12) + 1e-9,
            "useful FLOPs {useful} exceed total {total}"
        );
        let d = &mut self.devices[id];
        d.useful_flops += useful;
        d.total_flops += total;
    }

    /// Useful GFLOP/s device `id` attained over its busy seconds (0 when
    /// it never ran).
    pub fn attained_gflops(&self, id: usize) -> f64 {
        let d = &self.devices[id];
        if d.busy_s <= 0.0 {
            return 0.0;
        }
        d.useful_flops / d.busy_s / 1e9
    }

    /// Fraction of device `id`'s FP32 peak its *useful* FLOPs attained
    /// over its busy time (0 when it never ran). Busy ≠ utilized: dead
    /// lanes and sub-peak kernels both drag this below 1.0.
    pub fn utilization(&self, id: usize) -> f64 {
        let peak = self.devices[id].sim.device().fp32_tflops * 1e3; // GFLOP/s
        if peak <= 0.0 {
            return 0.0;
        }
        self.attained_gflops(id) / peak
    }

    /// Fleet-wide useful FLOPs over `Σ busy_s × per-device FP32 peak`
    /// (0 when nothing ran).
    pub fn fleet_utilization(&self) -> f64 {
        let capacity: f64 = self
            .devices
            .iter()
            .map(|d| d.busy_s * d.sim.device().fp32_tflops * 1e12)
            .sum();
        if capacity <= 0.0 {
            return 0.0;
        }
        let useful: f64 = self.devices.iter().map(|d| d.useful_flops).sum();
        useful / capacity
    }

    /// Total busy device-seconds across the fleet.
    pub fn device_seconds(&self) -> f64 {
        self.devices.iter().map(|d| d.busy_s).sum()
    }

    /// Total busy device-hours across the fleet.
    pub fn device_hours(&self) -> f64 {
        self.device_seconds() / 3600.0
    }

    /// Live lane-seconds over allocated lane-seconds (1.0 when nothing
    /// ran) — dead width from evicted-but-riding lanes drags this down.
    pub fn packing_efficiency(&self) -> f64 {
        let alloc: f64 = self.devices.iter().map(|d| d.alloc_lane_s).sum();
        if alloc <= 0.0 {
            return 1.0;
        }
        let live: f64 = self.devices.iter().map(|d| d.live_lane_s).sum();
        live / alloc
    }

    /// Busy device-seconds over `devices × horizon_s` (0 for an empty
    /// horizon).
    pub fn occupancy(&self, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            return 0.0;
        }
        self.device_seconds() / (self.devices.len() as f64 * horizon_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> TrainingJob {
        TrainingJob {
            name: "fleet-test".into(),
            kernels: vec![Kernel::elementwise(1 << 20); 10],
            host_us: 50.0,
            sync_us_per_kernel: 0.0,
            cpu_gap_fraction: 0.0,
            memory: JobMemory {
                weights_gib: 0.05,
                activations_gib: 1.0,
                workspace_gib: 0.1,
            },
            models_per_job: 1,
            examples_per_iteration: 32,
        }
    }

    #[test]
    fn fuse_job_scales_kernels_and_memory() {
        let base = job();
        let fused = fuse_job(&base, 4);
        assert_eq!(fused.models_per_job, 4);
        assert_eq!(fused.total_flops(), 4 * base.total_flops());
        assert!((fused.memory.weights_gib - 0.2).abs() < 1e-12);
        // Workspace is shared, not replicated.
        assert!((fused.memory.workspace_gib - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_fused_width_respects_memory() {
        let fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 1);
        let w = fleet.max_fused_width(0, &job(), 64);
        // V100: 16 GiB minus the framework reservation over ~1.05 GiB per
        // model — somewhere in the 8..=16 band.
        assert!((8..=16).contains(&w), "max width {w}");
        // The cap is honored.
        assert_eq!(fleet.max_fused_width(0, &job(), 4), 4);
    }

    #[test]
    fn heterogeneous_fleet_orders_classes_and_scales_speed() {
        let fleet = DeviceFleet::heterogeneous(
            &[
                (DeviceSpec::v100(), 2),
                (DeviceSpec::rtx6000(), 1),
                (DeviceSpec::a100(), 1),
            ],
            false,
        );
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet.name(0), "V100#0");
        assert_eq!(fleet.name(1), "V100#1");
        assert_eq!(fleet.name(2), "RTX6000#2");
        assert_eq!(fleet.name(3), "A100#3");
        assert_eq!(fleet.device_class(1), "V100");
        assert_eq!(fleet.device_class(3), "A100");
        // The faster class runs the same fused step faster.
        let v100 = fleet.step_time_s(0, &job(), 4, SharingPolicy::Hfta);
        let a100 = fleet.step_time_s(3, &job(), 4, SharingPolicy::Hfta);
        assert!(a100 < v100, "A100 step {a100} not below V100 {v100}");
    }

    #[test]
    fn fused_step_slower_than_serial_but_sublinear() {
        let fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 1);
        let serial = fleet.step_time_s(0, &job(), 1, SharingPolicy::Serial);
        let fused = fleet.step_time_s(0, &job(), 6, SharingPolicy::Hfta);
        assert!(fused > serial * 0.5, "fused step implausibly fast");
        assert!(
            fused < serial * 6.0,
            "fused step slower than 6 serial steps: no fusion win"
        );
    }

    #[test]
    fn occupancy_and_packing_accounting() {
        let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
        assert_eq!(fleet.next_free(), (0, 0.0));
        fleet.occupy(0, 0.0, 10.0, 8, 8);
        fleet.occupy(1, 0.0, 5.0, 8, 4); // half the width rides dead
        assert_eq!(fleet.next_free(), (1, 5.0));
        assert_eq!(fleet.idle_devices(5.0), vec![1]);
        fleet.occupy(1, 6.0, 4.0, 4, 4);
        assert!((fleet.device_seconds() - 19.0).abs() < 1e-12);
        // live = 80 + 20 + 16 = 116; alloc = 80 + 40 + 16 = 136.
        assert!((fleet.packing_efficiency() - 116.0 / 136.0).abs() < 1e-12);
        assert!((fleet.occupancy(10.0) - 19.0 / 20.0).abs() < 1e-12);
        assert_eq!(fleet.name(1), "V100#1");
    }

    #[test]
    fn flops_charging_measures_utilization_quality() {
        let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
        assert_eq!(fleet.utilization(0), 0.0);
        assert_eq!(fleet.fleet_utilization(), 0.0);
        // Device 0: busy 10 s, half the arithmetic on dead lanes.
        fleet.occupy(0, 0.0, 10.0, 8, 4);
        fleet.charge_flops(0, 5.0e13, 1.0e14);
        // 5e13 flops / 10 s = 5e12 flop/s = 5000 GFLOP/s.
        assert!((fleet.attained_gflops(0) - 5000.0).abs() < 1e-9);
        // V100 fp32 peak is 15.7 TFLOP/s.
        assert!((fleet.utilization(0) - 5.0e12 / 15.7e12).abs() < 1e-12);
        // Device 1 never ran: busy but-unused capacity is not counted.
        assert_eq!(fleet.utilization(1), 0.0);
        assert!((fleet.fleet_utilization() - 5.0e13 / (10.0 * 15.7e12)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "exceed total")]
    fn useful_flops_above_total_panics() {
        let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 1);
        fleet.charge_flops(0, 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "is busy until")]
    fn double_booking_panics() {
        let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 1);
        fleet.occupy(0, 0.0, 10.0, 1, 1);
        fleet.occupy(0, 5.0, 1.0, 1, 1);
    }
}
