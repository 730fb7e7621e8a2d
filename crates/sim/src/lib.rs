//! # hfta-sim
//!
//! Shape-level accelerator simulator substituting for the V100 / RTX6000 /
//! A100 GPUs and TPU v3 cores of the HFTA paper's evaluation (the
//! reproduction has no accelerator hardware; see DESIGN.md §4 for the
//! substitution argument).
//!
//! The cost model encodes the paper's three causal mechanisms —
//! occupancy-limited rooflines, duplicated per-kernel/per-process overheads
//! under MPS/MIG/concurrent sharing, and per-process framework memory —
//! and exposes the same observables the paper reports: training
//! throughput, max co-located models, memory footprints and DCGM counters.
//!
//! # Example
//!
//! ```
//! use hfta_sim::{
//!     device::DeviceSpec,
//!     gpu::{GpuSim, SharingPolicy},
//!     kernel::{JobMemory, Kernel, TrainingJob},
//! };
//!
//! let job = TrainingJob {
//!     name: "toy".into(),
//!     kernels: vec![Kernel::elementwise(1 << 20); 10],
//!     host_us: 50.0,
//!     sync_us_per_kernel: 0.0,
//!     cpu_gap_fraction: 0.0,
//!     memory: JobMemory { weights_gib: 0.01, activations_gib: 0.1, workspace_gib: 0.0 },
//!     models_per_job: 1,
//!     examples_per_iteration: 32,
//! };
//! let sim = GpuSim::new(DeviceSpec::v100(), false);
//! let result = sim.simulate(SharingPolicy::Serial, &job, 1);
//! assert!(result.fits && result.throughput_eps > 0.0);
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod counters;
pub mod device;
pub mod fleet;
pub mod gpu;
pub mod kernel;
pub mod tpu;

pub use attribution::{job_lane_totals, per_model_shares, LaneShare};
pub use counters::Counters;
pub use device::{DeviceKind, DeviceSpec};
pub use fleet::{fuse_job, DeviceFleet};
pub use gpu::{GpuSim, SharingPolicy, SimResult};
pub use kernel::{GemmDims, JobMemory, Kernel, TrainingJob};
pub use tpu::{TpuSim, TpuSimResult};
