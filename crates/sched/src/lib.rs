//! # hfta-sched
//!
//! The elastic fusion scheduler: event-driven multi-device orchestration
//! of hyper-parameter tuning trials over HFTA fused arrays.
//!
//! The HFTA paper fuses a *fixed* set of sibling jobs into one array
//! (§3); this crate closes the loop with the tuning workflow the paper
//! targets (§6): trials arrive over time (replayed from `hfta-cluster`
//! traces), train under a successive-halving rung schedule, and die early
//! — so a static array's allocated width decays into dead lanes. The
//! scheduler's answer is **lane surgery** (`hfta-core::surgery`): at every
//! rung boundary survivors are extracted — parameter *and* optimizer-state
//! lanes, bit-identically — buffered, and re-packed into fresh full-width
//! arrays, keeping allocated width equal to live trials.
//!
//! * [`trial`] — trial identity and lifecycle;
//! * [`asha`] — rung geometry and the asynchronous promotion ledger;
//! * [`backend`] — the training-backend abstraction ([`ArrayBackend`]);
//! * [`events`] — the simulated-time event queue this crate's engine and
//!   `hfta-serve`'s both drive;
//! * [`model`] — the one backend, [`ModelBackend`]: fused arrays of any
//!   architecture written once over `hfta_core::ops::Ops`, whose per-trial
//!   trajectories are bit-invariant to width/lane placement;
//! * [`linear`] — the linear-classifier architecture ([`LinearBackend`]);
//! * [`sched`] — the event-driven engine and the serial / static-fusion /
//!   elastic policies, reporting makespan, device-hours, occupancy, and
//!   packing efficiency per policy.
//!
//! # Example — one elastic run over a burst of trials
//!
//! ```
//! use hfta_sched::{
//!     asha::RungPolicy,
//!     linear::{LinearBackend, LinearTrialCfg},
//!     sched::{run, Policy, SchedCfg},
//! };
//! use hfta_sim::{DeviceFleet, DeviceSpec};
//!
//! let backend = LinearBackend::default();
//! let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
//! let arrivals: Vec<(f64, LinearTrialCfg)> = (0..8)
//!     .map(|i| (0.0, LinearTrialCfg { lr: 0.05 / (i + 1) as f32, poison_at: None }))
//!     .collect();
//! let cfg = SchedCfg {
//!     policy: Policy::Elastic,
//!     rung: RungPolicy { base_steps: 2, eta: 2, rungs: 2 },
//!     width_cap: 4,
//! };
//! let outcome = run(&backend, &mut fleet, &arrivals, &cfg);
//! assert_eq!(outcome.report.trials, 8);
//! assert!(outcome.report.makespan_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod asha;
pub mod backend;
pub mod events;
pub mod linear;
pub mod model;
pub mod sched;
pub mod trial;

pub use asha::{RungLedger, RungPolicy};
pub use backend::{ArrayBackend, TrainOutcome};
pub use linear::{LinearBackend, LinearTrialCfg};
pub use model::{ModelBackend, TrialCfg};
pub use sched::{run, Policy, SchedCfg, SchedReport, SchedRun};
pub use trial::{Trial, TrialStatus};
