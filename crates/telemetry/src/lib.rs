//! `hfta-telemetry`: profiler, metrics registry, and Chrome-trace export.
//!
//! One crate owns all observability for the HFTA reproduction:
//!
//! * [`Profiler`] — scoped spans ([`Profiler::span`]), op spans that fold
//!   a `{flops, bytes, ns}` sample on close ([`Profiler::op_span`]),
//!   experiment scopes ([`Profiler::experiment`]),
//!   counters/gauges/histograms, per-step training metrics, and counter
//!   time-series. Installed thread-locally ([`Profiler::install`]); when
//!   nothing is installed, [`Profiler::current`] is `None` and instrumented
//!   code pays one branch. Op samples have one producer per op: the autograd
//!   tape in `hfta-nn` (one forward span per op, one `bwd:<op>` span per
//!   backward node) plus the optimizers' `optim_step`. The layers below it
//!   (`hfta-tensor`, `hfta-kernels`, `hfta-mem`) do not depend on this
//!   crate; their internals are plain counters the reporter reads.
//! * [`trace`] — the Chrome trace-event JSON writer. Load the output in
//!   `chrome://tracing` or <https://ui.perfetto.dev>; lanes (`pid`/`tid`)
//!   map to device/policy/model.
//! * [`metrics`] — the plain-data registry behind the profiler.
//! * [`sched`] — scheduler counters/gauges ([`SchedStats`]) with the
//!   profiler handle cached once, so the disabled path stays one branch.
//! * [`scope`] — hfta-scope: per-model [`ScalarStream`]s (loss, grad-norm,
//!   param-norm, update-ratio, tagged `(run, model, metric)`) and
//!   divergence [`SentinelEvent`]s, recorded via [`Profiler::scalar`] /
//!   [`Profiler::sentinel`] and embedded in every [`ExperimentReport`].
//! * [`flight`] — hfta-flight: the causal trial-lifecycle journal
//!   ([`FlightEvent`], recorded via [`FlightRecorder`]/[`Profiler::flight_event`]
//!   on an integer-ns simulated-time grid) plus the per-trial SLO
//!   decomposition ([`TrialSlo`]) whose queue/compute/surgery/quarantine
//!   buckets sum bit-exactly to end-to-end latency.
//! * [`report`] — serializable [`RunReport`] written next to each trace by
//!   the bench bins (`--trace <dir>`).
//!
//! Simulated timelines (from `hfta-sim`) use the explicit-timestamp API
//! ([`Profiler::begin_at`] / [`Profiler::end_at`] / [`Profiler::counter_at`])
//! so kernel streams render at simulated microseconds; wall-clock code uses
//! [`Profiler::span`] guards.

pub mod flight;
pub mod metrics;
pub mod profiler;
pub mod report;
pub mod sched;
pub mod scope;
pub mod trace;

pub use flight::{
    FlightCursor, FlightEvent, FlightKind, FlightLog, FlightRecorder, JournalLine, SimSegment,
    SloBucket, TraceCtx, TrialSlo, FLEET_TRIAL,
};
pub use metrics::{CounterSample, HistogramSummary, MetricsRegistry};
pub use profiler::{
    ExperimentGuard, InstallGuard, LaneId, OpCost, OpSpanGuard, Profiler, SpanGuard,
};
pub use report::{CounterSeries, ExperimentReport, OpAgg, RunReport, SeriesPoint, StepMetric};
pub use sched::SchedStats;
pub use scope::{ScalarPoint, ScalarStream, ScopeLog, SentinelEvent, SentinelKind};
pub use trace::{EventPhase, LaneMeta, TraceEvent};
