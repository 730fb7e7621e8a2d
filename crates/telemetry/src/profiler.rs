//! The profiler: scoped spans, experiment scopes, metric recording, and
//! thread-local installation.
//!
//! Cost model for disabled telemetry: when no profiler is installed,
//! [`Profiler::current`] returns `None` and instrumented code holds an
//! `Option<Profiler>` it checks with one branch per operation — no clocks
//! are read, no strings are built, no allocation happens (the
//! `telemetry_overhead` criterion bench in `hfta-bench` proves this adds
//! <1% to a fused training step). The profiler is single-threaded
//! (`Rc`-based), matching the tape-based autograd it instruments.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use crate::flight::{
    self, FlightCursor, FlightEvent, FlightKind, FlightLog, SimSegment, SpillState,
};
use crate::metrics::MetricsRegistry;
use crate::report::{CounterSeries, ExperimentReport, OpAgg, RunReport, SeriesPoint, StepMetric};
use crate::scope::{ScopeLog, SentinelEvent};
use crate::trace::{self, EventPhase, LaneMeta, TraceEvent};
use serde::Value;

thread_local! {
    static CURRENT: RefCell<Option<Profiler>> = const { RefCell::new(None) };
}

/// Identifies a trace lane (a `pid`/`tid` pair). Copyable and cheap to pass
/// through hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneId {
    /// Process lane.
    pub pid: u64,
    /// Thread lane.
    pub tid: u64,
}

/// Forward/backward FLOP and byte attribution for an op span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCost {
    /// Floating point operations.
    pub flops: f64,
    /// Bytes moved (reads + writes).
    pub bytes: f64,
}

impl OpCost {
    /// Cost of an elementwise op over `numel` outputs (1 flop, read+write).
    pub fn elementwise(numel: usize) -> Self {
        OpCost {
            flops: numel as f64,
            bytes: 8.0 * numel as f64,
        }
    }

    /// Cost of a dense `[n,k] x [k,m]` matmul (`batch` of them).
    pub fn matmul(batch: usize, n: usize, k: usize, m: usize) -> Self {
        let b = batch as f64;
        OpCost {
            flops: b * 2.0 * n as f64 * k as f64 * m as f64,
            bytes: b * 4.0 * (n * k + k * m + n * m) as f64,
        }
    }

    /// Cost proportional to reading `numel` inputs and reducing them.
    pub fn reduction(numel: usize) -> Self {
        OpCost {
            flops: numel as f64,
            bytes: 4.0 * numel as f64,
        }
    }
}

struct ExperimentAcc {
    name: String,
    started: Instant,
    wall_ms: f64,
    steps: Vec<StepMetric>,
    metrics: MetricsRegistry,
    series: Vec<CounterSeries>,
    scope: ScopeLog,
    ops: Vec<OpAgg>,
    /// Name → index into `ops`, so the hot path folds a sample in O(1).
    op_index: HashMap<String, usize>,
    /// hfta-flight: the trial-lifecycle event journal for this scope.
    flight: FlightLog,
}

impl ExperimentAcc {
    fn new(name: String) -> Self {
        ExperimentAcc {
            name,
            started: Instant::now(),
            wall_ms: 0.0,
            steps: Vec::new(),
            metrics: MetricsRegistry::new(),
            series: Vec::new(),
            scope: ScopeLog::new(),
            ops: Vec::new(),
            op_index: HashMap::new(),
            flight: FlightLog::new(),
        }
    }

    fn record_op(&mut self, name: &str, flops: f64, bytes: f64, ns: f64) {
        let idx = match self.op_index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.ops.len();
                self.ops.push(OpAgg {
                    name: name.to_string(),
                    calls: 0,
                    flops: 0.0,
                    bytes: 0.0,
                    ns: 0.0,
                });
                self.op_index.insert(name.to_string(), i);
                i
            }
        };
        let agg = &mut self.ops[idx];
        agg.calls += 1;
        agg.flops += flops;
        agg.bytes += bytes;
        agg.ns += ns;
    }

    fn into_report(self) -> ExperimentReport {
        let flight_events = self.flight.snapshot();
        let trial_slo = flight::derive_all(&flight_events);
        ExperimentReport {
            name: self.name,
            wall_ms: self.wall_ms,
            steps: self.steps,
            counters: self.metrics.counters().to_vec(),
            gauges: self.metrics.gauges().to_vec(),
            histograms: self
                .metrics
                .histograms()
                .iter()
                .map(|h| h.with_quantiles())
                .collect(),
            series: self.series,
            scalars: self.scope.streams().to_vec(),
            sentinels: self.scope.sentinels().to_vec(),
            ops: self.ops,
            flight: flight_events,
            trial_slo,
        }
    }
}

struct Shared {
    name: String,
    start: Instant,
    lanes: RefCell<Vec<LaneMeta>>,
    events: RefCell<Vec<TraceEvent>>,
    experiments: RefCell<Vec<ExperimentAcc>>,
    /// Index into `experiments` that metric recording targets.
    current: Cell<usize>,
    /// hfta-flight: shared JSONL spill target under `--trace`.
    flight_spill: RefCell<Option<Rc<RefCell<SpillState>>>>,
    /// Ambient surgery placement (time/device/array) set by the scheduler.
    flight_cursor: Cell<FlightCursor>,
    /// Ambient description of the segment currently training.
    sim_segment: Cell<Option<SimSegment>>,
}

/// The telemetry sink: records spans, counters, step metrics, and renders
/// Chrome traces and [`RunReport`]s. Clones share state (`Rc`).
#[derive(Clone)]
pub struct Profiler {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("name", &self.shared.name)
            .field("events", &self.shared.events.borrow().len())
            .finish()
    }
}

impl Profiler {
    /// Creates a profiler; `name` becomes the run name and the root
    /// experiment scope.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Profiler {
            shared: Rc::new(Shared {
                name: name.clone(),
                start: Instant::now(),
                lanes: RefCell::new(Vec::new()),
                events: RefCell::new(Vec::new()),
                experiments: RefCell::new(vec![ExperimentAcc::new(name)]),
                current: Cell::new(0),
                flight_spill: RefCell::new(None),
                flight_cursor: Cell::new(FlightCursor::default()),
                sim_segment: Cell::new(None),
            }),
        }
    }

    // -- installation -------------------------------------------------------

    /// Installs this profiler as the thread's sink; restored on guard drop.
    #[must_use = "telemetry uninstalls when the guard drops"]
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        InstallGuard { prev }
    }

    /// The thread's installed profiler, if any. This is the single branch
    /// disabled telemetry pays: callers cache the `Option` and skip all
    /// recording when it is `None`.
    pub fn current() -> Option<Profiler> {
        CURRENT.with(|c| c.borrow().clone())
    }

    // -- lanes and time -----------------------------------------------------

    /// Returns (allocating on first use) the lane for a `process`/`thread`
    /// display-name pair — e.g. `("V100", "HFTA B=8")` or
    /// `("autograd", "forward")`.
    pub fn lane(&self, process: &str, thread: &str) -> LaneId {
        let mut lanes = self.shared.lanes.borrow_mut();
        if let Some(l) = lanes
            .iter()
            .find(|l| l.process == process && l.thread == thread)
        {
            return LaneId {
                pid: l.pid,
                tid: l.tid,
            };
        }
        let pid = match lanes.iter().find(|l| l.process == process) {
            Some(l) => l.pid,
            None => lanes.iter().map(|l| l.pid).max().unwrap_or(0) + 1,
        };
        let tid = lanes
            .iter()
            .filter(|l| l.pid == pid)
            .map(|l| l.tid)
            .max()
            .unwrap_or(0)
            + 1;
        lanes.push(LaneMeta {
            pid,
            tid,
            process: process.to_string(),
            thread: thread.to_string(),
        });
        LaneId { pid, tid }
    }

    /// Microseconds since the profiler was created.
    pub fn now_us(&self) -> f64 {
        self.shared.start.elapsed().as_secs_f64() * 1e6
    }

    // -- wall-clock spans ---------------------------------------------------

    /// Opens a wall-clock span; it closes when the guard drops.
    pub fn span(&self, lane: LaneId, name: impl Into<String>) -> SpanGuard {
        self.span_with_args(lane, name, Vec::new())
    }

    /// Opens a wall-clock span carrying trace `args` (e.g. FLOP counts).
    pub fn span_with_args(
        &self,
        lane: LaneId,
        name: impl Into<String>,
        args: Vec<(String, Value)>,
    ) -> SpanGuard {
        let name = name.into();
        let ts = self.now_us();
        self.push_event(TraceEvent {
            name: name.clone(),
            phase: EventPhase::Begin,
            ts_us: ts,
            pid: lane.pid,
            tid: lane.tid,
            args,
        });
        SpanGuard {
            profiler: self.clone(),
            lane,
            name,
        }
    }

    // -- op samples ---------------------------------------------------------

    /// Opens a span that, on close, also folds an [`OpSample`]-style record
    /// (`flops`, `bytes`, elapsed ns) into the current experiment's per-op
    /// aggregates. This is the hfta-probe hook: the trace gets a normal
    /// begin/end pair whose end event carries the cost as args, and the
    /// report gains a row in [`ExperimentReport::ops`] keyed by `name`.
    ///
    /// [`OpSample`]: crate::report::OpAgg
    pub fn op_span(&self, lane: LaneId, name: impl Into<String>, cost: OpCost) -> OpSpanGuard {
        let name = name.into();
        let ts = self.now_us();
        self.push_event(TraceEvent {
            name: name.clone(),
            phase: EventPhase::Begin,
            ts_us: ts,
            pid: lane.pid,
            tid: lane.tid,
            args: Vec::new(),
        });
        OpSpanGuard {
            profiler: self.clone(),
            lane,
            name,
            cost,
            started: Instant::now(),
        }
    }

    /// Folds one already-timed op sample into the current experiment's
    /// aggregates without emitting any trace event. Use this when the
    /// caller measured the duration itself (simulated time, batched
    /// replay); [`Profiler::op_span`] is the wall-clock front-end.
    pub fn record_op_sample(&self, name: &str, flops: f64, bytes: f64, ns: f64) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx].record_op(name, flops, bytes, ns);
    }

    // -- simulated-time events ----------------------------------------------

    /// Records a begin event at an explicit (e.g. simulated) microsecond
    /// timestamp.
    pub fn begin_at(
        &self,
        lane: LaneId,
        name: impl Into<String>,
        ts_us: f64,
        args: Vec<(String, Value)>,
    ) {
        self.push_event(TraceEvent {
            name: name.into(),
            phase: EventPhase::Begin,
            ts_us,
            pid: lane.pid,
            tid: lane.tid,
            args,
        });
    }

    /// Records the matching end event for [`Profiler::begin_at`].
    pub fn end_at(&self, lane: LaneId, name: impl Into<String>, ts_us: f64) {
        self.push_event(TraceEvent {
            name: name.into(),
            phase: EventPhase::End,
            ts_us,
            pid: lane.pid,
            tid: lane.tid,
            args: Vec::new(),
        });
    }

    /// Records a counter sample: a `ph:"C"` trace event on `lane` *and* a
    /// point in the report series named `series`.
    pub fn counter_at(&self, lane: LaneId, series: &str, ts_us: f64, value: f64) {
        self.push_event(TraceEvent {
            name: series.to_string(),
            phase: EventPhase::Counter,
            ts_us,
            pid: lane.pid,
            tid: lane.tid,
            args: vec![("value".to_string(), Value::F64(value))],
        });
        self.series_point(series, ts_us, value);
    }

    /// Appends a point to a report-only time-series (no trace event).
    pub fn series_point(&self, series: &str, t_us: f64, value: f64) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let acc = &mut experiments[self.shared.current.get()];
        let point = SeriesPoint { t_us, value };
        match acc.series.iter_mut().find(|s| s.name == series) {
            Some(s) => s.points.push(point),
            None => acc.series.push(CounterSeries {
                name: series.to_string(),
                points: vec![point],
            }),
        }
    }

    fn push_event(&self, event: TraceEvent) {
        self.shared.events.borrow_mut().push(event);
    }

    // -- metrics ------------------------------------------------------------

    /// Adds `delta` to counter `name` in the current experiment scope.
    pub fn incr(&self, name: &str, delta: f64) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx].metrics.incr(name, delta);
    }

    /// Sets gauge `name` in the current experiment scope.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx].metrics.set_gauge(name, value);
    }

    /// Observes `value` into histogram `name` in the current experiment
    /// scope.
    pub fn observe(&self, name: &str, value: f64) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx].metrics.observe(name, value);
    }

    /// Records one training-step metric in the current experiment scope.
    pub fn step(&self, metric: StepMetric) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx].steps.push(metric);
    }

    // -- hfta-scope: per-model streams and sentinels ------------------------

    /// Appends one sample to the per-model scalar stream
    /// `(model, metric)` in the current experiment scope. The stream is
    /// tagged with the run name; appending is O(1) amortized.
    pub fn scalar(&self, model: u64, metric: &str, step: u64, value: f64) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx]
            .scope
            .record(&self.shared.name, model, metric, step, value);
    }

    /// Records a divergence sentinel event in the current experiment scope.
    pub fn sentinel(&self, event: SentinelEvent) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx].scope.sentinel(event);
    }

    // -- experiment scopes --------------------------------------------------

    /// Opens a named experiment scope (e.g. `fig3`); metrics, steps and
    /// series recorded until the guard drops are attributed to it.
    #[must_use = "the experiment scope closes when the guard drops"]
    pub fn experiment(&self, name: impl Into<String>) -> ExperimentGuard {
        let mut experiments = self.shared.experiments.borrow_mut();
        let prev = self.shared.current.get();
        let mut acc = ExperimentAcc::new(name.into());
        if let Some(state) = self.shared.flight_spill.borrow().as_ref() {
            acc.flight.set_spill(state.clone(), &acc.name);
        }
        experiments.push(acc);
        self.shared.current.set(experiments.len() - 1);
        ExperimentGuard {
            profiler: self.clone(),
            prev,
        }
    }

    // -- hfta-flight: trial-lifecycle journal --------------------------------

    /// Appends one flight event to the current experiment scope's journal.
    #[allow(clippy::too_many_arguments)]
    pub fn flight_event(
        &self,
        trial: u64,
        t_ns: u64,
        kind: FlightKind,
        device: Option<u64>,
        array: Option<u64>,
        lane: Option<u64>,
        detail: String,
    ) {
        let mut experiments = self.shared.experiments.borrow_mut();
        let idx = self.shared.current.get();
        experiments[idx]
            .flight
            .record(trial, t_ns, kind, device, array, lane, detail);
    }

    /// Snapshot of the current experiment scope's in-memory journal.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        let experiments = self.shared.experiments.borrow();
        experiments[self.shared.current.get()].flight.snapshot()
    }

    /// Last `n` journal events of the current scope (fault post-mortems).
    pub fn flight_tail(&self, n: usize) -> Vec<FlightEvent> {
        let experiments = self.shared.experiments.borrow();
        experiments[self.shared.current.get()].flight.tail(n)
    }

    /// Configures the shared JSONL spill target for every experiment
    /// scope, existing and future (called by `--trace` session setup).
    /// Nothing touches disk until the first overflow or flush.
    pub fn set_flight_spill(&self, path: std::path::PathBuf) {
        let state = SpillState::new(path);
        let mut experiments = self.shared.experiments.borrow_mut();
        for acc in experiments.iter_mut() {
            let name = acc.name.clone();
            acc.flight.set_spill(state.clone(), &name);
        }
        *self.shared.flight_spill.borrow_mut() = Some(state);
    }

    /// Flushes every scope's in-memory journal tail to the spill target
    /// (the spilled prefix is already on disk). Returns lines written; a
    /// no-op returning 0 when no spill target was configured.
    pub fn flush_flight_journal(&self) -> std::io::Result<usize> {
        let mut experiments = self.shared.experiments.borrow_mut();
        let mut total = 0;
        for acc in experiments.iter_mut() {
            total += acc.flight.flush()?;
        }
        Ok(total)
    }

    /// Total journal events currently held in memory across all scopes.
    pub fn flight_event_count(&self) -> usize {
        self.shared
            .experiments
            .borrow()
            .iter()
            .map(|a| a.flight.len())
            .sum()
    }

    /// Sets the ambient surgery cursor (scheduler, around extract/splice).
    pub fn set_flight_cursor(&self, cursor: FlightCursor) {
        self.shared.flight_cursor.set(cursor);
    }

    /// The ambient surgery cursor.
    pub fn flight_cursor(&self) -> FlightCursor {
        self.shared.flight_cursor.get()
    }

    /// Sets/clears the ambient segment description (scheduler, around
    /// `backend.train`) so mid-segment faults can be timestamped.
    pub fn set_sim_segment(&self, seg: Option<SimSegment>) {
        self.shared.sim_segment.set(seg);
    }

    /// The ambient segment description, if a segment is training.
    pub fn sim_segment(&self) -> Option<SimSegment> {
        self.shared.sim_segment.get()
    }

    // -- output -------------------------------------------------------------

    /// Renders the Chrome trace JSON (`chrome://tracing` / Perfetto).
    pub fn trace_json(&self) -> String {
        trace::render(&self.shared.lanes.borrow(), &self.shared.events.borrow())
    }

    /// Builds the [`RunReport`] snapshot (experiment scopes in execution
    /// order; the root scope carries everything recorded outside any
    /// explicit scope).
    pub fn report(&self) -> RunReport {
        let mut experiments = self
            .shared
            .experiments
            .borrow()
            .iter()
            .map(clone_acc)
            .collect::<Vec<_>>();
        // Root scope wall time runs to "now".
        if let Some(root) = experiments.first_mut() {
            if root.wall_ms == 0.0 {
                root.wall_ms = root.started.elapsed().as_secs_f64() * 1e3;
            }
        }
        RunReport {
            name: self.shared.name.clone(),
            wall_ms: self.shared.start.elapsed().as_secs_f64() * 1e3,
            trace_events: self.shared.events.borrow().len() as u64,
            experiments: experiments.into_iter().map(|a| a.into_report()).collect(),
        }
    }

    /// Number of recorded trace events (metadata excluded).
    pub fn event_count(&self) -> usize {
        self.shared.events.borrow().len()
    }
}

fn clone_acc(acc: &ExperimentAcc) -> ExperimentAcc {
    ExperimentAcc {
        name: acc.name.clone(),
        started: acc.started,
        wall_ms: acc.wall_ms,
        steps: acc.steps.clone(),
        metrics: acc.metrics.clone(),
        series: acc.series.clone(),
        scope: acc.scope.clone(),
        ops: acc.ops.clone(),
        op_index: acc.op_index.clone(),
        flight: acc.flight.clone(),
    }
}

/// Restores the previously installed profiler on drop.
pub struct InstallGuard {
    prev: Option<Profiler>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Closes a wall-clock span on drop.
pub struct SpanGuard {
    profiler: Profiler,
    lane: LaneId,
    name: String,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ts = self.profiler.now_us();
        self.profiler.push_event(TraceEvent {
            name: std::mem::take(&mut self.name),
            phase: EventPhase::End,
            ts_us: ts,
            pid: self.lane.pid,
            tid: self.lane.tid,
            args: Vec::new(),
        });
    }
}

/// Closes an op span on drop: emits the trace end event (carrying the
/// cost) and folds the elapsed time plus the [`OpCost`] into the current
/// experiment's per-op aggregates.
pub struct OpSpanGuard {
    profiler: Profiler,
    lane: LaneId,
    name: String,
    cost: OpCost,
    started: Instant,
}

impl OpSpanGuard {
    /// Multiplies the cost folded on close by `n`: a span whose work is
    /// only known once it ran (the tape's backward sweep prices a node at
    /// its forward cost times the parent gradients it produced).
    pub fn scale(&mut self, n: usize) {
        self.cost.flops *= n as f64;
        self.cost.bytes *= n as f64;
    }
}

impl Drop for OpSpanGuard {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_secs_f64() * 1e9;
        let ts = self.profiler.now_us();
        self.profiler
            .record_op_sample(&self.name, self.cost.flops, self.cost.bytes, ns);
        self.profiler.push_event(TraceEvent {
            name: std::mem::take(&mut self.name),
            phase: EventPhase::End,
            ts_us: ts,
            pid: self.lane.pid,
            tid: self.lane.tid,
            args: vec![
                ("flops".to_string(), Value::F64(self.cost.flops)),
                ("bytes".to_string(), Value::F64(self.cost.bytes)),
            ],
        });
    }
}

/// Closes an experiment scope on drop.
pub struct ExperimentGuard {
    profiler: Profiler,
    prev: usize,
}

impl Drop for ExperimentGuard {
    fn drop(&mut self) {
        let shared = &self.profiler.shared;
        let mut experiments = shared.experiments.borrow_mut();
        let idx = shared.current.get();
        let acc = &mut experiments[idx];
        acc.wall_ms = acc.started.elapsed().as_secs_f64() * 1e3;
        shared.current.set(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_profiler_installed_means_none() {
        assert!(Profiler::current().is_none());
        let p = Profiler::new("t");
        {
            let _guard = p.install();
            assert!(Profiler::current().is_some());
        }
        assert!(Profiler::current().is_none());
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = Profiler::new("outer");
        let inner = Profiler::new("inner");
        let _a = outer.install();
        {
            let _b = inner.install();
            let current = Profiler::current().unwrap();
            current.incr("x", 1.0);
            assert_eq!(inner.report().experiments[0].counters.len(), 1);
        }
        let current = Profiler::current().unwrap();
        current.incr("y", 1.0);
        let report = outer.report();
        assert_eq!(report.experiments[0].counters[0].name, "y");
    }

    #[test]
    fn spans_balance_and_nest() {
        let p = Profiler::new("t");
        let lane = p.lane("proc", "thread");
        {
            let _outer = p.span(lane, "outer");
            let _inner = p.span(lane, "inner");
        }
        assert_eq!(p.event_count(), 4);
        let json = p.trace_json();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        assert!(matches!(v.get("traceEvents"), Some(serde::Value::Array(_))));
    }

    #[test]
    fn lanes_are_deduplicated_and_distinct() {
        let p = Profiler::new("t");
        let a = p.lane("V100", "serial");
        let b = p.lane("V100", "hfta");
        let c = p.lane("A100", "serial");
        let a2 = p.lane("V100", "serial");
        assert_eq!(a, a2);
        assert_eq!(a.pid, b.pid);
        assert_ne!(a.tid, b.tid);
        assert_ne!(a.pid, c.pid);
    }

    #[test]
    fn experiment_scopes_bucket_metrics() {
        let p = Profiler::new("run");
        p.incr("root_counter", 1.0);
        {
            let _e = p.experiment("fig3");
            p.incr("fig3_counter", 2.0);
            p.step(StepMetric {
                step: 0,
                model: 0,
                loss: 1.0,
                samples_per_s: 10.0,
                fused_width: 3,
            });
        }
        let report = p.report();
        assert_eq!(report.experiments.len(), 2);
        assert_eq!(report.experiments[0].name, "run");
        assert_eq!(report.experiments[0].counters[0].name, "root_counter");
        let fig3 = report.experiment("fig3").unwrap();
        assert_eq!(fig3.counters[0].value, 2.0);
        assert_eq!(fig3.steps.len(), 1);
        assert!(fig3.wall_ms >= 0.0);
    }

    #[test]
    fn scalars_and_sentinels_land_in_current_experiment() {
        let p = Profiler::new("run");
        p.scalar(0, "loss", 0, 2.0);
        {
            let _e = p.experiment("sweep");
            p.scalar(1, "loss", 0, 3.0);
            p.scalar(1, "loss", 1, f64::NAN);
            p.sentinel(crate::scope::SentinelEvent {
                step: 1,
                model: 1,
                kind: crate::scope::SentinelKind::NonFiniteLoss,
                value: f64::NAN,
                quarantined: true,
            });
        }
        let report = p.report();
        let root = &report.experiments[0];
        assert_eq!(root.scalars.len(), 1);
        assert_eq!(root.scalars[0].run, "run");
        assert!(root.sentinels.is_empty());
        let sweep = report.experiment("sweep").unwrap();
        assert_eq!(sweep.scalar_stream(1, "loss").unwrap().points.len(), 2);
        assert_eq!(sweep.sentinels_for(1).len(), 1);
        assert!(sweep.sentinels[0].quarantined);
    }

    #[test]
    fn report_histograms_carry_quantiles() {
        let p = Profiler::new("run");
        for i in 0..50 {
            p.observe("lat", 1.0 + i as f64);
        }
        let h = &p.report().experiments[0].histograms[0];
        assert!(h.p50 > 0.0 && h.p50 <= h.p95 && h.p95 <= h.p99);
        assert!(h.p99 <= h.max);
    }

    #[test]
    fn op_spans_aggregate_per_op_kind() {
        let p = Profiler::new("t");
        let lane = p.lane("autograd", "forward");
        for _ in 0..3 {
            let _g = p.op_span(lane, "matmul", OpCost::matmul(1, 8, 8, 8));
        }
        {
            let _g = p.op_span(lane, "relu", OpCost::elementwise(64));
        }
        p.record_op_sample("relu", 64.0, 512.0, 100.0);
        let report = p.report();
        let ops = &report.experiments[0].ops;
        assert_eq!(ops.len(), 2);
        let mm = report.experiments[0].op("matmul").unwrap();
        assert_eq!(mm.calls, 3);
        assert_eq!(mm.flops, 3.0 * 1024.0);
        assert_eq!(mm.bytes, 3.0 * 4.0 * 192.0);
        assert!(mm.ns > 0.0);
        let relu = report.experiments[0].op("relu").unwrap();
        assert_eq!(relu.calls, 2);
        assert_eq!(relu.flops, 128.0);
        // A scaled span folds (and reports on its end event) the scaled cost.
        p.op_span(lane, "bwd:matmul", OpCost::matmul(1, 8, 8, 8))
            .scale(2);
        let bwd = p.report().experiments[0].op("bwd:matmul").cloned().unwrap();
        assert_eq!((bwd.calls, bwd.flops), (1, 2.0 * 1024.0));
        assert!(p.trace_json().contains("\"flops\":2048"));
        // Trace side: begin+end per op_span, none for record_op_sample.
        assert_eq!(p.event_count(), 10);
    }

    #[test]
    fn op_samples_land_in_current_experiment() {
        let p = Profiler::new("run");
        p.record_op_sample("root_op", 1.0, 1.0, 1.0);
        {
            let _e = p.experiment("fig8");
            p.record_op_sample("scoped_op", 2.0, 2.0, 2.0);
        }
        let report = p.report();
        assert!(report.experiments[0].op("root_op").is_some());
        assert!(report.experiments[0].op("scoped_op").is_none());
        assert!(report.experiment("fig8").unwrap().op("scoped_op").is_some());
    }

    #[test]
    fn flight_events_land_in_current_experiment_and_report() {
        let p = Profiler::new("run");
        {
            let _e = p.experiment("elastic");
            p.flight_event(1, 0, FlightKind::Submit, None, None, None, String::new());
            p.flight_event(1, 0, FlightKind::Enqueue, None, None, None, String::new());
            p.flight_event(
                1,
                5,
                FlightKind::Dispatch,
                Some(0),
                Some(0),
                Some(0),
                String::new(),
            );
            p.flight_event(
                1,
                9,
                FlightKind::Complete,
                Some(0),
                Some(0),
                Some(0),
                String::new(),
            );
            assert_eq!(p.flight_tail(2).len(), 2);
            assert_eq!(p.flight_tail(2)[0].kind, FlightKind::Dispatch);
        }
        let report = p.report();
        assert!(report.experiments[0].flight.is_empty());
        let exp = report.experiment("elastic").unwrap();
        assert_eq!(exp.flight.len(), 4);
        assert_eq!(exp.trial_slo.len(), 1);
        let slo = &exp.trial_slo[0];
        assert_eq!(slo.queue_ns, 5);
        assert_eq!(slo.compute_ns, 4);
        assert_eq!(slo.e2e_ns(), 9);
    }

    #[test]
    fn ambient_flight_cursor_and_segment_round_trip() {
        let p = Profiler::new("run");
        assert_eq!(p.flight_cursor(), FlightCursor::default());
        assert!(p.sim_segment().is_none());
        p.set_flight_cursor(FlightCursor {
            t_ns: 42,
            device: Some(1),
            array: Some(3),
        });
        p.set_sim_segment(Some(SimSegment {
            base_ns: 100,
            per_step_ns: 10,
            base_step: 4,
            device: 1,
            array: 3,
        }));
        assert_eq!(p.flight_cursor().t_ns, 42);
        let seg = p.sim_segment().unwrap();
        assert_eq!(seg.step_end_ns(4), 110);
        assert_eq!(seg.step_end_ns(6), 130);
        p.set_sim_segment(None);
        assert!(p.sim_segment().is_none());
    }

    #[test]
    fn counter_at_feeds_both_trace_and_series() {
        let p = Profiler::new("t");
        let lane = p.lane("V100", "hfta");
        p.counter_at(lane, "smi_util", 1.0, 0.5);
        p.counter_at(lane, "smi_util", 2.0, 0.9);
        let report = p.report();
        let series = report.experiments[0].series("smi_util").unwrap();
        assert_eq!(series.points.len(), 2);
        assert_eq!(p.event_count(), 2);
    }
}
