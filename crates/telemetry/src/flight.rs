//! hfta-flight: causal trial-lifecycle tracing.
//!
//! A [`FlightEvent`] journal follows every trial across arrays, devices and
//! lane surgery: the scheduler records lifecycle edges (submit, enqueue,
//! dispatch, rung start/end, promote, evict, complete), `hfta-core`'s lane
//! surgery records extract/splice with source→dest placement, the
//! `ScopeMonitor` records sentinel faults with a post-mortem, and the fleet
//! records device bind/release. All timestamps live on an integer
//! nanosecond grid of *simulated* time, so the per-trial decomposition
//! (queue + compute + surgery + quarantine) telescopes bit-exactly to the
//! end-to-end latency and is reproducible across machines and thread
//! counts.
//!
//! Storage mirrors the profiler's cost model: events append to one
//! [`FlightLog`] per experiment scope and reach disk once, as that scope's
//! `flight` array in the run report `--trace` writes; with no profiler
//! installed the recording path ([`FlightRecorder`]) is a single branch on
//! a cached `None`.

use crate::profiler::Profiler;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sentinel trial id for fleet-level events (device bind/release) that are
/// not owned by any single trial. `u64::MAX` round-trips losslessly through
/// the vendored JSON layer (`Value::U64`).
pub const FLEET_TRIAL: u64 = u64::MAX;

/// Simulated seconds → the integer-nanosecond grid every flight and
/// journal timestamp (and every step duration on it) uses.
pub fn ns(t: f64) -> u64 {
    (t * 1e9).round() as u64
}

/// Lifecycle edge kinds. Unit variants only: the vendored derive serializes
/// them as the variant-name string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlightKind {
    /// Trial arrived at the scheduler (first event of every trial).
    Submit,
    /// Trial entered the pending queue.
    Enqueue,
    /// Trial was placed into an array lane on a device.
    Dispatch,
    /// A rung segment began training this trial's lane.
    RungStart,
    /// A rung segment finished training this trial's lane.
    RungEnd,
    /// ASHA promoted the trial to the next rung.
    Promote,
    /// Terminal: early-stopped by ASHA or killed by a sentinel.
    Evict,
    /// Terminal: finished the final rung.
    Complete,
    /// Lane surgery pulled the trial's state out of an array.
    Extract,
    /// Lane surgery wrote the trial's state into a new array lane.
    Splice,
    /// A scope sentinel fired on this trial's lane (post-mortem in detail).
    Fault,
    /// Fleet-level: a device started a segment (trial = [`FLEET_TRIAL`]).
    DeviceBind,
    /// Fleet-level: a device finished a segment (trial = [`FLEET_TRIAL`]).
    DeviceRelease,
    /// A higher-priority tenant preempted this trial's running segment.
    Preempt,
    /// The trial's lane state was persisted to a crash-safe snapshot.
    Checkpoint,
    /// The trial's state was restored from a snapshot after a service
    /// restart (or re-queued fresh when no snapshot existed yet).
    Restore,
}

impl FlightKind {
    /// Short lowercase label for reports and dashboards.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::Submit => "submit",
            FlightKind::Enqueue => "enqueue",
            FlightKind::Dispatch => "dispatch",
            FlightKind::RungStart => "rung-start",
            FlightKind::RungEnd => "rung-end",
            FlightKind::Promote => "promote",
            FlightKind::Evict => "evict",
            FlightKind::Complete => "complete",
            FlightKind::Extract => "extract",
            FlightKind::Splice => "splice",
            FlightKind::Fault => "fault",
            FlightKind::DeviceBind => "device-bind",
            FlightKind::DeviceRelease => "device-release",
            FlightKind::Preempt => "preempt",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::Restore => "restore",
        }
    }

    /// Terminal events end a trial's sequence; exactly one is legal.
    pub fn is_terminal(&self) -> bool {
        matches!(self, FlightKind::Evict | FlightKind::Complete)
    }
}

/// One journal entry. `seq` is per-trial and contiguous from 0; `t_ns` is
/// simulated time on an integer nanosecond grid, monotone per trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Owning trial id ([`FLEET_TRIAL`] for fleet-level events).
    pub trial: u64,
    /// Per-trial sequence number, contiguous from 0.
    pub seq: u64,
    /// Simulated timestamp in integer nanoseconds.
    pub t_ns: u64,
    /// Lifecycle edge.
    pub kind: FlightKind,
    /// Device id when the edge is placed on a device.
    pub device: Option<u64>,
    /// Array id when the edge involves a fused array.
    pub array: Option<u64>,
    /// Lane index within the array.
    pub lane: Option<u64>,
    /// Free-form context (rung, width, fault post-mortem, ...).
    pub detail: String,
}

/// Correlation context stamped onto extracted lane state so the trial id
/// survives surgery across arrays and devices. `array`/`lane` describe the
/// *source* placement the state was extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Stable trial id.
    pub trial: u64,
    /// Source array id.
    pub array: u64,
    /// Source lane index.
    pub lane: u64,
}

/// Ambient placement cursor: set by the scheduler around surgery calls so
/// layers that only know the lane (extract/splice) can stamp timestamps,
/// device and array ids without threading them through every signature.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlightCursor {
    /// Simulated time of the surgery site, ns grid.
    pub t_ns: u64,
    /// Device the surgery happens on.
    pub device: Option<u64>,
    /// Array being extracted from / spliced into.
    pub array: Option<u64>,
}

/// Ambient description of the segment currently being trained, set by the
/// scheduler around `backend.train` so the `ScopeMonitor` can timestamp
/// mid-segment faults on the same ns grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSegment {
    /// Segment start on the ns grid.
    pub base_ns: u64,
    /// Integer step duration on the ns grid.
    pub per_step_ns: u64,
    /// Global step index at segment start.
    pub base_step: u64,
    /// Device running the segment.
    pub device: u64,
    /// Array id running the segment.
    pub array: u64,
}

impl SimSegment {
    /// Timestamp of the *end* of global step `gstep` (a fault observed
    /// after step `gstep`'s backward lands at that step's end).
    pub fn step_end_ns(&self, gstep: u64) -> u64 {
        self.base_ns + (gstep + 1).saturating_sub(self.base_step) * self.per_step_ns
    }
}

/// Append-only event journal for one experiment scope. Assigns per-trial
/// contiguous `seq` and clamps per-trial timestamps monotone (the f64 heap
/// time and the integer grid can disagree by a nanosecond). Every event is
/// kept: the count only grows, so a reader can tee what arrived since a
/// count it saw before.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    events: Vec<FlightEvent>,
    next_seq: HashMap<u64, u64>,
    last_ns: HashMap<u64, u64>,
}

impl FlightLog {
    /// Append one event, assigning `seq` and clamping `t_ns` monotone
    /// within the trial.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        trial: u64,
        t_ns: u64,
        kind: FlightKind,
        device: Option<u64>,
        array: Option<u64>,
        lane: Option<u64>,
        detail: String,
    ) {
        let seq_slot = self.next_seq.entry(trial).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        // Per-trial monotone clamp: the f64 event-heap time and the
        // integer segment grid can disagree by a nanosecond at rung
        // boundaries. Fleet events are exempt — a DeviceRelease is
        // recorded at its (future) end time before the next DeviceBind's
        // earlier start, and carries no state machine to protect.
        let t_ns = if trial == FLEET_TRIAL {
            t_ns
        } else {
            let last = self.last_ns.entry(trial).or_insert(0);
            let t = t_ns.max(*last);
            *last = t;
            t
        };
        self.events.push(FlightEvent {
            trial,
            seq,
            t_ns,
            kind,
            device,
            array,
            lane,
            detail,
        });
    }

    /// Every event recorded so far, in recording order.
    pub fn events(&self) -> &[FlightEvent] {
        &self.events
    }

    /// Last `n` events (the post-mortem window for fault details).
    pub fn tail(&self, n: usize) -> &[FlightEvent] {
        &self.events[self.events.len().saturating_sub(n)..]
    }

    /// The recorded events, consuming the log.
    pub fn into_events(self) -> Vec<FlightEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Cached-handle recorder, the flight analogue of `SchedStats`: resolves
/// `Profiler::current()` once at construction so the disabled path is a
/// single branch on a cached `None` — no thread-local lookup, no detail
/// formatting.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    profiler: Option<Profiler>,
}

impl FlightRecorder {
    /// Capture the currently-installed profiler (if any).
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            profiler: Profiler::current(),
        }
    }

    /// True when events actually land somewhere.
    pub fn enabled(&self) -> bool {
        self.profiler.is_some()
    }

    /// Record with an empty detail string.
    pub fn record(
        &self,
        trial: u64,
        t_ns: u64,
        kind: FlightKind,
        device: Option<u64>,
        array: Option<u64>,
        lane: Option<u64>,
    ) {
        if let Some(p) = &self.profiler {
            p.flight_event(trial, t_ns, kind, device, array, lane, String::new());
        }
    }

    /// Record with a lazily-built detail string: the closure only runs
    /// when a profiler is installed.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with(
        &self,
        trial: u64,
        t_ns: u64,
        kind: FlightKind,
        device: Option<u64>,
        array: Option<u64>,
        lane: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(p) = &self.profiler {
            p.flight_event(trial, t_ns, kind, device, array, lane, detail());
        }
    }
}

/// Per-trial SLO decomposition derived from a well-formed event sequence.
/// The four buckets partition `[submit_ns, terminal_ns]`, so
/// `queue + compute + surgery + quarantine == e2e` holds bit-exactly in
/// integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialSlo {
    /// Trial id.
    pub trial: u64,
    /// Submit timestamp (start of end-to-end latency).
    pub submit_ns: u64,
    /// Terminal timestamp (evict or complete).
    pub terminal_ns: u64,
    /// Time spent submitted/queued waiting for a lane.
    pub queue_ns: u64,
    /// Time spent running rung segments.
    pub compute_ns: u64,
    /// Time spent extracted, waiting in the repack buffer.
    pub surgery_ns: u64,
    /// Time spent quarantined after a sentinel fault.
    pub quarantine_ns: u64,
    /// Terminal kind (always `Evict` or `Complete`).
    pub outcome: FlightKind,
    /// True when at least one sentinel fault fired.
    pub faulted: bool,
}

impl TrialSlo {
    /// End-to-end latency from submit to terminal.
    pub fn e2e_ns(&self) -> u64 {
        self.terminal_ns - self.submit_ns
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TrialPhase {
    Submitted,
    Queued,
    Running,
    Buffered,
    Quarantined,
    Done,
}

/// Validate one trial's event sequence (sorted by `seq`) against the
/// lifecycle state machine and derive its SLO decomposition. Errors name
/// the offending event so the proptest failure output is actionable.
pub fn derive_slo(events: &[FlightEvent]) -> Result<TrialSlo, String> {
    match walk(events)? {
        (slo, TrialPhase::Done) => Ok(slo),
        (slo, phase) => Err(format!(
            "trial {}: no terminal event (ended in {phase:?})",
            slo.trial
        )),
    }
}

/// Validates a sequence as [`derive_slo`] does, up to the terminal check:
/// the SLO decomposition so far and the phase the trial ended in.
fn walk(events: &[FlightEvent]) -> Result<(TrialSlo, TrialPhase), String> {
    let first = events.first().ok_or("empty event sequence")?;
    let trial = first.trial;
    if first.kind != FlightKind::Submit {
        return Err(format!(
            "trial {trial}: first event is {:?}, expected Submit",
            first.kind
        ));
    }
    let mut slo = TrialSlo {
        trial,
        submit_ns: first.t_ns,
        terminal_ns: first.t_ns,
        queue_ns: 0,
        compute_ns: 0,
        surgery_ns: 0,
        quarantine_ns: 0,
        outcome: FlightKind::Submit,
        faulted: false,
    };
    let mut phase = TrialPhase::Submitted;
    let mut last_ns = first.t_ns;
    for (i, e) in events.iter().enumerate() {
        if e.trial != trial {
            return Err(format!(
                "trial {trial}: foreign trial {} in sequence",
                e.trial
            ));
        }
        if e.seq != i as u64 {
            return Err(format!(
                "trial {trial}: seq {} at position {i}, expected contiguous from 0",
                e.seq
            ));
        }
        if i == 0 {
            continue;
        }
        if e.t_ns < last_ns {
            return Err(format!(
                "trial {trial}: time went backwards at seq {} ({} < {last_ns})",
                e.seq, e.t_ns
            ));
        }
        let dt = e.t_ns - last_ns;
        match phase {
            TrialPhase::Submitted | TrialPhase::Queued => slo.queue_ns += dt,
            TrialPhase::Running => slo.compute_ns += dt,
            TrialPhase::Buffered => slo.surgery_ns += dt,
            TrialPhase::Quarantined => slo.quarantine_ns += dt,
            TrialPhase::Done => {
                return Err(format!(
                    "trial {trial}: event {:?} after terminal at seq {}",
                    e.kind, e.seq
                ))
            }
        }
        last_ns = e.t_ns;
        phase = step_phase(phase, e.kind)
            .ok_or_else(|| format!("trial {trial}: illegal {:?} in phase {phase:?}", e.kind))?;
        if e.kind == FlightKind::Fault {
            slo.faulted = true;
        }
        if e.kind.is_terminal() {
            slo.outcome = e.kind;
            slo.terminal_ns = e.t_ns;
        }
    }
    Ok((slo, phase))
}

/// Which SLO bucket a span of a trial's timeline is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloBucket {
    /// Submitted or queued, waiting for a lane.
    Queue,
    /// Running a rung segment.
    Compute,
    /// Extracted, waiting in the repack buffer.
    Surgery,
    /// Quarantined after a sentinel fault.
    Quarantine,
}

impl SloBucket {
    /// One-character glyph for ASCII Gantt rows.
    pub fn glyph(&self) -> char {
        match self {
            SloBucket::Queue => '.',
            SloBucket::Compute => '#',
            SloBucket::Surgery => 's',
            SloBucket::Quarantine => '!',
        }
    }

    /// Human label for tables and critical-path chains.
    pub fn label(&self) -> &'static str {
        match self {
            SloBucket::Queue => "queue",
            SloBucket::Compute => "compute",
            SloBucket::Surgery => "surgery",
            SloBucket::Quarantine => "quarantine",
        }
    }
}

/// Contiguous `[from_ns, to_ns)` spans of one trial's validated sequence,
/// labeled with the bucket their duration is attributed to. Adjacent spans
/// of the same bucket are merged and zero-length spans skipped, so the
/// span durations sum exactly to the trial's end-to-end latency. The
/// renderers behind `flight_report`'s Gantt and critical-path views.
///
/// # Errors
///
/// Rejects malformed sequences with the same diagnostics as [`derive_slo`].
pub fn bucket_intervals(events: &[FlightEvent]) -> Result<Vec<(u64, u64, SloBucket)>, String> {
    derive_slo(events)?;
    let mut out: Vec<(u64, u64, SloBucket)> = Vec::new();
    let mut phase = TrialPhase::Submitted;
    let mut last_ns = events[0].t_ns;
    for e in events.iter().skip(1) {
        let bucket = match phase {
            TrialPhase::Submitted | TrialPhase::Queued => SloBucket::Queue,
            TrialPhase::Running => SloBucket::Compute,
            TrialPhase::Buffered => SloBucket::Surgery,
            TrialPhase::Quarantined => SloBucket::Quarantine,
            TrialPhase::Done => unreachable!("validated: no events after terminal"),
        };
        if e.t_ns > last_ns {
            match out.last_mut() {
                Some(last) if last.2 == bucket && last.1 == last_ns => last.1 = e.t_ns,
                _ => out.push((last_ns, e.t_ns, bucket)),
            }
        }
        last_ns = e.t_ns;
        phase = step_phase(phase, e.kind).expect("validated transition");
    }
    Ok(out)
}

fn step_phase(phase: TrialPhase, kind: FlightKind) -> Option<TrialPhase> {
    use FlightKind as K;
    use TrialPhase as P;
    match (phase, kind) {
        (P::Submitted, K::Enqueue) => Some(P::Queued),
        (P::Queued | P::Buffered, K::Dispatch) => Some(P::Running),
        (P::Running, K::RungStart | K::RungEnd | K::Promote) => Some(P::Running),
        // Preempt is announced while still running; the Extract that
        // follows moves the trial into the surgery buffer.
        (P::Running, K::Preempt) => Some(P::Running),
        (P::Running, K::Extract) => Some(P::Buffered),
        // Barrier-time events on buffered (extracted) state: snapshotting,
        // re-splicing, and cohort promotion all keep the trial buffered.
        (P::Buffered, K::Splice | K::Checkpoint | K::Promote) => Some(P::Buffered),
        // Restore after a service restart: a trial with a snapshot resumes
        // buffered; a trial that never reached a checkpoint re-queues fresh.
        (P::Running | P::Buffered, K::Restore) => Some(P::Buffered),
        (P::Queued, K::Restore) => Some(P::Queued),
        (P::Running | P::Quarantined, K::Fault) => Some(P::Quarantined),
        // Evict also terminates queued/buffered trials (tenant cancel,
        // cohort-barrier early stop).
        (P::Running | P::Quarantined | P::Queued | P::Buffered, K::Evict) => Some(P::Done),
        (P::Running | P::Buffered, K::Complete) => Some(P::Done),
        _ => None,
    }
}

/// Group a journal by trial (skipping [`FLEET_TRIAL`]), sorted by `seq`.
pub fn group_by_trial(events: &[FlightEvent]) -> Vec<(u64, Vec<FlightEvent>)> {
    let mut map: std::collections::BTreeMap<u64, Vec<FlightEvent>> =
        std::collections::BTreeMap::new();
    for e in events {
        if e.trial == FLEET_TRIAL {
            continue;
        }
        map.entry(e.trial).or_default().push(e.clone());
    }
    let mut out: Vec<(u64, Vec<FlightEvent>)> = map.into_iter().collect();
    for (_, seq) in &mut out {
        seq.sort_by_key(|e| e.seq);
    }
    out
}

/// Lenient derivation: SLOs for every trial whose sequence validates,
/// skipping the rest (e.g. trials a killed pass left unterminated).
pub fn derive_all(events: &[FlightEvent]) -> Vec<TrialSlo> {
    group_by_trial(events)
        .iter()
        .filter_map(|(_, seq)| derive_slo(seq).ok())
        .collect()
}

/// Strict derivation: the terminated trials' SLOs and the ids of trials
/// whose otherwise valid timeline stops before a terminal event (a pass
/// killed mid-run leaves its trials so). Any other malformed timeline is
/// an error, the first one returned (the conservation law the proptests
/// gate).
pub fn derive_terminated(events: &[FlightEvent]) -> Result<(Vec<TrialSlo>, Vec<u64>), String> {
    let (mut slos, mut open) = (Vec::new(), Vec::new());
    for (trial, seq) in group_by_trial(events) {
        match walk(&seq)? {
            (slo, TrialPhase::Done) => slos.push(slo),
            _ => open.push(trial),
        }
    }
    Ok((slos, open))
}

/// Exact nearest-rank quantile over unsorted values (deterministic, unlike
/// the log-bucket `HistogramSummary` estimate; used for golden-gated
/// numbers). `q` in [0, 1].
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// End-of-run SLO fold shared by the schedulers (`hfta-sched`, `hfta-serve`):
/// derives every valid trial SLO from a journal and accumulates the
/// queue-wait/e2e latency populations plus the four bucket sums, all in
/// bit-exact simulated microseconds.
#[derive(Debug, Clone, Default)]
pub struct SloRollup {
    /// Every validated trial SLO, in trial-id order.
    pub slos: Vec<TrialSlo>,
    /// Per-trial queue-wait (queue bucket) in simulated microseconds.
    pub queue_waits_us: Vec<f64>,
    /// Per-trial end-to-end latency in simulated microseconds.
    pub e2e_us: Vec<f64>,
    /// Sum of the queue bucket across trials, microseconds.
    pub queue_us: f64,
    /// Sum of the compute bucket across trials, microseconds.
    pub compute_us: f64,
    /// Sum of the surgery bucket across trials, microseconds.
    pub surgery_us: f64,
    /// Sum of the quarantine bucket across trials, microseconds.
    pub quarantine_us: f64,
}

impl SloRollup {
    /// Lenient fold over a raw journal (skips malformed sequences, like
    /// [`derive_all`]).
    pub fn from_events(events: &[FlightEvent]) -> Self {
        Self::from_slos(derive_all(events))
    }

    /// Fold pre-derived SLOs.
    pub fn from_slos(slos: Vec<TrialSlo>) -> Self {
        let mut out = SloRollup {
            slos,
            ..SloRollup::default()
        };
        for s in &out.slos {
            out.queue_waits_us.push(s.queue_ns as f64 / 1e3);
            out.e2e_us.push(s.e2e_ns() as f64 / 1e3);
            out.queue_us += s.queue_ns as f64 / 1e3;
            out.compute_us += s.compute_ns as f64 / 1e3;
            out.surgery_us += s.surgery_ns as f64 / 1e3;
            out.quarantine_us += s.quarantine_ns as f64 / 1e3;
        }
        out
    }

    /// Nearest-rank quantile of the queue-wait population, microseconds.
    pub fn queue_wait_us(&self, q: f64) -> f64 {
        nearest_rank(&self.queue_waits_us, q)
    }

    /// Nearest-rank quantile of the e2e latency population, microseconds.
    pub fn e2e_latency_us(&self, q: f64) -> f64 {
        nearest_rank(&self.e2e_us, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trial: u64, seq: u64, t_ns: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            trial,
            seq,
            t_ns,
            kind,
            device: None,
            array: None,
            lane: None,
            detail: String::new(),
        }
    }

    fn happy_path() -> Vec<FlightEvent> {
        use FlightKind as K;
        vec![
            ev(7, 0, 100, K::Submit),
            ev(7, 1, 100, K::Enqueue),
            ev(7, 2, 250, K::Dispatch),
            ev(7, 3, 250, K::RungStart),
            ev(7, 4, 450, K::RungEnd),
            ev(7, 5, 450, K::Promote),
            ev(7, 6, 450, K::Extract),
            ev(7, 7, 600, K::Splice),
            ev(7, 8, 600, K::Dispatch),
            ev(7, 9, 600, K::RungStart),
            ev(7, 10, 900, K::RungEnd),
            ev(7, 11, 900, K::Complete),
        ]
    }

    #[test]
    fn decomposition_sums_exactly_to_e2e() {
        let slo = derive_slo(&happy_path()).expect("well-formed");
        assert_eq!(slo.queue_ns, 150);
        assert_eq!(slo.compute_ns, 500);
        assert_eq!(slo.surgery_ns, 150);
        assert_eq!(slo.quarantine_ns, 0);
        assert_eq!(slo.outcome, FlightKind::Complete);
        assert!(!slo.faulted);
        assert_eq!(
            slo.queue_ns + slo.compute_ns + slo.surgery_ns + slo.quarantine_ns,
            slo.e2e_ns()
        );
    }

    #[test]
    fn fault_routes_time_to_quarantine() {
        use FlightKind as K;
        let events = vec![
            ev(3, 0, 0, K::Submit),
            ev(3, 1, 0, K::Enqueue),
            ev(3, 2, 10, K::Dispatch),
            ev(3, 3, 10, K::RungStart),
            ev(3, 4, 14, K::Fault),
            ev(3, 5, 20, K::Evict),
        ];
        let slo = derive_slo(&events).expect("well-formed");
        assert_eq!(slo.queue_ns, 10);
        assert_eq!(slo.compute_ns, 4);
        assert_eq!(slo.quarantine_ns, 6);
        assert!(slo.faulted);
        assert_eq!(slo.outcome, FlightKind::Evict);
    }

    #[test]
    fn preempt_checkpoint_restore_route_time_to_surgery() {
        use FlightKind as K;
        // A trial preempted mid-segment, checkpointed, then restored after
        // a service restart and finished elsewhere. Buffered time (between
        // Extract and the re-Dispatch), including the restart gap, lands in
        // the surgery bucket; the decomposition still telescopes to e2e.
        let events = vec![
            ev(11, 0, 0, K::Submit),
            ev(11, 1, 0, K::Enqueue),
            ev(11, 2, 100, K::Dispatch),
            ev(11, 3, 100, K::RungStart),
            ev(11, 4, 160, K::Preempt),
            ev(11, 5, 160, K::Extract),
            ev(11, 6, 160, K::Checkpoint),
            // ...service killed and restarted here...
            ev(11, 7, 400, K::Restore),
            ev(11, 8, 500, K::Dispatch),
            ev(11, 9, 500, K::RungStart),
            ev(11, 10, 700, K::RungEnd),
            ev(11, 11, 700, K::Complete),
        ];
        let slo = derive_slo(&events).expect("well-formed");
        assert_eq!(slo.queue_ns, 100);
        assert_eq!(slo.compute_ns, 260);
        assert_eq!(slo.surgery_ns, 340);
        assert_eq!(slo.quarantine_ns, 0);
        assert_eq!(slo.outcome, FlightKind::Complete);
        assert_eq!(
            slo.queue_ns + slo.compute_ns + slo.surgery_ns + slo.quarantine_ns,
            slo.e2e_ns()
        );
    }

    #[test]
    fn barrier_promote_and_evict_work_on_buffered_trials() {
        use FlightKind as K;
        // Cohort-barrier lifecycle: extracted at the rung boundary,
        // checkpointed, promoted while buffered, then early-stopped from
        // the buffer at the next barrier.
        let events = vec![
            ev(21, 0, 0, K::Submit),
            ev(21, 1, 0, K::Enqueue),
            ev(21, 2, 10, K::Dispatch),
            ev(21, 3, 10, K::RungStart),
            ev(21, 4, 30, K::RungEnd),
            ev(21, 5, 30, K::Extract),
            ev(21, 6, 30, K::Checkpoint),
            ev(21, 7, 50, K::Promote),
            ev(21, 8, 90, K::Evict),
        ];
        let slo = derive_slo(&events).expect("well-formed");
        assert_eq!(slo.surgery_ns, 60);
        assert_eq!(slo.outcome, FlightKind::Evict);
    }

    #[test]
    fn cancel_evicts_straight_from_queue() {
        use FlightKind as K;
        let events = vec![
            ev(31, 0, 0, K::Submit),
            ev(31, 1, 0, K::Enqueue),
            ev(31, 2, 40, K::Evict),
        ];
        let slo = derive_slo(&events).expect("well-formed");
        assert_eq!(slo.queue_ns, 40);
        assert_eq!(slo.outcome, FlightKind::Evict);
    }

    #[test]
    fn queued_restore_keeps_trial_queued() {
        use FlightKind as K;
        // A trial that never reached a checkpoint re-queues fresh on
        // restart; time keeps accruing to the queue bucket.
        let events = vec![
            ev(41, 0, 0, K::Submit),
            ev(41, 1, 0, K::Enqueue),
            ev(41, 2, 100, K::Restore),
            ev(41, 3, 150, K::Dispatch),
            ev(41, 4, 150, K::RungStart),
            ev(41, 5, 180, K::RungEnd),
            ev(41, 6, 180, K::Complete),
        ];
        let slo = derive_slo(&events).expect("well-formed");
        assert_eq!(slo.queue_ns, 150);
        assert_eq!(slo.compute_ns, 30);
    }

    #[test]
    fn rollup_matches_manual_fold() {
        let mut events = happy_path();
        events.extend([
            ev(8, 0, 0, FlightKind::Submit),
            ev(8, 1, 0, FlightKind::Enqueue),
            ev(8, 2, 2_000, FlightKind::Dispatch),
            ev(8, 3, 2_000, FlightKind::RungStart),
            ev(8, 4, 3_000, FlightKind::RungEnd),
            ev(8, 5, 3_000, FlightKind::Complete),
        ]);
        let rollup = SloRollup::from_events(&events);
        assert_eq!(rollup.slos.len(), 2);
        assert_eq!(rollup.queue_waits_us.len(), 2);
        // Trial 7 queued 150ns = 0.15us, trial 8 queued 2000ns = 2us.
        assert_eq!(rollup.queue_wait_us(0.50), 0.15);
        assert_eq!(rollup.queue_wait_us(0.99), 2.0);
        assert_eq!(rollup.queue_us, 2.15);
        assert_eq!(rollup.compute_us, 0.5 + 1.0);
        assert_eq!(rollup.surgery_us, 0.15);
        assert_eq!(rollup.quarantine_us, 0.0);
    }

    #[test]
    fn malformed_sequences_are_rejected() {
        use FlightKind as K;
        // Missing terminal.
        let mut e = happy_path();
        e.pop();
        assert!(derive_slo(&e).is_err());
        // Event after terminal.
        let mut e = happy_path();
        e.push(ev(7, 12, 950, K::RungStart));
        assert!(derive_slo(&e).is_err());
        // Seq gap.
        let mut e = happy_path();
        e[4].seq = 9;
        assert!(derive_slo(&e).is_err());
        // Dispatch while already running.
        let mut e = happy_path();
        e[4] = ev(7, 4, 450, K::Dispatch);
        assert!(derive_slo(&e).is_err());
        // Time going backwards.
        let mut e = happy_path();
        e[4].t_ns = 10;
        assert!(derive_slo(&e).is_err());
        // Not starting with Submit.
        let e = vec![ev(1, 0, 0, K::Enqueue)];
        assert!(derive_slo(&e).is_err());
    }

    #[test]
    fn log_assigns_seq_and_clamps_time_per_trial() {
        let mut log = FlightLog::default();
        log.record(1, 50, FlightKind::Submit, None, None, None, String::new());
        log.record(2, 10, FlightKind::Submit, None, None, None, String::new());
        // 49 < 50: clamp to the trial's last timestamp, not a panic.
        log.record(1, 49, FlightKind::Enqueue, None, None, None, String::new());
        let events = log.events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 0);
        assert_eq!(events[2].seq, 1);
        assert_eq!(events[2].t_ns, 50);
    }

    #[test]
    fn fleet_trial_round_trips_through_json() {
        let e = ev(FLEET_TRIAL, 0, 123, FlightKind::DeviceBind);
        let json = serde_json::to_string(&e).unwrap();
        let back: FlightEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trial, FLEET_TRIAL);
        assert_eq!(back, e);
    }

    #[test]
    fn bucket_intervals_merge_and_sum_to_e2e() {
        let events = happy_path();
        let slo = derive_slo(&events).unwrap();
        let spans = bucket_intervals(&events).unwrap();
        assert_eq!(
            spans,
            vec![
                (100, 250, SloBucket::Queue),
                (250, 450, SloBucket::Compute),
                (450, 600, SloBucket::Surgery),
                (600, 900, SloBucket::Compute),
            ]
        );
        let total: u64 = spans.iter().map(|(a, b, _)| b - a).sum();
        assert_eq!(total, slo.e2e_ns());
        let compute: u64 = spans
            .iter()
            .filter(|(_, _, k)| *k == SloBucket::Compute)
            .map(|(a, b, _)| b - a)
            .sum();
        assert_eq!(compute, slo.compute_ns);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(nearest_rank(&v, 0.5), 2.0);
        assert_eq!(nearest_rank(&v, 0.99), 4.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn recorder_disabled_is_inert() {
        assert!(Profiler::current().is_none());
        let rec = FlightRecorder::new();
        assert!(!rec.enabled());
        rec.record_with(1, 0, FlightKind::Submit, None, None, None, || {
            panic!("detail closure must not run when disabled")
        });
    }
}
