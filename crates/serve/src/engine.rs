//! The event-driven service core.
//!
//! The engine runs an *open* tuning service on a simulated heterogeneous
//! fleet: tenants submit sweeps over time, an admission controller
//! ([`AdmitPolicy`]) decides which queued lane set trains next on each
//! free device, and successive halving prunes each sweep at synchronous
//! per-rung cohort barriers.
//!
//! Design points that differ from the closed-batch `hfta-sched` runner:
//!
//! - **Lazy segments.** Dispatch books simulated device time and
//!   schedules a `SegmentDone` event but does not train; the arithmetic
//!   runs when the segment settles (completion or preemption), so a
//!   high-priority arrival can cut a running array at any whole-step
//!   boundary and the realized occupancy matches what actually ran.
//! - **Synchronous cohort barriers.** A rung's promotion decision waits
//!   for *every* entrant of that sweep (score, divergence kill, or
//!   cancellation), then promotes the top `ceil(n/eta)` by score with
//!   trial-id tie-breaks. Decisions therefore depend only on per-trial
//!   trajectories — which are `(trial, step)`-deterministic — never on
//!   scheduling order, which is what makes crash/restart and preemption
//!   bit-invisible to the tuning outcome.
//! - **Preemptive lane migration.** Preemption extracts every surviving
//!   lane ([`LaneState`]) at the cut step, checkpoints it, and requeues
//!   the set; it later splices into a fresh array on whatever device
//!   admission picks — same mechanism as rung-boundary migration, so a
//!   preempted trial resumes bit-for-bit on any device or width.
//! - **Crash-safe journal, one commit per step.** With a checkpoint
//!   directory configured, every state change (and the teed
//!   flight-recorder stream) of one [`ServeEngine::step`] is staged and
//!   written as one journal line when the step ends, and every extracted
//!   lane is snapshotted into an immutable file that line names: a kill
//!   at any instant leaves whole steps only (`tests/crash_matrix.rs`).
//!   [`ServeEngine::recover`] replays the journal, reloads snapshots,
//!   re-emits the flight history, and resumes every surviving trial
//!   bit-identically. In-flight segments at the crash
//!   are lost and simply retrain from the last snapshot — determinism
//!   makes the retrained steps identical.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::PathBuf;

use hfta_core::surgery::LaneState;
use hfta_sched::asha::RungPolicy;
use hfta_sched::backend::ArrayBackend;
use hfta_sched::events::{ns, EventQueue};
use hfta_sched::trial::Trial;
use hfta_sim::{DeviceFleet, SharingPolicy, TrainingJob};
use hfta_telemetry::flight::{self, FlightCursor, FlightKind, FlightRecorder, SimSegment};
use hfta_telemetry::Profiler;

use crate::admission::{AdmitPolicy, FairQueue};
use crate::checkpoint::{CheckpointStore, ServeJournalRec};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// Admission policy (static FIFO baseline vs. preemptive fair share).
    pub policy: AdmitPolicy,
    /// Successive-halving rung ladder shared by every sweep.
    pub rung: RungPolicy,
    /// Upper bound on fused array width regardless of device memory.
    pub width_cap: usize,
    /// Checkpoint/journal directory; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
}

/// One tenant's tuning-sweep submission.
#[derive(Debug, Clone)]
pub struct SweepSpec<C> {
    /// Tenant name (fair-share accounting key).
    pub tenant: String,
    /// Scheduling priority: fair-share weight and preemption rank.
    pub priority: f64,
    /// One hyper-parameter configuration per trial.
    pub configs: Vec<C>,
    /// Optional per-trial model graphs for mixed-architecture sweeps:
    /// empty means every trial trains the backend's (single) model, as
    /// before; non-empty must pair one graph with each config, and the
    /// sweep is admitted only if the auto-fusion planner finds fusible
    /// structure across the set (see [`crate::ServeError::Unfusible`]).
    pub archs: Vec<hfta_plan::ModelGraph>,
}

impl<C> SweepSpec<C> {
    /// Admission validation: trial count, graph pairing, and — for
    /// mixed-architecture sweeps — planner fusibility.
    pub fn validate(&self) -> Result<(), crate::ServeError> {
        use crate::ServeError;
        if self.configs.is_empty() {
            return Err(ServeError::EmptySweep {
                tenant: self.tenant.clone(),
            });
        }
        if self.archs.is_empty() {
            return Ok(());
        }
        if self.archs.len() != self.configs.len() {
            return Err(ServeError::ArchCountMismatch {
                tenant: self.tenant.clone(),
                archs: self.archs.len(),
                configs: self.configs.len(),
            });
        }
        let plan = hfta_plan::FusionPlan::plan(&self.archs).map_err(|e| ServeError::Unfusible {
            tenant: self.tenant.clone(),
            detail: e.to_string(),
        })?;
        if self.archs.len() > 1 && plan.fused_fraction() == 0.0 {
            return Err(ServeError::Unfusible {
                tenant: self.tenant.clone(),
                detail: format!(
                    "planner fused 0% of lane-ops across {} model graphs",
                    self.archs.len()
                ),
            });
        }
        Ok(())
    }
}

/// A command on the service's submission queue.
#[derive(Debug, Clone)]
pub enum ServeCmd<C> {
    /// Admit a new sweep.
    Submit(SweepSpec<C>),
    /// Cancel a previously submitted sweep by id.
    Cancel {
        /// Sweep id returned by submission order.
        sweep: u64,
    },
}

/// Lifecycle state of one trial inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialState {
    /// Waiting for first dispatch at rung 0.
    Queued,
    /// Training on a device right now.
    Running,
    /// Extracted lane waiting (barrier, preemption, or restore).
    Buffered,
    /// Survived every rung; final loss recorded.
    Finished,
    /// Early-stopped at a rung barrier.
    Stopped,
    /// Divergence sentinel fired; lane evicted.
    Killed,
    /// Sweep cancelled before the trial finished.
    Cancelled,
}

impl TrialState {
    /// Stable label used in journals, outcomes, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrialState::Queued => "queued",
            TrialState::Running => "running",
            TrialState::Buffered => "buffered",
            TrialState::Finished => "finished",
            TrialState::Stopped => "stopped",
            TrialState::Killed => "killed",
            TrialState::Cancelled => "cancelled",
        }
    }

    /// Parses a journal label back into a state.
    pub fn from_label(label: &str) -> Option<TrialState> {
        Some(match label {
            "queued" => TrialState::Queued,
            "running" => TrialState::Running,
            "buffered" => TrialState::Buffered,
            "finished" => TrialState::Finished,
            "stopped" => TrialState::Stopped,
            "killed" => TrialState::Killed,
            "cancelled" => TrialState::Cancelled,
            _ => return None,
        })
    }

    /// True once the trial can never train again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TrialState::Finished | TrialState::Stopped | TrialState::Killed | TrialState::Cancelled
        )
    }
}

/// Aggregate service metrics for one run (serializable bench record).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeReport {
    /// Admission policy label.
    pub policy: String,
    /// Total sweeps submitted.
    pub sweeps: u64,
    /// Total trials submitted.
    pub trials: u64,
    /// Trials that survived every rung.
    pub finished: u64,
    /// Trials early-stopped at barriers.
    pub stopped: u64,
    /// Trials killed by divergence sentinels.
    pub killed: u64,
    /// Trials cancelled by their tenant.
    pub cancelled: u64,
    /// Simulated completion time of the last settled segment.
    pub makespan_s: f64,
    /// Realized device-hours across the fleet.
    pub device_hours: f64,
    /// Busy fraction of `fleet x makespan`.
    pub occupancy: f64,
    /// Live-lane fraction of occupied lane-time.
    pub packing_efficiency: f64,
    /// Fused arrays assembled (build + splice).
    pub arrays_built: u64,
    /// Running arrays cut by priority preemption.
    pub preemptions: u64,
    /// Lane snapshots written to the checkpoint store.
    pub checkpoints: u64,
    /// Lanes restored from snapshots at recovery.
    pub restores: u64,
    /// Lanes spliced into arrays from buffered state.
    pub lanes_migrated: u64,
    /// Widest array dispatched.
    pub max_width: u64,
    /// Median queue wait (submit to first dispatch), microseconds.
    pub queue_wait_p50_us: f64,
    /// Tail queue wait, microseconds.
    pub queue_wait_p99_us: f64,
    /// Median end-to-end latency (submit to terminal), microseconds.
    pub e2e_latency_p50_us: f64,
    /// Tail end-to-end latency, microseconds.
    pub e2e_latency_p99_us: f64,
    /// Fleet-wide SLO decomposition: queued time, microseconds.
    pub queue_us: f64,
    /// Compute time, microseconds.
    pub compute_us: f64,
    /// Surgery time (barriers, preemption, restore gaps), microseconds.
    pub surgery_us: f64,
    /// Quarantine time, microseconds.
    pub quarantine_us: f64,
}

/// Final status of one trial, for bit-identity comparisons.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TrialOutcome {
    /// Trial id.
    pub trial: u64,
    /// Owning sweep id.
    pub sweep: u64,
    /// Owning tenant name.
    pub tenant: String,
    /// Terminal state label.
    pub status: String,
    /// Whether `loss_bits` is meaningful (finished trials only).
    pub has_loss: bool,
    /// Bit pattern of the final f32 loss.
    pub loss_bits: u32,
}

/// Everything a completed service run produced.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Aggregate metrics.
    pub report: ServeReport,
    /// Per-trial terminal outcomes, in trial-id order.
    pub outcomes: Vec<TrialOutcome>,
}

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

#[derive(Debug)]
enum EventKind {
    /// A booked segment reached its scheduled end (key into `running`).
    SegmentDone(u64),
    /// A queued command (index into `commands`) becomes visible.
    Command(usize),
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

#[derive(Debug)]
struct SweepInfo {
    tenant: usize,
    priority: f64,
    cancelled: bool,
}

#[derive(Debug)]
struct TrialInfo {
    sweep: u64,
    state: TrialState,
    /// Static policy: device the trial was first placed on.
    bound: Option<usize>,
    loss_bits: Option<u32>,
}

/// A set of same-sweep trials ready to train: same rung, same cumulative
/// step count, so they can fuse into one array.
#[derive(Debug)]
struct ReadySet {
    sweep: u64,
    rung: u64,
    cum_steps: u64,
    trials: Vec<u64>,
    /// One buffered lane per trial; `None` lanes are freshly built.
    lanes: Vec<Option<LaneState>>,
    /// Static policy: required device, from first placement.
    bound: Option<usize>,
    ready_since: f64,
    seq: u64,
}

/// A booked (not yet trained) segment on one device.
struct RunningSeg<A> {
    aid: u64,
    array: A,
    sweep: u64,
    tenant: usize,
    priority: f64,
    rung: u64,
    cum_start: u64,
    steps: u64,
    trials: Vec<u64>,
    device: usize,
    width: usize,
    start_s: f64,
    step_s: f64,
}

/// One rung's synchronous decision barrier for one sweep.
#[derive(Debug)]
struct Cohort {
    expected: Vec<u64>,
    /// Per-trial report: `Some(score)` from a surviving lane, `None`
    /// from a killed or cancelled one.
    reports: BTreeMap<u64, Option<f32>>,
    decided: bool,
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The long-running multi-tenant tuning service.
pub struct ServeEngine<B: ArrayBackend> {
    backend: B,
    fleet: DeviceFleet,
    cfg: ServeCfg,
    profile: TrainingJob,
    profiler: Option<Profiler>,
    flight: FlightRecorder,
    store: Option<CheckpointStore>,

    commands: Vec<Option<ServeCmd<B::Config>>>,
    configs: Vec<B::Config>,
    trials: Vec<TrialInfo>,
    sweeps: Vec<SweepInfo>,
    fair: FairQueue,

    ready: Vec<ReadySet>,
    cohorts: BTreeMap<(u64, u64), Cohort>,
    limbo: BTreeMap<u64, LaneState>,
    running: BTreeMap<u64, RunningSeg<B::Array>>,
    cancelled_segs: BTreeSet<u64>,
    /// Engine-planned busy horizon per device (realized occupancy is
    /// posted to the fleet only when segments settle).
    busy: Vec<f64>,

    events: EventQueue<EventKind>,
    set_seq: u64,
    run_seq: u64,
    next_aid: u64,
    pending_submits: u64,
    now_s: f64,
    makespan_s: f64,
    /// Flight events already teed into the journal (count watermark).
    teed: usize,
    batches: u64,

    preemptions: u64,
    checkpoints: u64,
    restores: u64,
    lanes_migrated: u64,
    arrays_built: u64,
    max_width: u64,
}

impl<B: ArrayBackend> ServeEngine<B> {
    /// Fresh service over `fleet`, with `commands` pre-queued at their
    /// timestamps (must be non-decreasing). With a checkpoint directory
    /// configured the journal is created (truncating any previous one).
    pub fn new(
        backend: B,
        fleet: DeviceFleet,
        cfg: ServeCfg,
        commands: Vec<(f64, ServeCmd<B::Config>)>,
    ) -> io::Result<ServeEngine<B>> {
        cfg.rung.validate();
        let store = match &cfg.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::create(dir)?),
            None => None,
        };
        let mut eng = ServeEngine::bare(backend, fleet, cfg, store);
        let mut prev = f64::NEG_INFINITY;
        for (t, cmd) in commands {
            assert!(t >= prev, "command timestamps must be non-decreasing");
            prev = t;
            if let ServeCmd::Submit(spec) = &cmd {
                spec.validate().map_err(io::Error::from)?;
                eng.pending_submits += 1;
            }
            let idx = eng.commands.len();
            eng.commands.push(Some(cmd));
            eng.events.push(t.max(0.0), 1, EventKind::Command(idx));
        }
        Ok(eng)
    }

    fn bare(
        backend: B,
        fleet: DeviceFleet,
        cfg: ServeCfg,
        store: Option<CheckpointStore>,
    ) -> ServeEngine<B> {
        let profile = backend.job_profile();
        let profiler = Profiler::current();
        let teed = profiler.as_ref().map_or(0, |p| p.flight_event_count());
        let busy = vec![0.0; fleet.len()];
        ServeEngine {
            backend,
            fleet,
            cfg,
            profile,
            profiler,
            flight: FlightRecorder::new(),
            store,
            commands: Vec::new(),
            configs: Vec::new(),
            trials: Vec::new(),
            sweeps: Vec::new(),
            fair: FairQueue::new(),
            ready: Vec::new(),
            cohorts: BTreeMap::new(),
            limbo: BTreeMap::new(),
            running: BTreeMap::new(),
            cancelled_segs: BTreeSet::new(),
            busy,
            events: EventQueue::default(),
            set_seq: 0,
            run_seq: 0,
            next_aid: 0,
            pending_submits: 0,
            now_s: 0.0,
            makespan_s: 0.0,
            teed,
            batches: 0,
            preemptions: 0,
            checkpoints: 0,
            restores: 0,
            lanes_migrated: 0,
            arrays_built: 0,
            max_width: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Batches processed so far (crash injection points).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// True while events remain on the queue.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Trials submitted so far.
    pub fn trial_count(&self) -> usize {
        self.trials.len()
    }

    /// Sweeps submitted so far.
    pub fn sweep_count(&self) -> usize {
        self.sweeps.len()
    }

    /// Lifecycle state of `trial`.
    pub fn state(&self, trial: u64) -> TrialState {
        self.trials[trial as usize].state
    }

    /// Sweep id that owns `trial`.
    pub fn sweep_of(&self, trial: u64) -> u64 {
        self.trials[trial as usize].sweep
    }

    /// Enqueues a live submission at the current simulated time and
    /// returns the sweep id it will be admitted under.
    ///
    /// # Errors
    ///
    /// Rejects the sweep before it reaches the queue when it has no
    /// trials, pairs graphs and configs unevenly, or — for
    /// mixed-architecture sweeps — the planner finds nothing to fuse.
    pub fn submit(&mut self, spec: SweepSpec<B::Config>) -> Result<u64, crate::ServeError> {
        spec.validate()?;
        let id = self.sweeps.len() as u64 + self.pending_submits;
        self.pending_submits += 1;
        let idx = self.commands.len();
        self.commands.push(Some(ServeCmd::Submit(spec)));
        self.events.push(self.now_s, 1, EventKind::Command(idx));
        Ok(id)
    }

    /// Enqueues a live cancellation at the current simulated time.
    pub fn cancel(&mut self, sweep: u64) {
        let idx = self.commands.len();
        self.commands.push(Some(ServeCmd::Cancel { sweep }));
        self.events.push(self.now_s, 1, EventKind::Command(idx));
    }

    /// Processes one event batch (all events at the next timestamp,
    /// completions before commands) and re-dispatches. Returns `false`
    /// when no events remain.
    pub fn step(&mut self) -> io::Result<bool> {
        let Some((t, batch)) = self.events.pop_batch() else {
            return Ok(false);
        };
        self.now_s = t;
        for kind in batch {
            match kind {
                EventKind::SegmentDone(key) => self.complete(key, t)?,
                EventKind::Command(idx) => self.command(idx, t)?,
            }
        }
        self.dispatch(t)?;
        self.commit()?;
        self.batches += 1;
        Ok(true)
    }

    /// Runs until the event queue is empty.
    pub fn drain(&mut self) -> io::Result<()> {
        while self.step()? {}
        Ok(())
    }

    // -- command handling ---------------------------------------------

    fn command(&mut self, idx: usize, t: f64) -> io::Result<()> {
        match self.commands[idx].take().expect("command processed twice") {
            ServeCmd::Submit(spec) => self.handle_submit(spec, t),
            ServeCmd::Cancel { sweep } => self.handle_cancel(sweep, t),
        }
    }

    fn handle_submit(&mut self, spec: SweepSpec<B::Config>, t: f64) -> io::Result<()> {
        assert!(!spec.configs.is_empty(), "a sweep needs at least one trial");
        self.pending_submits = self.pending_submits.saturating_sub(1);
        let sweep = self.sweeps.len() as u64;
        let tenant = self.fair.tenant_id(&spec.tenant, spec.priority);
        let base = self.configs.len() as u64;
        let n = spec.configs.len() as u64;
        let t_ns = ns(t);

        let mut rec = ServeJournalRec::blank("submit", t_ns);
        rec.sweep = sweep;
        rec.tenant = spec.tenant.clone();
        rec.priority = spec.priority;
        rec.base_trial = base;
        rec.n_trials = n;
        self.journal(&rec)?;

        let ids: Vec<u64> = (base..base + n).collect();
        for (i, config) in spec.configs.into_iter().enumerate() {
            let tid = ids[i];
            self.configs.push(config);
            self.trials.push(TrialInfo {
                sweep,
                state: TrialState::Queued,
                bound: None,
                loss_bits: None,
            });
            self.flight
                .record_with(tid, t_ns, FlightKind::Submit, None, None, None, || {
                    format!(
                        "sweep {sweep} tenant {} prio {}",
                        spec.tenant, spec.priority
                    )
                });
            self.flight
                .record(tid, t_ns, FlightKind::Enqueue, None, None, None);
        }
        self.sweeps.push(SweepInfo {
            tenant,
            priority: spec.priority,
            cancelled: false,
        });
        self.cohorts.insert(
            (sweep, 0),
            Cohort {
                expected: ids.clone(),
                reports: BTreeMap::new(),
                decided: false,
            },
        );
        let seq = self.set_seq;
        self.set_seq += 1;
        let lanes = ids.iter().map(|_| None).collect();
        self.ready.push(ReadySet {
            sweep,
            rung: 0,
            cum_steps: 0,
            trials: ids,
            lanes,
            bound: None,
            ready_since: t,
            seq,
        });
        if self.cfg.policy == AdmitPolicy::FairShare {
            self.maybe_preempt(spec.priority, sweep, t)?;
        }
        Ok(())
    }

    fn handle_cancel(&mut self, sweep: u64, t: f64) -> io::Result<()> {
        let t_ns = ns(t);
        let mut rec = ServeJournalRec::blank("cancel", t_ns);
        rec.sweep = sweep;
        self.journal(&rec)?;
        let Some(info) = self.sweeps.get_mut(sweep as usize) else {
            return Ok(()); // cancelling an unknown sweep is a no-op
        };
        if info.cancelled {
            return Ok(());
        }
        info.cancelled = true;

        // Queued or preempted sets: evict immediately, reporting `None`
        // to each member's pending cohort so barriers still complete.
        let (mine, keep): (Vec<ReadySet>, Vec<ReadySet>) = std::mem::take(&mut self.ready)
            .into_iter()
            .partition(|s| s.sweep == sweep);
        self.ready = keep;
        for set in mine {
            for &tid in &set.trials {
                self.flight
                    .record_with(tid, t_ns, FlightKind::Evict, None, None, None, || {
                        "sweep cancelled".to_string()
                    });
                self.set_terminal(tid, TrialState::Cancelled, None, t_ns)?;
                self.report(sweep, set.rung, tid, None, t)?;
            }
        }
        // Limbo lanes already reported; just evict them. The pending
        // decision skips non-live candidates.
        let limbo_mine: Vec<u64> = self
            .limbo
            .keys()
            .copied()
            .filter(|&tid| self.trials[tid as usize].sweep == sweep)
            .collect();
        for tid in limbo_mine {
            self.limbo.remove(&tid);
            self.flight
                .record_with(tid, t_ns, FlightKind::Evict, None, None, None, || {
                    "sweep cancelled".to_string()
                });
            self.set_terminal(tid, TrialState::Cancelled, None, t_ns)?;
        }
        // Running arrays keep their booking; completion observes the
        // cancelled flag and evicts then.
        Ok(())
    }

    // -- segment settlement -------------------------------------------

    /// Grid step duration (ns) of a booked segment.
    fn per_step_ns(step_s: f64) -> u64 {
        (step_s * 1e9).round() as u64
    }

    /// Runs the deferred arithmetic for `steps` of a booked segment and
    /// posts the realized occupancy/FLOPs/service charges.
    fn train_part(
        &mut self,
        seg: &mut RunningSeg<B::Array>,
        steps: u64,
    ) -> hfta_sched::backend::TrainOutcome {
        let start_ns = ns(seg.start_s);
        let per_step_ns = Self::per_step_ns(seg.step_s);
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns: start_ns,
                device: Some(seg.device as u64),
                array: Some(seg.aid),
            });
            p.set_sim_segment(Some(SimSegment {
                base_ns: start_ns,
                per_step_ns,
                base_step: seg.cum_start,
                device: seg.device as u64,
                array: seg.aid,
            }));
        }
        let outcome = self.backend.train(&mut seg.array, steps);
        if let Some(p) = &self.profiler {
            p.set_sim_segment(None);
        }
        if steps > 0 {
            let dur = steps as f64 * seg.step_s;
            self.fleet
                .occupy(seg.device, seg.start_s, dur, seg.width, seg.width);
            let per_lane = steps as f64 * self.profile.total_flops() as f64;
            self.fleet.charge_flops(
                seg.device,
                per_lane * seg.width as f64,
                per_lane * seg.width as f64,
            );
            self.fair
                .charge(seg.tenant, (steps * seg.width as u64) as f64);
            self.makespan_s = self.makespan_s.max(seg.start_s + dur);
        }
        outcome
    }

    fn complete(&mut self, key: u64, t: f64) -> io::Result<()> {
        if self.cancelled_segs.remove(&key) {
            return Ok(()); // segment was preempted earlier
        }
        let mut seg = self
            .running
            .remove(&key)
            .expect("completion for unknown segment");
        let steps = seg.steps;
        let outcome = self.train_part(&mut seg, steps);
        let end_ns = ns(seg.start_s) + Self::per_step_ns(seg.step_s) * steps;
        let dev = Some(seg.device as u64);
        let arr = Some(seg.aid);
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns: end_ns,
                device: dev,
                array: arr,
            });
        }
        let final_rung = self.cfg.rung.final_rung() as u64;
        let cancelled = self.sweeps[seg.sweep as usize].cancelled;
        for (i, &tid) in seg.trials.iter().enumerate() {
            let lane = Some(i as u64);
            if cancelled {
                self.flight
                    .record_with(tid, end_ns, FlightKind::Evict, dev, arr, lane, || {
                        "sweep cancelled".to_string()
                    });
                self.set_terminal(tid, TrialState::Cancelled, None, end_ns)?;
                self.report(seg.sweep, seg.rung, tid, None, t)?;
                continue;
            }
            if outcome.killed[i] {
                self.flight
                    .record_with(tid, end_ns, FlightKind::Evict, dev, arr, lane, || {
                        "divergence sentinel".to_string()
                    });
                self.set_terminal(tid, TrialState::Killed, None, end_ns)?;
                self.report(seg.sweep, seg.rung, tid, None, t)?;
                continue;
            }
            let score = outcome.scores[i];
            self.flight
                .record_with(tid, end_ns, FlightKind::RungEnd, dev, arr, lane, || {
                    format!("rung {} score {score}", seg.rung)
                });
            if seg.rung == final_rung {
                self.flight
                    .record(tid, end_ns, FlightKind::Complete, dev, arr, lane);
                self.set_terminal(tid, TrialState::Finished, Some((-score).to_bits()), end_ns)?;
                self.report(seg.sweep, seg.rung, tid, Some(score), t)?;
                continue;
            }
            // Extract the lane for the barrier; checkpoint it at the
            // rung boundary.
            let state = self.backend.extract(&seg.array, i);
            self.checkpoint_lane(tid, seg.rung, seg.cum_start + steps, &state, end_ns)?;
            self.trials[tid as usize].state = TrialState::Buffered;
            self.limbo.insert(tid, state);
            self.report(seg.sweep, seg.rung, tid, Some(score), t)?;
        }
        Ok(())
    }

    /// Snapshots one extracted lane and journals the checkpoint.
    fn checkpoint_lane(
        &mut self,
        tid: u64,
        rung: u64,
        cum_steps: u64,
        state: &LaneState,
        t_ns: u64,
    ) -> io::Result<()> {
        let Some(store) = &mut self.store else {
            return Ok(());
        };
        store.write_snapshot(tid, state)?;
        let mut rec = ServeJournalRec::blank("ckpt", t_ns);
        rec.trial = tid;
        rec.sweep = self.trials[tid as usize].sweep;
        rec.rung = rung;
        rec.cum_steps = cum_steps;
        store.stage(&rec)?;
        self.checkpoints += 1;
        self.flight
            .record_with(tid, t_ns, FlightKind::Checkpoint, None, None, None, || {
                format!("rung {rung} cum {cum_steps}")
            });
        Ok(())
    }

    // -- cohort barriers ----------------------------------------------

    fn report(
        &mut self,
        sweep: u64,
        rung: u64,
        tid: u64,
        score: Option<f32>,
        t: f64,
    ) -> io::Result<()> {
        let mut rec = ServeJournalRec::blank("report", ns(t));
        rec.sweep = sweep;
        rec.trial = tid;
        rec.rung = rung;
        rec.has_score = score.is_some();
        rec.score_bits = score.map_or(0, f32::to_bits);
        self.journal(&rec)?;
        let cohort = self
            .cohorts
            .get_mut(&(sweep, rung))
            .expect("report for unknown cohort");
        cohort.reports.insert(tid, score);
        if !cohort.decided && cohort.reports.len() == cohort.expected.len() {
            self.decide(sweep, rung, t)?;
        }
        Ok(())
    }

    /// Synchronous successive-halving decision: every entrant has
    /// reported, so rank the live candidates and promote the top
    /// `ceil(n / eta)`. Candidate order depends only on `(score, id)`,
    /// never on arrival order — crash/restart and preemption cannot
    /// change the outcome.
    fn decide(&mut self, sweep: u64, rung: u64, t: f64) -> io::Result<()> {
        let t_ns = ns(t);
        let cohort = self.cohorts.get_mut(&(sweep, rung)).expect("cohort");
        cohort.decided = true;
        let mut candidates: Vec<(f32, u64)> = cohort
            .reports
            .iter()
            .filter_map(|(&tid, &score)| score.map(|s| (s, tid)))
            .collect();
        candidates.retain(|&(_, tid)| self.trials[tid as usize].state == TrialState::Buffered);
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let eta = self.cfg.rung.eta.max(1);
        let keep = if candidates.is_empty() {
            0
        } else {
            candidates.len().div_ceil(eta)
        };
        let mut promoted: Vec<u64> = candidates[..keep].iter().map(|&(_, tid)| tid).collect();
        promoted.sort_unstable();

        let mut rec = ServeJournalRec::blank("decision", t_ns);
        rec.sweep = sweep;
        rec.rung = rung;
        rec.promoted = promoted.clone();
        self.journal(&rec)?;

        for &(_, tid) in &candidates[keep..] {
            self.limbo.remove(&tid);
            self.flight
                .record_with(tid, t_ns, FlightKind::Evict, None, None, None, || {
                    format!("early-stopped at rung {rung}")
                });
            self.set_terminal(tid, TrialState::Stopped, None, t_ns)?;
        }
        if promoted.is_empty() {
            return Ok(());
        }
        assert!(
            rung < self.cfg.rung.final_rung() as u64,
            "final-rung lanes complete instead of reporting to a barrier"
        );
        let next = rung + 1;
        let cum = self.cfg.rung.total_steps_at(rung as usize);
        self.cohorts.insert(
            (sweep, next),
            Cohort {
                expected: promoted.clone(),
                reports: BTreeMap::new(),
                decided: false,
            },
        );
        for &tid in &promoted {
            self.flight
                .record_with(tid, t_ns, FlightKind::Promote, None, None, None, || {
                    format!("to rung {next}")
                });
        }
        // Static admission keeps each trial on its bound device, so the
        // promoted cohort splits into per-device sets; fair share keeps
        // one set and places it wherever capacity frees up first.
        let mut groups: BTreeMap<Option<usize>, Vec<u64>> = BTreeMap::new();
        for &tid in &promoted {
            let bound = match self.cfg.policy {
                AdmitPolicy::Static => self.trials[tid as usize].bound,
                AdmitPolicy::FairShare => None,
            };
            groups.entry(bound).or_default().push(tid);
        }
        for (bound, ids) in groups {
            let lanes = ids
                .iter()
                .map(|tid| Some(self.limbo.remove(tid).expect("promoted lane in limbo")))
                .collect();
            let seq = self.set_seq;
            self.set_seq += 1;
            self.ready.push(ReadySet {
                sweep,
                rung: next,
                cum_steps: cum,
                trials: ids,
                lanes,
                bound,
                ready_since: t,
                seq,
            });
        }
        Ok(())
    }

    // -- admission ----------------------------------------------------

    fn idle_devices(&self, t: f64) -> Vec<usize> {
        (0..self.fleet.len())
            .filter(|&d| self.busy[d] <= t + 1e-12)
            .collect()
    }

    fn dispatch(&mut self, t: f64) -> io::Result<()> {
        loop {
            if self.ready.is_empty() {
                return Ok(());
            }
            let idle = self.idle_devices(t);
            if idle.is_empty() {
                return Ok(());
            }
            let Some((set_idx, device)) = self.pick(&idle) else {
                return Ok(());
            };
            self.launch(set_idx, device, t)?;
        }
    }

    /// Chooses the next (ready set, device) pair, or `None` if nothing
    /// may start.
    fn pick(&self, idle: &[usize]) -> Option<(usize, usize)> {
        match self.cfg.policy {
            AdmitPolicy::Static => {
                // Strict FIFO, no backfilling: only the oldest set may
                // start; if its bound device is busy, everything waits.
                let (idx, head) = self.ready.iter().enumerate().min_by(|(_, a), (_, b)| {
                    a.ready_since
                        .total_cmp(&b.ready_since)
                        .then(a.seq.cmp(&b.seq))
                })?;
                let device = match head.bound {
                    Some(d) => idle.contains(&d).then_some(d),
                    None => idle.first().copied(),
                };
                device.map(|d| (idx, d))
            }
            AdmitPolicy::FairShare => {
                let mut eligible: Vec<usize> = self
                    .ready
                    .iter()
                    .map(|s| self.sweeps[s.sweep as usize].tenant)
                    .collect();
                eligible.sort_unstable();
                eligible.dedup();
                let tenant = self.fair.pick(&eligible)?;
                // Within the tenant: deepest rung first (finish what is
                // closest to done), then furthest-progressed, then FIFO.
                let (idx, _) = self
                    .ready
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| self.sweeps[s.sweep as usize].tenant == tenant)
                    .min_by(|(_, a), (_, b)| {
                        b.rung
                            .cmp(&a.rung)
                            .then(b.cum_steps.cmp(&a.cum_steps))
                            .then(a.seq.cmp(&b.seq))
                    })?;
                Some((idx, *idle.first()?))
            }
        }
    }

    fn launch(&mut self, set_idx: usize, device: usize, t: f64) -> io::Result<()> {
        let mut set = self.ready.swap_remove(set_idx);
        let cap = self
            .fleet
            .max_fused_width(device, &self.profile, self.cfg.width_cap)
            .max(1);
        let width = set.trials.len().min(cap);
        if width < set.trials.len() {
            // The overflow keeps the set's queue position.
            let rest_trials = set.trials.split_off(width);
            let rest_lanes = set.lanes.split_off(width);
            self.ready.push(ReadySet {
                sweep: set.sweep,
                rung: set.rung,
                cum_steps: set.cum_steps,
                trials: rest_trials,
                lanes: rest_lanes,
                bound: set.bound,
                ready_since: set.ready_since,
                seq: set.seq,
            });
        }
        let aid = self.next_aid;
        self.next_aid += 1;
        self.arrays_built += 1;
        self.max_width = self.max_width.max(width as u64);
        let t_ns = ns(t);
        let trial_objs: Vec<Trial<B::Config>> = set
            .trials
            .iter()
            .map(|&tid| Trial {
                id: tid,
                config: self.configs[tid as usize].clone(),
            })
            .collect();
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns,
                device: Some(device as u64),
                array: Some(aid),
            });
        }
        let fresh = set.cum_steps == 0 && set.lanes.iter().all(Option::is_none);
        let array = if fresh {
            self.backend.build(&trial_objs)
        } else {
            let lanes: Vec<LaneState> = set
                .lanes
                .into_iter()
                .map(|l| l.expect("resumed set has every lane buffered"))
                .collect();
            self.lanes_migrated += lanes.len() as u64;
            self.backend.splice(&trial_objs, &lanes, set.cum_steps)
        };
        let steps = self.cfg.rung.total_steps_at(set.rung as usize) - set.cum_steps;
        assert!(steps > 0, "ready set with nothing left to train");
        let step_s = self
            .fleet
            .step_time_s(device, &self.profile, width, SharingPolicy::Hfta);
        for (i, &tid) in set.trials.iter().enumerate() {
            self.trials[tid as usize].state = TrialState::Running;
            if self.cfg.policy == AdmitPolicy::Static && self.trials[tid as usize].bound.is_none() {
                self.trials[tid as usize].bound = Some(device);
            }
            let (rung, cum) = (set.rung, set.cum_steps);
            self.flight.record_with(
                tid,
                t_ns,
                FlightKind::Dispatch,
                Some(device as u64),
                Some(aid),
                Some(i as u64),
                || format!("rung {rung} cum {cum} width {width}"),
            );
            self.flight.record_with(
                tid,
                t_ns,
                FlightKind::RungStart,
                Some(device as u64),
                Some(aid),
                Some(i as u64),
                || format!("rung {rung} steps {steps}"),
            );
        }
        self.busy[device] = t + steps as f64 * step_s;
        let key = self.run_seq;
        self.run_seq += 1;
        self.events
            .push(self.busy[device], 0, EventKind::SegmentDone(key));
        self.running.insert(
            key,
            RunningSeg {
                aid,
                array,
                sweep: set.sweep,
                tenant: self.sweeps[set.sweep as usize].tenant,
                priority: self.sweeps[set.sweep as usize].priority,
                rung: set.rung,
                cum_start: set.cum_steps,
                steps,
                trials: set.trials,
                device,
                width,
                start_s: t,
                step_s,
            },
        );
        Ok(())
    }

    // -- preemption ---------------------------------------------------

    /// On a saturated fleet, a strictly higher-priority arrival cuts the
    /// lowest-priority running array at its current whole-step boundary.
    fn maybe_preempt(&mut self, priority: f64, sweep: u64, t: f64) -> io::Result<()> {
        if !self.idle_devices(t).is_empty() {
            return Ok(());
        }
        let victim = self
            .running
            .iter()
            .filter(|(_, s)| s.sweep != sweep && s.priority < priority)
            .min_by(|(_, a), (_, b)| {
                a.priority
                    .total_cmp(&b.priority)
                    .then(a.device.cmp(&b.device))
            })
            .map(|(&k, _)| k);
        if let Some(key) = victim {
            self.preempt(key, t)?;
        }
        Ok(())
    }

    fn preempt(&mut self, key: u64, t: f64) -> io::Result<()> {
        let (steps, start_s, step_s) = {
            let seg = &self.running[&key];
            (seg.steps, seg.start_s, seg.step_s)
        };
        let done = (((t - start_s) / step_s) + 1e-9).floor().max(0.0) as u64;
        let k = done.min(steps);
        if k >= steps {
            return Ok(()); // the segment completes at this very instant
        }
        let mut seg = self.running.remove(&key).expect("victim exists");
        self.cancelled_segs.insert(key);
        self.preemptions += 1;
        let outcome = self.train_part(&mut seg, k);
        let cut_ns = ns(seg.start_s) + Self::per_step_ns(seg.step_s) * k;
        let cut_s = seg.start_s + k as f64 * seg.step_s;
        self.busy[seg.device] = cut_s.min(t);
        let dev = Some(seg.device as u64);
        let arr = Some(seg.aid);
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns: cut_ns,
                device: dev,
                array: arr,
            });
        }
        let cancelled = self.sweeps[seg.sweep as usize].cancelled;
        let mut survivors: Vec<u64> = Vec::new();
        let mut lanes: Vec<Option<LaneState>> = Vec::new();
        for (i, &tid) in seg.trials.iter().enumerate() {
            let lane = Some(i as u64);
            if outcome.killed[i] {
                self.flight
                    .record_with(tid, cut_ns, FlightKind::Evict, dev, arr, lane, || {
                        "divergence sentinel".to_string()
                    });
                self.set_terminal(tid, TrialState::Killed, None, cut_ns)?;
                self.report(seg.sweep, seg.rung, tid, None, t)?;
                continue;
            }
            if cancelled {
                self.flight
                    .record_with(tid, cut_ns, FlightKind::Evict, dev, arr, lane, || {
                        "sweep cancelled".to_string()
                    });
                self.set_terminal(tid, TrialState::Cancelled, None, cut_ns)?;
                self.report(seg.sweep, seg.rung, tid, None, t)?;
                continue;
            }
            self.flight
                .record_with(tid, cut_ns, FlightKind::Preempt, dev, arr, lane, || {
                    format!("after {k} of {} steps", seg.steps)
                });
            let state = self.backend.extract(&seg.array, i);
            self.checkpoint_lane(tid, seg.rung, seg.cum_start + k, &state, cut_ns)?;
            self.trials[tid as usize].state = TrialState::Buffered;
            survivors.push(tid);
            lanes.push(Some(state));
        }
        if !survivors.is_empty() {
            let seq = self.set_seq;
            self.set_seq += 1;
            self.ready.push(ReadySet {
                sweep: seg.sweep,
                rung: seg.rung,
                cum_steps: seg.cum_start + k,
                trials: survivors,
                lanes,
                bound: None,
                ready_since: t,
                seq,
            });
        }
        Ok(())
    }

    // -- persistence --------------------------------------------------

    fn journal(&mut self, rec: &ServeJournalRec) -> io::Result<()> {
        match &mut self.store {
            Some(store) => store.stage(rec),
            None => Ok(()),
        }
    }

    fn set_terminal(
        &mut self,
        tid: u64,
        state: TrialState,
        loss_bits: Option<u32>,
        t_ns: u64,
    ) -> io::Result<()> {
        debug_assert!(state.is_terminal());
        self.trials[tid as usize].state = state;
        self.trials[tid as usize].loss_bits = loss_bits;
        let mut rec = ServeJournalRec::blank("terminal", t_ns);
        rec.trial = tid;
        rec.sweep = self.trials[tid as usize].sweep;
        rec.status = state.label().to_string();
        rec.has_loss = loss_bits.is_some();
        rec.loss_bits = loss_bits.unwrap_or(0);
        self.journal(&rec)
    }

    /// Ends a step: tees the flight events recorded since the last call
    /// into the journal (so recovery can replay the exact observability
    /// stream) and commits everything the step staged as one line.
    fn commit(&mut self) -> io::Result<()> {
        let Some(store) = &mut self.store else {
            return Ok(());
        };
        if let Some(p) = &self.profiler {
            let n = p.flight_event_count();
            if n > self.teed {
                for e in p.flight_tail(n - self.teed) {
                    let mut rec = ServeJournalRec::blank("flight", e.t_ns);
                    rec.flight = Some(e);
                    store.stage(&rec)?;
                }
                self.teed = n;
            }
        }
        store.commit()
    }

    /// The checkpoint store, for arming its fail-point in tests.
    #[doc(hidden)]
    pub fn store_mut(&mut self) -> Option<&mut CheckpointStore> {
        self.store.as_mut()
    }

    // -- recovery -----------------------------------------------------

    /// Rebuilds a service from its journal after a crash: replays
    /// submissions (configs re-supplied via `commands`, which must be
    /// the same list the crashed service was given), restores every
    /// surviving lane from its snapshot, re-emits the journaled flight
    /// history, and requeues unprocessed commands. In-flight segments at
    /// the crash retrain from their last snapshot bit-identically.
    pub fn recover(
        backend: B,
        fleet: DeviceFleet,
        cfg: ServeCfg,
        commands: Vec<(f64, ServeCmd<B::Config>)>,
    ) -> io::Result<ServeEngine<B>> {
        cfg.rung.validate();
        let dir = cfg
            .checkpoint_dir
            .clone()
            .expect("recover requires a checkpoint_dir");
        let (recs, store) = CheckpointStore::resume(&dir)?;
        let mut eng = ServeEngine::bare(backend, fleet, cfg, Some(store));
        let mut cmds: VecDeque<(f64, ServeCmd<B::Config>)> = commands.into();
        let mut resume_ns = 0u64;
        let mut ckpts: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut decisions: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
        let mut flights: Vec<hfta_telemetry::flight::FlightEvent> = Vec::new();

        // The journal is outside input: whatever it holds that replay
        // cannot interpret is a typed error naming the record, not a panic.
        for (line, rec) in recs.iter().enumerate() {
            let bad = |why: &str| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "journal record {line} ({} at {} ns): {why}",
                        rec.kind, rec.t_ns
                    ),
                )
            };
            resume_ns = resume_ns.max(rec.t_ns);
            match rec.kind.as_str() {
                "meta" => {}
                "submit" => {
                    let spec = match cmds.pop_front() {
                        Some((_, ServeCmd::Submit(spec))) => spec,
                        Some((_, ServeCmd::Cancel { .. })) => {
                            return Err(bad("the command list has a cancel here"));
                        }
                        None => return Err(bad("the command list has no command left")),
                    };
                    if spec.configs.len() as u64 != rec.n_trials {
                        return Err(bad("sweep size differs from the command list"));
                    }
                    let sweep = eng.sweeps.len() as u64;
                    let base = eng.configs.len() as u64;
                    if sweep != rec.sweep || base != rec.base_trial {
                        return Err(bad("sweep / trial ids do not replay in order"));
                    }
                    let tenant = eng.fair.tenant_id(&rec.tenant, rec.priority);
                    let ids: Vec<u64> = (base..base + rec.n_trials).collect();
                    for config in spec.configs {
                        eng.configs.push(config);
                        eng.trials.push(TrialInfo {
                            sweep,
                            state: TrialState::Queued,
                            bound: None,
                            loss_bits: None,
                        });
                    }
                    eng.sweeps.push(SweepInfo {
                        tenant,
                        priority: rec.priority,
                        cancelled: false,
                    });
                    eng.cohorts.insert(
                        (sweep, 0),
                        Cohort {
                            expected: ids,
                            reports: BTreeMap::new(),
                            decided: false,
                        },
                    );
                }
                "cancel" => {
                    match cmds.pop_front() {
                        Some((_, ServeCmd::Cancel { sweep })) if sweep == rec.sweep => {}
                        _ => return Err(bad("the command list has no such cancel here")),
                    }
                    if let Some(info) = eng.sweeps.get_mut(rec.sweep as usize) {
                        info.cancelled = true;
                    }
                }
                "report" => {
                    let cohort = eng
                        .cohorts
                        .get_mut(&(rec.sweep, rec.rung))
                        .ok_or_else(|| bad("cohort was never opened"))?;
                    let score = rec.has_score.then(|| f32::from_bits(rec.score_bits));
                    cohort.reports.insert(rec.trial, score);
                }
                "decision" => {
                    let cohort = eng
                        .cohorts
                        .get_mut(&(rec.sweep, rec.rung))
                        .ok_or_else(|| bad("cohort was never opened"))?;
                    cohort.decided = true;
                    decisions.insert((rec.sweep, rec.rung), rec.promoted.clone());
                    if !rec.promoted.is_empty() {
                        eng.cohorts.insert(
                            (rec.sweep, rec.rung + 1),
                            Cohort {
                                expected: rec.promoted.clone(),
                                reports: BTreeMap::new(),
                                decided: false,
                            },
                        );
                    }
                }
                "ckpt" => {
                    ckpts.insert(rec.trial, (rec.rung, rec.cum_steps));
                }
                "terminal" => {
                    let state = TrialState::from_label(&rec.status)
                        .filter(TrialState::is_terminal)
                        .ok_or_else(|| bad("status is not a terminal one"))?;
                    let info = usize::try_from(rec.trial)
                        .ok()
                        .and_then(|tid| eng.trials.get_mut(tid))
                        .ok_or_else(|| bad("trial was never submitted"))?;
                    info.state = state;
                    info.loss_bits = rec.has_loss.then_some(rec.loss_bits);
                }
                "flight" => {
                    if let Some(e) = &rec.flight {
                        flights.push(e.clone());
                    }
                }
                _ => return Err(bad("unknown record kind")),
            }
        }

        // Re-emit the journaled flight history so post-restart analysis
        // (SLOs, critical paths) spans the restart; the re-emitted
        // events must not be teed back into the journal.
        if let Some(p) = &eng.profiler {
            for e in &flights {
                p.flight_event(
                    e.trial,
                    e.t_ns,
                    e.kind,
                    e.device,
                    e.array,
                    e.lane,
                    e.detail.clone(),
                );
            }
            eng.teed = p.flight_event_count();
        }

        let resume_s = resume_ns as f64 / 1e9;
        eng.now_s = resume_s;

        // Classify every non-terminal trial from its journal trail and
        // group survivors into ready sets.
        let mut groups: BTreeMap<(u64, u64, u64), Vec<u64>> = BTreeMap::new();
        for tid in 0..eng.trials.len() as u64 {
            if eng.trials[tid as usize].state.is_terminal() {
                continue;
            }
            let sweep = eng.trials[tid as usize].sweep;
            let position = match ckpts.get(&tid) {
                None => (sweep, 0u64, 0u64),
                Some(&(rung, cum)) => {
                    if cum == eng.cfg.rung.total_steps_at(rung as usize) {
                        match decisions.get(&(sweep, rung)) {
                            Some(promoted) if promoted.contains(&tid) => (sweep, rung + 1, cum),
                            // A decision and its terminals share a commit.
                            Some(_) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("trial {tid} was decided against but never settled"),
                                ));
                            }
                            None => {
                                // Reported, barrier still open: back to
                                // limbo awaiting the cohort decision.
                                let lane = eng.store.as_ref().expect("store").load_snapshot(tid)?;
                                eng.trials[tid as usize].state = TrialState::Buffered;
                                eng.limbo.insert(tid, lane);
                                eng.restores += 1;
                                eng.flight.record_with(
                                    tid,
                                    resume_ns,
                                    FlightKind::Restore,
                                    None,
                                    None,
                                    None,
                                    || format!("limbo rung {rung}"),
                                );
                                continue;
                            }
                        }
                    } else {
                        (sweep, rung, cum) // preempted mid-rung
                    }
                }
            };
            if eng.sweeps[sweep as usize].cancelled {
                // The cancel landed but this trial's eviction did not:
                // settle it, reporting to its cohort if still owed.
                let (_, rung, _) = position;
                let owed = eng
                    .cohorts
                    .get(&(sweep, rung))
                    .is_some_and(|c| !c.reports.contains_key(&tid));
                eng.flight
                    .record_with(tid, resume_ns, FlightKind::Evict, None, None, None, || {
                        "sweep cancelled".to_string()
                    });
                eng.set_terminal(tid, TrialState::Cancelled, None, resume_ns)?;
                if owed {
                    eng.report(sweep, rung, tid, None, resume_s)?;
                }
                continue;
            }
            groups.entry(position).or_default().push(tid);
        }
        for ((sweep, rung, cum), ids) in groups {
            let mut lanes: Vec<Option<LaneState>> = Vec::with_capacity(ids.len());
            for &tid in &ids {
                if rung == 0 && cum == 0 && !ckpts.contains_key(&tid) {
                    eng.trials[tid as usize].state = TrialState::Queued;
                    eng.flight.record_with(
                        tid,
                        resume_ns,
                        FlightKind::Restore,
                        None,
                        None,
                        None,
                        || "fresh".to_string(),
                    );
                    lanes.push(None);
                } else {
                    // The lane's `step_count` is the *optimizer's* counter
                    // (zero for SGD, `t` for Adam); the journal's
                    // `cum_steps` is the global-step position of record.
                    let lane = eng.store.as_ref().expect("store").load_snapshot(tid)?;
                    eng.trials[tid as usize].state = TrialState::Buffered;
                    eng.restores += 1;
                    eng.flight.record_with(
                        tid,
                        resume_ns,
                        FlightKind::Restore,
                        None,
                        None,
                        None,
                        || format!("rung {rung} cum {cum}"),
                    );
                    lanes.push(Some(lane));
                }
            }
            let seq = eng.set_seq;
            eng.set_seq += 1;
            eng.ready.push(ReadySet {
                sweep,
                rung,
                cum_steps: cum,
                trials: ids,
                lanes,
                bound: None,
                ready_since: resume_s,
                seq,
            });
        }

        // Barriers that became complete during replay (e.g. a cancelled
        // straggler settled above) decide now.
        let complete: Vec<(u64, u64)> = eng
            .cohorts
            .iter()
            .filter(|(_, c)| !c.decided && c.reports.len() == c.expected.len())
            .map(|(&k, _)| k)
            .collect();
        for (sweep, rung) in complete {
            eng.decide(sweep, rung, resume_s)?;
        }

        // Unprocessed commands rejoin the queue, no earlier than the
        // resume instant.
        for (t, cmd) in cmds {
            if matches!(cmd, ServeCmd::Submit(_)) {
                eng.pending_submits += 1;
            }
            let idx = eng.commands.len();
            eng.commands.push(Some(cmd));
            eng.events.push(t.max(resume_s), 1, EventKind::Command(idx));
        }

        eng.dispatch(resume_s)?;
        eng.commit()?;
        Ok(eng)
    }

    // -- reporting ----------------------------------------------------

    /// Final report and per-trial outcomes. Call after [`Self::drain`].
    pub fn finish(self) -> ServeRun {
        debug_assert!(self.running.is_empty(), "segments still booked");
        debug_assert!(self.ready.is_empty(), "sets still queued");
        debug_assert!(self.limbo.is_empty(), "lanes stuck at a barrier");
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut outcomes = Vec::with_capacity(self.trials.len());
        for (tid, info) in self.trials.iter().enumerate() {
            debug_assert!(info.state.is_terminal(), "trial {tid} not settled");
            *counts.entry(info.state.label()).or_default() += 1;
            outcomes.push(TrialOutcome {
                trial: tid as u64,
                sweep: info.sweep,
                tenant: self
                    .fair
                    .name(self.sweeps[info.sweep as usize].tenant)
                    .to_string(),
                status: info.state.label().to_string(),
                has_loss: info.loss_bits.is_some(),
                loss_bits: info.loss_bits.unwrap_or(0),
            });
        }
        let mut rollup = flight::SloRollup::default();
        if let Some(p) = &self.profiler {
            rollup = flight::SloRollup::from_events(&p.flight_events());
            for (q, e) in rollup.queue_waits_us.iter().zip(&rollup.e2e_us) {
                p.observe("serve/queue_wait_us", *q);
                p.observe("serve/e2e_latency_us", *e);
            }
        }
        let report = ServeReport {
            policy: self.cfg.policy.name().to_string(),
            sweeps: self.sweeps.len() as u64,
            trials: self.trials.len() as u64,
            finished: counts.get("finished").copied().unwrap_or(0),
            stopped: counts.get("stopped").copied().unwrap_or(0),
            killed: counts.get("killed").copied().unwrap_or(0),
            cancelled: counts.get("cancelled").copied().unwrap_or(0),
            makespan_s: self.makespan_s,
            device_hours: self.fleet.device_hours(),
            occupancy: self.fleet.occupancy(self.makespan_s),
            packing_efficiency: self.fleet.packing_efficiency(),
            arrays_built: self.arrays_built,
            preemptions: self.preemptions,
            checkpoints: self.checkpoints,
            restores: self.restores,
            lanes_migrated: self.lanes_migrated,
            max_width: self.max_width,
            queue_wait_p50_us: rollup.queue_wait_us(0.50),
            queue_wait_p99_us: rollup.queue_wait_us(0.99),
            e2e_latency_p50_us: rollup.e2e_latency_us(0.50),
            e2e_latency_p99_us: rollup.e2e_latency_us(0.99),
            queue_us: rollup.queue_us,
            compute_us: rollup.compute_us,
            surgery_us: rollup.surgery_us,
            quarantine_us: rollup.quarantine_us,
        };
        ServeRun { report, outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeError;
    use hfta_nn::layers::{Conv2dCfg, LinearCfg};
    use hfta_plan::{ModelGraph, OpSpec};

    fn convnet(c: usize) -> ModelGraph {
        ModelGraph::new(
            format!("conv{c}"),
            vec![2, 4, 4],
            vec![
                OpSpec::conv2d(Conv2dCfg::new(2, c, 3).stride(1).padding(1).bias(false)),
                OpSpec::relu(),
            ],
        )
    }

    fn mlp() -> ModelGraph {
        ModelGraph::new(
            "mlp",
            vec![8],
            vec![OpSpec::linear(LinearCfg::new(8, 4)), OpSpec::tanh()],
        )
    }

    fn spec(configs: usize, archs: Vec<ModelGraph>) -> SweepSpec<u32> {
        SweepSpec {
            tenant: "t".into(),
            priority: 1.0,
            configs: (0..configs as u32).collect(),
            archs,
        }
    }

    #[test]
    fn homogeneous_and_graphless_sweeps_are_admitted() {
        spec(2, Vec::new()).validate().unwrap();
        spec(2, vec![convnet(3), convnet(3)]).validate().unwrap();
        // Partially fusible mixed sets are admitted too.
        spec(3, vec![convnet(3), convnet(3), mlp()])
            .validate()
            .unwrap();
    }

    #[test]
    fn admission_rejects_bad_sweeps_with_typed_errors() {
        assert!(matches!(
            spec(0, Vec::new()).validate(),
            Err(ServeError::EmptySweep { .. })
        ));
        assert!(matches!(
            spec(2, vec![convnet(3)]).validate(),
            Err(ServeError::ArchCountMismatch {
                archs: 1,
                configs: 2,
                ..
            })
        ));
        // Nothing fuses across a convnet and an MLP.
        let err = spec(2, vec![convnet(3), mlp()]).validate().unwrap_err();
        assert!(matches!(err, ServeError::Unfusible { .. }), "{err}");
        assert!(err.to_string().contains("0%"), "{err}");
        // Geometry no layer can run is a shape error, not a panic.
        let mut bad = convnet(3);
        bad.ops[0].stride = 0;
        let err = spec(2, vec![bad.clone(), bad]).validate().unwrap_err();
        assert!(matches!(err, ServeError::Unfusible { .. }), "{err}");
        assert!(err.to_string().contains("stride 0"), "{err}");
    }
}
