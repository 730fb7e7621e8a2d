//! The event-driven elastic fusion scheduler.
//!
//! A [`run`] owns a [`DeviceFleet`] and a stream of trial arrivals and
//! plays one of three policies over a successive-halving rung schedule:
//!
//! * [`Policy::Serial`] — one trial per device per segment, the paper's
//!   baseline cluster behaviour;
//! * [`Policy::StaticFusion`] — arrivals packed into memory-capacity-wide
//!   fused arrays that stay intact for their whole life: lanes whose
//!   trials get early-stopped or sentinel-killed ride along as dead
//!   allocated width;
//! * [`Policy::Elastic`] — arrays dissolve at every rung boundary:
//!   survivors' lanes are extracted ([`ArrayBackend::extract`]), buffered
//!   per rung, and re-packed ([`ArrayBackend::splice`]) into fresh
//!   full-width arrays, so allocated width tracks live trials.
//!
//! Time is simulated: training segments execute eagerly (real math, so
//! scores, sentinels, and final weights are real) while their cost comes
//! from the fleet's per-device step-time model, and completions are
//! ordered on an event heap. Re-packing is bit-invisible to surviving
//! trials — the integration tests compare scheduler-produced final
//! weights against solo runs for exact equality.

use std::collections::{HashMap, VecDeque};

use hfta_core::surgery::LaneState;
use hfta_sim::{DeviceFleet, SharingPolicy, TrainingJob};
use hfta_telemetry::flight::{self, ns, FlightCursor, FlightKind, FlightRecorder, SimSegment};
use hfta_telemetry::{LaneId, Profiler, SchedStats};
use serde::{Deserialize, Serialize};

use crate::asha::{RungLedger, RungPolicy};
use crate::backend::{ArrayBackend, TrainOutcome};
use crate::events::EventQueue;
use crate::trial::{Trial, TrialStatus};

/// The scheduling policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// One trial per device, no fusion.
    Serial,
    /// Fused arrays that never change shape after dispatch.
    StaticFusion,
    /// Lane surgery at rung boundaries: evict, buffer, re-pack.
    Elastic,
}

impl Policy {
    /// Stable display name (report keys, Chrome-trace lane names).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Serial => "serial",
            Policy::StaticFusion => "static-fusion",
            Policy::Elastic => "elastic",
        }
    }

    fn sharing(&self) -> SharingPolicy {
        match self {
            Policy::Serial => SharingPolicy::Serial,
            _ => SharingPolicy::Hfta,
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedCfg {
    /// The policy to play.
    pub policy: Policy,
    /// The successive-halving rung geometry.
    pub rung: RungPolicy,
    /// Upper bound on fused width regardless of device memory.
    pub width_cap: usize,
}

/// The serializable outcome summary of one scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedReport {
    /// Policy display name.
    pub policy: String,
    /// Trials submitted.
    pub trials: usize,
    /// Trials trained to the final rung.
    pub finished: usize,
    /// Trials early-stopped at a rung boundary.
    pub stopped: usize,
    /// Trials sentinel-killed (quarantined) mid-segment.
    pub killed: usize,
    /// Simulated seconds from first arrival to last completion.
    pub makespan_s: f64,
    /// Busy device-hours across the fleet.
    pub device_hours: f64,
    /// Busy device-seconds over `devices × makespan`.
    pub occupancy: f64,
    /// Live lane-seconds over allocated lane-seconds.
    pub packing_efficiency: f64,
    /// Arrays dispatched over the whole run (including re-packs).
    pub arrays_built: usize,
    /// Elastic re-pack operations (splice dispatches).
    pub repacks: usize,
    /// Lanes moved by re-packs.
    pub lanes_moved: usize,
    /// Widest array dispatched.
    pub max_width: usize,
    /// Fleet-wide p50 queue wait, simulated µs (hfta-flight; 0 without a
    /// profiler installed).
    pub queue_wait_p50_us: f64,
    /// Fleet-wide p99 queue wait, simulated µs.
    pub queue_wait_p99_us: f64,
    /// Fleet-wide p50 end-to-end trial latency, simulated µs.
    pub e2e_latency_p50_us: f64,
    /// Fleet-wide p99 end-to-end trial latency, simulated µs.
    pub e2e_latency_p99_us: f64,
    /// Summed per-trial queue-wait time, simulated µs.
    pub queue_us: f64,
    /// Summed per-trial rung-compute time, simulated µs.
    pub compute_us: f64,
    /// Summed per-trial lane-surgery (extract→re-dispatch) time, µs.
    pub surgery_us: f64,
    /// Summed per-trial quarantine (fault→evict) time, simulated µs.
    pub quarantine_us: f64,
}

/// Everything a run produces: the summary plus the trained artifacts.
#[derive(Debug)]
pub struct SchedRun {
    /// Serializable summary.
    pub report: SchedReport,
    /// Final parameter/optimizer lanes of every finished trial, sorted by
    /// trial id.
    pub final_states: Vec<(u64, LaneState)>,
    /// Final status of every trial, indexed by trial id.
    pub statuses: Vec<TrialStatus>,
}

#[derive(Debug)]
enum EventKind {
    SegmentDone(u64),
    Arrival(u64),
}

struct Running<A> {
    array: A,
    trial_ids: Vec<u64>,
    device: usize,
    rung: usize,
    width: usize,
    outcome: Option<TrainOutcome>,
    /// Persistent flight array id: assigned when the array is built or
    /// spliced, preserved across in-place rung continuations.
    aid: u64,
    /// Segment end on the integer ns grid (`start + steps * per_step`),
    /// so completion-edge flight events land exactly where rung-start
    /// arithmetic predicts and the SLO decomposition telescopes.
    seg_end_ns: u64,
}

struct Engine<'a, B: ArrayBackend> {
    backend: &'a B,
    fleet: &'a mut DeviceFleet,
    cfg: &'a SchedCfg,
    profile: TrainingJob,
    stats: SchedStats,
    profiler: Option<Profiler>,
    flight: FlightRecorder,
    device_lanes: Vec<Option<LaneId>>,
    configs: Vec<B::Config>,
    statuses: Vec<TrialStatus>,
    queue: VecDeque<u64>,
    /// `buffer[r]`: survivor lanes waiting to train rung `r` (Elastic).
    buffer: Vec<Vec<(u64, LaneState)>>,
    running: HashMap<u64, Running<B::Array>>,
    events: EventQueue<EventKind>,
    ledger: RungLedger,
    next_array: u64,
    next_aid: u64,
    makespan_s: f64,
    final_states: Vec<(u64, LaneState)>,
    arrays_built: usize,
    repacks: usize,
    lanes_moved: usize,
    max_width: usize,
}

impl<B: ArrayBackend> Engine<'_, B> {
    fn trial(&self, id: u64) -> Trial<B::Config> {
        Trial {
            id,
            config: self.configs[id as usize].clone(),
        }
    }

    /// Trains the next segment eagerly, books the device for its
    /// simulated duration, and schedules the completion event.
    fn start_segment(&mut self, device: usize, mut ra: Running<B::Array>, t: f64) {
        let steps = self.cfg.rung.segment_steps(ra.rung);
        // Segment timing on the integer ns flight grid, fixed before the
        // eager training call so mid-segment fault events (recorded by the
        // scope monitor through the ambient segment) share the same grid.
        let step_s =
            self.fleet
                .step_time_s(device, &self.profile, ra.width, self.cfg.policy.sharing());
        let start_ns = ns(t);
        let per_step_ns = ns(step_s);
        let end_ns = start_ns + steps * per_step_ns;
        let base_step = if ra.rung == 0 {
            0
        } else {
            self.cfg.rung.total_steps_at(ra.rung - 1)
        };
        for (i, &tid) in ra.trial_ids.iter().enumerate() {
            if self.statuses[tid as usize] == TrialStatus::Pending {
                self.flight.record_with(
                    tid,
                    start_ns,
                    FlightKind::RungStart,
                    Some(device as u64),
                    Some(ra.aid),
                    Some(i as u64),
                    || format!("rung {} steps {steps}", ra.rung),
                );
            }
        }
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns: start_ns,
                device: Some(device as u64),
                array: Some(ra.aid),
            });
            p.set_sim_segment(Some(SimSegment {
                base_ns: start_ns,
                per_step_ns,
                base_step,
                device: device as u64,
                array: ra.aid,
            }));
        }
        let outcome = self.backend.train(&mut ra.array, steps);
        if let Some(p) = &self.profiler {
            p.set_sim_segment(None);
        }
        let live = ra
            .trial_ids
            .iter()
            .filter(|&&id| self.statuses[id as usize] == TrialStatus::Pending)
            .count();
        let dur = steps as f64 * step_s;
        self.fleet.occupy(device, t, dur, ra.width, live);
        // Attribute this segment's arithmetic: live lanes do useful work,
        // the whole allocated width burns device FLOPs.
        let per_lane_flops = steps as f64 * self.profile.total_flops() as f64;
        self.fleet.charge_flops(
            device,
            per_lane_flops * live as f64,
            per_lane_flops * ra.width as f64,
        );
        let end = t + dur;
        self.makespan_s = self.makespan_s.max(end);
        self.stats.dispatch(ra.width, live);
        self.arrays_built += 1;
        self.max_width = self.max_width.max(ra.width);
        if let (Some(p), Some(lane)) = (&self.profiler, &self.device_lanes[device]) {
            let name = format!("array[B={},live={}]@r{}", ra.width, live, ra.rung);
            p.begin_at(*lane, name.clone(), t * 1e6, Vec::new());
            p.end_at(*lane, name, end * 1e6);
            // Per-device utilization timeline (the Fig-8 feed): useful
            // FLOP/s over this segment as a fraction of the FP32 peak,
            // dropping to zero when the booking ends.
            let peak = self.fleet.sim(device).device().fp32_tflops * 1e12;
            let util = if dur > 0.0 && peak > 0.0 {
                (per_lane_flops * live as f64 / dur) / peak
            } else {
                0.0
            };
            let series = format!("sched/{}/util", self.fleet.name(device));
            p.counter_at(*lane, &series, t * 1e6, util);
            p.counter_at(*lane, &series, end * 1e6, 0.0);
        }
        ra.outcome = Some(outcome);
        ra.device = device;
        ra.seg_end_ns = end_ns;
        let key = self.next_array;
        self.next_array += 1;
        self.running.insert(key, ra);
        self.events.push(end, 0, EventKind::SegmentDone(key));
    }

    /// Applies a finished segment's outcome: sentinel kills, rung
    /// decisions, lane extraction/buffering (Elastic) or in-place
    /// continuation (Serial/StaticFusion).
    fn complete(&mut self, key: u64, t: f64) {
        let mut ra = self
            .running
            .remove(&key)
            .expect("completion for unknown array");
        let outcome = ra.outcome.take().expect("segment trained at dispatch");
        let final_rung = self.cfg.rung.final_rung();
        let end_ns = ra.seg_end_ns;
        let dev = Some(ra.device as u64);
        let arr = Some(ra.aid);
        // Ambient cursor for the Extract events lane surgery records.
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns: end_ns,
                device: dev,
                array: arr,
            });
        }
        let mut continues = false;
        for (i, &tid) in ra.trial_ids.iter().enumerate() {
            if self.statuses[tid as usize] != TrialStatus::Pending {
                continue; // dead lane riding along (StaticFusion)
            }
            let lane = Some(i as u64);
            if outcome.killed[i] {
                self.statuses[tid as usize] = TrialStatus::Killed;
                self.stats.evict(true);
                self.flight
                    .record_with(tid, end_ns, FlightKind::Evict, dev, arr, lane, || {
                        format!("sentinel kill at rung {}", ra.rung)
                    });
                continue;
            }
            self.flight
                .record_with(tid, end_ns, FlightKind::RungEnd, dev, arr, lane, || {
                    format!("rung {}", ra.rung)
                });
            if ra.rung == final_rung {
                self.statuses[tid as usize] = TrialStatus::Finished;
                self.stats.finish();
                self.final_states
                    .push((tid, self.backend.extract(&ra.array, i)));
                self.flight
                    .record_with(tid, end_ns, FlightKind::Complete, dev, arr, lane, || {
                        format!("finished rung {}", ra.rung)
                    });
                continue;
            }
            let promote =
                self.ledger
                    .record_and_decide(ra.rung, outcome.scores[i], self.cfg.rung.eta);
            if !promote {
                self.statuses[tid as usize] = TrialStatus::Stopped;
                self.stats.evict(false);
                self.flight
                    .record_with(tid, end_ns, FlightKind::Evict, dev, arr, lane, || {
                        format!("early-stopped at rung {}", ra.rung)
                    });
                continue;
            }
            self.flight
                .record_with(tid, end_ns, FlightKind::Promote, dev, arr, lane, || {
                    format!("to rung {}", ra.rung + 1)
                });
            match self.cfg.policy {
                Policy::Elastic => {
                    let lane = self.backend.extract(&ra.array, i);
                    self.buffer[ra.rung + 1].push((tid, lane));
                }
                _ => continues = true,
            }
        }
        if continues {
            ra.rung += 1;
            let device = ra.device;
            self.start_segment(device, ra, t);
        }
    }

    /// Splices up to `mem_cap` buffered rung-`rung` survivor lanes into a
    /// fresh array and dispatches it.
    fn dispatch_repack(&mut self, device: usize, rung: usize, mem_cap: usize, t: f64) {
        let take = mem_cap.min(self.buffer[rung].len());
        let taken: Vec<(u64, LaneState)> = self.buffer[rung].drain(..take).collect();
        let trials: Vec<Trial<B::Config>> = taken.iter().map(|(id, _)| self.trial(*id)).collect();
        let lanes: Vec<LaneState> = taken.into_iter().map(|(_, lane)| lane).collect();
        let start_step = self.cfg.rung.total_steps_at(rung - 1);
        let aid = self.next_aid;
        self.next_aid += 1;
        // Ambient cursor for the Splice events lane surgery records.
        if let Some(p) = &self.profiler {
            p.set_flight_cursor(FlightCursor {
                t_ns: ns(t),
                device: Some(device as u64),
                array: Some(aid),
            });
        }
        let array = self.backend.splice(&trials, &lanes, start_step);
        self.stats.repack(lanes.len());
        self.repacks += 1;
        self.lanes_moved += lanes.len();
        let width = lanes.len();
        for (i, tr) in trials.iter().enumerate() {
            self.flight.record_with(
                tr.id,
                ns(t),
                FlightKind::Dispatch,
                Some(device as u64),
                Some(aid),
                Some(i as u64),
                || format!("repack rung {rung} width {width}"),
            );
        }
        let ra = Running {
            array,
            trial_ids: trials.iter().map(|tr| tr.id).collect(),
            device,
            rung,
            width,
            outcome: None,
            aid,
            seg_end_ns: 0,
        };
        self.start_segment(device, ra, t);
    }

    /// Builds a fresh rung-0 array from the arrival queue and dispatches
    /// it.
    fn dispatch_fresh(&mut self, device: usize, mem_cap: usize, t: f64) {
        let width = match self.cfg.policy {
            Policy::Serial => 1,
            _ => mem_cap.min(self.queue.len()),
        };
        let ids: Vec<u64> = (0..width)
            .map(|_| self.queue.pop_front().expect("queue checked non-empty"))
            .collect();
        let trials: Vec<Trial<B::Config>> = ids.iter().map(|&id| self.trial(id)).collect();
        let array = self.backend.build(&trials);
        let aid = self.next_aid;
        self.next_aid += 1;
        for (i, &tid) in ids.iter().enumerate() {
            self.flight.record_with(
                tid,
                ns(t),
                FlightKind::Dispatch,
                Some(device as u64),
                Some(aid),
                Some(i as u64),
                || format!("fresh width {width}"),
            );
        }
        let ra = Running {
            array,
            trial_ids: ids,
            device,
            rung: 0,
            width,
            outcome: None,
            aid,
            seg_end_ns: 0,
        };
        self.start_segment(device, ra, t);
    }

    /// Greedy work-conserving fill of every idle device.
    ///
    /// Elastic order of preference: (1) a survivor buffer holding a full
    /// device's width — deepest rung first, it finishes soonest; (2) fresh
    /// arrivals at full width; (3) a partial buffer, only when nothing
    /// else can use the device. Rule (3) matters because fused step time
    /// is sublinear (sometimes flat) in width: splicing survivors into a
    /// *narrow* array the moment they appear would fragment the very
    /// capacity re-packing is meant to reclaim, so partial buffers pool
    /// until no full-width work remains.
    fn dispatch(&mut self, t: f64) {
        for device in self.fleet.idle_devices(t) {
            let mem_cap = self
                .fleet
                .max_fused_width(device, &self.profile, self.cfg.width_cap);
            assert!(mem_cap >= 1, "device cannot fit even one lane");
            if self.cfg.policy == Policy::Elastic {
                let full = (0..self.buffer.len())
                    .rev()
                    .find(|&r| self.buffer[r].len() >= mem_cap);
                if let Some(rung) = full {
                    self.dispatch_repack(device, rung, mem_cap, t);
                    continue;
                }
            }
            if !self.queue.is_empty() {
                self.dispatch_fresh(device, mem_cap, t);
                continue;
            }
            if self.cfg.policy == Policy::Elastic {
                let partial = (0..self.buffer.len())
                    .rev()
                    .find(|&r| !self.buffer[r].is_empty());
                if let Some(rung) = partial {
                    self.dispatch_repack(device, rung, mem_cap, t);
                }
            }
        }
    }
}

/// Runs one policy over a stream of `(arrival_s, config)` trials on the
/// given fleet. Trial `i` of `arrivals` gets id `i`. Training is executed
/// eagerly with real math; time and device occupancy are simulated.
///
/// # Panics
///
/// Panics on a degenerate rung policy, a zero `width_cap`, or a device
/// too small for a single lane of the backend's job profile.
pub fn run<B: ArrayBackend>(
    backend: &B,
    fleet: &mut DeviceFleet,
    arrivals: &[(f64, B::Config)],
    cfg: &SchedCfg,
) -> SchedRun {
    cfg.rung.validate();
    assert!(cfg.width_cap >= 1, "width cap must be positive");
    let profiler = Profiler::current();
    let device_lanes: Vec<Option<LaneId>> = (0..fleet.len())
        .map(|d| {
            profiler
                .as_ref()
                .map(|p| p.lane(fleet.name(d), cfg.policy.name()))
        })
        .collect();
    let mut engine = Engine {
        backend,
        profile: backend.job_profile(),
        fleet,
        cfg,
        stats: SchedStats::new(),
        profiler,
        flight: FlightRecorder::new(),
        device_lanes,
        configs: arrivals.iter().map(|(_, c)| c.clone()).collect(),
        statuses: vec![TrialStatus::Pending; arrivals.len()],
        queue: VecDeque::new(),
        buffer: vec![Vec::new(); cfg.rung.rungs],
        running: HashMap::new(),
        events: EventQueue::default(),
        ledger: RungLedger::new(cfg.rung.rungs),
        next_array: 0,
        next_aid: 0,
        makespan_s: 0.0,
        final_states: Vec::new(),
        arrays_built: 0,
        repacks: 0,
        lanes_moved: 0,
        max_width: 0,
    };
    for (id, (t, _)) in arrivals.iter().enumerate() {
        assert!(t.is_finite() && *t >= 0.0, "arrival times must be ≥ 0");
        engine.events.push(*t, 1, EventKind::Arrival(id as u64));
    }
    while let Some((t, batch)) = engine.events.pop_batch() {
        for kind in batch {
            match kind {
                EventKind::Arrival(id) => {
                    engine.stats.arrival();
                    engine
                        .flight
                        .record(id, ns(t), FlightKind::Submit, None, None, None);
                    engine
                        .flight
                        .record(id, ns(t), FlightKind::Enqueue, None, None, None);
                    engine.queue.push_back(id);
                }
                EventKind::SegmentDone(aid) => engine.complete(aid, t),
            }
        }
        engine.dispatch(t);
    }
    debug_assert!(engine.queue.is_empty(), "undispatched trials at drain");
    debug_assert!(engine.running.is_empty(), "running arrays at drain");
    debug_assert!(
        engine.buffer.iter().all(Vec::is_empty),
        "buffered survivors at drain"
    );
    let packing = engine.fleet.packing_efficiency();
    let occupancy = engine.fleet.occupancy(engine.makespan_s);
    engine.stats.packing_efficiency(packing);
    engine.stats.occupancy(occupancy);
    for d in 0..engine.fleet.len() {
        engine.stats.device_utilization(
            engine.fleet.name(d),
            engine.fleet.utilization(d),
            engine.fleet.attained_gflops(d),
        );
    }
    engine
        .stats
        .fleet_utilization(engine.fleet.fleet_utilization());
    // hfta-flight SLO fold: derive every trial's queue/compute/surgery/
    // quarantine decomposition from the journal and feed the fleet-wide
    // latency histograms. Purely observational — scheduling decisions and
    // training math are already fixed by this point.
    let mut rollup = flight::SloRollup::default();
    if let Some(p) = &engine.profiler {
        rollup = flight::SloRollup::from_events(&p.flight_events());
        for (q, e) in rollup.queue_waits_us.iter().zip(&rollup.e2e_us) {
            p.observe("flight/queue_wait_us", *q);
            p.observe("flight/e2e_latency_us", *e);
        }
    }
    let statuses = engine.statuses;
    let count = |s: TrialStatus| statuses.iter().filter(|&&x| x == s).count();
    let mut final_states = engine.final_states;
    final_states.sort_by_key(|(id, _)| *id);
    SchedRun {
        report: SchedReport {
            policy: cfg.policy.name().to_string(),
            trials: arrivals.len(),
            finished: count(TrialStatus::Finished),
            stopped: count(TrialStatus::Stopped),
            killed: count(TrialStatus::Killed),
            makespan_s: engine.makespan_s,
            device_hours: engine.fleet.device_hours(),
            occupancy,
            packing_efficiency: packing,
            arrays_built: engine.arrays_built,
            repacks: engine.repacks,
            lanes_moved: engine.lanes_moved,
            max_width: engine.max_width,
            queue_wait_p50_us: rollup.queue_wait_us(0.50),
            queue_wait_p99_us: rollup.queue_wait_us(0.99),
            e2e_latency_p50_us: rollup.e2e_latency_us(0.50),
            e2e_latency_p99_us: rollup.e2e_latency_us(0.99),
            queue_us: rollup.queue_us,
            compute_us: rollup.compute_us,
            surgery_us: rollup.surgery_us,
            quarantine_us: rollup.quarantine_us,
        },
        final_states,
        statuses,
    }
}
