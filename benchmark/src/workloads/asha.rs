//! `asha_service`: a multi-tenant tuning service replaying a cluster trace.
//!
//! A seeded `hfta-cluster` trace is reduced to sweep bursts, thinned and
//! rescaled by the open-loop normalizer, and carved into about ten tenant
//! sweeps of ~96 linear-classifier trials in all. One *pass* runs the whole
//! stream on a fresh heterogeneous fleet. Model math is negligible, so the
//! event loop, admission, lane surgery, snapshot encode/decode and journal
//! I/O *are* the step: this is the only place `sched`/`serve` changes show,
//! and it bypasses `kernels`/`tensor` entirely (a GEMM change must read *no
//! change* here). Journal replay and snapshot loads are paid in
//! `recover_ms`.
//!
//! Legs: the array leg is `ServeEngine` under fair-share admission; the
//! serial leg runs the same trials through `hfta_sched::run` under
//! `Policy::Serial`. After every round one more array pass, this one with a
//! checkpoint directory, is killed at half its event count and finished by
//! `ServeEngine::recover`; it feeds `recover_ms` and must settle every trial
//! exactly as the uninterrupted passes did.
//!
//! The timed array passes run without a checkpoint directory. A durable pass
//! is 100-250 file creations, renames and unlinks, and what those cost on
//! the reference box's ext4 depends on what the file system was asked to do
//! in the last minute, by this process or the one before it: the same pass
//! took 17 ms after an idle minute and 25-70 ms, in a sawtooth, while passes
//! before it were unlinking their files; ten runs spread 25-34 %. What
//! durability costs is the layer metric `serve.persistence_overhead_pct`,
//! beside `serve.journal_append_us` and `serve.snapshot_write_us`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hfta_cluster::replay::{normalize_arrivals_open, sweep_arrivals, OpenLoopCfg};
use hfta_cluster::trace::{generate, TraceCfg};
use hfta_core::snapshot::{load_lane, save_lane};
use hfta_core::surgery::LaneState;
use hfta_sched::asha::RungPolicy;
use hfta_sched::linear::{LinearArray, LinearBackend, LinearTrialCfg};
use hfta_sched::sched::{Policy, SchedCfg, SchedRun};
use hfta_sched::{ArrayBackend, TrainOutcome, Trial, TrialStatus};
use hfta_serve::checkpoint::ServeJournalRec;
use hfta_serve::engine::TrialOutcome;
use hfta_serve::{
    AdmitPolicy, CheckpointStore, ServeCfg, ServeCmd, ServeEngine, ServeReport, SweepSpec,
};
use hfta_sim::{DeviceFleet, DeviceSpec, TrainingJob};

use super::mix;
use super::train::parallel_for_us;
use crate::host::HostRecord;
use crate::oracle::{LossDigest, Oracle};
use crate::runner::{Bench, LayerCtx, Leg, Window, WARMUP_UNITS};
use crate::stats::median;
use crate::trace::{ledger, tail, Recorder};

/// Trials per pass.
const TRIALS: usize = 96;
/// Tenant sweep sizes, cycled: short exploratory sweeps beside batch grids.
const CHUNK_SIZES: [usize; 4] = [12, 4, 16, 8];
/// Simulated seconds the arrivals are spread over: short enough that
/// sweeps overlap, so fair-share admission has to queue and preempt.
const SPAN_S: f64 = 0.01;
/// Burst-grouping gap and minimum burst size when reading the trace.
const BURST_GAP_S: u64 = 120;
const MIN_TRIALS: usize = 4;
/// Share of bursts the open-loop normalizer keeps.
const RATE_SCALE: f64 = 0.9;
/// Fused-width cap of both engines.
const WIDTH_CAP: usize = 8;
/// Serial passes per work unit: about as long as an array unit (one
/// pass), so windows of both legs are of similar length.
const SERIAL_PASSES_PER_UNIT: usize = 1;

fn rung() -> RungPolicy {
    RungPolicy {
        base_steps: 2,
        eta: 2,
        rungs: 3,
    }
}

fn fleet() -> DeviceFleet {
    DeviceFleet::heterogeneous(
        &[
            (DeviceSpec::v100(), 2),
            (DeviceSpec::rtx6000(), 1),
            (DeviceSpec::a100(), 1),
        ],
        false,
    )
}

/// The seeded command stream: exactly [`TRIALS`] trials in tenant sweeps,
/// at the trace's (normalized) burst times. Small sweeps get high priority
/// — an impatient user with a short grid — so preemption has work to do.
/// No cancels: outcomes must not depend on the schedule.
pub fn command_stream(seed: u64) -> Vec<(f64, ServeCmd<LinearTrialCfg>)> {
    let jobs = generate(&TraceCfg::small(), seed);
    let bursts = sweep_arrivals(&jobs, BURST_GAP_S, MIN_TRIALS);
    let kept = normalize_arrivals_open(
        &bursts,
        SPAN_S,
        &OpenLoopCfg {
            rate_scale: RATE_SCALE,
            seed,
        },
    );
    assert!(
        !kept.is_empty(),
        "trace for seed {seed} has no sweep bursts"
    );
    // Evenly spaced bursts first, so the stream spans the whole window;
    // then whatever bursts remain, in order, until the count is met.
    let sweeps = TRIALS.div_ceil(10).min(kept.len());
    let mut order: Vec<usize> = (0..sweeps).map(|s| s * kept.len() / sweeps).collect();
    order.extend((0..kept.len()).filter(|j| (0..sweeps).all(|s| s * kept.len() / sweeps != *j)));
    let mut cmds: Vec<(f64, SweepSpec<LinearTrialCfg>)> = Vec::new();
    let mut total = 0;
    for (chunk, j) in order.into_iter().enumerate() {
        if total == TRIALS {
            break;
        }
        let (bi, t) = kept[j];
        let take = CHUNK_SIZES[chunk % CHUNK_SIZES.len()]
            .min(bursts[bi].trials)
            .min(TRIALS - total);
        cmds.push((t, sweep(&bursts[bi].user, bi, take, total)));
        total += take;
    }
    if total < TRIALS {
        // A trace too small to fill the pass: one last batch grid.
        let t = cmds.last().map_or(0.0, |c| c.0);
        cmds.push((t, sweep("filler", bursts.len(), TRIALS - total, total)));
    }
    cmds.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are finite"));
    cmds.into_iter()
        .map(|(t, spec)| (t, ServeCmd::Submit(spec)))
        .collect()
}

fn sweep(user: &str, burst: usize, trials: usize, first: usize) -> SweepSpec<LinearTrialCfg> {
    SweepSpec {
        tenant: format!("{user}-{burst}"),
        priority: match trials {
            0..=4 => 8.0,
            5..=8 => 4.0,
            9..=12 => 2.0,
            _ => 1.0,
        },
        archs: Vec::new(),
        configs: (0..trials)
            .map(|k| LinearTrialCfg {
                lr: 0.004 * (1 + (k % 12)) as f32,
                // A few trials diverge on purpose: sentinel kills and lane
                // eviction are part of what the service does.
                poison_at: ((first + k) % 9 == 4).then_some(1),
            })
            .collect(),
    }
}

/// Delegates to [`LinearBackend`], counting lane-steps and spanning each
/// call, so engine self time falls out without touching `sched`/`serve`.
struct TimedBackend<'a> {
    inner: LinearBackend,
    lane_steps: &'a Cell<u64>,
    rec: &'a Recorder,
}

impl ArrayBackend for TimedBackend<'_> {
    type Config = LinearTrialCfg;
    type Array = LinearArray;

    fn build(&self, trials: &[Trial<LinearTrialCfg>]) -> LinearArray {
        let _span = self.rec.span("backend.build");
        self.inner.build(trials)
    }

    fn splice(
        &self,
        trials: &[Trial<LinearTrialCfg>],
        lanes: &[LaneState],
        start_step: u64,
    ) -> LinearArray {
        let _span = self.rec.span("backend.splice");
        self.inner.splice(trials, lanes, start_step)
    }

    fn extract(&self, array: &LinearArray, lane: usize) -> LaneState {
        let _span = self.rec.span("backend.extract");
        self.inner.extract(array, lane)
    }

    fn train(&self, array: &mut LinearArray, steps: u64) -> TrainOutcome {
        let _span = self.rec.span("backend.train");
        self.lane_steps
            .set(self.lane_steps.get() + array.b() as u64 * steps);
        self.inner.train(array, steps)
    }

    fn job_profile(&self) -> TrainingJob {
        self.inner.job_profile()
    }
}

/// One finished serve pass.
struct ServePass {
    report: ServeReport,
    outcomes: Vec<TrialOutcome>,
    /// `ServeEngine::step` calls that processed a batch.
    events: u64,
    lane_steps: u64,
    secs: f64,
    /// Wall time of `ServeEngine::recover`, when the pass was killed.
    recover_ms: Option<f64>,
}

/// The workload.
pub struct AshaService {
    seed: u64,
    backend: LinearBackend,
    ckpt_dir: PathBuf,
    commands: Vec<(f64, ServeCmd<LinearTrialCfg>)>,
    arrivals: Vec<(f64, LinearTrialCfg)>,
    /// Outcomes and event count of the first uninterrupted pass; every
    /// later pass, killed or not, must reproduce the outcomes.
    reference: Option<(Vec<TrialOutcome>, u64)>,
    serial_reference: Option<Vec<TrialStatus>>,
}

impl AshaService {
    /// The workload for `seed`, keeping its checkpoints under `out_dir`.
    pub fn new(seed: u64, out_dir: &Path) -> Self {
        AshaService {
            seed,
            backend: LinearBackend {
                base_seed: mix(seed, 0xa54a),
                ..LinearBackend::default()
            },
            ckpt_dir: out_dir
                .join("tmp")
                .join(format!("asha_service-{}", std::process::id())),
            commands: Vec::new(),
            arrivals: Vec::new(),
            reference: None,
            serial_reference: None,
        }
    }

    fn serve_cfg(&self, durable: bool) -> ServeCfg {
        ServeCfg {
            policy: AdmitPolicy::FairShare,
            rung: rung(),
            width_cap: WIDTH_CAP,
            checkpoint_dir: durable.then(|| self.ckpt_dir.clone()),
        }
    }

    /// One pass of the command stream through `ServeEngine`; with
    /// `kill_at`, hard-killed after that many events and recovered.
    fn serve_pass(&self, rec: &Recorder, durable: bool, kill_at: Option<u64>) -> ServePass {
        let lane_steps = Cell::new(0);
        let backend = || TimedBackend {
            inner: self.backend.clone(),
            lane_steps: &lane_steps,
            rec,
        };
        let t = Instant::now();
        let _span = rec.span("serve.pass");
        let mut eng = ServeEngine::new(
            backend(),
            fleet(),
            self.serve_cfg(durable),
            self.commands.clone(),
        )
        .expect("creating the engine and its journal");
        let mut events = 0;
        let mut recover_ms = None;
        while kill_at.is_none_or(|k| events < k) && eng.step().expect("journal write") {
            events += 1;
        }
        if kill_at.is_some() {
            // Hard kill: in-flight segments are lost; only the journal and
            // the snapshots survive.
            drop(eng);
            let t = Instant::now();
            eng = ServeEngine::recover(
                backend(),
                fleet(),
                self.serve_cfg(true),
                self.commands.clone(),
            )
            .expect("recovering from the journal");
            recover_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            while eng.step().expect("journal write") {
                events += 1;
            }
        }
        let run = eng.finish();
        ServePass {
            report: run.report,
            outcomes: run.outcomes,
            events,
            lane_steps: lane_steps.get(),
            secs: t.elapsed().as_secs_f64(),
            recover_ms,
        }
    }

    /// One pass of the same trials through `hfta_sched::run`.
    fn sched_pass(&self, rec: &Recorder, policy: Policy) -> (SchedRun, u64, f64) {
        let lane_steps = Cell::new(0);
        let backend = TimedBackend {
            inner: self.backend.clone(),
            lane_steps: &lane_steps,
            rec,
        };
        let t = Instant::now();
        let _span = rec.span("sched.pass");
        let run = hfta_sched::run(
            &backend,
            &mut fleet(),
            &self.arrivals,
            &SchedCfg {
                policy,
                rung: rung(),
                width_cap: WIDTH_CAP,
            },
        );
        (run, lane_steps.get(), t.elapsed().as_secs_f64())
    }

    /// Checks a serve pass against the reference; the first pass becomes it.
    fn check_serve(&mut self, what: &str, pass: &ServePass, oracle: &mut Oracle) {
        oracle.attempt(pass.lane_steps);
        let Some((reference, _)) = &self.reference else {
            self.reference = Some((pass.outcomes.clone(), pass.events));
            return;
        };
        if pass.outcomes.len() != reference.len() {
            oracle.fail(|| format!("{what}: {} trials settled", pass.outcomes.len()));
        }
        for (got, want) in pass.outcomes.iter().zip(reference) {
            if got != want {
                oracle.fail(|| {
                    format!(
                        "{what}: trial {} settled as {got:?}, not {want:?}",
                        want.trial
                    )
                });
            }
        }
    }

    fn unit(&mut self, leg: Leg, rec: &Recorder, oracle: &mut Oracle) -> Window {
        match leg {
            Leg::Serial => {
                let mut total = Window {
                    lane_steps: 0,
                    secs: 0.0,
                };
                for _ in 0..SERIAL_PASSES_PER_UNIT {
                    let (run, lane_steps, secs) = self.sched_pass(rec, Policy::Serial);
                    oracle.attempt(lane_steps);
                    match &self.serial_reference {
                        None => self.serial_reference = Some(run.statuses),
                        Some(want) => {
                            for (i, (g, w)) in run.statuses.iter().zip(want).enumerate() {
                                if g != w {
                                    oracle.fail(|| {
                                        format!("serial pass: trial {i} {g:?}, not {w:?}")
                                    });
                                }
                            }
                        }
                    }
                    total.lane_steps += lane_steps;
                    total.secs += secs;
                }
                total
            }
            _ => {
                let pass = self.serve_pass(rec, false, None);
                self.check_serve("serve pass", &pass, oracle);
                Window {
                    lane_steps: pass.lane_steps,
                    secs: pass.secs,
                }
            }
        }
    }
}

impl Drop for AshaService {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.ckpt_dir);
    }
}

impl Bench for AshaService {
    fn name(&self) -> &'static str {
        "asha_service"
    }

    fn setup(&mut self, rec: &Recorder, _keep: bool) {
        // Nothing is kept between passes, so a probe is a set-up.
        let _span = rec.span("setup");
        self.commands = rec.time("data.batch", || command_stream(self.seed));
        self.arrivals = self
            .commands
            .iter()
            .flat_map(|(t, cmd)| match cmd {
                ServeCmd::Submit(spec) => spec.configs.iter().map(|c| (*t, *c)).collect(),
                ServeCmd::Cancel { .. } => Vec::new(),
            })
            .collect();
        for _ in 0..WARMUP_UNITS {
            self.serve_pass(rec, false, None);
        }
    }

    fn peak_mem_bytes(&mut self, rec: &Recorder) -> u64 {
        hfta_mem::trim();
        hfta_mem::reset_stats();
        self.serve_pass(rec, false, None);
        hfta_mem::stats().peak_footprint_bytes
    }

    fn prepare(&mut self, legs: &[Leg], host: &HostRecord, rec: &Recorder) -> BTreeMap<Leg, f64> {
        let mut sink = Oracle::default();
        legs.iter()
            .map(|&leg| {
                hfta_kernels::set_num_threads(if leg == Leg::ArrayMt {
                    host.threads_mt
                } else {
                    1
                });
                // Untimed warm-up, then one unit on the clock.
                self.unit(leg, rec, &mut sink);
                let t = Instant::now();
                self.unit(leg, rec, &mut sink);
                let secs = t.elapsed().as_secs_f64();
                hfta_kernels::set_num_threads(1);
                (leg, secs)
            })
            .collect()
    }

    /// Every pass already starts from nothing.
    fn begin_round(&mut self, _units: usize) {}

    fn window(&mut self, leg: Leg, units: usize, rec: &Recorder, oracle: &mut Oracle) -> Window {
        let mut total = Window {
            lane_steps: 0,
            secs: 0.0,
        };
        for _ in 0..units {
            rec.next_step();
            let w = self.unit(leg, rec, oracle);
            total.lane_steps += w.lane_steps;
            total.secs += w.secs;
        }
        total
    }

    fn end_round(&mut self, _oracle: &mut Oracle) {}

    fn recover_ms(&mut self, oracle: &mut Oracle) -> f64 {
        // A pass killed at half the uninterrupted pass's event count.
        let events = self
            .reference
            .as_ref()
            .expect("an uninterrupted pass ran")
            .1;
        let pass = self.serve_pass(&Recorder::new(), true, Some(events / 2));
        self.check_serve("killed+recovered pass", &pass, oracle);
        pass.recover_ms.expect("killed passes recover")
    }

    fn finish(&mut self, _oracle: &mut Oracle) {}

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        const PASSES: usize = 7;
        let ms = |ns: u64, per: u64| ns as f64 / 1e6 / per.max(1) as f64;

        // Serve rows: read off the traced windows' spans, per pass.
        let rows = ledger(&tail(&ctx.rec.spans(), ctx.loop_start));
        let passes = rows.get("serve.pass").map_or(0, |r| r.count);
        let total = |name: &str| rows.get(name).map_or(0, |r| r.total_ns);
        ctx.set("trace.steps", passes as f64);
        ctx.set("serve.pass_ms", ms(total("serve.pass"), passes));
        ctx.set("serve.backend_train_ms", ms(total("backend.train"), passes));
        ctx.set("serve.backend_build_ms", ms(total("backend.build"), passes));
        ctx.set(
            "serve.backend_splice_ms",
            ms(total("backend.splice"), passes),
        );
        ctx.set(
            "serve.backend_extract_ms",
            ms(total("backend.extract"), passes),
        );
        ctx.set(
            "serve.engine_self_ms",
            ms(rows.get("serve.pass").map_or(0, |r| r.self_ns), passes),
        );
        let covered = rows
            .get("serve.pass")
            .map_or(0.0, |r| 1.0 - r.self_ns as f64 / r.total_ns.max(1) as f64);
        // The backend spans are all there is to cover: what is left is the
        // engine's own time, reported above rather than lost.
        ctx.set("trace.ledger_coverage", covered);

        // Sched rows: traced serial passes after the loop.
        let before = ctx.rec.spans().len();
        ctx.rec.set_enabled(true);
        let mut sched_report = None;
        for _ in 0..PASSES {
            ctx.rec.next_step();
            sched_report = Some(self.sched_pass(ctx.rec, Policy::Serial).0.report);
        }
        ctx.rec.set_enabled(false);
        let sched_rows = ledger(&tail(&ctx.rec.spans(), before));
        let total = |name: &str| sched_rows.get(name).map_or(0, |r| r.total_ns);
        let n = PASSES as u64;
        ctx.set("sched.pass_ms", ms(total("sched.pass"), n));
        ctx.set("sched.backend_train_ms", ms(total("backend.train"), n));
        ctx.set("sched.backend_build_ms", ms(total("backend.build"), n));
        ctx.set("sched.backend_splice_ms", ms(total("backend.splice"), n));
        ctx.set("sched.backend_extract_ms", ms(total("backend.extract"), n));
        ctx.set(
            "sched.engine_self_ms",
            ms(sched_rows.get("sched.pass").map_or(0, |r| r.self_ns), n),
        );
        let quiet = Recorder::new();
        let elastic: Vec<f64> = (0..PASSES)
            .map(|_| {
                let (run, lane_steps, secs) = self.sched_pass(&quiet, Policy::Elastic);
                sched_report = Some(run.report);
                lane_steps as f64 / secs
            })
            .collect();
        ctx.set("sched.elastic_lane_steps_per_s", median(&elastic));
        let elastic_report = sched_report.expect("passes ran");
        ctx.set("sched.repacks", elastic_report.repacks as f64);
        ctx.set("sched.lanes_moved", elastic_report.lanes_moved as f64);

        // What durability costs: the same pass with and without a
        // checkpoint directory, alternating.
        let (mut durable, mut volatile) = (Vec::new(), Vec::new());
        let mut events_per_s = Vec::new();
        for _ in 0..PASSES {
            durable.push(self.serve_pass(&quiet, true, None).secs);
            let v = self.serve_pass(&quiet, false, None);
            events_per_s.push(v.events as f64 / v.secs);
            volatile.push(v.secs);
        }
        ctx.set(
            "serve.persistence_overhead_pct",
            (median(&durable) / median(&volatile) - 1.0) * 100.0,
        );
        ctx.set("serve.events_per_s", median(&events_per_s));

        // Direct calls: submission, journal appends, snapshot writes.
        let sweeps: Vec<SweepSpec<LinearTrialCfg>> = self
            .commands
            .iter()
            .filter_map(|(_, c)| match c {
                ServeCmd::Submit(spec) => Some(spec.clone()),
                ServeCmd::Cancel { .. } => None,
            })
            .collect();
        let mut eng = ServeEngine::new(
            self.backend.clone(),
            fleet(),
            self.serve_cfg(false),
            Vec::new(),
        )
        .expect("engine without persistence");
        let t = Instant::now();
        for spec in &sweeps {
            eng.submit(spec.clone()).expect("stream sweeps validate");
        }
        ctx.set(
            "serve.submit_us",
            t.elapsed().as_secs_f64() * 1e6 / sweeps.len() as f64,
        );
        drop(eng);

        let trials: Vec<Trial<LinearTrialCfg>> = self.arrivals[..WIDTH_CAP]
            .iter()
            .enumerate()
            .map(|(i, (_, config))| Trial {
                id: i as u64,
                config: *config,
            })
            .collect();
        let array = self.backend.build(&trials);
        let time_us = |f: &mut dyn FnMut()| {
            let us: Vec<f64> = (0..101)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&us)
        };
        ctx.set(
            "core.surgery_extract_us",
            time_us(&mut || {
                std::hint::black_box(self.backend.extract(&array, 0));
            }),
        );
        let lanes: Vec<LaneState> = (0..WIDTH_CAP)
            .map(|l| self.backend.extract(&array, l))
            .collect();
        ctx.set(
            "core.surgery_splice_us",
            time_us(&mut || {
                std::hint::black_box(self.backend.splice(&trials, &lanes, 0));
            }) / WIDTH_CAP as f64,
        );
        ctx.set(
            "core.snapshot_save_us",
            time_us(&mut || {
                std::hint::black_box(save_lane(&lanes[0]));
            }),
        );
        let bytes = save_lane(&lanes[0]);
        ctx.set(
            "core.snapshot_load_us",
            time_us(&mut || {
                std::hint::black_box(load_lane(&bytes).expect("own snapshot decodes"));
            }),
        );
        let mut store = CheckpointStore::create(&self.ckpt_dir).expect("checkpoint store");
        let mut t_ns = 0;
        ctx.set(
            "serve.journal_append_us",
            time_us(&mut || {
                t_ns += 1;
                store
                    .append(&ServeJournalRec::blank("report", t_ns))
                    .expect("journal append");
            }),
        );
        ctx.set(
            "serve.snapshot_write_us",
            time_us(&mut || store.write_snapshot(0, &lanes[0]).expect("snapshot write")),
        );
        drop(store);

        // Exact counters of the fair-share schedule, from a durable pass
        // with the program's profiler installed (it owns the queue-wait
        // rollup).
        let profiler = hfta_telemetry::Profiler::new("hfta-benchmark");
        let guard = profiler.install();
        let report = self.serve_pass(&quiet, true, None).report;
        drop(guard);
        ctx.set("serve.preemptions", report.preemptions as f64);
        ctx.set("serve.checkpoints", report.checkpoints as f64);
        ctx.set("serve.queue_wait_p99_us", report.queue_wait_p99_us);
        ctx.set("serve.sim_makespan_s", report.makespan_s);
        let events = self.reference.as_ref().expect("passes ran").1;
        let recovered = self.serve_pass(&quiet, true, Some(events / 2));
        ctx.set("serve.restores", recovered.report.restores as f64);

        ctx.set(
            "mem.peak_bytes_per_lane",
            ctx.peak_mem_bytes as f64 / TRIALS as f64,
        );
        hfta_mem::reset_stats();
        let counted = self.serve_pass(&quiet, false, None);
        let mem = hfta_mem::stats();
        let steps = counted.lane_steps as f64;
        ctx.set(
            "mem.fresh_allocs_per_step",
            mem.fresh_allocs() as f64 / steps,
        );
        ctx.set("mem.pool_reuses_per_step", mem.pool_reuses as f64 / steps);

        if ctx.series.contains_key(&Leg::ArrayMt) {
            hfta_kernels::set_num_threads(ctx.host.threads_mt);
            let before = hfta_kernels::pool_dispatches();
            let pass = self.serve_pass(&quiet, false, None);
            ctx.set(
                "kernels.pool_dispatches_per_step",
                (hfta_kernels::pool_dispatches() - before) as f64 / pass.lane_steps as f64,
            );
            ctx.set(
                "kernels.parallel_for_us",
                parallel_for_us(ctx.host.threads_mt),
            );
            hfta_kernels::set_num_threads(1);
            ctx.set("kernels.lane_steps_per_s_mt", ctx.throughput(Leg::ArrayMt));
            ctx.set(
                "kernels.mt_scaling",
                ctx.throughput(Leg::ArrayMt) / ctx.throughput(Leg::Array),
            );
        }
        ctx.set(
            "core.fusion_speedup",
            ctx.throughput(Leg::Array) / ctx.throughput(Leg::Serial),
        );
        let mut digest = LossDigest::default();
        for o in &self.reference.as_ref().expect("passes ran").0 {
            digest.update(&[f32::from_bits(o.loss_bits)]);
        }
        ctx.set("core.loss_digest", digest.value() as f64);
        ctx.set(
            "telemetry.profiler_overhead_pct",
            ctx.overhead_pct(Leg::Profiled),
        );
        ctx.set("trace.overhead_pct", ctx.overhead_pct(Leg::Traced));
        ctx.set("trace.spans", ctx.rec.spans().len() as f64);
    }
}
