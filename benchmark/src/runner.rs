//! The shape every run shares: repeated set-ups, then equal-work windows
//! rotating through the legs, then recovery samples, then — in a traced
//! run — the per-layer ledger.
//!
//! Closed loop, one driver thread, no client concurrency. All legs advance
//! in lockstep (the same number of work units per window), so the oracle
//! can compare them at equal step counts after every round, and whatever
//! drifts on the host during a run drifts under every leg alike.
//!
//! Every timed sample — window, set-up, recovery — has the host-speed probe
//! ([`crate::probe`]) run right before and right after it, and a timing
//! metric is the median of its samples' host-normalized times.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::host::{check_threads, threads_mt, HostRecord};
use crate::oracle::Oracle;
use crate::probe::{Probe, REFERENCE_SECS};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, tail_percentile};
use crate::trace::Recorder;

/// Untimed work units each leg runs before the first window: pool fill,
/// worker-pool spawn, first-encounter code paths.
pub const WARMUP_UNITS: usize = 3;
/// Work units of the peak-memory measurement (array leg only; the other
/// legs run them as extra warm-up to stay in lockstep).
pub const PEAK_MEM_UNITS: usize = 2;
/// Set-ups timed before the first window; the last one stays as the array
/// leg. More are spread evenly over the timed rotation — as many as fit in
/// [`SETUP_SHARE`] of the run, within [`SETUP_EXTRA`] — and dropped again.
const SETUP_REPS: usize = 2;
const SETUP_SHARE: f64 = 0.1;
const SETUP_EXTRA: (usize, usize) = (4, 24);
/// Recoveries timed per run, at least (one per round, then topped up).
const RECOVER_REPS: usize = 15;
/// Target length of one window. Short, so that a run holds a hundred
/// windows per leg and the host rarely changes state inside one.
const WINDOW_SECS: f64 = 0.06;
/// Probes on the two sides of a sample that differ by more than this share
/// say the host changed state during the sample.
const STEADY_PROBES: f64 = 0.10;
/// Steady samples a metric needs before it sets the others aside.
const MIN_STEADY: usize = 5;
/// Windows per leg, at least.
const MIN_ROUNDS: usize = 9;

/// One leg of the rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Leg {
    /// The fused / planned / served array at one kernel thread.
    Array,
    /// The same models or trials one after another at width 1.
    Serial,
    /// Traced runs only: a second replica of the array at `threads_mt`
    /// kernel threads.
    ArrayMt,
    /// Traced runs only: a third replica with the span recorder on.
    Traced,
    /// Traced runs only: that replica with the program's own `Profiler`
    /// installed and the span recorder off.
    Profiled,
}

impl Leg {
    fn threads(self, host: &HostRecord) -> usize {
        match self {
            Leg::ArrayMt => host.threads_mt,
            _ => 1,
        }
    }
}

/// What one window did.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Lane-steps completed in the timed part.
    pub lane_steps: u64,
    /// Wall seconds of the timed part.
    pub secs: f64,
}

/// One timed sample with the host-speed probe on both sides of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Work done in the timed part (lane-steps; 1 for a set-up or recovery).
    pub work: f64,
    /// Wall seconds of the timed part.
    pub secs: f64,
    /// Probe time right before, seconds.
    pub before: f64,
    /// Probe time right after, seconds.
    pub after: f64,
}

impl Sample {
    /// Probes, runs `f` (which times its own work and returns `(work,
    /// seconds)`), probes again.
    pub fn take(probe: &mut Probe, f: impl FnOnce() -> (f64, f64)) -> Sample {
        let before = probe.run();
        let (work, secs) = f();
        Sample {
            work,
            secs,
            before,
            after: probe.run(),
        }
    }

    /// How much slower than the reference the host ran around the sample.
    pub fn host_slowdown(&self) -> f64 {
        (self.before + self.after) / 2.0 / REFERENCE_SECS
    }

    /// Whether both probes found the host in the same state.
    pub fn steady(&self) -> bool {
        (self.before - self.after).abs() <= STEADY_PROBES * self.before.min(self.after)
    }

    /// Seconds per unit of work on a host that runs the probe in
    /// [`REFERENCE_SECS`].
    pub fn unit_secs(&self) -> f64 {
        self.secs / self.work / self.host_slowdown()
    }
}

/// Host-normalized seconds per unit of work of the samples a metric is read
/// off: the steady ones, or all of them when fewer than [`MIN_STEADY`] are.
pub fn unit_secs(samples: &[Sample]) -> Vec<f64> {
    let steady: Vec<f64> = samples
        .iter()
        .filter(|s| s.steady())
        .map(Sample::unit_secs)
        .collect();
    if steady.len() >= MIN_STEADY {
        steady
    } else {
        samples.iter().map(Sample::unit_secs).collect()
    }
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: model init, data streams, cluster trace.
    pub seed: u64,
    /// Seconds of timed work after set-up.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Smoke mode: few windows, bounds not enforced.
    pub quick: bool,
    /// Where traces and scratch state go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// What a workload implements to be measured.
pub trait Bench {
    /// Workload name.
    fn name(&self) -> &'static str;

    /// One full set-up of the array leg, from nothing to ready for its
    /// first timed unit ([`WARMUP_UNITS`] included). With `keep` it becomes
    /// the array leg (replacing any earlier one); without, it is a probe
    /// that is dropped again. The caller times it.
    fn setup(&mut self, rec: &Recorder, keep: bool);

    /// Peak `hfta_mem` footprint of the array leg over [`PEAK_MEM_UNITS`]
    /// units, taken while the array leg is the only thing alive.
    fn peak_mem_bytes(&mut self, rec: &Recorder) -> u64;

    /// Builds and warms the other legs up to the array leg's step count.
    /// Returns seconds per work unit for each leg, the array leg included.
    fn prepare(&mut self, legs: &[Leg], host: &HostRecord, rec: &Recorder) -> BTreeMap<Leg, f64>;

    /// Called before each round's windows of `units` work units per leg.
    /// The training workloads return every leg to its initial state here
    /// once in a while: step cost drifts as training converges (Adam
    /// moments of dead units sink into denormals after ~600 steps), and a
    /// window's value must not depend on how many windows ran before it.
    fn begin_round(&mut self, units: usize);

    /// Runs `units` work units on `leg` and checks each result.
    fn window(&mut self, leg: Leg, units: usize, rec: &Recorder, oracle: &mut Oracle) -> Window;

    /// Cross-leg checks at equal step counts, after every leg's window.
    fn end_round(&mut self, oracle: &mut Oracle);

    /// One recovery of the array leg from persisted state, in
    /// milliseconds. Leaves every leg's training state as it was.
    fn recover_ms(&mut self, oracle: &mut Oracle) -> f64;

    /// End-of-run checks (final parameters).
    fn finish(&mut self, oracle: &mut Oracle);

    /// Traced runs: fills the per-layer ledger.
    fn layers(&mut self, ctx: &mut LayerCtx<'_>);
}

/// What [`Bench::layers`] reads and writes.
pub struct LayerCtx<'a> {
    /// Window samples per leg, in run order.
    pub series: &'a BTreeMap<Leg, Vec<Sample>>,
    /// The recorder (spans of the set-ups, then of the traced windows).
    pub rec: &'a Recorder,
    /// Index of the first span recorded after the set-ups.
    pub loop_start: usize,
    /// Host record.
    pub host: &'a HostRecord,
    /// Run parameters.
    pub cfg: &'a RunCfg,
    /// The array leg's peak footprint.
    pub peak_mem_bytes: u64,
    /// Per-layer metric values by name; unset names report 0.
    pub out: BTreeMap<&'static str, f64>,
}

impl LayerCtx<'_> {
    /// Host-normalized throughput of `leg`, 0 when it did not run.
    pub fn throughput(&self, leg: Leg) -> f64 {
        self.series
            .get(&leg)
            .map_or(0.0, |w| throughput("", "", w).value)
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.out.insert(name, value);
    }

    /// The share by which `leg` runs slower than the array leg, percent.
    pub fn overhead_pct(&self, leg: Leg) -> f64 {
        let base = self.throughput(Leg::Array);
        if base == 0.0 {
            0.0
        } else {
            (1.0 - self.throughput(leg) / base) * 100.0
        }
    }
}

/// One metric of a run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value: the median of the samples' host-normalized times (for a
    /// throughput, work over it); for an exact metric, the value.
    pub value: f64,
    /// Samples behind the value (steady windows, set-ups, recoveries).
    pub samples: usize,
    /// Distance between the quartiles of those samples as a share of their
    /// median.
    pub spread: f64,
    /// The same median over all samples' raw times, as the clock read them.
    pub raw: f64,
    /// Highest percentile with ten samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Traced or untraced.
    pub trace: bool,
    /// Requested seconds of timed work.
    pub seconds: f64,
    /// Work units per window and windows per leg.
    pub units_per_window: usize,
    /// Windows per leg.
    pub rounds: usize,
    /// Lane-steps checked.
    pub attempted: u64,
    /// Lane-steps that broke a contract.
    pub failed: u64,
    /// The first few violations.
    pub notes: Vec<String>,
    /// Median host slowdown over every probe of the run: 1 on an
    /// undisturbed reference box.
    pub host_slowdown: f64,
    /// Window samples per leg, in run order.
    pub windows: BTreeMap<Leg, Vec<Sample>>,
    /// Set-up samples, in run order.
    pub setups: Vec<Sample>,
    /// Recovery samples, in run order.
    pub recoveries: Vec<Sample>,
    /// The metrics this kind of run reports.
    pub metrics: Vec<Measured>,
    /// End-to-end metrics whose samples leave their median less certain
    /// than a third of the bound.
    pub unresolved: Vec<&'static str>,
}

/// A timing metric from its samples.
fn timing(name: &'static str, unit: &'static str, scale: f64, samples: &[Sample]) -> Measured {
    let times = unit_secs(samples);
    let raw: Vec<f64> = samples.iter().map(|s| s.secs / s.work).collect();
    Measured {
        name,
        unit,
        value: median(&times) * scale,
        samples: times.len(),
        spread: iqr_share(&times),
        raw: median(&raw) * scale,
        tail: tail_percentile(&times).map(|(p, t)| (p, t * scale)),
    }
}

/// A throughput metric from its leg's windows.
fn throughput(name: &'static str, unit: &'static str, windows: &[Sample]) -> Measured {
    let t = timing(name, unit, 1.0, windows);
    Measured {
        value: 1.0 / t.value,
        raw: 1.0 / t.raw,
        // The slow tail of a throughput is its low end.
        tail: t.tail.map(|(p, secs)| (p, 1.0 / secs)),
        ..t
    }
}

/// One exact value.
fn exact(name: &'static str, unit: &'static str, value: f64) -> Measured {
    Measured {
        name,
        unit,
        value,
        samples: 1,
        spread: 0.0,
        raw: value,
        tail: None,
    }
}

/// Measures `bench` once.
///
/// # Errors
///
/// Fails when the host cannot run the requested thread counts.
pub fn run(bench: &mut dyn Bench, cfg: &RunCfg, host: &HostRecord) -> Result<RunRecord, String> {
    let mt = threads_mt(host.host_cpus);
    if let Some(t) = mt {
        check_threads(t, host.host_cpus)?;
    }
    hfta_kernels::set_num_threads(1);
    let rec = Recorder::new();
    let mut oracle = Oracle::default();
    let mut probe = Probe::new();
    let timed_setup = |bench: &mut dyn Bench, probe: &mut Probe, keep: bool| {
        Sample::take(probe, || {
            let t = Instant::now();
            bench.setup(&rec, keep);
            (1.0, t.elapsed().as_secs_f64())
        })
    };
    let timed_recovery = |bench: &mut dyn Bench, probe: &mut Probe, oracle: &mut Oracle| {
        Sample::take(probe, || (1.0, bench.recover_ms(oracle) / 1e3))
    };

    // Set-up, several times; the last one stays as the array leg.
    rec.set_enabled(cfg.trace);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        hfta_mem::trim();
        setups.push(timed_setup(bench, &mut probe, true));
    }
    rec.set_enabled(false);
    let loop_start = rec.spans().len();
    let peak_mem_bytes = bench.peak_mem_bytes(&rec);

    // The array at `threads_mt` is a layer matter (`kernels.*`): on a
    // shared host the second CPU comes and goes, and an untraced run gives
    // all its time to the two legs its metrics are read off.
    let mut legs = vec![Leg::Array, Leg::Serial];
    if cfg.trace {
        if mt.is_some() {
            legs.push(Leg::ArrayMt);
        }
        legs.extend([Leg::Traced, Leg::Profiled]);
    }
    let unit_secs = bench.prepare(&legs, host, &rec);

    // Equal-work windows: every leg runs the same number of units per
    // window, and the rotation repeats until `cfg.seconds` are spent.
    let mean_unit = unit_secs.values().sum::<f64>() / unit_secs.len() as f64;
    let units = ((WINDOW_SECS / mean_unit).round() as usize).max(1);
    // The quick run still needs the steps of the fixed-length loss digest.
    let min_rounds = if cfg.quick { 6 } else { MIN_ROUNDS };

    let extra_setups = if cfg.quick {
        0
    } else {
        let fit = SETUP_SHARE * cfg.seconds / setups[SETUP_REPS - 1].secs;
        (fit as usize).clamp(SETUP_EXTRA.0, SETUP_EXTRA.1)
    };

    let mut series: BTreeMap<Leg, Vec<Sample>> = BTreeMap::new();
    let started = Instant::now();
    let mut rounds = 0;
    let mut recoveries = Vec::new();
    while rounds < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
        let round = rounds;
        rounds += 1;
        // Extra set-ups at even fractions of the run (the pool keeps what
        // the run has put in it: each is a warm set-up, like the second of
        // the two above).
        let due =
            (started.elapsed().as_secs_f64() / cfg.seconds * (extra_setups + 1) as f64) as usize;
        if setups.len() < SETUP_REPS + due.min(extra_setups) {
            setups.push(timed_setup(bench, &mut probe, false));
        }
        bench.begin_round(units);
        for i in 0..legs.len() {
            // Rotate the starting leg so no leg always runs first.
            let leg = legs[(i + round) % legs.len()];
            hfta_kernels::set_num_threads(leg.threads(host));
            rec.set_enabled(leg == Leg::Traced);
            let profiler = (leg == Leg::Profiled).then(|| {
                let p = hfta_telemetry::Profiler::new("hfta-benchmark");
                let guard = p.install();
                (p, guard)
            });
            let sample = Sample::take(&mut probe, || {
                let w = bench.window(leg, units, &rec, &mut oracle);
                (w.lane_steps as f64, w.secs)
            });
            drop(profiler);
            rec.set_enabled(false);
            series.entry(leg).or_default().push(sample);
        }
        bench.end_round(&mut oracle);
        hfta_kernels::set_num_threads(1);
        recoveries.push(timed_recovery(bench, &mut probe, &mut oracle));
    }
    while recoveries.len() < if cfg.quick { 3 } else { RECOVER_REPS } {
        recoveries.push(timed_recovery(bench, &mut probe, &mut oracle));
    }
    bench.finish(&mut oracle);

    let mut metrics = Vec::new();
    let mut unresolved = Vec::new();
    if cfg.trace {
        let mut ctx = LayerCtx {
            series: &series,
            rec: &rec,
            loop_start,
            host,
            cfg,
            peak_mem_bytes,
            out: BTreeMap::new(),
        };
        bench.layers(&mut ctx);
        let out = ctx.out;
        for m in PER_LAYER {
            let value = out.get(m.name).copied().unwrap_or(0.0);
            metrics.push(exact(m.name, m.unit, value));
        }
        write_trace(bench.name(), &rec, cfg)?;
    } else {
        for m in END_TO_END {
            let got = match m.name {
                "setup_s" => timing(m.name, m.unit, 1.0, &setups),
                "lane_steps_per_s" => throughput(m.name, m.unit, &series[&Leg::Array]),
                "serial_lane_steps_per_s" => throughput(m.name, m.unit, &series[&Leg::Serial]),
                "peak_mem_bytes" => exact(m.name, m.unit, peak_mem_bytes as f64),
                "recover_ms" => timing(m.name, m.unit, 1e3, &recoveries),
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            // The quartile spread of n samples narrows to about
            // spread/sqrt(n) for their median; a median less certain than a
            // third of the bound cannot vouch for a change the size of it.
            if got.spread / (got.samples as f64).sqrt() > m.bound / 3.0 {
                unresolved.push(m.name);
            }
            metrics.push(got);
        }
    }

    let slowdowns: Vec<f64> = series
        .values()
        .flatten()
        .chain(&setups)
        .chain(&recoveries)
        .map(Sample::host_slowdown)
        .collect();
    Ok(RunRecord {
        workload: bench.name(),
        host_slowdown: median(&slowdowns),
        seed: cfg.seed,
        trace: cfg.trace,
        seconds: cfg.seconds,
        units_per_window: units,
        rounds,
        attempted: oracle.attempted,
        failed: oracle.failed.min(oracle.attempted),
        notes: oracle.notes,
        windows: series,
        setups,
        recoveries,
        metrics,
        unresolved,
    })
}

fn write_trace(workload: &str, rec: &Recorder, cfg: &RunCfg) -> Result<(), String> {
    let spans = rec.spans();
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    for (suffix, value) in [
        ("trace.json", crate::trace::chrome_trace(&spans)),
        ("layers.json", crate::trace::ledger_json(&spans)),
    ] {
        let path = cfg.out_dir.join(format!("{workload}.{suffix}"));
        let text = serde_json::to_string(&value).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
