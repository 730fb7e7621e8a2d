//! Multi-tenant serving soak: static FCFS admission vs preemptive
//! fair-share on the same open-loop arrival stream, plus a kill-and-
//! restart leg proving crash-safe checkpoint/restore at soak scale.
//!
//! ```text
//! bench_serve [--trials <n>] [--span <s>] [--quick] [--trace <dir>]
//! ```
//!
//! The arrival stream comes from `hfta-cluster`: a synthetic trace is
//! generated, its sweep bursts recovered (`sweep_arrivals`), thinned and
//! rescaled onto `--span` simulated seconds by the open-loop normalizer
//! (`normalize_arrivals_open`, so the offered rate does not adapt to how
//! fast the fleet drains). Each burst becomes one tenant sweep; small
//! bursts get high priority so preemption has something to do. Every leg
//! replays the identical command stream over its own fresh heterogeneous
//! fleet (V100s, an RTX 6000, an A100).
//!
//! The binary gates the serving headline — preemptive fair-share beats
//! static admission on BOTH makespan and p99 queue wait — and the
//! crash-safety claim: a third leg is hard-killed halfway through its
//! event stream, recovered from the checkpoint journal, and must settle
//! every trial with statuses and final loss bits identical to the
//! uninterrupted fair-share leg. Everything runs in bit-exact simulated
//! time, so `--trace` reports diff clean across machines and thread
//! counts (CI keeps a golden in `ci/golden/serve.report.json`).

use std::fs;
use std::process::ExitCode;

use hfta_bench::cli::CommonArgs;
use hfta_bench::telemetry_cli::TraceSession;
use hfta_cluster::replay::{normalize_arrivals_open, sweep_arrivals, OpenLoopCfg};
use hfta_cluster::trace::{generate, TraceCfg};
use hfta_sched::asha::RungPolicy;
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_serve::engine::{ServeCfg, ServeCmd, ServeEngine, ServeRun, SweepSpec};
use hfta_serve::AdmitPolicy;
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_telemetry::Profiler;

/// Burst-grouping gap when recovering sweeps from the trace, seconds.
const BURST_GAP_S: u64 = 120;
/// Minimum burst size to count as a sweep.
const MIN_TRIALS: usize = 4;
/// Fraction of bursts the open-loop normalizer keeps.
const RATE_SCALE: f64 = 0.9;
/// Seed for the open-loop thinning coin.
const OPEN_LOOP_SEED: u64 = 7;

const USAGE: &str = "bench_serve [--trials <n>] [--span <s>] [--quick] [--trace <dir>]";

struct Args {
    trials: usize,
    span_s: f64,
    session: TraceSession,
}

fn parse_args() -> Args {
    let mut common = CommonArgs::from_env();
    let quick = common.take_switch("--quick");
    let trials = common.take(USAGE, "--trials", "a positive integer", |v: &usize| *v > 0);
    let span_s = common.take(USAGE, "--span", "a non-negative number", |v: &f64| {
        *v >= 0.0
    });
    let session = common.take_trace(USAGE, "bench_serve");
    common.expect_no_rest(USAGE);
    Args {
        trials: trials.unwrap_or(if quick { 64 } else { 128 }),
        span_s: span_s.unwrap_or(if quick { 0.025 } else { 0.05 }),
        session,
    }
}

/// Sub-sweep sizes carved out of each trace burst, cycled by a global
/// counter: the trace's bursts are big monolithic grids, but real tenants
/// submit a mix of short exploratory sweeps and long batch grids.
const CHUNK_SIZES: [usize; 4] = [12, 4, 16, 8];

/// The replayed command stream: each kept burst is carved into tenant
/// sub-sweeps, totalling exactly `n` trials. Small sweeps get high
/// priority (an impatient user with a short grid), big batch sweeps run
/// at low priority — the shape that makes preemptive admission matter.
/// No cancels: outcomes must be schedule-independent so the restart leg
/// can be compared bit-for-bit.
fn command_stream(n: usize, span_s: f64) -> Vec<(f64, ServeCmd<LinearTrialCfg>)> {
    let jobs = generate(&TraceCfg::small(), 42);
    let bursts = sweep_arrivals(&jobs, BURST_GAP_S, MIN_TRIALS);
    let kept = normalize_arrivals_open(
        &bursts,
        span_s,
        &OpenLoopCfg {
            rate_scale: RATE_SCALE,
            seed: OPEN_LOOP_SEED,
        },
    );
    // One chunk per strided burst, so the stream's `n` trials spread
    // across the whole normalized span instead of draining the first
    // couple of (large) bursts: the overlap between fresh arrivals and
    // promoted rungs is exactly what separates the admission policies.
    let avg_chunk = CHUNK_SIZES.iter().sum::<usize>() / CHUNK_SIZES.len();
    let stride = (kept.len() * avg_chunk * 3 / (n * 4)).max(1);
    let mut cmds = Vec::new();
    let mut total = 0usize;
    let mut chunk = 0usize;
    for (j, (bi, t)) in kept.iter().enumerate() {
        if total >= n {
            break;
        }
        if j % stride != 0 {
            continue;
        }
        let take = CHUNK_SIZES[chunk % CHUNK_SIZES.len()]
            .min(bursts[*bi].trials)
            .min(n - total);
        let spec = SweepSpec {
            tenant: format!("{}-{bi}", bursts[*bi].user),
            priority: match take {
                0..=4 => 8.0,
                5..=8 => 4.0,
                9..=12 => 2.0,
                _ => 1.0,
            },
            archs: Vec::new(),
            configs: (0..take)
                .map(|k| LinearTrialCfg {
                    // The burst's swept grid, kept in a stable range.
                    lr: 0.004 * (1 + (k % 12)) as f32,
                    poison_at: if (total + k) % 9 == 4 { Some(1) } else { None },
                })
                .collect(),
        };
        chunk += 1;
        total += take;
        cmds.push((*t, ServeCmd::Submit(spec)));
    }
    assert!(
        total == n,
        "trace yielded only {total} sweep trials (wanted {n})"
    );
    cmds
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

fn serve_cfg(policy: AdmitPolicy, dir: Option<std::path::PathBuf>) -> ServeCfg {
    ServeCfg {
        policy,
        rung: RungPolicy {
            base_steps: 2,
            eta: 2,
            rungs: 3,
        },
        width_cap: 8,
        checkpoint_dir: dir,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let session = args.session;
    // The engine derives its SLO rollup from the ambient profiler's
    // flight journal; install one even when `--trace` is absent.
    let local_profiler = session.local_profiler("bench_serve");
    let profiler = Profiler::current().expect("profiler installed");
    let commands = command_stream(args.trials, args.span_s);

    let run_leg = |scope: &str, policy: AdmitPolicy| -> (ServeRun, u64) {
        let _exp = profiler.experiment(scope);
        let mut eng = ServeEngine::new(
            LinearBackend::default(),
            fleet(),
            serve_cfg(policy, None),
            commands.clone(),
        )
        .expect("engine construction");
        eng.drain().expect("drain");
        let batches = eng.batches();
        (eng.finish(), batches)
    };

    let (stat, _) = run_leg("static", AdmitPolicy::Static);
    let (fair, fair_batches) = run_leg("fair-share", AdmitPolicy::FairShare);

    // Kill-and-restart leg: same stream, hard-killed halfway through its
    // event batches, recovered from journal + snapshots, drained.
    let ckpt_dir = std::env::temp_dir().join(format!("hfta-bench-serve-{}", std::process::id()));
    let _ = fs::remove_dir_all(&ckpt_dir);
    let restarted = {
        // The crash half gets its own scope: its event stream is a torn
        // prefix, while the recovery scope re-emits the journaled history
        // and so holds every trial's complete, well-formed timeline.
        {
            let _exp = profiler.experiment("fair-share-crash");
            let mut eng = ServeEngine::new(
                LinearBackend::default(),
                fleet(),
                serve_cfg(AdmitPolicy::FairShare, Some(ckpt_dir.clone())),
                commands.clone(),
            )
            .expect("engine construction");
            for _ in 0..fair_batches / 2 {
                if !eng.step().expect("step") {
                    break;
                }
            }
            // Hard kill: in-flight segments are dropped on the floor;
            // only the journal and snapshots survive.
        }
        let _exp = profiler.experiment("fair-share-restart");
        let mut eng = ServeEngine::recover(
            LinearBackend::default(),
            fleet(),
            serve_cfg(AdmitPolicy::FairShare, Some(ckpt_dir.clone())),
            commands.clone(),
        )
        .expect("recovery");
        eng.drain().expect("drain");
        eng.finish()
    };
    let _ = fs::remove_dir_all(&ckpt_dir);

    println!(
        "{:>20} {:>12} {:>12} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "policy",
        "makespan_ms",
        "dev_hours",
        "occupancy",
        "finished",
        "stopped",
        "killed",
        "preempts",
        "restores"
    );
    for (label, r) in [
        ("static", &stat.report),
        ("fair-share", &fair.report),
        ("fair-share-restart", &restarted.report),
    ] {
        println!(
            "{label:>20} {:>12.3} {:>12.3e} {:>10.3} {:>8} {:>8} {:>8} {:>9} {:>9}",
            r.makespan_s * 1e3,
            r.device_hours,
            r.occupancy,
            r.finished,
            r.stopped,
            r.killed,
            r.preemptions,
            r.restores
        );
    }
    println!(
        "\n{:>20} {:>11} {:>11} {:>11} {:>11}",
        "policy", "qwait_p50", "qwait_p99", "e2e_p50", "e2e_p99"
    );
    for (label, r) in [
        ("static", &stat.report),
        ("fair-share", &fair.report),
        ("fair-share-restart", &restarted.report),
    ] {
        println!(
            "{label:>20} {:>9.1}us {:>9.1}us {:>9.1}us {:>9.1}us",
            r.queue_wait_p50_us, r.queue_wait_p99_us, r.e2e_latency_p50_us, r.e2e_latency_p99_us
        );
    }

    let bit_identical = restarted.outcomes == fair.outcomes;
    println!(
        "\nfair-share vs static: makespan {:.2}x, p99 queue wait {:.1}us -> {:.1}us; \
         restart bit-identical: {bit_identical} ({} checkpoints, {} restores)",
        stat.report.makespan_s / fair.report.makespan_s,
        stat.report.queue_wait_p99_us,
        fair.report.queue_wait_p99_us,
        restarted.report.checkpoints,
        restarted.report.restores
    );

    // NaN must gate too, so "strictly below" is the pass condition.
    let below = |a: f64, b: f64| a.partial_cmp(&b) == Some(std::cmp::Ordering::Less);
    let mut failed = false;
    if !below(fair.report.makespan_s, stat.report.makespan_s) {
        eprintln!(
            "FAIL: fair-share makespan {} not below static {}",
            fair.report.makespan_s, stat.report.makespan_s
        );
        failed = true;
    }
    if !below(fair.report.queue_wait_p99_us, stat.report.queue_wait_p99_us) {
        eprintln!(
            "FAIL: fair-share p99 queue wait {} not below static {}",
            fair.report.queue_wait_p99_us, stat.report.queue_wait_p99_us
        );
        failed = true;
    }
    if fair.report.preemptions == 0 {
        eprintln!("FAIL: fair-share leg never preempted (stream too easy)");
        failed = true;
    }
    if restarted.report.restores == 0 {
        eprintln!("FAIL: restart leg restored nothing (crash site too early?)");
        failed = true;
    }
    if !bit_identical {
        eprintln!("FAIL: restarted outcomes differ from the uninterrupted run");
        failed = true;
    }

    drop(local_profiler);
    session.finish_or_exit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
