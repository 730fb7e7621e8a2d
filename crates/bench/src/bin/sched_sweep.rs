//! Replayed-trace scheduler shootout: serial vs static fusion vs elastic
//! re-packing on the same trial stream and simulated fleet.
//!
//! ```text
//! sched_sweep [--trials <n>] [--devices <n>] [--span <s>] [--trace <dir>]
//! ```
//!
//! The trial stream comes from `hfta-cluster`: a synthetic two-week trace
//! is generated, its hyper-parameter sweep bursts recovered
//! (`sweep_arrivals`), and their submit times rescaled onto `--span`
//! simulated seconds (`normalize_arrivals`). Every policy then replays
//! the same arrivals over its own fresh fleet under a successive-halving
//! rung schedule; a sprinkling of trials is NaN-poisoned so sentinel
//! kills and quarantine evictions happen mid-run.
//!
//! The binary asserts the paper-level headline — elastic beats static
//! fusion beats serial on makespan — and exits 1 if the ordering ever
//! breaks; CI also diffs the `--trace` report against
//! `ci/golden/sched_sweep.report.json` (losses, streams, and sentinels
//! are bit-reproducible; wall times are not gated). The second table is
//! the per-policy SLO decomposition (p50/p99 queue-wait and e2e latency
//! plus queue/compute/surgery/quarantine sums, all in bit-exact simulated
//! µs, the latencies printed at round-trip precision); the same p99s are
//! gated exactly (bound 0) by the `ci/golden/flight_sweep.report.json`
//! diff.

use std::process::ExitCode;

use hfta_bench::cli::CommonArgs;
use hfta_bench::telemetry_cli::TraceSession;
use hfta_cluster::replay::{normalize_arrivals, sweep_arrivals};
use hfta_cluster::trace::{generate, TraceCfg};
use hfta_sched::asha::RungPolicy;
use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
use hfta_sched::sched::{run, Policy, SchedCfg};
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_telemetry::Profiler;

/// Burst-grouping gap when recovering sweeps from the trace, seconds.
const BURST_GAP_S: u64 = 120;
/// Minimum burst size to count as a sweep.
const MIN_TRIALS: u64 = 4;
/// Every ninth trial (offset 4) is NaN-poisoned at this step.
const POISON_STEP: u64 = 1;

const USAGE: &str = "sched_sweep [--trials <n>] [--devices <n>] [--span <s>] [--trace <dir>]";

struct Args {
    trials: usize,
    devices: usize,
    span_s: f64,
    session: TraceSession,
}

fn parse_args() -> Args {
    let mut common = CommonArgs::from_env();
    let positive = |v: &usize| *v > 0;
    let trials = common.take(USAGE, "--trials", "a positive integer", positive);
    let devices = common.take(USAGE, "--devices", "a positive integer", positive);
    let span_s = common.take(USAGE, "--span", "a non-negative number", |v: &f64| {
        *v >= 0.0
    });
    let session = common.take_trace(USAGE, "sched_sweep");
    common.expect_no_rest(USAGE);
    Args {
        trials: trials.unwrap_or(48),
        devices: devices.unwrap_or(2),
        span_s: span_s.unwrap_or(0.01),
        session,
    }
}

/// The replayed trial stream: `(arrival_s, config)`, one entry per trial,
/// bursts sharing their (normalized) submit instant.
fn trial_stream(n: usize, span_s: f64) -> Vec<(f64, LinearTrialCfg)> {
    let jobs = generate(&TraceCfg::small(), 42);
    let bursts = sweep_arrivals(&jobs, BURST_GAP_S, MIN_TRIALS as usize);
    let times = normalize_arrivals(&bursts, span_s);
    let mut stream = Vec::with_capacity(n);
    'outer: for (burst, &t) in bursts.iter().zip(&times) {
        for k in 0..burst.trials {
            if stream.len() == n {
                break 'outer;
            }
            let i = stream.len();
            let cfg = LinearTrialCfg {
                // The burst's swept grid, kept in a stable range.
                lr: 0.004 * (1 + (k % 12)) as f32,
                poison_at: if i % 9 == 4 { Some(POISON_STEP) } else { None },
            };
            stream.push((t, cfg));
        }
    }
    assert!(
        stream.len() == n,
        "trace yielded only {} sweep trials (wanted {n})",
        stream.len()
    );
    stream
}

fn main() -> ExitCode {
    let args = parse_args();
    let session = args.session;
    // The SLO columns are read back from the ambient profiler's flight
    // journal: untraced, every latency would read zero.
    let _local = session.local_profiler("sched_sweep");
    let arrivals = trial_stream(args.trials, args.span_s);

    let backend = LinearBackend::default();
    let rung = RungPolicy {
        base_steps: 2,
        eta: 2,
        rungs: 3,
    };
    let profiler = Profiler::current();
    let mut records = Vec::new();
    for policy in [Policy::Serial, Policy::StaticFusion, Policy::Elastic] {
        let _exp = profiler.as_ref().map(|p| p.experiment(policy.name()));
        let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, args.devices);
        let cfg = SchedCfg {
            policy,
            rung: rung.clone(),
            width_cap: 8,
        };
        let outcome = run(&backend, &mut fleet, &arrivals, &cfg);
        records.push(outcome.report);
    }

    println!(
        "{:>14} {:>12} {:>12} {:>10} {:>9} {:>8} {:>8} {:>8}",
        "policy",
        "makespan_ms",
        "dev_hours",
        "occupancy",
        "packing",
        "finished",
        "stopped",
        "killed"
    );
    for r in &records {
        println!(
            "{:>14} {:>12.3} {:>12.3e} {:>10.3} {:>9.3} {:>8} {:>8} {:>8}",
            r.policy,
            r.makespan_s * 1e3,
            r.device_hours,
            r.occupancy,
            r.packing_efficiency,
            r.finished,
            r.stopped,
            r.killed
        );
    }
    println!(
        "\n{:>14} {:>13} {:>13} {:>13} {:>13} {:>12} {:>12} {:>12} {:>12}",
        "policy",
        "qwait_p50_us",
        "qwait_p99_us",
        "e2e_p50_us",
        "e2e_p99_us",
        "queue_us",
        "compute_us",
        "surgery_us",
        "quarant_us"
    );
    for r in &records {
        println!(
            "{:>14} {:>13} {:>13} {:>13} {:>13} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            r.policy,
            r.queue_wait_p50_us,
            r.queue_wait_p99_us,
            r.e2e_latency_p50_us,
            r.e2e_latency_p99_us,
            r.queue_us,
            r.compute_us,
            r.surgery_us,
            r.quarantine_us
        );
    }

    let (serial, stat, elastic) = (&records[0], &records[1], &records[2]);
    println!(
        "\nspeedup vs serial: static {:.2}x, elastic {:.2}x; elastic vs static {:.2}x \
         ({} repacks moved {} lanes)",
        serial.makespan_s / stat.makespan_s,
        serial.makespan_s / elastic.makespan_s,
        stat.makespan_s / elastic.makespan_s,
        elastic.repacks,
        elastic.lanes_moved
    );

    // NaN must gate too, so "strictly below, comparably" is the pass
    // condition rather than a negated `<`.
    let below = |a: f64, b: f64| a.partial_cmp(&b) == Some(std::cmp::Ordering::Less);
    let mut failed = false;
    if !below(elastic.makespan_s, stat.makespan_s) {
        eprintln!(
            "FAIL: elastic makespan {} not below static {}",
            elastic.makespan_s, stat.makespan_s
        );
        failed = true;
    }
    if !below(stat.makespan_s, serial.makespan_s) {
        eprintln!(
            "FAIL: static makespan {} not below serial {}",
            stat.makespan_s, serial.makespan_s
        );
        failed = true;
    }
    if !below(stat.packing_efficiency, elastic.packing_efficiency) {
        eprintln!(
            "FAIL: elastic packing {} not above static {}",
            elastic.packing_efficiency, stat.packing_efficiency
        );
        failed = true;
    }

    session.finish_or_exit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
