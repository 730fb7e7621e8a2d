//! Integration tests for the elastic fusion scheduler: bit-identity of
//! lane surgery through a full ASHA run (linear classifiers and
//! AlexNet-mini), makespan ordering of the three policies, run
//! determinism, and telemetry wiring.

use hfta_models::AlexNetCfg;
use hfta_sched::{
    asha::RungPolicy,
    backend::ArrayBackend,
    linear::{LinearBackend, LinearTrialCfg},
    sched::{run, Policy, SchedCfg, SchedRun},
    trial::{Trial, TrialStatus},
    ModelBackend, TrialCfg,
};
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_telemetry::Profiler;

fn arrivals(n: usize) -> Vec<(f64, LinearTrialCfg)> {
    (0..n)
        .map(|i| {
            let cfg = LinearTrialCfg {
                // A deterministic log-ish grid of learning rates.
                lr: 0.08 / (1.0 + 0.5 * i as f32),
                // Two trials diverge inside the first rung segment, before
                // any early-stopping decision can reach them, so every
                // policy must sentinel-kill them.
                poison_at: if i == 3 || i == 7 { Some(1) } else { None },
            };
            // Trials trickle in, a small burst at a time.
            ((i / 4) as f64 * 1e-4, cfg)
        })
        .collect()
}

fn cfg(policy: Policy) -> SchedCfg {
    SchedCfg {
        policy,
        rung: RungPolicy {
            base_steps: 2,
            eta: 2,
            rungs: 3,
        },
        width_cap: 4,
    }
}

fn run_policy(policy: Policy, n: usize) -> SchedRun {
    let backend = LinearBackend::default();
    let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
    run(&backend, &mut fleet, &arrivals(n), &cfg(policy))
}

/// Runs `arrivals` over `backend` under `cfg` (an elastic policy) on two
/// V100s and checks the headline invariant: a trial that survived to the
/// end — through rung evictions, per-rung buffering, and re-packs into
/// differently-shaped arrays on different devices — has final parameter
/// *and* optimizer-state lanes bit-identical to the same trial trained
/// solo, uninterrupted, in a width-1 array. Returns the run.
fn assert_survivors_match_solo_runs<B: ArrayBackend>(
    backend: &B,
    arrivals: &[(f64, B::Config)],
    cfg: &SchedCfg,
) -> SchedRun {
    let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
    let outcome = run(backend, &mut fleet, arrivals, cfg);
    assert!(
        outcome.report.repacks > 0,
        "elastic run never re-packed; test exercises nothing"
    );
    assert!(outcome.report.finished > 0, "no trial finished");
    let total_steps = cfg.rung.total_steps_at(cfg.rung.final_rung());
    for (id, state) in &outcome.final_states {
        let trial = Trial {
            id: *id,
            config: arrivals[*id as usize].1.clone(),
        };
        let mut solo = backend.build(&[trial]);
        backend.train(&mut solo, total_steps);
        let solo_state = backend.extract(&solo, 0);
        assert_eq!(state.step_count, solo_state.step_count);
        for (a, b) in state.params.iter().zip(&solo_state.params) {
            assert_eq!(a.to_vec(), b.to_vec(), "trial {id}: param lanes diverged");
        }
        for (a, b) in state.opt_state.iter().zip(&solo_state.opt_state) {
            for (sa, sb) in a.iter().zip(b) {
                assert_eq!(
                    sa.to_vec(),
                    sb.to_vec(),
                    "trial {id}: optimizer lanes diverged"
                );
            }
        }
    }
    outcome
}

#[test]
fn elastic_survivors_are_bit_identical_to_solo_runs() {
    let backend = LinearBackend::default();
    assert_survivors_match_solo_runs(&backend, &arrivals(12), &cfg(Policy::Elastic));
}

/// The same invariant for AlexNet-mini trials (width 4, 8x8 images), one
/// of them diverging and killed in its first rung.
#[test]
fn alexnet_survivors_are_bit_identical_to_solo_runs() {
    let backend = ModelBackend::new(AlexNetCfg {
        width: 4,
        classes: 4,
        image: 8,
    });
    let arrivals: Vec<(f64, TrialCfg)> = (0..8)
        .map(|i| {
            let cfg = TrialCfg {
                lr: 0.08 / (1.0 + 0.5 * i as f32),
                poison_at: (i == 5).then_some(1),
            };
            ((i / 4) as f64 * 1e-2, cfg)
        })
        .collect();
    let outcome = assert_survivors_match_solo_runs(&backend, &arrivals, &cfg(Policy::Elastic));
    assert_eq!(outcome.statuses[5], TrialStatus::Killed);
    assert_eq!(outcome.report.killed, 1);
}

#[test]
fn poisoned_trials_are_killed_under_every_policy() {
    for policy in [Policy::Serial, Policy::StaticFusion, Policy::Elastic] {
        let outcome = run_policy(policy, 12);
        assert_eq!(
            outcome.statuses[3],
            TrialStatus::Killed,
            "{} missed poisoned trial 3",
            policy.name()
        );
        assert_eq!(outcome.statuses[7], TrialStatus::Killed);
        assert_eq!(outcome.report.killed, 2, "{}", policy.name());
        // Every trial reached a terminal state.
        assert!(outcome.statuses.iter().all(|s| *s != TrialStatus::Pending));
        assert_eq!(
            outcome.report.finished + outcome.report.stopped + outcome.report.killed,
            12
        );
    }
}

/// Table-7-style headline: elastic re-packing beats static fusion beats
/// the serial baseline on the same trial stream and fleet.
#[test]
fn makespan_orders_elastic_static_serial() {
    let serial = run_policy(Policy::Serial, 16).report;
    let stat = run_policy(Policy::StaticFusion, 16).report;
    let elastic = run_policy(Policy::Elastic, 16).report;
    assert!(
        elastic.makespan_s < stat.makespan_s,
        "elastic {} !< static {}",
        elastic.makespan_s,
        stat.makespan_s
    );
    assert!(
        stat.makespan_s < serial.makespan_s,
        "static {} !< serial {}",
        stat.makespan_s,
        serial.makespan_s
    );
    // Device-hours follow the same order: dead lanes and unfused steps
    // both burn capacity.
    assert!(elastic.device_hours < stat.device_hours);
    assert!(stat.device_hours < serial.device_hours);
    // Elastic keeps allocated width closer to live width than static.
    assert!(elastic.packing_efficiency > stat.packing_efficiency);
    assert_eq!(serial.max_width, 1);
    assert!(stat.max_width > 1);
}

#[test]
fn runs_are_deterministic() {
    for policy in [Policy::Serial, Policy::StaticFusion, Policy::Elastic] {
        let a = run_policy(policy, 12);
        let b = run_policy(policy, 12);
        assert_eq!(a.report, b.report, "{} report differs", policy.name());
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.final_states.len(), b.final_states.len());
        for ((ia, sa), (ib, sb)) in a.final_states.iter().zip(&b.final_states) {
            assert_eq!(ia, ib);
            for (ta, tb) in sa.params.iter().zip(&sb.params) {
                assert_eq!(ta.to_vec(), tb.to_vec());
            }
        }
    }
}

#[test]
fn scheduler_streams_telemetry_under_a_profiler() {
    let profiler = Profiler::new("sched-integration");
    let report = {
        let _guard = profiler.install();
        let _exp = profiler.experiment("elastic");
        let outcome = run_policy(Policy::Elastic, 12);
        drop(_exp);
        assert!(outcome.report.repacks > 0);
        profiler.report()
    };
    let exp = report
        .experiments
        .iter()
        .find(|e| e.name == "elastic")
        .expect("experiment scope recorded");
    let counter = |name: &str| {
        exp.counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .value
    };
    assert_eq!(counter("sched.arrivals"), 12.0);
    assert!(counter("sched.dispatches") >= 3.0);
    assert!(counter("sched.repacks") >= 1.0);
    assert!(counter("sched.evictions") >= 1.0);
    assert!(exp
        .gauges
        .iter()
        .any(|g| g.name == "sched.packing_efficiency"));
    // Per-trial loss streams key on stable trial ids across re-packs:
    // trial 0's stream covers every step it trained, in order.
    let models = exp.scalar_models();
    assert!(models.contains(&0), "trial 0 has no scalar stream");
    let stream = exp.scalar_stream(0, "loss").expect("loss stream");
    let steps: Vec<u64> = stream.points.iter().map(|p| p.step).collect();
    assert_eq!(steps.first(), Some(&0));
    assert!(steps.windows(2).all(|w| w[1] == w[0] + 1), "gapped stream");
}
