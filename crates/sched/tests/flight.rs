//! Property tests of the hfta-flight journal over random arrival streams:
//! every policy must emit, for every trial, a well-formed causal event
//! sequence (contiguous per-trial `seq`, legal lifecycle transitions,
//! exactly one terminal event) whose queue/compute/surgery/quarantine
//! decomposition sums *bit-exactly* to the trial's end-to-end latency.

use hfta_sched::{
    asha::RungPolicy,
    linear::{LinearBackend, LinearTrialCfg},
    sched::{run, Policy, SchedCfg, SchedRun},
    trial::TrialStatus,
};
use hfta_sim::{DeviceFleet, DeviceSpec};
use hfta_telemetry::flight::derive_terminated;
use hfta_telemetry::{FlightEvent, FlightKind, Profiler, FLEET_TRIAL};
use proptest::prelude::*;

/// One generated trial: inter-arrival gap (grid ticks), lr index, poison.
type GenTrial = (u8, u8, bool);

/// Builds an arrival stream from generated `(gap, lr_idx, poison)` tuples.
/// Poison fires at global step 1 — inside rung 0, before any early-stop
/// decision — so a faulting lane is always still live when it diverges
/// (a dead rider faulting after its Evict would be a journal violation by
/// construction, not a scheduler bug).
fn arrivals(gen: &[GenTrial]) -> Vec<(f64, LinearTrialCfg)> {
    let mut t = 0.0;
    gen.iter()
        .map(|&(gap, lr_idx, poison)| {
            t += gap as f64 * 1e-4;
            let cfg = LinearTrialCfg {
                lr: 0.08 / (1.0 + 0.5 * lr_idx as f64 as f32),
                poison_at: if poison { Some(1) } else { None },
            };
            (t, cfg)
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

/// Runs one policy under a fresh profiler and returns the outcome plus
/// the experiment's flight journal.
fn run_traced(policy: Policy, stream: &[(f64, LinearTrialCfg)]) -> (SchedRun, Vec<FlightEvent>) {
    let backend = LinearBackend::default();
    let mut fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
    let profiler = Profiler::new("flight-prop");
    let _guard = profiler.install();
    let _exp = profiler.experiment(policy.name());
    let outcome = run(&backend, &mut fleet, stream, &cfg(policy));
    let events = profiler.flight_events();
    (outcome, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_policy_journals_every_trial_exactly(
        // Each u32 encodes one trial: gap ∈ 0..3, lr index ∈ 0..8, and a
        // ~15% poison chance (the vendored proptest has no tuple/weighted
        // strategies, so decode from a single integer draw).
        gen in prop::collection::vec(0u32..480, 3..10).prop_map(|raw| {
            raw.into_iter()
                .map(|x| ((x % 3) as u8, ((x / 3) % 8) as u8, x % 20 < 3))
                .collect::<Vec<GenTrial>>()
        }),
    ) {
        let stream = arrivals(&gen);
        for policy in [Policy::Serial, Policy::StaticFusion, Policy::Elastic] {
            let (outcome, events) = run_traced(policy, &stream);

            // Strict derivation: any malformed sequence (gapped seq,
            // illegal transition, duplicate terminal) is an Err, and a
            // missing terminal leaves the trial unterminated.
            let (slos, open) = derive_terminated(&events)
                .unwrap_or_else(|e| panic!("{}: malformed journal: {e}", policy.name()));
            prop_assert!(open.is_empty(), "{}: unterminated {:?}", policy.name(), open);

            // Exactly one complete timeline per submitted trial, no orphans.
            prop_assert_eq!(slos.len(), stream.len());
            for (i, slo) in slos.iter().enumerate() {
                prop_assert_eq!(slo.trial, i as u64);

                // The headline invariant: the decomposition telescopes
                // bit-exactly to end-to-end latency on the integer-ns grid.
                prop_assert_eq!(
                    slo.queue_ns + slo.compute_ns + slo.surgery_ns + slo.quarantine_ns,
                    slo.e2e_ns()
                );

                // Terminal kind and fault flag agree with the scheduler's
                // own status accounting.
                match outcome.statuses[i] {
                    TrialStatus::Finished => {
                        prop_assert_eq!(slo.outcome, FlightKind::Complete);
                        prop_assert!(!slo.faulted, "{}: finished trial {i} faulted", policy.name());
                        prop_assert_eq!(slo.quarantine_ns, 0u64);
                    }
                    TrialStatus::Stopped => {
                        prop_assert_eq!(slo.outcome, FlightKind::Evict);
                        prop_assert!(!slo.faulted, "{}: stopped trial {i} faulted", policy.name());
                    }
                    TrialStatus::Killed => {
                        prop_assert_eq!(slo.outcome, FlightKind::Evict);
                        prop_assert!(slo.faulted, "{}: killed trial {i} not faulted", policy.name());
                    }
                    TrialStatus::Pending => prop_assert!(false, "trial {i} never terminated"),
                }
            }

            // Poisoned trials fault; clean streams don't.
            let any_poison = gen.iter().any(|&(_, _, p)| p);
            prop_assert_eq!(slos.iter().any(|s| s.faulted), any_poison);

            // Fleet-lane bookkeeping rides outside the per-trial state
            // machine: bind/release pairs exist and carry FLEET_TRIAL.
            let binds = events.iter().filter(|e| e.kind == FlightKind::DeviceBind).count();
            let releases = events.iter().filter(|e| e.kind == FlightKind::DeviceRelease).count();
            prop_assert!(binds > 0, "{}: no DeviceBind events", policy.name());
            prop_assert_eq!(binds, releases);
            prop_assert!(
                events.iter()
                    .filter(|e| matches!(e.kind, FlightKind::DeviceBind | FlightKind::DeviceRelease))
                    .all(|e| e.trial == FLEET_TRIAL),
                "{}: fleet events under a trial id", policy.name()
            );

            // The report's summed decomposition equals the per-trial sums.
            let sum_us = |f: fn(&hfta_telemetry::TrialSlo) -> u64| {
                slos.iter().map(|s| f(s) as f64 / 1e3).sum::<f64>()
            };
            let r = &outcome.report;
            prop_assert!((r.queue_us - sum_us(|s| s.queue_ns)).abs() < 1e-9);
            prop_assert!((r.compute_us - sum_us(|s| s.compute_ns)).abs() < 1e-9);
            prop_assert!((r.surgery_us - sum_us(|s| s.surgery_ns)).abs() < 1e-9);
            prop_assert!((r.quarantine_us - sum_us(|s| s.quarantine_ns)).abs() < 1e-9);
        }
    }
}
