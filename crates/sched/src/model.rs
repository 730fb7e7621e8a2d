//! The one [`ArrayBackend`]: fused arrays of any [`Architecture`] written
//! once over `hfta_core::ops::Ops`, trained with per-trial SGD.
//!
//! Everything a trial computes is a function of `(trial id, global step)`
//! alone: the trial's init weights come from a seed mixed from its id (its
//! lane is built at `Serial` from that seed and written into the array),
//! and every step's batch comes from a seed mixed from its id and the step
//! index. Array width and lane position never enter, so a trial's
//! trajectory is bit-identical whether it trains solo, in a width-8 array,
//! or across three re-packed arrays — the invariant the scheduler's lane
//! surgery relies on (and the integration tests assert exactly).
//!
//! The architecture names the model; the backend decides how to map it:
//! the fused optimizer, divergence sentinels and their `poison_at`
//! injection, the per-lane cross-entropy scores and `loss` scalar streams,
//! and lane surgery are written here once for every model.

use hfta_core::{
    array::write_model_weights,
    loss::{fused_cross_entropy, Reduction},
    ops::{Architecture, Fused, FusedParameter, Serial},
    optim::{FusedSgd, PerModel},
    scope::{per_model_ce_losses, poison_model_lane, ScopeMonitor, SentinelCfg},
    surgery::{self, LaneState},
};
use hfta_nn::{Module, Tape};
use hfta_sim::TrainingJob;
use hfta_telemetry::Profiler;
use hfta_tensor::Rng;

use crate::backend::{ArrayBackend, TrainOutcome};
use crate::trial::Trial;

/// SGD momentum, shared by every trial.
const MOMENTUM: f32 = 0.9;

/// SplitMix64-style avalanche mix of two words — the seed derivation for
/// per-trial init and per-(trial, step) batches.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Hyper-parameters of one trial.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrialCfg {
    /// Learning rate (the swept hyper-parameter).
    pub lr: f32,
    /// Inject NaNs into the trial's gradient lane at this global step —
    /// a synthetic divergence for exercising sentinel kills.
    pub poison_at: Option<u64>,
}

/// Trains fused arrays of the architecture `A`, one lane per trial.
#[derive(Debug, Clone)]
pub struct ModelBackend<A> {
    /// Base seed every trial/batch seed is mixed from.
    pub base_seed: u64,
    /// The architecture every trial trains.
    pub arch: A,
}

impl<A> ModelBackend<A> {
    /// The backend for `arch` at the default base seed.
    pub fn new(arch: A) -> Self {
        ModelBackend {
            base_seed: 0x48F7_A000,
            arch,
        }
    }
}

impl<A: Default> Default for ModelBackend<A> {
    fn default() -> Self {
        Self::new(A::default())
    }
}

/// A live fused array of trials of the architecture `A`.
#[derive(Debug)]
pub struct TrialArray<A: Architecture> {
    model: A::Model<Fused>,
    params: Vec<FusedParameter>,
    opt: FusedSgd,
    monitor: ScopeMonitor,
    trials: Vec<Trial<TrialCfg>>,
    step: u64,
}

impl<A: Architecture> TrialArray<A> {
    /// Global steps every lane has taken.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The array width.
    pub fn b(&self) -> usize {
        self.trials.len()
    }
}

impl<A: Architecture> ModelBackend<A> {
    fn init_seed(&self, id: u64) -> u64 {
        mix(self.base_seed, id * 2 + 1)
    }

    fn batch_seed(&self, id: u64, step: u64) -> u64 {
        mix(mix(self.base_seed, id * 2), step)
    }

    /// The array for `trials`, its parameters still to be written lane by
    /// lane (the array's own init is not any trial's). It trains in eval
    /// mode (dropout off), so a lane's trajectory is its solo run's.
    fn assemble(&self, trials: &[Trial<TrialCfg>]) -> TrialArray<A> {
        assert!(!trials.is_empty(), "an array needs at least one trial");
        let b = trials.len();
        let model = self
            .arch
            .build(Fused(b), &mut Rng::seed_from(self.base_seed));
        model.set_training(false);
        let params = FusedParameter::of(&model, b);
        let lrs = PerModel::new(trials.iter().map(|t| t.config.lr).collect());
        let opt = FusedSgd::new(params.clone(), lrs, MOMENTUM)
            .expect("per-model lr count matches array width");
        let monitor = ScopeMonitor::with_model_ids(
            b,
            SentinelCfg::default(),
            trials.iter().map(|t| t.id).collect(),
        );
        TrialArray {
            model,
            params,
            opt,
            monitor,
            trials: trials.to_vec(),
            step: 0,
        }
    }
}

impl<A: Architecture> ArrayBackend for ModelBackend<A> {
    type Config = TrialCfg;
    type Array = TrialArray<A>;

    /// Lane `i` starts exactly as trial `i`'s model alone would: built at
    /// `Serial` from the trial's own seed and written into its lane.
    fn build(&self, trials: &[Trial<TrialCfg>]) -> TrialArray<A> {
        let ta = self.assemble(trials);
        for (i, t) in trials.iter().enumerate() {
            let lane = self
                .arch
                .build(Serial, &mut Rng::seed_from(self.init_seed(t.id)));
            write_model_weights(&ta.params, i, &lane.parameters());
        }
        ta
    }

    fn splice(
        &self,
        trials: &[Trial<TrialCfg>],
        lanes: &[LaneState],
        start_step: u64,
    ) -> TrialArray<A> {
        let mut ta = self.assemble(trials);
        surgery::splice_lanes_traced(lanes, &ta.params, &mut ta.opt);
        ta.step = start_step;
        ta
    }

    fn extract(&self, array: &TrialArray<A>, lane: usize) -> LaneState {
        surgery::extract_lane_traced(&array.params, &array.opt, lane, array.trials[lane].id)
    }

    fn train(&self, ta: &mut TrialArray<A>, steps: u64) -> TrainOutcome {
        let b = ta.b();
        let profiler = Profiler::current();
        let mut losses = vec![0.0f32; b];
        for _ in 0..steps {
            let gstep = ta.step;
            let mut inputs = Vec::with_capacity(b);
            let mut targets = Vec::new();
            for t in &ta.trials {
                let (x, y) = self.arch.batch(self.batch_seed(t.id, gstep));
                inputs.push(x);
                targets.extend(y);
            }
            ta.opt.zero_grad();
            let stacked = A::stack(&inputs).expect("same-shape batches always stack");
            let tape = Tape::new();
            let logits = ta.model.forward(&tape.leaf(stacked));
            losses = per_model_ce_losses(&logits, &targets);
            let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
            loss.backward();
            for (i, t) in ta.trials.iter().enumerate() {
                if t.config.poison_at == Some(gstep) && !ta.opt.quarantined()[i] {
                    poison_model_lane(&ta.params, i);
                }
            }
            ta.monitor
                .after_backward(gstep, &losses, &ta.params, &mut ta.opt);
            ta.opt.step();
            ta.monitor.after_step(gstep, &ta.params);
            if let Some(p) = &profiler {
                for (i, t) in ta.trials.iter().enumerate() {
                    p.scalar(t.id, "loss", gstep, losses[i] as f64);
                }
            }
            ta.step += 1;
        }
        TrainOutcome {
            scores: losses.iter().map(|&l| -l).collect(),
            killed: ta.monitor.fired_models().to_vec(),
        }
    }

    fn job_profile(&self) -> TrainingJob {
        self.arch.job_profile()
    }
}
