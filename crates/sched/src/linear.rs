//! A concrete [`ArrayBackend`]: fused linear classifiers on synthetic
//! data, the workload of the repo's hyper-parameter tuning experiments.
//!
//! Everything a trial computes is a function of `(trial id, global step)`
//! alone: the trial's init weights come from a seed mixed from its id, and
//! every step's batch comes from a seed mixed from its id and the step
//! index. Array width and lane position never enter, so a trial's
//! trajectory is bit-identical whether it trains solo, in a width-8 array,
//! or across three re-packed arrays — the invariant the scheduler's lane
//! surgery relies on (and the integration tests assert exactly).

use hfta_core::{
    array::ModelArray,
    loss::{fused_cross_entropy, Reduction},
    ops::{FusedLinear, FusedParameter},
    optim::{FusedSgd, PerModel},
    scope::{per_model_ce_losses, poison_model_lane, ScopeMonitor, SentinelCfg},
    surgery::{self, LaneState},
};
use hfta_nn::layers::{Linear, LinearCfg};
use hfta_sim::{JobMemory, Kernel, TrainingJob};
use hfta_telemetry::Profiler;
use hfta_tensor::Rng;

use crate::backend::{ArrayBackend, TrainOutcome};
use crate::trial::Trial;

/// SplitMix64-style avalanche mix of two words — the seed derivation for
/// per-trial init and per-(trial, step) batches.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Hyper-parameters of one linear-classifier trial.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearTrialCfg {
    /// Learning rate (the swept hyper-parameter).
    pub lr: f32,
    /// Inject NaNs into the trial's gradient lane at this global step —
    /// a synthetic divergence for exercising sentinel kills.
    pub poison_at: Option<u64>,
}

/// Backend configuration: model/data shapes and shared seeds.
#[derive(Debug, Clone)]
pub struct LinearBackend {
    /// Base seed every trial/batch seed is mixed from.
    pub base_seed: u64,
    /// Batch size per model.
    pub n: usize,
    /// Input features.
    pub f_in: usize,
    /// Output classes.
    pub classes: usize,
    /// SGD momentum (shared across trials).
    pub momentum: f32,
    /// Divergence-sentinel thresholds for every array's monitor.
    pub sentinel: SentinelCfg,
}

impl Default for LinearBackend {
    fn default() -> Self {
        LinearBackend {
            base_seed: 0x48F7_A000,
            n: 8,
            f_in: 12,
            classes: 4,
            momentum: 0.9,
            sentinel: SentinelCfg::default(),
        }
    }
}

/// A live fused array of linear trials.
#[derive(Debug)]
pub struct LinearArray {
    array: ModelArray<FusedLinear>,
    params: Vec<FusedParameter>,
    opt: FusedSgd,
    monitor: ScopeMonitor,
    trials: Vec<Trial<LinearTrialCfg>>,
    step: u64,
}

impl LinearArray {
    /// Global steps every lane has taken.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The array width.
    pub fn b(&self) -> usize {
        self.array.b()
    }
}

impl LinearBackend {
    fn init_seed(&self, id: u64) -> u64 {
        mix(self.base_seed, id * 2 + 1)
    }

    fn batch_seed(&self, id: u64, step: u64) -> u64 {
        mix(mix(self.base_seed, id * 2), step)
    }

    fn assemble(&self, trials: &[Trial<LinearTrialCfg>]) -> LinearArray {
        assert!(!trials.is_empty(), "an array needs at least one trial");
        let cfg = LinearCfg::new(self.f_in, self.classes);
        let models: Vec<Linear> = trials
            .iter()
            .map(|t| Linear::new(cfg, &mut Rng::seed_from(self.init_seed(t.id))))
            .collect();
        let fused = FusedLinear::from_models(&models).expect("same-shape models always fuse");
        let array = ModelArray::new(fused);
        let params = array.fused_parameters();
        let lrs = PerModel::new(trials.iter().map(|t| t.config.lr).collect());
        let opt = FusedSgd::new(params.clone(), lrs, self.momentum)
            .expect("per-model lr count matches array width");
        let monitor = ScopeMonitor::with_model_ids(
            trials.len(),
            self.sentinel,
            trials.iter().map(|t| t.id).collect(),
        );
        LinearArray {
            array,
            params,
            opt,
            monitor,
            trials: trials.to_vec(),
            step: 0,
        }
    }
}

impl ArrayBackend for LinearBackend {
    type Config = LinearTrialCfg;
    type Array = LinearArray;

    fn build(&self, trials: &[Trial<LinearTrialCfg>]) -> LinearArray {
        self.assemble(trials)
    }

    fn splice(
        &self,
        trials: &[Trial<LinearTrialCfg>],
        lanes: &[LaneState],
        start_step: u64,
    ) -> LinearArray {
        let mut la = self.assemble(trials);
        surgery::splice_lanes_traced(lanes, &la.params, &mut la.opt);
        la.step = start_step;
        la
    }

    fn extract(&self, array: &LinearArray, lane: usize) -> LaneState {
        surgery::extract_lane_traced(&array.params, &array.opt, lane, array.trials[lane].id)
    }

    fn train(&self, la: &mut LinearArray, steps: u64) -> TrainOutcome {
        let b = la.b();
        let profiler = Profiler::current();
        let mut losses = vec![0.0f32; b];
        for _ in 0..steps {
            let gstep = la.step;
            let mut inputs = Vec::with_capacity(b);
            let mut targets = Vec::with_capacity(b * self.n);
            for t in &la.trials {
                let mut rng = Rng::seed_from(self.batch_seed(t.id, gstep));
                inputs.push(rng.randn([self.n, self.f_in]));
                targets.extend((0..self.n).map(|_| rng.below(self.classes)));
            }
            la.opt.zero_grad();
            let (_tape, logits) = la
                .array
                .forward_array(&inputs)
                .expect("same-shape batches always stack");
            losses = per_model_ce_losses(&logits, &targets);
            let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
            loss.backward();
            for (i, t) in la.trials.iter().enumerate() {
                if t.config.poison_at == Some(gstep) && !la.opt.quarantined()[i] {
                    poison_model_lane(&la.params, i);
                }
            }
            la.monitor
                .after_backward(gstep, &losses, &la.params, &mut la.opt);
            la.opt.step();
            la.monitor.after_step(gstep, &la.params);
            if let Some(p) = &profiler {
                for (i, t) in la.trials.iter().enumerate() {
                    p.scalar(t.id, "loss", gstep, losses[i] as f64);
                }
            }
            la.step += 1;
        }
        TrainOutcome {
            scores: losses.iter().map(|&l| -l).collect(),
            killed: la.monitor.fired_models().to_vec(),
        }
    }

    fn job_profile(&self) -> TrainingJob {
        TrainingJob {
            name: "linear-sweep".into(),
            // Kernels sized right at the device's bandwidth-saturation
            // point (80 tiles × 16K elements), so every extra fused lane
            // costs real execution time — dead lanes are never free — while
            // heavy per-kernel launch/sync overhead gives fusion a strongly
            // sublinear step time, the paper's §2.2 regime.
            kernels: vec![Kernel::elementwise(80 * 16 * 1024); 20],
            host_us: 50.0,
            sync_us_per_kernel: 25.0,
            cpu_gap_fraction: 0.0,
            // Calibrated so a 16 GiB V100 (1.52 GiB framework reservation)
            // fits roughly ten fused lanes — the Table 5 max-B regime.
            memory: JobMemory {
                weights_gib: 0.08,
                activations_gib: 1.2,
                workspace_gib: 0.2,
            },
            models_per_job: 1,
            examples_per_iteration: self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(id: u64, lr: f32) -> Trial<LinearTrialCfg> {
        Trial {
            id,
            config: LinearTrialCfg {
                lr,
                poison_at: None,
            },
        }
    }

    #[test]
    fn trajectory_is_width_and_lane_invariant() {
        let backend = LinearBackend::default();
        // Trial 7 solo...
        let mut solo = backend.build(&[trial(7, 0.05)]);
        backend.train(&mut solo, 6);
        let solo_state = backend.extract(&solo, 0);
        // ...and the same trial as lane 2 of a width-4 array.
        let trials = vec![
            trial(3, 0.1),
            trial(5, 0.02),
            trial(7, 0.05),
            trial(9, 0.01),
        ];
        let mut fused = backend.build(&trials);
        backend.train(&mut fused, 6);
        let fused_state = backend.extract(&fused, 2);
        assert_eq!(solo_state.params.len(), fused_state.params.len());
        for (a, b) in solo_state.params.iter().zip(&fused_state.params) {
            assert_eq!(a.to_vec(), b.to_vec(), "param lanes diverged");
        }
        for (a, b) in solo_state.opt_state.iter().zip(&fused_state.opt_state) {
            for (sa, sb) in a.iter().zip(b) {
                assert_eq!(sa.to_vec(), sb.to_vec(), "optimizer lanes diverged");
            }
        }
    }

    #[test]
    fn splice_resumes_bit_identically() {
        let backend = LinearBackend::default();
        let trials = vec![trial(1, 0.05), trial(2, 0.03)];
        // Straight run: 4 steps.
        let mut straight = backend.build(&trials);
        backend.train(&mut straight, 4);
        // Split run: 2 steps, extract both lanes, splice, 2 more steps.
        let mut first = backend.build(&trials);
        backend.train(&mut first, 2);
        let lanes = vec![backend.extract(&first, 0), backend.extract(&first, 1)];
        let mut resumed = backend.splice(&trials, &lanes, first.step());
        assert_eq!(resumed.step(), 2);
        backend.train(&mut resumed, 2);
        for lane in 0..2 {
            let a = backend.extract(&straight, lane);
            let b = backend.extract(&resumed, lane);
            for (pa, pb) in a.params.iter().zip(&b.params) {
                assert_eq!(pa.to_vec(), pb.to_vec(), "lane {lane} params diverged");
            }
        }
    }

    #[test]
    fn poison_quarantines_only_its_lane() {
        let backend = LinearBackend::default();
        let mut poisoned_trial = trial(4, 0.05);
        poisoned_trial.config.poison_at = Some(1);
        let trials = vec![trial(1, 0.05), poisoned_trial];
        let mut array = backend.build(&trials);
        let outcome = backend.train(&mut array, 3);
        assert_eq!(outcome.killed, vec![false, true]);
        // The healthy lane is unaffected: bit-identical to a solo run.
        let mut solo = backend.build(&[trial(1, 0.05)]);
        backend.train(&mut solo, 3);
        let a = backend.extract(&solo, 0);
        let b = backend.extract(&array, 0);
        for (pa, pb) in a.params.iter().zip(&b.params) {
            assert_eq!(pa.to_vec(), pb.to_vec());
        }
    }

    #[test]
    fn job_profile_fits_a_v100_band() {
        use hfta_sim::{DeviceFleet, DeviceSpec};
        let backend = LinearBackend::default();
        let fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 1);
        let w = fleet.max_fused_width(0, &backend.job_profile(), 64);
        assert!((6..=14).contains(&w), "max width {w} outside Table 5 band");
    }
}
