//! The linear-classifier architecture: one fused `Linear` on synthetic
//! data, the workload of the repo's scheduler and service experiments, and
//! its [`ModelBackend`] under the names the benchmarks and tools use.

use hfta_core::error::Result;
use hfta_core::format::stack_array;
use hfta_core::ops::{Architecture, Ops};
use hfta_nn::layers::LinearCfg;
use hfta_sim::{JobMemory, Kernel, TrainingJob};
use hfta_tensor::{Rng, Tensor};

use crate::model::{ModelBackend, TrialArray, TrialCfg};

/// Batch size per model.
const N: usize = 8;
/// Input features.
const F_IN: usize = 12;
/// Output classes.
const CLASSES: usize = 4;

/// A one-layer linear classifier over `[N, 12]` Gaussian features and
/// uniform labels from 4 classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearClassifier;

/// The backend training [`LinearClassifier`] trials.
pub type LinearBackend = ModelBackend<LinearClassifier>;
/// A live fused array of linear trials.
pub type LinearArray = TrialArray<LinearClassifier>;
/// Hyper-parameters of one linear-classifier trial.
pub type LinearTrialCfg = TrialCfg;

impl Architecture for LinearClassifier {
    type Model<O: Ops> = O::Linear;

    fn build<O: Ops>(&self, ops: O, rng: &mut Rng) -> O::Linear {
        ops.linear(LinearCfg::new(F_IN, CLASSES), rng)
    }

    fn batch(&self, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = Rng::seed_from(seed);
        let x = rng.randn([N, F_IN]);
        (x, (0..N).map(|_| rng.below(CLASSES)).collect())
    }

    fn stack(inputs: &[Tensor]) -> Result<Tensor> {
        stack_array(inputs)
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
            examples_per_iteration: N,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ArrayBackend;
    use crate::trial::Trial;

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
