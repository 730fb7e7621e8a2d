//! The training-backend abstraction the scheduler drives.
//!
//! The scheduler decides *which* trials train together, *where*, and *for
//! how long*; an [`ArrayBackend`] owns the actual model math: building a
//! fused array for a set of trials, training it for a step segment,
//! extracting a trial's lanes back out ([`LaneState`]), and splicing
//! buffered lanes into a fresh array. The backend must make per-trial
//! trajectories functions of `(trial id, global step)` alone — never of
//! array width or lane position — so the scheduler's re-packing is
//! bit-invisible to every surviving trial.

use hfta_core::surgery::LaneState;
use hfta_sim::TrainingJob;

use crate::trial::Trial;

/// What one training segment did to each lane of an array.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Per-lane score at the end of the segment; higher is better. The
    /// successive-halving rule ranks these at rung boundaries.
    pub scores: Vec<f32>,
    /// Per-lane cumulative quarantine flag: `true` once a divergence
    /// sentinel fired for the lane (at any point in the array's life).
    pub killed: Vec<bool>,
}

/// A training backend the scheduler can orchestrate.
pub trait ArrayBackend {
    /// Per-trial hyper-parameter configuration.
    type Config: Clone;
    /// A live fused array training one lane per trial.
    type Array;

    /// Builds a freshly initialized array with one lane per trial, about
    /// to take its first step. Lane `i` trains `trials[i]`; its
    /// initialization must depend only on `trials[i].id`.
    fn build(&self, trials: &[Trial<Self::Config>]) -> Self::Array;

    /// Builds an array whose lane `i` continues `trials[i]` from
    /// `lanes[i]` — parameters and optimizer state spliced bit-identically
    /// — with `start_step` steps already taken.
    fn splice(
        &self,
        trials: &[Trial<Self::Config>],
        lanes: &[LaneState],
        start_step: u64,
    ) -> Self::Array;

    /// Extracts lane `lane`'s parameters and optimizer state.
    fn extract(&self, array: &Self::Array, lane: usize) -> LaneState;

    /// Trains the array for `steps` further steps, returning per-lane
    /// scores and quarantine flags.
    fn train(&self, array: &mut Self::Array, steps: u64) -> TrainOutcome;

    /// The per-model simulator cost profile of one training step — the
    /// job `hfta-sim` fuses to width `B` for step timing and the
    /// memory-capacity max-width selection.
    fn job_profile(&self) -> TrainingJob;
}
