//! The horizontally fused optimizer and learning-rate scheduler.
//!
//! Hyper-parameter tuning is the paper's flagship use case, so the fused
//! optimizer accepts **per-model** hyper-parameters ([`PerModel`]): the
//! scalar-vector operations of a serial optimizer (e.g. `lr * grad`) become
//! vector-vector operations over the fused parameter's model axis (paper
//! §3.1, Figure 1). A fused parameter is model-major, so that broadcast is
//! a per-lane scalar: each step walks the contiguous lanes of every
//! parameter once and hands each lane, with its model's hyper-parameters,
//! to the *same* one-pass slice kernel the serial optimizer runs
//! (`hfta_nn::{sgd_update, adam_update, adadelta_update}`). Fused(B) is
//! therefore `B` serial optimizers bit for bit, at any per-lane setting —
//! provided the kernels keep plain `a * b + c` (see `hfta_nn`'s optimizer
//! module: a `mul_add` would round once and move every loss).
//!
//! There is one optimizer, [`FusedOptimizer`]: parameter groups (fused
//! parameters plus the global lanes they carry — one group `0..B` for a
//! hand-fused array, one per parameter-carrying block of a
//! [`crate::planned::PlannedArray`]), hyper-parameters indexed by global
//! lane, one quarantine mask, one step counter, and the update rule as a
//! value of its type parameter ([`SgdUpdate`], [`AdamUpdate`],
//! [`AdadeltaUpdate`]; [`FusedSgd`], [`FusedAdam`], [`FusedAdadelta`]). Step,
//! quarantine and lane surgery ([`FusedOptimizer::extract`] /
//! [`FusedOptimizer::splice`]) exist once, for every rule and lane map, and
//! the one [`FusedScheduler`] evaluates a serial schedule per lane.

use std::ops::Range;

use hfta_nn::{
    adadelta_update, adam_update, optim_step_span, sgd_update, AdamCoeffs, LrSchedule, ValueRun,
};
use hfta_tensor::Tensor;

use crate::error::{FusionError, Result};
use crate::ops::FusedParameter;
use crate::scope::lane_bounds;
use crate::surgery::LaneState;

/// A per-model hyper-parameter vector (one value per fused model).
///
/// # Example
///
/// ```
/// use hfta_core::optim::PerModel;
/// let lrs = PerModel::new(vec![0.1, 0.01, 0.001]);
/// assert_eq!(lrs.b(), 3);
/// assert_eq!(PerModel::uniform(4, 0.1).values(), &[0.1; 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerModel {
    values: Vec<f32>,
}

impl PerModel {
    /// One value per model.
    pub fn new(values: Vec<f32>) -> Self {
        PerModel { values }
    }

    /// The same value for every model.
    pub fn uniform(b: usize, value: f32) -> Self {
        PerModel {
            values: vec![value; b],
        }
    }

    /// Number of models.
    pub fn b(&self) -> usize {
        self.values.len()
    }

    /// The underlying values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Value for model `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> f32 {
        self.values[i]
    }

    /// Validates the vector against an array width.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::HyperParamLength`] on mismatch.
    pub fn check_b(&self, b: usize) -> Result<()> {
        if self.values.len() == b {
            Ok(())
        } else {
            Err(FusionError::HyperParamLength {
                expected: b,
                found: self.values.len(),
            })
        }
    }
}

/// An update rule: a serial optimizer's slice kernel with its scalar
/// hyper-parameters turned into per-lane vectors (paper Figure 1).
pub trait Update {
    /// State tensors per parameter, each of the parameter's fused shape, in
    /// the slot order of [`LaneState::opt_state`].
    const SLOTS: usize;
    /// Whether the update depends on the step count (Adam's bias
    /// correction); the other rules keep it at 0, as their snapshots do.
    const COUNTS_STEPS: bool;
    /// The scalars of one step that every lane shares.
    type Step: Copy;

    /// Checks the per-lane hyper-parameters against the number of lanes:
    /// [`FusionError::HyperParamLength`] on a mismatch.
    fn check(&self, _lanes: usize) -> Result<()> {
        Ok(())
    }

    /// Step `t`'s shared scalars, and its f32 words read + written and
    /// flops per element (the `optim_step` sample).
    fn begin(&self, t: u64) -> (Self::Step, usize, usize);

    /// Updates global lane `l` of one parameter at rate `lr`: its value run
    /// `x`, gradient run `g` and state runs `st`.
    fn lane(&self, s: Self::Step, l: usize, lr: f32, x: ValueRun<'_>, g: &[f32], st: Slots);
}

/// The same run of each of one parameter's state tensors: lane `l`'s
/// optimizer state.
pub struct Slots<'a>(&'a mut [Tensor], Range<usize>);

/// SGD with per-lane momenta. State: `[velocity]`.
#[derive(Debug, Clone)]
pub struct SgdUpdate {
    /// Per-lane momentum.
    pub momentum: PerModel,
}

impl Update for SgdUpdate {
    const SLOTS: usize = 1;
    const COUNTS_STEPS: bool = false;
    /// Whether every lane runs without momentum.
    type Step = bool;

    fn check(&self, lanes: usize) -> Result<()> {
        self.momentum.check_b(lanes)
    }

    fn begin(&self, _t: u64) -> (bool, usize, usize) {
        // The plain path is chosen array-wide: a zero-momentum lane of a
        // momentum array still stores `v = v * 0 + g`, and snapshots and lane
        // surgery carry those state bits.
        if self.momentum.values().iter().all(|&m| m == 0.0) {
            (true, 3, 2)
        } else {
            (false, 5, 4)
        }
    }

    fn lane(&self, plain: bool, l: usize, lr: f32, x: ValueRun<'_>, g: &[f32], st: Slots) {
        let Slots([v], r) = st else { unreachable!() };
        let v = (!plain).then(|| &mut v.as_mut_slice()[r]);
        sgd_update(x, g, v, lr, self.momentum.get(l));
    }
}

/// Adam with betas and epsilon shared by every lane. State: `[m, v]`, the
/// first and second moments.
#[derive(Debug, Clone, Copy)]
pub struct AdamUpdate {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
}

impl Default for AdamUpdate {
    /// `betas = (0.9, 0.999)`, `eps = 1e-8`.
    fn default() -> Self {
        AdamUpdate {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl Update for AdamUpdate {
    const SLOTS: usize = 2;
    const COUNTS_STEPS: bool = true;
    type Step = AdamCoeffs;

    fn begin(&self, t: u64) -> (AdamCoeffs, usize, usize) {
        let c = AdamCoeffs::at_step(self.beta1, self.beta2, self.eps, t);
        (c, 7, 14)
    }

    fn lane(&self, c: AdamCoeffs, _l: usize, lr: f32, x: ValueRun<'_>, g: &[f32], st: Slots) {
        let Slots([m, v], r) = st else { unreachable!() };
        let (m, v) = (&mut m.as_mut_slice()[r.clone()], &mut v.as_mut_slice()[r]);
        adam_update(x, g, m, v, lr, c);
    }
}

/// Adadelta with per-lane `rho` (the vector-vector form of Figure 1).
/// State: `[sq_avg, acc_delta]`.
#[derive(Debug, Clone)]
pub struct AdadeltaUpdate {
    /// Per-lane decay rate.
    pub rho: PerModel,
    /// Epsilon shared by every lane.
    pub eps: f32,
}

impl Update for AdadeltaUpdate {
    const SLOTS: usize = 2;
    const COUNTS_STEPS: bool = false;
    type Step = ();

    fn check(&self, lanes: usize) -> Result<()> {
        self.rho.check_b(lanes)
    }

    fn begin(&self, _t: u64) -> ((), usize, usize) {
        ((), 7, 16)
    }

    fn lane(&self, (): (), l: usize, lr: f32, x: ValueRun<'_>, g: &[f32], st: Slots) {
        let Slots([s, a], r) = st else { unreachable!() };
        let (s, a) = (&mut s.as_mut_slice()[r.clone()], &mut a.as_mut_slice()[r]);
        adadelta_update(x, g, s, a, lr, self.rho.get(l), self.eps);
    }
}

/// The optimizer's parameters `params`, each `lanes.len()` wide, whose lane
/// `j` trains global lane `lanes[j]`.
#[derive(Debug)]
struct Group {
    lanes: Vec<usize>,
    params: Range<usize>,
}

/// `(parameter, lane within it)` of every parameter that carries global
/// lane `lane`, in group order.
fn carriers(groups: &[Group], lane: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    groups.iter().flat_map(move |g| {
        let j = g.lanes.iter().position(|&l| l == lane);
        j.into_iter()
            .flat_map(|j| g.params.clone().map(move |pi| (pi, j)))
    })
}

/// Lane `j` of a `b`-wide fused tensor.
fn lane_mut(t: &mut Tensor, b: usize, j: usize) -> &mut [f32] {
    let (lo, hi) = lane_bounds(t.numel(), b, j);
    &mut t.as_mut_slice()[lo..hi]
}

/// Copies `src` into lane `j` of a `b`-wide fused tensor.
fn copy_lane(t: &mut Tensor, b: usize, j: usize, src: &Tensor) {
    let dst = lane_mut(t, b, j);
    assert_eq!(src.numel(), dst.len(), "lane state size mismatch");
    dst.copy_from_slice(src.as_slice());
}

fn check_params(params: &[FusedParameter], b: usize) -> Result<()> {
    for p in params {
        if p.b != b {
            return Err(FusionError::HyperParamLength {
                expected: b,
                found: p.b,
            });
        }
        let rows = p.param.value().dim(0);
        if rows % b != 0 {
            let name = p.param.name();
            let detail = format!("parameter {name} axis 0 ({rows}) not divisible by B = {b}");
            return Err(FusionError::StructureMismatch { detail });
        }
    }
    Ok(())
}

/// The fused optimizer: update rule `U` over parameter groups.
#[derive(Debug)]
pub struct FusedOptimizer<U> {
    params: Vec<FusedParameter>,
    /// `U::SLOTS` tensors per parameter, parameter-major.
    state: Vec<Tensor>,
    groups: Vec<Group>,
    lr: PerModel,
    update: U,
    quarantined: Vec<bool>,
    t: u64,
}

/// Fused SGD with per-model learning rates and momenta.
pub type FusedSgd = FusedOptimizer<SgdUpdate>;
/// Fused Adam with per-model learning rates.
pub type FusedAdam = FusedOptimizer<AdamUpdate>;
/// Fused Adadelta with per-model learning rates and `rho`.
pub type FusedAdadelta = FusedOptimizer<AdadeltaUpdate>;

impl<U: Update> FusedOptimizer<U> {
    /// Rule `update` over parameter groups `(lanes, params)`: a group's
    /// parameters are `lanes.len()` wide and their lane `j` trains global
    /// lane `lanes[j]`; `lr` and the rule's vectors are indexed by global
    /// lane.
    ///
    /// # Errors
    ///
    /// [`FusionError`] when a hyper-parameter vector or parameter disagrees
    /// with its width, or a group names a lane `lr` lacks.
    pub fn grouped(
        groups: Vec<(Vec<usize>, Vec<FusedParameter>)>,
        lr: PerModel,
        update: U,
    ) -> Result<Self> {
        let b = lr.b();
        update.check(b)?;
        let (mut params, mut spans) = (Vec::new(), Vec::new());
        for (lanes, group) in groups {
            if let Some(l) = lanes.iter().find(|&&l| l >= b) {
                let detail = format!("group lane {l} out of range for {b} lanes");
                return Err(FusionError::StructureMismatch { detail });
            }
            check_params(&group, lanes.len())?;
            let start = params.len();
            params.extend(group);
            spans.push(Group {
                lanes,
                params: start..params.len(),
            });
        }
        let zeros = params
            .iter()
            .flat_map(|p| (0..U::SLOTS).map(move |_| p.param.value().zeros_like()));
        let state = zeros.collect();
        Ok(FusedOptimizer {
            state,
            params,
            groups: spans,
            lr,
            update,
            quarantined: vec![false; b],
            t: 0,
        })
    }

    /// Rule `update` over one group whose lane `l` trains model `l`.
    fn fused(params: Vec<FusedParameter>, lr: PerModel, update: U) -> Result<Self> {
        let lanes = (0..lr.b()).collect();
        Self::grouped(vec![(lanes, params)], lr, update)
    }

    /// Applies one update step: one `optim_step` sample, one pass over
    /// every parameter, each lane through the rule's serial kernel.
    pub fn step(&mut self) {
        self.mask_quarantined();
        if U::COUNTS_STEPS {
            self.t += 1;
        }
        let (s, words, flops) = self.update.begin(self.t);
        let _span = optim_step_span(self.params.iter().map(|p| p.param.numel()), words, flops);
        let lr = self.lr.values();
        for g in &self.groups {
            let slots = &mut self.state[g.params.start * U::SLOTS..g.params.end * U::SLOTS];
            let params = &self.params[g.params.clone()];
            for (p, state) in params.iter().zip(slots.chunks_exact_mut(U::SLOTS)) {
                p.param.update_run(|mut value, grad| {
                    let chunk = value.len() / p.b;
                    for (j, &l) in g.lanes.iter().enumerate() {
                        let r = j * chunk..(j + 1) * chunk;
                        let g = &grad.as_slice()[r.clone()];
                        self.update
                            .lane(s, l, lr[l], value.at(r.clone()), g, Slots(state, r));
                    }
                });
            }
        }
    }

    /// Re-masks the gradient lanes of quarantined lanes — called at the
    /// top of every step because `backward()` keeps accumulating (possibly
    /// non-finite) gradients into them. Borrows no parameter when nothing
    /// is quarantined.
    fn mask_quarantined(&self) {
        let q = &self.quarantined;
        for g in self.groups.iter().filter(|g| g.lanes.iter().any(|&l| q[l])) {
            for p in &self.params[g.params.clone()] {
                p.param.update_grad(|grad| {
                    for (j, _) in g.lanes.iter().enumerate().filter(|(_, &l)| q[l]) {
                        lane_mut(grad, p.b, j).fill(0.0);
                    }
                });
            }
        }
    }

    /// Zeroes every managed gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.param.zero_grad();
        }
    }

    /// Current per-lane learning rates.
    pub fn lr(&self) -> &PerModel {
        &self.lr
    }

    /// Replaces the per-lane learning rates (used by schedulers); panics if
    /// the width differs.
    pub fn set_lr(&mut self, lr: PerModel) {
        assert_eq!(lr.b(), self.lr.b(), "array width mismatch");
        self.lr = lr;
    }

    /// Number of global lanes.
    pub fn lanes(&self) -> usize {
        self.quarantined.len()
    }

    /// The managed parameters, group after group.
    pub fn params(&self) -> &[FusedParameter] {
        &self.params
    }

    /// Quarantines global lane `lane`: zeroes its gradient and
    /// optimizer-state lanes in every group that carries it now, and keeps
    /// masking its gradient lanes at the start of every later
    /// [`FusedOptimizer::step`], so the lane's parameters freeze while every
    /// other lane — fused alongside it or serial elsewhere — trains on bit
    /// for bit unaffected (lane updates are elementwise, and a masked lane
    /// contributes exactly `x − 0.0 = x`). Idempotent; panics if `lane` is
    /// out of range.
    pub fn quarantine(&mut self, lane: usize) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        self.quarantined[lane] = true;
        for (pi, j) in carriers(&self.groups, lane) {
            let p = &self.params[pi];
            p.param.update_grad(|g| lane_mut(g, p.b, j).fill(0.0));
            for t in &mut self.state[pi * U::SLOTS..(pi + 1) * U::SLOTS] {
                lane_mut(t, p.b, j).fill(0.0);
            }
        }
    }

    /// Per-lane quarantine flags.
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    /// Number of state tensors per parameter ([`Update::SLOTS`]).
    pub fn state_slots(&self) -> usize {
        U::SLOTS
    }

    /// State tensor `slot` of parameter `pi` (in [`FusedOptimizer::params`]
    /// order), of the parameter's fused shape; panics if either is out of
    /// range.
    pub fn state(&self, pi: usize, slot: usize) -> &Tensor {
        assert!(slot < U::SLOTS, "state slot {slot} out of range");
        &self.state[pi * U::SLOTS + slot]
    }

    /// The shared step counter: steps taken for rules whose update depends
    /// on it (Adam), 0 for the others.
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Copies global lane `lane`'s training state out — its parameter lanes
    /// and every optimizer-state lane, one segment per group that carries
    /// it, in group order, plus the step counter — leaving the optimizer
    /// untouched. For a planned array group order is the lane's own program
    /// order, so the state is interchangeable with a width-1 array's and
    /// round-trips through [`crate::snapshot`] unchanged. Panics if `lane`
    /// is out of range.
    pub fn extract(&self, lane: usize) -> LaneState {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        let (mut params, mut opt_state) = (Vec::new(), Vec::new());
        for (pi, j) in carriers(&self.groups, lane) {
            let b = self.params[pi].b;
            let narrow = |t: &Tensor| t.narrow(0, j * t.dim(0) / b, t.dim(0) / b);
            params.push(narrow(&self.params[pi].param.value()));
            let slots = &self.state[pi * U::SLOTS..(pi + 1) * U::SLOTS];
            opt_state.push(slots.iter().map(narrow).collect());
        }
        LaneState {
            params,
            opt_state,
            step_count: self.t,
            ctx: None,
        }
    }

    /// Writes an extracted lane state into global lane `lane`, split back
    /// into the segments of [`FusedOptimizer::extract`].
    fn write(&mut self, lane: usize, state: &LaneState) {
        let count = carriers(&self.groups, lane).count();
        assert!(
            state.params.len() == count && state.opt_state.len() == count,
            "lane state has the wrong parameter count"
        );
        let segments = state.params.iter().zip(&state.opt_state);
        for ((pi, j), (value, slots)) in carriers(&self.groups, lane).zip(segments) {
            assert_eq!(slots.len(), U::SLOTS, "lane state has the wrong slot count");
            let p = &self.params[pi];
            p.param.update_value(|v| copy_lane(v, p.b, j, value));
            let targets = &mut self.state[pi * U::SLOTS..(pi + 1) * U::SLOTS];
            for (t, s) in targets.iter_mut().zip(slots) {
                copy_lane(t, p.b, j, s);
            }
        }
    }

    /// Splices one extracted state per lane — lane `i` receives
    /// `lanes[i]` — and restores the shared step counter from them:
    /// rebuilding a full-width array from the survivors of several
    /// fragmented ones.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len()` differs from the width, the lanes disagree
    /// on their step count, or any lane's parameter count, slot count or
    /// lane sizes disagree with its program.
    pub fn splice(&mut self, lanes: &[LaneState]) {
        assert_eq!(
            lanes.len(),
            self.lanes(),
            "need exactly one lane state per target lane"
        );
        let t = lanes.first().map_or(0, |l| l.step_count);
        assert!(
            lanes.iter().all(|l| l.step_count == t),
            "spliced lanes disagree on the optimizer step count"
        );
        for (i, state) in lanes.iter().enumerate() {
            self.write(i, state);
        }
        self.t = t;
    }
}

impl FusedSgd {
    /// Fused SGD with one momentum shared by every model; fails like
    /// [`FusedOptimizer::grouped`].
    pub fn new(params: Vec<FusedParameter>, lr: PerModel, momentum: f32) -> Result<Self> {
        let momentum = PerModel::uniform(lr.b(), momentum);
        Self::with_momenta(params, lr, momentum)
    }

    /// Fused SGD with **per-model momenta**, a common sweep axis (paper
    /// §3.1); fails like [`FusedOptimizer::grouped`].
    pub fn with_momenta(
        params: Vec<FusedParameter>,
        lr: PerModel,
        momentum: PerModel,
    ) -> Result<Self> {
        Self::fused(params, lr, SgdUpdate { momentum })
    }
}

impl FusedAdam {
    /// Fused Adam with the defaults of [`AdamUpdate`]; fails like
    /// [`FusedOptimizer::grouped`].
    pub fn new(params: Vec<FusedParameter>, lr: PerModel) -> Result<Self> {
        Self::fused(params, lr, AdamUpdate::default())
    }

    /// Fused Adam with custom betas; fails like [`FusedOptimizer::grouped`].
    pub fn with_betas(
        params: Vec<FusedParameter>,
        lr: PerModel,
        beta1: f32,
        beta2: f32,
        eps: f32,
    ) -> Result<Self> {
        Self::fused(params, lr, AdamUpdate { beta1, beta2, eps })
    }
}

impl FusedAdadelta {
    /// Fused Adadelta with per-model `rho`; fails like
    /// [`FusedOptimizer::grouped`].
    pub fn new(params: Vec<FusedParameter>, lr: PerModel, rho: PerModel, eps: f32) -> Result<Self> {
        Self::fused(params, lr, AdadeltaUpdate { rho, eps })
    }
}

/// The fused learning-rate scheduler: lane `l` follows its own serial
/// schedule ([`hfta_nn::StepLr`], [`hfta_nn::ExponentialLr`],
/// [`hfta_nn::CosineLr`]), so one scheduler drives `B` different schedules
/// and every lane's rate is the serial expression, bit for bit.
#[derive(Debug, Clone)]
pub struct FusedScheduler<S> {
    lanes: Vec<S>,
    epoch: usize,
}

impl<S: LrSchedule> FusedScheduler<S> {
    /// One serial schedule per lane.
    pub fn new(lanes: Vec<S>) -> Self {
        FusedScheduler { lanes, epoch: 0 }
    }

    /// Per-lane LRs the schedules prescribe at `epoch`.
    pub fn lr_at(&self, epoch: usize) -> PerModel {
        PerModel::new(self.lanes.iter().map(|s| s.lr_at(epoch)).collect())
    }

    /// Advances one epoch and writes the per-lane LRs into `opt`, which
    /// must be as wide as the schedules are many.
    pub fn step<U: Update>(&mut self, opt: &mut FusedOptimizer<U>) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }
}

/// Clips each model's gradient L2 norm to `max_norm` **independently** —
/// the fused counterpart of `clip_grad_norm`. A naive global clip over the
/// fused tensors would couple the models (one exploding model would shrink
/// everyone's gradients), breaking the paper's mathematical-equivalence
/// guarantee; clipping per model-slice preserves it exactly. Returns the
/// pre-clip norm of each model.
///
/// # Panics
///
/// Panics if `max_norm` is not positive, `params` is empty, or parameter
/// widths disagree.
pub fn fused_clip_grad_norm(params: &[FusedParameter], max_norm: f32) -> Vec<f32> {
    assert!(max_norm > 0.0, "max_norm must be positive");
    assert!(!params.is_empty(), "no parameters to clip");
    // Per-model squared norms across all parameters — the same single-pass
    // fused reduction the hfta-scope sentinels use (no per-model slicing).
    let (sq, _) = crate::scope::per_model_grad_sq_norms(params);
    let norms: Vec<f32> = sq.iter().map(|s| s.sqrt()).collect();
    // Rescale in place the lanes over the limit — per lane, the serial
    // `clip_grad_norm`'s own expression.
    if norms.iter().any(|&n| n > max_norm) {
        for p in params {
            p.param.update_grad(|g| {
                for (i, &n) in norms.iter().enumerate().filter(|(_, &n)| n > max_norm) {
                    let scale = max_norm / n;
                    lane_mut(g, norms.len(), i)
                        .iter_mut()
                        .for_each(|v| *v *= scale);
                }
            });
        }
    }
    norms
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::{Adadelta, Adam, CosineLr, ExponentialLr, Optimizer, Parameter, Sgd, StepLr};
    use hfta_tensor::Rng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Builds B serial params and the equivalent fused param, then drives
    /// both with the same per-model gradients and compares.
    struct Harness {
        serial: Vec<Parameter>,
        fused: FusedParameter,
        b: usize,
        c: usize,
    }

    impl Harness {
        fn new(b: usize, c: usize, seed: u64) -> Self {
            let mut rng = Rng::seed_from(seed);
            let serial: Vec<Parameter> = (0..b)
                .map(|i| Parameter::new(rng.randn([c, 2]), format!("w{i}")))
                .collect();
            let stacked = {
                let vs: Vec<_> = serial.iter().map(|p| p.value_cloned()).collect();
                Tensor::concat(&vs.iter().collect::<Vec<_>>(), 0)
            };
            Harness {
                serial,
                fused: FusedParameter {
                    param: Parameter::new(stacked, "fused"),
                    b,
                },
                b,
                c,
            }
        }

        fn apply_grads(&self, rng: &mut Rng) {
            let grads: Vec<Tensor> = (0..self.b).map(|_| rng.randn([self.c, 2])).collect();
            for (p, g) in self.serial.iter().zip(&grads) {
                p.zero_grad();
                p.accumulate_grad(g);
            }
            self.fused.param.zero_grad();
            self.fused
                .param
                .accumulate_grad(&Tensor::concat(&grads.iter().collect::<Vec<_>>(), 0));
        }

        /// Every lane of the fused parameter equals its serial twin bit
        /// for bit — the same kernel ran on both.
        fn assert_match(&self) {
            let fv = self.fused.param.value_cloned();
            for (i, p) in self.serial.iter().enumerate() {
                let slice = fv.narrow(0, i * self.c, self.c);
                assert_eq!(bits(&slice), bits(&p.value()), "model {i} diverged");
            }
        }
    }

    #[test]
    fn fused_sgd_equals_serial_per_model_lrs() {
        let h = Harness::new(3, 4, 1);
        let lrs = [0.1, 0.01, 0.5];
        let mut serial: Vec<Sgd> = h
            .serial
            .iter()
            .zip(lrs)
            .map(|(p, lr)| Sgd::new(vec![p.clone()], lr, 0.9))
            .collect();
        let mut fused =
            FusedSgd::new(vec![h.fused.clone()], PerModel::new(lrs.to_vec()), 0.9).unwrap();
        let mut rng = Rng::seed_from(2);
        for _ in 0..5 {
            h.apply_grads(&mut rng);
            for o in &mut serial {
                o.step();
            }
            fused.step();
            h.assert_match();
        }
    }

    #[test]
    fn fused_adam_equals_serial_per_model_lrs() {
        let h = Harness::new(4, 3, 3);
        let lrs = [0.1, 0.01, 0.001, 0.3];
        let mut serial: Vec<Adam> = h
            .serial
            .iter()
            .zip(lrs)
            .map(|(p, lr)| Adam::new(vec![p.clone()], lr))
            .collect();
        let mut fused = FusedAdam::new(vec![h.fused.clone()], PerModel::new(lrs.to_vec())).unwrap();
        let mut rng = Rng::seed_from(4);
        for _ in 0..10 {
            h.apply_grads(&mut rng);
            for o in &mut serial {
                o.step();
            }
            fused.step();
            h.assert_match();
        }
    }

    #[test]
    fn fused_adadelta_equals_serial_per_model_rho() {
        let h = Harness::new(2, 5, 5);
        let lrs = [1.0, 0.5];
        let rhos = [0.9, 0.8];
        let mut serial: Vec<Adadelta> = h
            .serial
            .iter()
            .zip(lrs.iter().zip(rhos))
            .map(|(p, (&lr, rho))| Adadelta::with_rho(vec![p.clone()], lr, rho, 1e-6))
            .collect();
        let mut fused = FusedAdadelta::new(
            vec![h.fused.clone()],
            PerModel::new(lrs.to_vec()),
            PerModel::new(rhos.to_vec()),
            1e-6,
        )
        .unwrap();
        let mut rng = Rng::seed_from(6);
        for _ in 0..10 {
            h.apply_grads(&mut rng);
            for o in &mut serial {
                o.step();
            }
            fused.step();
            h.assert_match();
        }
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let p = FusedParameter {
            param: Parameter::new(Tensor::zeros([4]), "w"),
            b: 2,
        };
        let (lr2, lr3) = (PerModel::uniform(2, 0.1), PerModel::uniform(3, 0.1));
        assert!(FusedSgd::new(vec![p.clone()], lr3.clone(), 0.0).is_err());
        assert!(FusedSgd::with_momenta(vec![p.clone()], lr2.clone(), lr3.clone()).is_err());
        assert!(FusedAdadelta::new(vec![p.clone()], lr2.clone(), lr3.clone(), 1e-6).is_err());
        // A group may only name lanes the rate vector covers.
        let groups = vec![(vec![1, 2], vec![p])];
        assert!(FusedAdam::grouped(groups, lr2, AdamUpdate::default()).is_err());
    }

    #[test]
    fn fused_step_lr_drives_distinct_schedules() {
        let mut sched =
            FusedScheduler::new(vec![StepLr::new(0.1, 1, 0.5), StepLr::new(0.1, 2, 0.1)]);
        let p = FusedParameter {
            param: Parameter::new(Tensor::zeros([2]), "w"),
            b: 2,
        };
        let mut opt = FusedSgd::new(vec![p], PerModel::uniform(2, 0.1), 0.0).unwrap();
        sched.step(&mut opt); // epoch 1
        assert!((opt.lr().get(0) - 0.05).abs() < 1e-7);
        assert!((opt.lr().get(1) - 0.1).abs() < 1e-7);
        sched.step(&mut opt); // epoch 2
        assert!((opt.lr().get(0) - 0.025).abs() < 1e-7);
        assert!((opt.lr().get(1) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn per_model_momentum_matches_serial() {
        let h = Harness::new(3, 2, 21);
        let lrs = [0.1, 0.05, 0.02];
        let moms = [0.9, 0.5, 0.0];
        let mut serial: Vec<Sgd> = h
            .serial
            .iter()
            .zip(lrs.iter().zip(moms))
            .map(|(p, (&lr, m))| Sgd::new(vec![p.clone()], lr, m))
            .collect();
        let mut fused = FusedSgd::with_momenta(
            vec![h.fused.clone()],
            PerModel::new(lrs.to_vec()),
            PerModel::new(moms.to_vec()),
        )
        .unwrap();
        let mut rng = Rng::seed_from(22);
        for _ in 0..6 {
            h.apply_grads(&mut rng);
            for o in &mut serial {
                o.step();
            }
            fused.step();
            h.assert_match();
        }
    }

    #[test]
    fn fused_exponential_lr_decays_per_model() {
        let sched = FusedScheduler::new(vec![
            ExponentialLr::new(1.0, 0.5),
            ExponentialLr::new(1.0, 0.9),
        ]);
        let at2 = sched.lr_at(2);
        assert!((at2.get(0) - 0.25).abs() < 1e-6);
        assert!((at2.get(1) - 0.81).abs() < 1e-6);
    }

    #[test]
    fn fused_cosine_lr_anneals_to_eta_min() {
        let sched = FusedScheduler::new(vec![
            CosineLr::new(1.0, 0.0, 10),
            CosineLr::new(0.1, 0.01, 10),
        ]);
        let start = sched.lr_at(0);
        assert!((start.get(0) - 1.0).abs() < 1e-6);
        let mid = sched.lr_at(5);
        assert!((mid.get(0) - 0.5).abs() < 1e-6);
        let end = sched.lr_at(10);
        assert!((end.get(0) - 0.0).abs() < 1e-6);
        assert!((end.get(1) - 0.01).abs() < 1e-6);
        // Past t_max the LR clamps at eta_min.
        assert!((sched.lr_at(20).get(0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn schedulers_drive_fused_optimizer() {
        let p = FusedParameter {
            param: Parameter::new(Tensor::zeros([2]), "w"),
            b: 2,
        };
        let mut opt = FusedSgd::new(vec![p], PerModel::uniform(2, 1.0), 0.0).unwrap();
        let mut exp = FusedScheduler::new(vec![
            ExponentialLr::new(1.0, 0.5),
            ExponentialLr::new(1.0, 0.9),
        ]);
        exp.step(&mut opt);
        assert!((opt.lr().get(0) - 0.5).abs() < 1e-7);
        let mut cos = FusedScheduler::new(vec![CosineLr::new(1.0, 0.0, 4); 2]);
        cos.step(&mut opt);
        assert!(opt.lr().get(0) < 1.0);
    }

    #[test]
    fn fused_clip_is_per_model_and_matches_serial() {
        use hfta_nn::clip_grad_norm;
        // Model 0 has a huge gradient, model 1 a small one; fused per-model
        // clipping must only touch model 0 — exactly what serial clipping
        // of each model would do.
        let serial: Vec<Parameter> = vec![
            Parameter::new(Tensor::zeros([2]), "m0"),
            Parameter::new(Tensor::zeros([2]), "m1"),
        ];
        serial[0].accumulate_grad(&Tensor::from_vec(vec![30.0, 40.0], [2]));
        serial[1].accumulate_grad(&Tensor::from_vec(vec![0.3, 0.4], [2]));
        let fused = FusedParameter {
            param: Parameter::new(Tensor::zeros([4]), "wf"),
            b: 2,
        };
        fused
            .param
            .accumulate_grad(&Tensor::from_vec(vec![30.0, 40.0, 0.3, 0.4], [4]));
        let norms = fused_clip_grad_norm(std::slice::from_ref(&fused), 1.0);
        assert!((norms[0] - 50.0).abs() < 1e-3);
        assert!((norms[1] - 0.5).abs() < 1e-5);
        for p in &serial {
            clip_grad_norm(std::slice::from_ref(p), 1.0);
        }
        let fg = fused.param.grad_cloned();
        assert_eq!(bits(&fg.narrow(0, 0, 2)), bits(&serial[0].grad()));
        assert_eq!(bits(&fg.narrow(0, 2, 2)), bits(&serial[1].grad()));
        // A *global* clip over the fused tensor would have scaled model 1
        // too; verify it kept its original gradient.
        assert_eq!(fg.narrow(0, 2, 2).to_vec(), vec![0.3, 0.4]);
    }

    #[test]
    fn fused_schedulers_match_serial_per_model() {
        // Every lane's rate is its serial scheduler's, bit for bit.
        let steps = [StepLr::new(0.2, 2, 0.5), StepLr::new(0.1, 3, 0.9)];
        let exps = [ExponentialLr::new(0.2, 0.7), ExponentialLr::new(0.05, 0.9)];
        let coss = [CosineLr::new(0.2, 0.01, 6), CosineLr::new(0.3, 0.0, 4)];
        let (step_f, exp_f, cos_f) = (
            FusedScheduler::new(steps.to_vec()),
            FusedScheduler::new(exps.to_vec()),
            FusedScheduler::new(coss.to_vec()),
        );
        for e in 0..10 {
            for m in 0..2 {
                assert_eq!(
                    step_f.lr_at(e).get(m).to_bits(),
                    steps[m].lr_at(e).to_bits()
                );
                assert_eq!(exp_f.lr_at(e).get(m).to_bits(), exps[m].lr_at(e).to_bits());
                assert_eq!(cos_f.lr_at(e).get(m).to_bits(), coss[m].lr_at(e).to_bits());
            }
        }
    }

    #[test]
    fn each_step_folds_one_optim_step_sample_sized_by_its_memory_traffic() {
        let params: Vec<FusedParameter> = [[4, 3], [2, 1]]
            .into_iter()
            .map(|dims| FusedParameter {
                param: Parameter::new(Tensor::ones(dims), "w"),
                b: 2,
            })
            .collect();
        let lr = PerModel::uniform(2, 0.1);
        let rho = PerModel::uniform(2, 0.9);
        // Two steps' (calls, bytes): one sample per step, not per
        // parameter, of 14 elements times the f32 words read + written.
        fn sample<U: Update>(mut opt: FusedOptimizer<U>) -> (u64, f64) {
            let profiler = hfta_telemetry::Profiler::new("optim");
            let _installed = profiler.install();
            opt.step();
            opt.step();
            let report = profiler.report();
            let op = report.experiments[0].op("optim_step").expect("op sample");
            (op.calls, op.bytes / (2.0 * 4.0 * 14.0))
        }
        let sgd = |m| FusedSgd::new(params.clone(), lr.clone(), m).unwrap();
        assert_eq!(sample(sgd(0.0)), (2, 3.0));
        assert_eq!(sample(sgd(0.9)), (2, 5.0));
        assert_eq!(
            sample(FusedAdam::new(params.clone(), lr.clone()).unwrap()),
            (2, 7.0)
        );
        let adadelta = FusedAdadelta::new(params.clone(), lr, rho, 1e-6).unwrap();
        assert_eq!(sample(adadelta), (2, 7.0));
    }

    #[test]
    fn zero_grad_resets() {
        let p = FusedParameter {
            param: Parameter::new(Tensor::zeros([2]), "w"),
            b: 2,
        };
        p.param.accumulate_grad(&Tensor::ones([2]));
        let opt = FusedSgd::new(vec![p.clone()], PerModel::uniform(2, 0.1), 0.0).unwrap();
        opt.zero_grad();
        assert_eq!(p.param.grad_cloned().to_vec(), vec![0.0, 0.0]);
    }
}
