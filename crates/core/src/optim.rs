//! Horizontally fused optimizers and learning-rate schedulers.
//!
//! Hyper-parameter tuning is the paper's flagship use case, so fused
//! optimizers accept **per-model** hyper-parameters ([`PerModel`]): the
//! scalar-vector operations of a serial optimizer (e.g. `lr * grad`) become
//! vector-vector operations over the fused parameter's model axis (paper
//! §3.1, Figure 1). A fused parameter is model-major, so that broadcast is
//! a per-lane scalar: each step walks the `B` contiguous lanes of every
//! parameter once and hands lane `l`, with model `l`'s hyper-parameters, to
//! the *same* one-pass slice kernel the serial optimizer runs
//! (`hfta_nn::{sgd_update, adam_update, adadelta_update}`). Fused(B) is
//! therefore `B` serial optimizers bit for bit, at any per-lane setting —
//! provided the kernels keep plain `a * b + c` (see `hfta_nn`'s optimizer
//! module: a `mul_add` would round once and move every loss).

use hfta_nn::{adadelta_update, adam_update, optim_step_span, sgd_update, AdamCoeffs};
use hfta_tensor::Tensor;

use crate::error::{FusionError, Result};
use crate::ops::FusedParameter;

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

/// An optimizer over fused parameters with per-model hyper-parameters.
pub trait FusedOptimizer {
    /// Applies one update step.
    fn step(&mut self);

    /// Zeroes all managed gradients.
    fn zero_grad(&self);

    /// Current per-model learning rates.
    fn lr(&self) -> &PerModel;

    /// Replaces the per-model learning rates (used by schedulers).
    fn set_lr(&mut self, lr: PerModel);

    /// Quarantines model `model`: zeroes its gradient lane and its
    /// optimizer-state lanes now, and keeps masking its gradient lane at
    /// the start of every subsequent [`FusedOptimizer::step`], so the
    /// model's parameters freeze while the other `B − 1` models train on
    /// bit-for-bit unaffected (lane updates are elementwise, and a masked
    /// lane contributes exactly `x − 0.0 = x`). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range.
    fn quarantine(&mut self, model: usize);

    /// Per-model quarantine flags.
    fn quarantined(&self) -> &[bool];

    /// Number of per-parameter state tensors the optimizer keeps (SGD: 1
    /// velocity; Adam: first/second moments; Adadelta: squared-average /
    /// accumulated-delta). Each state tensor shares its parameter's fused
    /// layout, so lane surgery ([`crate::surgery`]) can move a model's
    /// state lanes alongside its parameter lanes.
    fn state_slots(&self) -> usize;

    /// State tensor `slot` of parameter `pi` (same fused shape as the
    /// parameter's value).
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `slot` is out of range.
    fn state(&self, pi: usize, slot: usize) -> &Tensor;

    /// Mutable access to state tensor `slot` of parameter `pi`.
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `slot` is out of range.
    fn state_mut(&mut self, pi: usize, slot: usize) -> &mut Tensor;

    /// The shared scalar step counter, for optimizers whose update depends
    /// on how many steps ran (Adam's bias correction). Stateless-in-time
    /// optimizers return 0.
    fn step_count(&self) -> u64 {
        0
    }

    /// Restores the step counter after lane surgery. A no-op for
    /// optimizers without one.
    fn set_step_count(&mut self, _t: u64) {}
}

/// Model `model`'s contiguous (model-major) lane of a `b`-wide fused tensor.
fn lane(t: &mut Tensor, b: usize, model: usize) -> &mut [f32] {
    let chunk = t.numel() / b;
    &mut t.as_mut_slice()[model * chunk..(model + 1) * chunk]
}

/// Walks the contiguous lanes of one fused parameter inside a single
/// `Parameter::update`: `f(model, value lane, grad lane, state lanes)`.
fn for_each_lane<const S: usize>(
    p: &FusedParameter,
    state: &mut [Tensor; S],
    mut f: impl FnMut(usize, &mut [f32], &[f32], [&mut [f32]; S]),
) {
    p.param.update(|value, grad| {
        let chunk = value.numel() / p.b;
        for l in 0..p.b {
            let g = &grad.as_slice()[l * chunk..(l + 1) * chunk];
            let s = state.each_mut().map(|t| lane(t, p.b, l));
            f(l, lane(value, p.b, l), g, s);
        }
    });
}

/// Zeroed per-parameter state, `S` tensors of each parameter's fused shape.
fn zero_state<const S: usize>(params: &[FusedParameter]) -> Vec<[Tensor; S]> {
    let zeros = |p: &FusedParameter| std::array::from_fn(|_| p.param.value().zeros_like());
    params.iter().map(zeros).collect()
}

/// [`FusedOptimizer::quarantine`] for any optimizer: flags `model` and
/// zeroes its gradient lane and every state lane.
fn quarantine_lane<const S: usize>(
    params: &[FusedParameter],
    state: &mut [[Tensor; S]],
    quarantined: &mut [bool],
    model: usize,
) {
    assert!(model < quarantined.len(), "model index out of range");
    quarantined[model] = true;
    let b = quarantined.len();
    for (p, s) in params.iter().zip(state) {
        p.param.update_grad(|g| lane(g, b, model).fill(0.0));
        s.iter_mut().for_each(|t| lane(t, b, model).fill(0.0));
    }
}

/// Re-masks the gradient lanes of quarantined models — called at the top
/// of every `step()` because `backward()` keeps accumulating (possibly
/// non-finite) gradients into the quarantined lane. A no-op (and no borrow
/// of any parameter) when nothing is quarantined.
fn zero_quarantined_grads(params: &[FusedParameter], quarantined: &[bool]) {
    if !quarantined.iter().any(|&q| q) {
        return;
    }
    let b = quarantined.len();
    for p in params {
        p.param.update_grad(|g| {
            for (i, &q) in quarantined.iter().enumerate() {
                if q {
                    lane(g, b, i).fill(0.0);
                }
            }
        });
    }
}

fn check_params(params: &[FusedParameter], b: usize) -> Result<()> {
    for p in params {
        if p.b != b {
            return Err(FusionError::HyperParamLength {
                expected: b,
                found: p.b,
            });
        }
        if p.param.value().dim(0) % b != 0 {
            return Err(FusionError::StructureMismatch {
                detail: format!(
                    "parameter {} axis 0 ({}) not divisible by B = {b}",
                    p.param.name(),
                    p.param.value().dim(0)
                ),
            });
        }
    }
    Ok(())
}

/// Fused SGD with per-model learning rates and per-model momenta.
#[derive(Debug)]
pub struct FusedSgd {
    params: Vec<FusedParameter>,
    lr: PerModel,
    momentum: PerModel,
    /// Per parameter: `[velocity]`.
    state: Vec<[Tensor; 1]>,
    quarantined: Vec<bool>,
}

impl FusedSgd {
    /// Creates fused SGD with one shared momentum.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] if the LR vector or any parameter disagrees
    /// with the array width.
    pub fn new(params: Vec<FusedParameter>, lr: PerModel, momentum: f32) -> Result<Self> {
        let b = lr.b();
        Self::with_momenta(params, lr, PerModel::uniform(b, momentum))
    }

    /// Creates fused SGD with **per-model momenta** — momentum is a common
    /// sweep axis (paper §3.1 lists optimizer settings among the tuned
    /// hyper-parameters).
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] on array-width mismatches.
    pub fn with_momenta(
        params: Vec<FusedParameter>,
        lr: PerModel,
        momentum: PerModel,
    ) -> Result<Self> {
        check_params(&params, lr.b())?;
        momentum.check_b(lr.b())?;
        Ok(FusedSgd {
            state: zero_state(&params),
            quarantined: vec![false; lr.b()],
            params,
            lr,
            momentum,
        })
    }
}

impl FusedOptimizer for FusedSgd {
    fn step(&mut self) {
        zero_quarantined_grads(&self.params, &self.quarantined);
        // The plain path is chosen array-wide: a zero-momentum lane of a
        // momentum array still stores `v = v * 0 + g`, and snapshots and lane
        // surgery carry those state bits.
        let plain = self.momentum.values().iter().all(|&m| m == 0.0);
        let (words, flops) = if plain { (3, 2) } else { (5, 4) };
        let _span = optim_step_span(self.params.iter().map(|p| p.param.numel()), words, flops);
        let (lr, mom) = (self.lr.values(), self.momentum.values());
        for (p, s) in self.params.iter().zip(&mut self.state) {
            for_each_lane(p, s, |l, x, g, [v]| {
                sgd_update(x, g, (!plain).then_some(v), lr[l], mom[l]);
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.param.zero_grad();
        }
    }

    fn lr(&self) -> &PerModel {
        &self.lr
    }

    fn set_lr(&mut self, lr: PerModel) {
        assert_eq!(lr.b(), self.lr.b(), "array width mismatch");
        self.lr = lr;
    }

    fn quarantine(&mut self, model: usize) {
        quarantine_lane(&self.params, &mut self.state, &mut self.quarantined, model);
    }

    fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    fn state_slots(&self) -> usize {
        1
    }

    fn state(&self, pi: usize, slot: usize) -> &Tensor {
        &self.state[pi][slot]
    }

    fn state_mut(&mut self, pi: usize, slot: usize) -> &mut Tensor {
        &mut self.state[pi][slot]
    }
}

/// Fused Adam with per-model learning rates (betas and epsilon shared).
#[derive(Debug)]
pub struct FusedAdam {
    params: Vec<FusedParameter>,
    lr: PerModel,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// Per parameter: `[m, v]`, the first and second moments.
    state: Vec<[Tensor; 2]>,
    quarantined: Vec<bool>,
}

impl FusedAdam {
    /// Creates fused Adam with custom betas.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] on array-width mismatches.
    pub fn with_betas(
        params: Vec<FusedParameter>,
        lr: PerModel,
        beta1: f32,
        beta2: f32,
        eps: f32,
    ) -> Result<Self> {
        check_params(&params, lr.b())?;
        Ok(FusedAdam {
            state: zero_state(&params),
            quarantined: vec![false; lr.b()],
            params,
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
        })
    }

    /// Creates fused Adam with defaults `betas = (0.9, 0.999)`, `eps = 1e-8`.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] on array-width mismatches.
    pub fn new(params: Vec<FusedParameter>, lr: PerModel) -> Result<Self> {
        Self::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }
}

impl FusedOptimizer for FusedAdam {
    fn step(&mut self) {
        zero_quarantined_grads(&self.params, &self.quarantined);
        let _span = optim_step_span(self.params.iter().map(|p| p.param.numel()), 7, 14);
        self.t += 1;
        let c = AdamCoeffs::at_step(self.beta1, self.beta2, self.eps, self.t);
        let lr = self.lr.values();
        for (p, s) in self.params.iter().zip(&mut self.state) {
            for_each_lane(p, s, |l, x, g, [m, v]| adam_update(x, g, m, v, lr[l], c));
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.param.zero_grad();
        }
    }

    fn lr(&self) -> &PerModel {
        &self.lr
    }

    fn set_lr(&mut self, lr: PerModel) {
        assert_eq!(lr.b(), self.lr.b(), "array width mismatch");
        self.lr = lr;
    }

    fn quarantine(&mut self, model: usize) {
        quarantine_lane(&self.params, &mut self.state, &mut self.quarantined, model);
    }

    fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    fn state_slots(&self) -> usize {
        2
    }

    fn state(&self, pi: usize, slot: usize) -> &Tensor {
        &self.state[pi][slot]
    }

    fn state_mut(&mut self, pi: usize, slot: usize) -> &mut Tensor {
        &mut self.state[pi][slot]
    }

    fn step_count(&self) -> u64 {
        self.t
    }

    fn set_step_count(&mut self, t: u64) {
        self.t = t;
    }
}

/// Fused Adadelta with per-model learning rates *and* per-model `rho`
/// decay rates (the vector-vector form of Figure 1).
#[derive(Debug)]
pub struct FusedAdadelta {
    params: Vec<FusedParameter>,
    lr: PerModel,
    rho: PerModel,
    eps: f32,
    /// Per parameter: `[sq_avg, acc_delta]`.
    state: Vec<[Tensor; 2]>,
    quarantined: Vec<bool>,
}

impl FusedAdadelta {
    /// Creates fused Adadelta.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] on array-width mismatches.
    pub fn new(params: Vec<FusedParameter>, lr: PerModel, rho: PerModel, eps: f32) -> Result<Self> {
        check_params(&params, lr.b())?;
        rho.check_b(lr.b())?;
        Ok(FusedAdadelta {
            state: zero_state(&params),
            quarantined: vec![false; lr.b()],
            params,
            lr,
            rho,
            eps,
        })
    }

    /// Creates fused Adadelta with shared defaults `rho = 0.9`, `eps = 1e-6`.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] on array-width mismatches.
    pub fn with_defaults(params: Vec<FusedParameter>, lr: PerModel) -> Result<Self> {
        let b = lr.b();
        Self::new(params, lr, PerModel::uniform(b, 0.9), 1e-6)
    }
}

impl FusedOptimizer for FusedAdadelta {
    fn step(&mut self) {
        zero_quarantined_grads(&self.params, &self.quarantined);
        let _span = optim_step_span(self.params.iter().map(|p| p.param.numel()), 7, 16);
        let (lr, rho, eps) = (self.lr.values(), self.rho.values(), self.eps);
        for (p, s) in self.params.iter().zip(&mut self.state) {
            for_each_lane(p, s, |l, x, g, [sq, acc]| {
                adadelta_update(x, g, sq, acc, lr[l], rho[l], eps);
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.param.zero_grad();
        }
    }

    fn lr(&self) -> &PerModel {
        &self.lr
    }

    fn set_lr(&mut self, lr: PerModel) {
        assert_eq!(lr.b(), self.lr.b(), "array width mismatch");
        self.lr = lr;
    }

    fn quarantine(&mut self, model: usize) {
        quarantine_lane(&self.params, &mut self.state, &mut self.quarantined, model);
    }

    fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }

    fn state_slots(&self) -> usize {
        2
    }

    fn state(&self, pi: usize, slot: usize) -> &Tensor {
        &self.state[pi][slot]
    }

    fn state_mut(&mut self, pi: usize, slot: usize) -> &mut Tensor {
        &mut self.state[pi][slot]
    }
}

/// Fused StepLR: each model has its own `step_size` and `gamma`, so a
/// single scheduler drives `B` different learning-rate schedules.
#[derive(Debug, Clone)]
pub struct FusedStepLr {
    base_lr: PerModel,
    step_size: Vec<usize>,
    gamma: Vec<f32>,
    epoch: usize,
}

impl FusedStepLr {
    /// Creates the fused scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::HyperParamLength`] if vector lengths differ.
    ///
    /// # Panics
    ///
    /// Panics if any `step_size` is zero.
    pub fn new(base_lr: PerModel, step_size: Vec<usize>, gamma: Vec<f32>) -> Result<Self> {
        if step_size.len() != base_lr.b() {
            return Err(FusionError::HyperParamLength {
                expected: base_lr.b(),
                found: step_size.len(),
            });
        }
        if gamma.len() != base_lr.b() {
            return Err(FusionError::HyperParamLength {
                expected: base_lr.b(),
                found: gamma.len(),
            });
        }
        assert!(
            step_size.iter().all(|&s| s > 0),
            "step sizes must be positive"
        );
        Ok(FusedStepLr {
            base_lr,
            step_size,
            gamma,
            epoch: 0,
        })
    }

    /// Per-model LRs the schedule prescribes at `epoch`.
    pub fn lr_at(&self, epoch: usize) -> PerModel {
        PerModel::new(
            (0..self.base_lr.b())
                .map(|i| {
                    self.base_lr.get(i) * self.gamma[i].powi((epoch / self.step_size[i]) as i32)
                })
                .collect(),
        )
    }

    /// Advances one epoch and writes the per-model LRs into `opt`.
    pub fn step(&mut self, opt: &mut dyn FusedOptimizer) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }

    /// Current epoch counter.
    pub fn epoch(&self) -> usize {
        self.epoch
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
                    lane(g, norms.len(), i).iter_mut().for_each(|v| *v *= scale);
                }
            });
        }
    }
    norms
}

/// Fused exponential learning-rate schedule: each model's LR decays by its
/// own `gamma` every epoch (`torch.optim.lr_scheduler.ExponentialLR`
/// analogue; part of the paper's "more schedulers" future work).
#[derive(Debug, Clone)]
pub struct FusedExponentialLr {
    base_lr: PerModel,
    gamma: Vec<f32>,
    epoch: usize,
}

impl FusedExponentialLr {
    /// Creates the fused scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::HyperParamLength`] if the gamma vector's
    /// length differs from the array width.
    pub fn new(base_lr: PerModel, gamma: Vec<f32>) -> Result<Self> {
        if gamma.len() != base_lr.b() {
            return Err(FusionError::HyperParamLength {
                expected: base_lr.b(),
                found: gamma.len(),
            });
        }
        Ok(FusedExponentialLr {
            base_lr,
            gamma,
            epoch: 0,
        })
    }

    /// Per-model LRs at `epoch`.
    pub fn lr_at(&self, epoch: usize) -> PerModel {
        PerModel::new(
            (0..self.base_lr.b())
                .map(|i| self.base_lr.get(i) * self.gamma[i].powi(epoch as i32))
                .collect(),
        )
    }

    /// Advances one epoch and writes the per-model LRs into `opt`.
    pub fn step(&mut self, opt: &mut dyn FusedOptimizer) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }
}

/// Fused cosine-annealing schedule: each model anneals its LR from its
/// base value to its own `eta_min` over `t_max` epochs.
#[derive(Debug, Clone)]
pub struct FusedCosineLr {
    base_lr: PerModel,
    eta_min: Vec<f32>,
    t_max: usize,
    epoch: usize,
}

impl FusedCosineLr {
    /// Creates the fused scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::HyperParamLength`] on length mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `t_max == 0`.
    pub fn new(base_lr: PerModel, eta_min: Vec<f32>, t_max: usize) -> Result<Self> {
        assert!(t_max > 0, "t_max must be positive");
        if eta_min.len() != base_lr.b() {
            return Err(FusionError::HyperParamLength {
                expected: base_lr.b(),
                found: eta_min.len(),
            });
        }
        Ok(FusedCosineLr {
            base_lr,
            eta_min,
            t_max,
            epoch: 0,
        })
    }

    /// Per-model LRs at `epoch`.
    pub fn lr_at(&self, epoch: usize) -> PerModel {
        let t = epoch.min(self.t_max) as f32 / self.t_max as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
        PerModel::new(
            (0..self.base_lr.b())
                .map(|i| self.eta_min[i] + (self.base_lr.get(i) - self.eta_min[i]) * cos)
                .collect(),
        )
    }

    /// Advances one epoch and writes the per-model LRs into `opt`.
    pub fn step(&mut self, opt: &mut dyn FusedOptimizer) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::{Adadelta, Adam, Optimizer, Parameter, Sgd};
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
        assert!(FusedSgd::new(vec![p.clone()], PerModel::uniform(3, 0.1), 0.0).is_err());
        assert!(FusedStepLr::new(PerModel::uniform(2, 0.1), vec![1], vec![0.5, 0.5]).is_err());
        assert!(FusedStepLr::new(PerModel::uniform(2, 0.1), vec![1, 1], vec![0.5]).is_err());
        let _ = p;
    }

    #[test]
    fn fused_step_lr_drives_distinct_schedules() {
        let mut sched =
            FusedStepLr::new(PerModel::new(vec![0.1, 0.1]), vec![1, 2], vec![0.5, 0.1]).unwrap();
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
        let sched = FusedExponentialLr::new(PerModel::new(vec![1.0, 1.0]), vec![0.5, 0.9]).unwrap();
        let at2 = sched.lr_at(2);
        assert!((at2.get(0) - 0.25).abs() < 1e-6);
        assert!((at2.get(1) - 0.81).abs() < 1e-6);
        assert!(FusedExponentialLr::new(PerModel::uniform(2, 1.0), vec![0.5]).is_err());
    }

    #[test]
    fn fused_cosine_lr_anneals_to_eta_min() {
        let sched = FusedCosineLr::new(PerModel::new(vec![1.0, 0.1]), vec![0.0, 0.01], 10).unwrap();
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
        let mut exp = FusedExponentialLr::new(PerModel::uniform(2, 1.0), vec![0.5, 0.9]).unwrap();
        exp.step(&mut opt);
        assert!((opt.lr().get(0) - 0.5).abs() < 1e-7);
        let mut cos = FusedCosineLr::new(PerModel::uniform(2, 1.0), vec![0.0, 0.0], 4).unwrap();
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
        use hfta_nn::{CosineLr, ExponentialLr};
        // Uniform fused schedules must reduce to the serial schedulers.
        let exp_f = FusedExponentialLr::new(PerModel::uniform(3, 0.2), vec![0.7; 3]).unwrap();
        let exp_s = ExponentialLr::new(0.2, 0.7);
        let cos_f = FusedCosineLr::new(PerModel::uniform(3, 0.2), vec![0.01; 3], 6).unwrap();
        let cos_s = CosineLr::new(0.2, 0.01, 6);
        for e in 0..10 {
            for m in 0..3 {
                assert!((exp_f.lr_at(e).get(m) - exp_s.lr_at(e)).abs() < 1e-7);
                assert!((cos_f.lr_at(e).get(m) - cos_s.lr_at(e)).abs() < 1e-7);
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
        let numel = 14.0;
        let lr = PerModel::uniform(2, 0.1);
        let rho = PerModel::uniform(2, 0.9);
        // (optimizer, f32 words read + written per element)
        let cases: Vec<(Box<dyn FusedOptimizer>, f64)> = vec![
            (
                Box::new(FusedSgd::new(params.clone(), lr.clone(), 0.0).unwrap()),
                3.0,
            ),
            (
                Box::new(FusedSgd::new(params.clone(), lr.clone(), 0.9).unwrap()),
                5.0,
            ),
            (
                Box::new(FusedAdam::new(params.clone(), lr.clone()).unwrap()),
                7.0,
            ),
            (
                Box::new(FusedAdadelta::new(params.clone(), lr, rho, 1e-6).unwrap()),
                7.0,
            ),
        ];
        for (mut opt, words) in cases {
            let profiler = hfta_telemetry::Profiler::new("optim");
            let _installed = profiler.install();
            opt.step();
            opt.step();
            let report = profiler.report();
            let op = report.experiments[0].op("optim_step").expect("op sample");
            assert_eq!(op.calls, 2, "one sample per step, not per parameter");
            assert_eq!(op.bytes, 2.0 * 4.0 * numel * words);
        }
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
