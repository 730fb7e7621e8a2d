//! Optimizers (SGD, Adam, Adadelta) and learning-rate schedulers.
//!
//! Each update rule is written once, as a one-pass slice kernel
//! ([`sgd_update`], [`adam_update`], [`adadelta_update`]): one read of
//! `grad`, one read-modify-write of `value` and of each state slice, scalar
//! hyper-parameters, no temporary. The serial optimizers here pass whole
//! tensors; the fused ones in `hfta-core` pass one model lane at a time, so
//! fused == serial bit for bit by construction. The arithmetic is plain
//! `a * b + c`, never `mul_add`: contraction rounds once instead of twice
//! and would move every loss in the last bits.

use hfta_telemetry::{OpCost, OpSpanGuard, Profiler};
use hfta_tensor::Tensor;

use crate::parameter::Parameter;

/// Opens the `optim_step` op span on the installed profiler: one sample per
/// optimizer step (not per parameter) of `words` f32 reads + writes and
/// `flops` per element. `None`, and `numel` never walked, when untraced.
pub fn optim_step_span(
    numel: impl Iterator<Item = usize>,
    words: usize,
    flops: usize,
) -> Option<OpSpanGuard> {
    let p = Profiler::current()?;
    let n = numel.sum::<usize>() as f64;
    let cost = OpCost {
        flops: flops as f64 * n,
        bytes: 4.0 * words as f64 * n,
    };
    Some(p.op_span(p.lane("optim", "step"), "optim_step", cost))
}

/// SGD over one contiguous run of elements: `v = v * momentum + g;
/// x += v * -lr` (PyTorch convention), or `x += g * -lr` with no `velocity`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sgd_update(
    value: &mut [f32],
    grad: &[f32],
    velocity: Option<&mut [f32]>,
    lr: f32,
    momentum: f32,
) {
    assert_eq!(value.len(), grad.len(), "sgd_update length mismatch");
    let Some(velocity) = velocity else {
        for (x, &g) in value.iter_mut().zip(grad) {
            *x += g * -lr;
        }
        return;
    };
    assert_eq!(value.len(), velocity.len(), "sgd_update length mismatch");
    for ((x, &g), v) in value.iter_mut().zip(grad).zip(velocity) {
        *v = *v * momentum + g;
        *x += *v * -lr;
    }
}

/// The per-step scalars of Adam shared by every element (and every lane).
#[derive(Debug, Clone, Copy)]
pub struct AdamCoeffs {
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamCoeffs {
    /// Coefficients of step `t` (1-based), with PyTorch's bias correction.
    pub fn at_step(beta1: f32, beta2: f32, eps: f32, t: u64) -> Self {
        AdamCoeffs {
            beta1,
            beta2,
            eps,
            bc1: 1.0 - beta1.powi(t as i32),
            bc2: 1.0 - beta2.powi(t as i32),
        }
    }
}

/// Adam over one contiguous run of elements.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn adam_update(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    c: AdamCoeffs,
) {
    let n = value.len();
    assert!(
        grad.len() == n && m.len() == n && v.len() == n,
        "adam_update length mismatch"
    );
    let (w1, w2) = (1.0 - c.beta1, 1.0 - c.beta2);
    for (((x, &g), m), v) in value.iter_mut().zip(grad).zip(m).zip(v) {
        *m = *m * c.beta1 + g * w1;
        *v = *v * c.beta2 + (g * g) * w2;
        *x += (*m / c.bc1) / ((*v / c.bc2).sqrt() + c.eps) * -lr;
    }
}

/// Adadelta over one contiguous run of elements.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn adadelta_update(
    value: &mut [f32],
    grad: &[f32],
    sq_avg: &mut [f32],
    acc_delta: &mut [f32],
    lr: f32,
    rho: f32,
    eps: f32,
) {
    let n = value.len();
    assert!(
        grad.len() == n && sq_avg.len() == n && acc_delta.len() == n,
        "adadelta_update length mismatch"
    );
    let w = 1.0 - rho;
    for (((x, &g), sq), acc) in value.iter_mut().zip(grad).zip(sq_avg).zip(acc_delta) {
        *sq = *sq * rho + (g * g) * w;
        let delta = (*acc + eps).sqrt() / (*sq + eps).sqrt() * g;
        *acc = *acc * rho + (delta * delta) * w;
        *x += delta * -lr;
    }
}

/// A first-order optimizer over a set of [`Parameter`]s.
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients.
    fn step(&mut self);

    /// Zeroes the gradients of all managed parameters.
    fn zero_grad(&self);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Replaces the learning rate (used by schedulers).
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Parameter>,
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates SGD over `params`.
    pub fn new(params: Vec<Parameter>, lr: f32, momentum: f32) -> Self {
        let velocity = params.iter().map(|p| p.value().zeros_like()).collect();
        Sgd {
            params,
            lr,
            momentum,
            velocity,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let (words, flops) = if self.momentum != 0.0 { (5, 4) } else { (3, 2) };
        let _span = optim_step_span(self.params.iter().map(Parameter::numel), words, flops);
        for (p, v) in self.params.iter().zip(&mut self.velocity) {
            let v = (self.momentum != 0.0).then(|| v.as_mut_slice());
            p.update(|x, g| sgd_update(x.as_mut_slice(), g.as_slice(), v, self.lr, self.momentum));
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with PyTorch-default bias correction.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Parameter>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with custom betas and epsilon.
    pub fn with_betas(params: Vec<Parameter>, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        let m = params.iter().map(|p| p.value().zeros_like()).collect();
        let v = params.iter().map(|p| p.value().zeros_like()).collect();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m,
            v,
        }
    }

    /// Creates Adam with the standard defaults `betas = (0.9, 0.999)`,
    /// `eps = 1e-8`.
    pub fn new(params: Vec<Parameter>, lr: f32) -> Self {
        Self::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moment estimates, one of each per parameter.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        let _span = optim_step_span(self.params.iter().map(Parameter::numel), 7, 14);
        self.t += 1;
        let c = AdamCoeffs::at_step(self.beta1, self.beta2, self.eps, self.t);
        for ((p, m), v) in self.params.iter().zip(&mut self.m).zip(&mut self.v) {
            let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
            p.update(|x, g| adam_update(x.as_mut_slice(), g.as_slice(), m, v, self.lr, c));
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adadelta (Zeiler, 2012) with PyTorch semantics (`lr` multiplies the
/// adaptive delta; default 1.0).
#[derive(Debug)]
pub struct Adadelta {
    params: Vec<Parameter>,
    lr: f32,
    rho: f32,
    eps: f32,
    sq_avg: Vec<Tensor>,
    acc_delta: Vec<Tensor>,
}

impl Adadelta {
    /// Creates Adadelta with custom `rho` and `eps`.
    pub fn with_rho(params: Vec<Parameter>, lr: f32, rho: f32, eps: f32) -> Self {
        let sq_avg = params.iter().map(|p| p.value().zeros_like()).collect();
        let acc_delta = params.iter().map(|p| p.value().zeros_like()).collect();
        Adadelta {
            params,
            lr,
            rho,
            eps,
            sq_avg,
            acc_delta,
        }
    }

    /// Creates Adadelta with defaults `rho = 0.9`, `eps = 1e-6`.
    pub fn new(params: Vec<Parameter>, lr: f32) -> Self {
        Self::with_rho(params, lr, 0.9, 1e-6)
    }
}

impl Optimizer for Adadelta {
    fn step(&mut self) {
        let _span = optim_step_span(self.params.iter().map(Parameter::numel), 7, 16);
        let (lr, rho, eps) = (self.lr, self.rho, self.eps);
        let state = self.sq_avg.iter_mut().zip(&mut self.acc_delta);
        for (p, (sq, acc)) in self.params.iter().zip(state) {
            let (sq, acc) = (sq.as_mut_slice(), acc.as_mut_slice());
            p.update(|x, g| adadelta_update(x.as_mut_slice(), g.as_slice(), sq, acc, lr, rho, eps));
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Clips the global L2 norm of the parameters' gradients to `max_norm`
/// (`torch.nn.utils.clip_grad_norm_` analogue). Returns the pre-clip norm.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(params: &[Parameter], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total_sq: f32 = params
        .iter()
        .map(|p| {
            let g = p.grad();
            g.as_slice().iter().map(|v| v * v).sum::<f32>()
        })
        .sum();
    let norm = total_sq.sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for p in params {
            p.update_grad(|g| g.map_inplace(|v| v * scale));
        }
    }
    norm
}

/// A learning-rate schedule. The fused schedulers of `hfta-core` evaluate
/// one serial schedule per lane, so fused and serial rates agree bit for bit.
pub trait LrSchedule {
    /// The LR the schedule prescribes at `epoch`.
    fn lr_at(&self, epoch: usize) -> f32;
}

/// Step learning-rate schedule: multiplies the LR by `gamma` every
/// `step_size` epochs (`torch.optim.lr_scheduler.StepLR` analogue).
#[derive(Debug, Clone)]
pub struct StepLr {
    base_lr: f32,
    step_size: usize,
    gamma: f32,
    epoch: usize,
}

impl StepLr {
    /// Creates a scheduler from the optimizer's base LR.
    ///
    /// # Panics
    ///
    /// Panics if `step_size == 0`.
    pub fn new(base_lr: f32, step_size: usize, gamma: f32) -> Self {
        assert!(step_size > 0, "step_size must be positive");
        StepLr {
            base_lr,
            step_size,
            gamma,
            epoch: 0,
        }
    }

    /// Advances one epoch and writes the scheduled LR into `opt`.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }

    /// Current epoch counter.
    pub fn epoch(&self) -> usize {
        self.epoch
    }
}

impl LrSchedule for StepLr {
    fn lr_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.gamma.powi((epoch / self.step_size) as i32)
    }
}

/// Exponential learning-rate schedule: multiplies the LR by `gamma` every
/// epoch (`torch.optim.lr_scheduler.ExponentialLR` analogue).
#[derive(Debug, Clone)]
pub struct ExponentialLr {
    base_lr: f32,
    gamma: f32,
    epoch: usize,
}

impl ExponentialLr {
    /// Creates the scheduler.
    pub fn new(base_lr: f32, gamma: f32) -> Self {
        ExponentialLr {
            base_lr,
            gamma,
            epoch: 0,
        }
    }

    /// Advances one epoch and writes the scheduled LR into `opt`.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }
}

impl LrSchedule for ExponentialLr {
    fn lr_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.gamma.powi(epoch as i32)
    }
}

/// Cosine-annealing learning-rate schedule from the base LR down to
/// `eta_min` over `t_max` epochs.
#[derive(Debug, Clone)]
pub struct CosineLr {
    base_lr: f32,
    eta_min: f32,
    t_max: usize,
    epoch: usize,
}

impl CosineLr {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `t_max == 0`.
    pub fn new(base_lr: f32, eta_min: f32, t_max: usize) -> Self {
        assert!(t_max > 0, "t_max must be positive");
        CosineLr {
            base_lr,
            eta_min,
            t_max,
            epoch: 0,
        }
    }

    /// Advances one epoch and writes the scheduled LR into `opt`.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        self.epoch += 1;
        opt.set_lr(self.lr_at(self.epoch));
    }
}

/// The rate is clamped at `eta_min` past `t_max`.
impl LrSchedule for CosineLr {
    fn lr_at(&self, epoch: usize) -> f32 {
        let t = epoch.min(self.t_max) as f32 / self.t_max as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
        self.eta_min + (self.base_lr - self.eta_min) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// One training step on loss = 0.5 * (w - target)^2.
    fn quadratic_step(w: &Parameter, target: f32, opt: &mut dyn Optimizer) -> f32 {
        opt.zero_grad();
        let tape = Tape::new();
        let x = tape.param(w);
        let loss = x.add_scalar(-target).square().sum().mul_scalar(0.5);
        let l = loss.item();
        loss.backward();
        opt.step();
        l
    }

    #[test]
    fn sgd_descends_quadratic() {
        let w = Parameter::new(Tensor::from_vec(vec![5.0], [1]), "w");
        let mut opt = Sgd::new(vec![w.clone()], 0.1, 0.0);
        let first = quadratic_step(&w, 1.0, &mut opt);
        let mut last = first;
        for _ in 0..50 {
            last = quadratic_step(&w, 1.0, &mut opt);
        }
        assert!(last < first * 1e-3, "loss {first} -> {last}");
        assert!((w.value_cloned().item() - 1.0).abs() < 0.05);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let w1 = Parameter::new(Tensor::from_vec(vec![5.0], [1]), "w1");
        let w2 = Parameter::new(Tensor::from_vec(vec![5.0], [1]), "w2");
        let mut plain = Sgd::new(vec![w1.clone()], 0.01, 0.0);
        let mut moment = Sgd::new(vec![w2.clone()], 0.01, 0.9);
        for _ in 0..20 {
            quadratic_step(&w1, 0.0, &mut plain);
            quadratic_step(&w2, 0.0, &mut moment);
        }
        assert!(w2.value_cloned().item().abs() < w1.value_cloned().item().abs());
    }

    #[test]
    fn update_rules_round_the_product_before_the_sum() {
        // v * momentum = (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 rounds (ties to
        // even) to 1 + 2^-11, so adding g = -(1 + 2^-11) leaves exactly 0. A
        // contracted `mul_add` keeps the 2^-24 and would move every loss.
        let a = 1.0 + 2f32.powi(-12);
        let (mut x, mut v) = ([0.0f32], [a]);
        sgd_update(&mut x, &[-(1.0 + 2f32.powi(-11))], Some(&mut v), 1.0, a);
        assert_eq!((v[0].to_bits(), x[0].to_bits()), (0, 0));
    }

    #[test]
    fn adam_converges() {
        let w = Parameter::new(Tensor::from_vec(vec![-3.0, 4.0], [2]), "w");
        let mut opt = Adam::new(vec![w.clone()], 0.1);
        for _ in 0..200 {
            quadratic_step(&w, 2.0, &mut opt);
        }
        assert!(w.value_cloned().max_abs_diff(&Tensor::full([2], 2.0)) < 0.05);
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, Adam's first step is ~lr in each coordinate.
        let w = Parameter::new(Tensor::from_vec(vec![10.0], [1]), "w");
        let mut opt = Adam::new(vec![w.clone()], 0.5);
        quadratic_step(&w, 0.0, &mut opt);
        assert!((w.value_cloned().item() - 9.5).abs() < 1e-3);
    }

    #[test]
    fn adadelta_converges() {
        // Adadelta starts slowly (accumulators warm up from zero) but must
        // make steady progress on a quadratic.
        let w = Parameter::new(Tensor::from_vec(vec![3.0], [1]), "w");
        let mut opt = Adadelta::new(vec![w.clone()], 1.0);
        let first = quadratic_step(&w, 0.0, &mut opt);
        let mut last = first;
        for _ in 0..3000 {
            last = quadratic_step(&w, 0.0, &mut opt);
        }
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn step_lr_decays_geometrically() {
        let mut sched = StepLr::new(0.1, 2, 0.5);
        let w = Parameter::new(Tensor::zeros([1]), "w");
        let mut opt = Sgd::new(vec![w], 0.1, 0.0);
        let mut lrs = Vec::new();
        for _ in 0..6 {
            sched.step(&mut opt);
            lrs.push(opt.lr());
        }
        assert_eq!(lrs, vec![0.1, 0.05, 0.05, 0.025, 0.025, 0.0125]);
    }

    #[test]
    fn clip_grad_norm_scales_only_when_needed() {
        let p1 = Parameter::new(Tensor::zeros([2]), "a");
        let p2 = Parameter::new(Tensor::zeros([1]), "b");
        p1.accumulate_grad(&Tensor::from_vec(vec![3.0, 0.0], [2]));
        p2.accumulate_grad(&Tensor::from_vec(vec![4.0], [1]));
        // Norm = 5; clip to 2.5 halves everything.
        let norm = clip_grad_norm(&[p1.clone(), p2.clone()], 2.5);
        assert!((norm - 5.0).abs() < 1e-5);
        assert!((p1.grad_cloned().at(&[0]) - 1.5).abs() < 1e-5);
        assert!((p2.grad_cloned().at(&[0]) - 2.0).abs() < 1e-5);
        // Already-small gradients stay untouched.
        let before = p1.grad_cloned();
        clip_grad_norm(std::slice::from_ref(&p1), 100.0);
        assert_eq!(p1.grad_cloned(), before);
    }

    #[test]
    fn exponential_lr_decays() {
        let mut sched = ExponentialLr::new(1.0, 0.5);
        let w = Parameter::new(Tensor::zeros([1]), "w");
        let mut opt = Sgd::new(vec![w], 1.0, 0.0);
        sched.step(&mut opt);
        assert!((opt.lr() - 0.5).abs() < 1e-7);
        sched.step(&mut opt);
        assert!((opt.lr() - 0.25).abs() < 1e-7);
        assert!((sched.lr_at(10) - 1.0 / 1024.0).abs() < 1e-7);
    }

    #[test]
    fn cosine_lr_endpoints() {
        let sched = CosineLr::new(1.0, 0.1, 8);
        assert!((sched.lr_at(0) - 1.0).abs() < 1e-6);
        assert!((sched.lr_at(4) - 0.55).abs() < 1e-6);
        assert!((sched.lr_at(8) - 0.1).abs() < 1e-6);
        assert!((sched.lr_at(100) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_clears_all() {
        let w = Parameter::new(Tensor::zeros([2]), "w");
        w.accumulate_grad(&Tensor::ones([2]));
        let opt = Sgd::new(vec![w.clone()], 0.1, 0.0);
        opt.zero_grad();
        assert_eq!(w.grad_cloned().to_vec(), vec![0.0, 0.0]);
    }
}
