//! hfta-scope, core side: per-model health extraction from fused tensors,
//! divergence sentinels, and quarantine.
//!
//! The fused array stores every model's parameters and gradients in shared
//! tensors whose axis 0 is split into `B` equal contiguous chunks (the
//! model axis). Because the storage is row-major, model `i`'s lane of a
//! tensor with `numel` elements is the flat range
//! `i * numel/B .. (i+1) * numel/B` — so *every* per-model statistic here
//! is computed in **one linear pass** over each fused tensor, accumulating
//! `B` results as the scan crosses lane boundaries (one fused reduction,
//! not `B` slice-and-scan passes; `fused_clip_grad_norm` shares the same
//! pass).
//!
//! On top of the extraction sits the [`ScopeMonitor`]: call
//! [`ScopeMonitor::after_backward`] once per step (between `backward()` and
//! `opt.step()`) and [`ScopeMonitor::after_step`] after the update. The
//! monitor streams per-model `grad_norm` / `param_norm` / `update_ratio`
//! scalars into the installed profiler, fires [`SentinelEvent`]s when a
//! model's loss or gradient goes non-finite or explodes, and (when
//! [`SentinelCfg::quarantine`] is set) quarantines the offending model via
//! [`FusedOptimizer::quarantine`] — zeroing its gradient lane
//! and freezing its optimizer state so the survivors' training is
//! bit-for-bit unaffected (see `tests/quarantine.rs`).

use hfta_nn::Var;
use hfta_telemetry::{FlightKind, Profiler, SentinelEvent, SentinelKind};
use std::collections::VecDeque;

use crate::loss::per_model_nll;
use crate::ops::FusedParameter;
use crate::optim::{FusedOptimizer, Update};

/// Flat bounds of model `i`'s lane in a fused tensor of `numel` elements.
///
/// # Panics
///
/// Panics if `numel` is not divisible by `b` or `i >= b`.
pub fn lane_bounds(numel: usize, b: usize, i: usize) -> (usize, usize) {
    assert!(i < b, "model index {i} out of range (B = {b})");
    assert_eq!(numel % b, 0, "numel {numel} not divisible by B = {b}");
    let chunk = numel / b;
    (i * chunk, (i + 1) * chunk)
}

/// Per-model squared gradient L2 norms plus non-finite flags, in one
/// linear pass over each fused gradient tensor (no per-model slicing or
/// cloning). `sq[i]` is NaN whenever `nonfinite[i]` is set — callers that
/// want the norm should check the flag first.
///
/// # Panics
///
/// Panics if `params` is empty or widths disagree.
pub fn per_model_grad_sq_norms(params: &[FusedParameter]) -> (Vec<f32>, Vec<bool>) {
    assert!(!params.is_empty(), "no parameters to scan");
    let b = params[0].b;
    assert!(params.iter().all(|p| p.b == b), "array widths disagree");
    let mut sq = vec![0.0f32; b];
    let mut nonfinite = vec![false; b];
    for p in params {
        let g = p.param.grad();
        let s = g.as_slice();
        let chunk = s.len() / b;
        for i in 0..b {
            let mut acc = 0.0f32;
            let mut finite = true;
            for &v in &s[i * chunk..(i + 1) * chunk] {
                acc += v * v;
                finite &= v.is_finite();
            }
            sq[i] += acc;
            nonfinite[i] |= !finite;
        }
    }
    (sq, nonfinite)
}

/// Recovers each model's own mean cross-entropy from fused array-format
/// logits `[B, N, C]` and model-major targets `[B * N]` — the per-model
/// loss the fused §3.2-scaled loss hides.
///
/// Reads the logits' value off the tape and records nothing on it: one
/// row-wise `log_softmax` over the whole array, then
/// [`per_model_nll`](crate::loss::per_model_nll). A training step that also
/// takes the fused loss reads both off one log-softmax with
/// [`fused_cross_entropy_per_model`](crate::loss::fused_cross_entropy_per_model).
///
/// # Panics
///
/// Panics on layout mismatches or a target class out of range.
pub fn per_model_ce_losses(logits: &Var, targets: &[usize]) -> Vec<f32> {
    let dims = logits.dims();
    assert_eq!(dims.len(), 3, "fused logits must be [B, N, C]");
    let (b, n) = (dims[0], dims[1]);
    assert_eq!(targets.len(), b * n, "targets must be model-major [B * N]");
    logits.with_value(|x| per_model_nll(&x.log_softmax(2), targets, b))
}

/// Seeds NaN into model `model`'s gradient lane of every parameter —
/// deliberate fault injection for testing sentinels and quarantine (the
/// moral equivalent of a hyper-parameter config whose training blew up).
///
/// # Panics
///
/// Panics if `model` is out of range or widths disagree.
pub fn poison_model_lane(params: &[FusedParameter], model: usize) {
    for p in params {
        let b = p.b;
        p.param.update_grad(|g| {
            let s = g.as_mut_slice();
            let (lo, hi) = lane_bounds(s.len(), b, model);
            s[lo..hi].fill(f32::NAN);
        });
    }
}

/// Thresholds and policy for the divergence sentinels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelCfg {
    /// A model whose per-step gradient L2 norm exceeds this fires
    /// [`SentinelKind::GradExplosion`].
    pub grad_explosion: f32,
    /// A model whose loss exceeds this fires
    /// [`SentinelKind::LossExplosion`].
    pub loss_explosion: f32,
    /// Whether a sentinel fire quarantines the model (zero its gradient
    /// lane, freeze its optimizer state). When false the monitor only
    /// records the event.
    pub quarantine: bool,
}

impl Default for SentinelCfg {
    fn default() -> Self {
        SentinelCfg {
            grad_explosion: 1e6,
            loss_explosion: 1e6,
            quarantine: true,
        }
    }
}

/// Per-array training-health monitor: streams per-model scalars into the
/// installed profiler and fires/acts on divergence sentinels. See the
/// module docs for the per-step call protocol.
#[derive(Debug)]
pub struct ScopeMonitor {
    b: usize,
    cfg: SentinelCfg,
    ids: Vec<u64>,
    fired: Vec<bool>,
    events: Vec<SentinelEvent>,
    prev_values: Option<Vec<hfta_tensor::Tensor>>,
    tails: Vec<VecDeque<(u64, f32, f32)>>,
}

/// `(step, loss, grad_norm)` samples kept per lane for fault post-mortems.
/// Maintained only while a profiler is installed.
const FAULT_TAIL: usize = 8;
/// Recent flight events quoted in a fault post-mortem detail.
const FAULT_RECENT: usize = 4;

impl ScopeMonitor {
    /// Creates a monitor for an array of width `b`; lanes report under
    /// model ids `0..b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn new(b: usize, cfg: SentinelCfg) -> Self {
        Self::with_model_ids(b, cfg, (0..b as u64).collect())
    }

    /// Creates a monitor whose lane `i` reports under `ids[i]` instead of
    /// the lane index — so a scheduler that re-packs a trial into a
    /// different array (and lane) keeps streaming that trial's scalars and
    /// sentinels under one stable id.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0` or `ids.len() != b`.
    pub fn with_model_ids(b: usize, cfg: SentinelCfg, ids: Vec<u64>) -> Self {
        assert!(b > 0, "array width must be positive");
        assert_eq!(ids.len(), b, "one model id per lane");
        ScopeMonitor {
            b,
            cfg,
            ids,
            fired: vec![false; b],
            events: Vec::new(),
            prev_values: None,
            tails: vec![VecDeque::new(); b],
        }
    }

    /// The array width the monitor watches.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The model id lane `i` reports under.
    pub fn model_id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Which models have fired at least one sentinel.
    pub fn fired_models(&self) -> &[bool] {
        &self.fired
    }

    /// All sentinel events in detection order.
    pub fn events(&self) -> &[SentinelEvent] {
        &self.events
    }

    /// Whether any model has fired a sentinel.
    pub fn any_fired(&self) -> bool {
        self.fired.iter().any(|&f| f)
    }

    /// Checks the fused gradients and per-model losses after `backward()`
    /// and before `opt.step()`. Streams each healthy model's `grad_norm`,
    /// fires at most one sentinel per model per step (non-finite loss >
    /// exploding loss > non-finite grad > exploding grad-norm), quarantines
    /// offenders when configured, and returns the indices quarantined *this
    /// call*. Costs one fused reduction over the gradients.
    ///
    /// # Panics
    ///
    /// Panics if `losses` or the optimizer disagree with the array width.
    pub fn after_backward<U: Update>(
        &mut self,
        step: u64,
        losses: &[f32],
        params: &[FusedParameter],
        opt: &mut FusedOptimizer<U>,
    ) -> Vec<usize> {
        assert_eq!(losses.len(), self.b, "one loss per model");
        assert_eq!(opt.quarantined().len(), self.b, "optimizer width mismatch");
        let (sq, nonfinite) = per_model_grad_sq_norms(params);
        assert_eq!(sq.len(), self.b, "parameter width mismatch");
        let profiler = Profiler::current();
        let mut newly = Vec::new();
        for i in 0..self.b {
            let norm = sq[i].sqrt();
            if let Some(p) = &profiler {
                p.scalar(self.ids[i], "grad_norm", step, norm as f64);
                let tail = &mut self.tails[i];
                if tail.len() == FAULT_TAIL {
                    tail.pop_front();
                }
                tail.push_back((step, losses[i], norm));
            }
            if opt.quarantined()[i] {
                continue;
            }
            let fault = if !losses[i].is_finite() {
                Some((SentinelKind::NonFiniteLoss, losses[i]))
            } else if losses[i] > self.cfg.loss_explosion {
                Some((SentinelKind::LossExplosion, losses[i]))
            } else if nonfinite[i] {
                Some((SentinelKind::NonFiniteGrad, f32::NAN))
            } else if norm > self.cfg.grad_explosion {
                Some((SentinelKind::GradExplosion, norm))
            } else {
                None
            };
            let Some((kind, value)) = fault else { continue };
            if self.cfg.quarantine {
                opt.quarantine(i);
                newly.push(i);
            }
            self.fired[i] = true;
            let event = SentinelEvent {
                step,
                model: self.ids[i],
                kind,
                value: value as f64,
                quarantined: self.cfg.quarantine,
            };
            if let Some(p) = &profiler {
                p.sentinel(event.clone());
                let seg = p.sim_segment();
                let t_ns = seg.map_or(0, |s| s.step_end_ns(step));
                let recent: Vec<String> = p
                    .flight_tail(FAULT_RECENT)
                    .iter()
                    .map(|e| format!("{}#{}@{}", e.kind.label(), e.trial, e.t_ns))
                    .collect();
                let tail = &self.tails[i];
                let loss_tail: Vec<String> =
                    tail.iter().map(|(s, l, _)| format!("{s}:{l:.4}")).collect();
                let grad_tail: Vec<String> =
                    tail.iter().map(|(s, _, g)| format!("{s}:{g:.4}")).collect();
                p.flight_event(
                    self.ids[i],
                    t_ns,
                    FlightKind::Fault,
                    seg.map(|s| s.device),
                    seg.map(|s| s.array),
                    Some(i as u64),
                    format!(
                        "{kind:?} value={value} loss_tail=[{}] grad_tail=[{}] recent=[{}]",
                        loss_tail.join(","),
                        grad_tail.join(","),
                        recent.join(",")
                    ),
                );
            }
            self.events.push(event);
        }
        newly
    }

    /// Streams each model's `param_norm` and `update_ratio`
    /// (`‖Δθ‖ / ‖θ_prev‖`, 0 at the first call) after `opt.step()`. One
    /// linear pass per fused parameter plus one value snapshot for the next
    /// step's delta. Only a profiler reads these streams, so with none
    /// installed the call computes nothing and keeps no snapshot: the first
    /// traced step after untraced ones reads `update_ratio` 0.
    ///
    /// # Panics
    ///
    /// Panics if the parameter set changed width or count between traced
    /// calls.
    pub fn after_step(&mut self, step: u64, params: &[FusedParameter]) {
        let Some(profiler) = Profiler::current() else {
            self.prev_values = None;
            return;
        };
        assert!(!params.is_empty(), "no parameters to scan");
        let b = params[0].b;
        assert_eq!(b, self.b, "parameter width mismatch");
        let mut cur_sq = vec![0.0f32; b];
        let mut delta_sq = vec![0.0f32; b];
        let mut prev_sq = vec![0.0f32; b];
        if let Some(prev) = &self.prev_values {
            assert_eq!(prev.len(), params.len(), "parameter count changed");
        }
        for (pi, p) in params.iter().enumerate() {
            let v = p.param.value();
            let s = v.as_slice();
            let chunk = s.len() / b;
            let prev = self.prev_values.as_ref().map(|pv| pv[pi].as_slice());
            for i in 0..b {
                let lane = &s[i * chunk..(i + 1) * chunk];
                match prev {
                    Some(ps) => {
                        let plane = &ps[i * chunk..(i + 1) * chunk];
                        for (&c, &q) in lane.iter().zip(plane) {
                            cur_sq[i] += c * c;
                            prev_sq[i] += q * q;
                            let d = c - q;
                            delta_sq[i] += d * d;
                        }
                    }
                    None => {
                        cur_sq[i] += lane.iter().map(|x| x * x).sum::<f32>();
                    }
                }
            }
        }
        let had_prev = self.prev_values.is_some();
        for i in 0..b {
            profiler.scalar(self.ids[i], "param_norm", step, cur_sq[i].sqrt() as f64);
            let ratio = if had_prev && prev_sq[i] > 0.0 {
                (delta_sq[i].sqrt() / prev_sq[i].sqrt()) as f64
            } else {
                0.0
            };
            profiler.scalar(self.ids[i], "update_ratio", step, ratio);
        }
        self.prev_values = Some(params.iter().map(|p| p.param.value_cloned()).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{FusedSgd, PerModel};
    use hfta_nn::{Parameter, Tape};
    use hfta_tensor::{Rng, Tensor};

    fn fused_param(values: Vec<f32>, b: usize) -> FusedParameter {
        let n = values.len();
        FusedParameter {
            param: Parameter::new(Tensor::from_vec(values, [n]), "w"),
            b,
        }
    }

    #[test]
    fn lane_bounds_partition_contiguously() {
        assert_eq!(lane_bounds(12, 3, 0), (0, 4));
        assert_eq!(lane_bounds(12, 3, 2), (8, 12));
    }

    #[test]
    fn one_pass_norms_match_sliced_norms() {
        let mut rng = Rng::seed_from(0);
        let b = 3;
        let params: Vec<FusedParameter> = (0..2)
            .map(|_| {
                let p = FusedParameter {
                    param: Parameter::new(rng.randn([b * 4, 2]), "w"),
                    b,
                };
                p.param.accumulate_grad(&rng.randn([b * 4, 2]));
                p
            })
            .collect();
        let (sq, nonfinite) = per_model_grad_sq_norms(&params);
        assert!(nonfinite.iter().all(|&f| !f));
        for (i, got) in sq.iter().enumerate() {
            let expect: f32 = params
                .iter()
                .map(|p| {
                    p.model_grad_slice(i)
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>()
                })
                .sum();
            assert!((got - expect).abs() < 1e-5, "model {i}");
        }
    }

    #[test]
    fn nonfinite_flags_attribute_to_the_right_lane() {
        let p = fused_param(vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0], 3);
        p.param.accumulate_grad(&Tensor::from_vec(
            vec![0.0, 0.0, f32::NAN, 0.0, 0.0, 0.0],
            [6],
        ));
        let (sq, nonfinite) = per_model_grad_sq_norms(std::slice::from_ref(&p));
        assert_eq!(nonfinite, vec![false, true, false]);
        assert!(sq[1].is_nan());
        assert_eq!(sq[0], 0.0);
    }

    #[test]
    fn per_model_ce_matches_manual_slices() {
        let mut rng = Rng::seed_from(1);
        let (b, n, c) = (3, 4, 5);
        let logits = rng.randn([b, n, c]);
        let targets: Vec<usize> = (0..b * n).map(|_| rng.below(c)).collect();
        let tape = Tape::new();
        let lv = tape.leaf(logits.clone());
        let nodes = tape.len();
        let losses = per_model_ce_losses(&lv, &targets);
        assert_eq!(
            tape.len(),
            nodes,
            "the per-lane losses recorded on the tape"
        );
        assert_eq!(losses.len(), b);
        for (i, &l) in losses.iter().enumerate() {
            let tape = Tape::new();
            let per = tape
                .leaf(logits.narrow(0, i, 1).reshape(&[n, c]))
                .cross_entropy(&targets[i * n..(i + 1) * n]);
            assert!((l - per.item()).abs() < 1e-6, "model {i}");
        }
    }

    #[test]
    fn poison_then_sentinel_then_quarantine() {
        let p = fused_param(vec![1.0; 6], 3);
        p.param
            .accumulate_grad(&Tensor::from_vec(vec![0.1; 6], [6]));
        let params = vec![p];
        let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(3, 0.1), 0.9).unwrap();
        poison_model_lane(&params, 1);
        let mut monitor = ScopeMonitor::new(3, SentinelCfg::default());
        let newly = monitor.after_backward(0, &[0.5, 0.5, 0.5], &params, &mut opt);
        assert_eq!(newly, vec![1]);
        assert_eq!(opt.quarantined(), &[false, true, false]);
        assert_eq!(monitor.events().len(), 1);
        assert_eq!(monitor.events()[0].kind, SentinelKind::NonFiniteGrad);
        assert!(monitor.events()[0].quarantined);
        // The poisoned lane's gradient was zeroed by the quarantine.
        let g = params[0].param.grad_cloned();
        assert_eq!(&g.to_vec()[2..4], &[0.0, 0.0]);
        // A second step does not re-fire on the quarantined model.
        let newly = monitor.after_backward(1, &[0.5, f32::NAN, 0.5], &params, &mut opt);
        assert!(newly.is_empty());
        assert_eq!(monitor.events().len(), 1);
    }

    #[test]
    fn explosion_thresholds_fire() {
        let p = fused_param(vec![0.0; 4], 2);
        p.param
            .accumulate_grad(&Tensor::from_vec(vec![0.1, 0.1, 50.0, 50.0], [4]));
        let params = vec![p];
        let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        let cfg = SentinelCfg {
            grad_explosion: 10.0,
            loss_explosion: 100.0,
            quarantine: false,
        };
        let mut monitor = ScopeMonitor::new(2, cfg);
        monitor.after_backward(0, &[1.0, 1.0], &params, &mut opt);
        assert_eq!(monitor.events().len(), 1);
        assert_eq!(monitor.events()[0].kind, SentinelKind::GradExplosion);
        assert_eq!(monitor.events()[0].model, 1);
        assert!(!monitor.events()[0].quarantined);
        // quarantine=false leaves the optimizer untouched.
        assert_eq!(opt.quarantined(), &[false, false]);
        // Loss explosion outranks grad explosion.
        let mut m2 = ScopeMonitor::new(2, cfg);
        m2.after_backward(0, &[1.0, 1e9], &params, &mut opt);
        assert_eq!(m2.events()[0].kind, SentinelKind::LossExplosion);
    }

    #[test]
    fn monitor_streams_scalars_into_profiler() {
        let p = fused_param(vec![1.0, 1.0, 2.0, 2.0], 2);
        p.param
            .accumulate_grad(&Tensor::from_vec(vec![0.3, 0.4, 0.0, 0.0], [4]));
        let params = vec![p];
        let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.5), 0.0).unwrap();
        let prof = Profiler::new("scope-test");
        let _g = prof.install();
        let mut monitor = ScopeMonitor::new(2, SentinelCfg::default());
        monitor.after_backward(0, &[1.0, 1.0], &params, &mut opt);
        opt.step();
        monitor.after_step(0, &params);
        // Same (un-zeroed) gradients drive a second step.
        monitor.after_backward(1, &[0.9, 0.9], &params, &mut opt);
        opt.step();
        monitor.after_step(1, &params);
        let report = prof.report();
        let exp = &report.experiments[0];
        let gn = exp.scalar_stream(0, "grad_norm").unwrap();
        assert_eq!(gn.points.len(), 2);
        assert!((gn.points[0].value - 0.5).abs() < 1e-6);
        let pn = exp.scalar_stream(1, "param_norm").unwrap();
        assert_eq!(pn.points.len(), 2);
        // First update_ratio is 0 (no previous snapshot); model 0 keeps
        // moving so its second ratio is positive; model 1's gradient is
        // zero so it never moves.
        let ur0 = exp.scalar_stream(0, "update_ratio").unwrap();
        assert_eq!(ur0.points[0].value, 0.0);
        assert!(ur0.points[1].value > 0.0);
        let ur1 = exp.scalar_stream(1, "update_ratio").unwrap();
        assert_eq!(ur1.points[1].value, 0.0);
    }

    #[test]
    fn untraced_after_step_keeps_no_snapshot() {
        let p = fused_param(vec![1.0, 1.0, 2.0, 2.0], 2);
        p.param
            .accumulate_grad(&Tensor::from_vec(vec![0.3, 0.4, 0.1, 0.1], [4]));
        let params = vec![p];
        let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.5), 0.0).unwrap();
        let mut monitor = ScopeMonitor::new(2, SentinelCfg::default());
        opt.step();
        monitor.after_step(0, &params);
        assert!(monitor.prev_values.is_none());
        let prof = Profiler::new("scope-untraced");
        let _g = prof.install();
        opt.step();
        monitor.after_step(1, &params);
        opt.step();
        monitor.after_step(2, &params);
        let report = prof.report();
        let ur = report.experiments[0]
            .scalar_stream(0, "update_ratio")
            .unwrap();
        // The first traced step reads 0; the next sees the traced delta.
        assert_eq!(ur.points[0].value, 0.0);
        assert!(ur.points[1].value > 0.0);
    }

    #[test]
    fn custom_model_ids_key_streams_and_sentinels() {
        let p = fused_param(vec![1.0; 4], 2);
        p.param
            .accumulate_grad(&Tensor::from_vec(vec![0.1; 4], [4]));
        let params = vec![p];
        let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        let prof = Profiler::new("scope-ids");
        let _g = prof.install();
        let mut monitor = ScopeMonitor::with_model_ids(2, SentinelCfg::default(), vec![41, 17]);
        assert_eq!(monitor.model_id(1), 17);
        poison_model_lane(&params, 1);
        monitor.after_backward(0, &[0.5, 0.5], &params, &mut opt);
        opt.step();
        monitor.after_step(0, &params);
        // The sentinel reports the trial id, not the lane index.
        assert_eq!(monitor.events()[0].model, 17);
        // ...but quarantine still acted on the lane.
        assert_eq!(opt.quarantined(), &[false, true]);
        let report = prof.report();
        let exp = &report.experiments[0];
        assert!(exp.scalar_stream(41, "grad_norm").is_some());
        assert!(exp.scalar_stream(17, "param_norm").is_some());
        assert!(exp.scalar_stream(0, "grad_norm").is_none());
    }
}
