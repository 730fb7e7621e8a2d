//! Fused losses with the §3.2 scaling rule.
//!
//! When `B` per-model losses are fused with **mean** reduction, the fused
//! loss is `L = (1/B) Σ_b ℓ_b`, so each model's gradient arrives scaled by
//! `1/B`. Multiplying the fused loss by `B` (Equation 3 of the paper)
//! reconstructs exactly the gradients of independent training. With **sum**
//! reduction no scaling is needed. The derivation makes no assumption about
//! the form of `ℓ_b`, so the rule here is applied uniformly to every loss.

use hfta_nn::Var;
use hfta_tensor::Tensor;

/// How per-example losses are reduced, mirroring PyTorch's `reduction=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reduction {
    /// Average over examples (and models, once fused).
    #[default]
    Mean,
    /// Sum over examples.
    Sum,
}

impl Reduction {
    /// The §3.2 loss-scale factor that reconstructs per-model gradients
    /// when `b` models are fused.
    ///
    /// # Example
    ///
    /// ```
    /// use hfta_core::loss::Reduction;
    /// assert_eq!(Reduction::Mean.fused_scale(8), 8.0);
    /// assert_eq!(Reduction::Sum.fused_scale(8), 1.0);
    /// ```
    pub fn fused_scale(&self, b: usize) -> f32 {
        match self {
            Reduction::Mean => b as f32,
            Reduction::Sum => 1.0,
        }
    }
}

/// Fused cross-entropy over array-format logits `[B, N, C]` against
/// model-major targets `[B * N]`, with gradient-exact scaling.
///
/// Equivalent to computing each model's mean cross-entropy independently
/// and summing — i.e. `backward()` yields exactly the gradients each model
/// would see when trained alone.
///
/// # Panics
///
/// Panics if the logits are not `[B, N, C]` or the target length is not
/// `B * N`.
pub fn fused_cross_entropy(logits: &Var, targets: &[usize], reduction: Reduction) -> Var {
    let (log_probs, b) = fused_log_probs(logits, targets);
    log_probs
        .nll_loss(targets)
        .mul_scalar(reduction.fused_scale(b))
}

/// [`fused_cross_entropy`] and each model's own mean cross-entropy, read
/// off the one log-softmax the loss records.
///
/// # Panics
///
/// Panics like [`fused_cross_entropy`], or on a target class out of range.
pub fn fused_cross_entropy_per_model(
    logits: &Var,
    targets: &[usize],
    reduction: Reduction,
) -> (Var, Vec<f32>) {
    let (log_probs, b) = fused_log_probs(logits, targets);
    let per_model = log_probs.with_value(|lp| per_model_nll(lp, targets, b));
    let loss = log_probs
        .nll_loss(targets)
        .mul_scalar(reduction.fused_scale(b));
    (loss, per_model)
}

/// The row-wise log-softmax of `[B, N, C]` logits flattened to `[B*N, C]`
/// (the fused mean averages over `B*N`, the §3.2 scale restores per-model
/// magnitudes), and `B`.
fn fused_log_probs(logits: &Var, targets: &[usize]) -> (Var, usize) {
    let dims = logits.dims();
    assert_eq!(dims.len(), 3, "fused logits must be [B, N, C]");
    let (b, n, c) = (dims[0], dims[1], dims[2]);
    assert_eq!(targets.len(), b * n, "targets must be model-major [B * N]");
    (logits.reshape(&[b * n, c]).log_softmax(1), b)
}

/// Each of `b` models' mean negative log-likelihood off log-probabilities
/// whose rows (classes on the last axis) hold the models' examples,
/// model-major, against targets `[B * N]`: each lane's rows summed in order
/// and divided by `N`, the operations `nll_loss` performs on that lane
/// alone, so the bits are the same.
///
/// # Panics
///
/// Panics on a target class out of range.
pub fn per_model_nll(log_probs: &Tensor, targets: &[usize], b: usize) -> Vec<f32> {
    let c = log_probs.dims()[log_probs.rank() - 1];
    let n = targets.len() / b;
    let mut picked = (log_probs.as_slice().chunks_exact(c).zip(targets)).map(|(row, &t)| {
        assert!(t < c, "target class {t} out of range (C = {c})");
        row[t]
    });
    (0..b)
        .map(|_| picked.by_ref().take(n).fold(0.0f32, |nll, lp| nll - lp) / n as f32)
        .collect()
}

/// Fused negative log-likelihood over array-format log-probabilities
/// `[B, N, C]` (see [`fused_cross_entropy`] for conventions).
///
/// # Panics
///
/// Panics on layout mismatches.
pub fn fused_nll_loss(log_probs: &Var, targets: &[usize], reduction: Reduction) -> Var {
    let dims = log_probs.dims();
    assert_eq!(dims.len(), 3, "fused log-probs must be [B, N, C]");
    let (b, n, c) = (dims[0], dims[1], dims[2]);
    assert_eq!(targets.len(), b * n, "targets must be model-major [B * N]");
    let flat = log_probs.reshape(&[b * n, c]);
    flat.nll_loss(targets).mul_scalar(reduction.fused_scale(b))
}

/// Fused binary cross-entropy with logits over any fused layout, given the
/// array width `b`. The targets tensor must match the logits' shape.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn fused_bce_with_logits(
    logits: &Var,
    targets: &Tensor,
    b: usize,
    reduction: Reduction,
) -> Var {
    logits
        .bce_with_logits(targets)
        .mul_scalar(reduction.fused_scale(b))
}

/// Fused mean-squared error (targets constant), given the array width `b`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn fused_mse_loss(output: &Var, targets: &Tensor, b: usize, reduction: Reduction) -> Var {
    output
        .mse_loss(targets)
        .mul_scalar(reduction.fused_scale(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{stack_array, stack_targets};
    use hfta_nn::{Parameter, Tape};
    use hfta_tensor::Rng;

    #[test]
    fn scale_rule() {
        assert_eq!(Reduction::Mean.fused_scale(1), 1.0);
        assert_eq!(Reduction::Mean.fused_scale(16), 16.0);
        assert_eq!(Reduction::Sum.fused_scale(16), 1.0);
    }

    #[test]
    fn fused_ce_value_is_sum_of_per_model_means() {
        let mut rng = Rng::seed_from(0);
        let b = 3;
        let logits: Vec<_> = (0..b).map(|_| rng.randn([4, 5])).collect();
        let targets: Vec<Vec<usize>> = (0..b)
            .map(|_| (0..4).map(|_| rng.below(5)).collect())
            .collect();
        // Serial per-model losses.
        let mut serial_sum = 0.0;
        for i in 0..b {
            let tape = Tape::new();
            let l = tape.leaf(logits[i].clone()).cross_entropy(&targets[i]);
            serial_sum += l.item();
        }
        // Fused loss.
        let tape = Tape::new();
        let fused_logits = tape.leaf(stack_array(&logits).unwrap());
        let fused_targets = stack_targets(&targets).unwrap();
        let fl = fused_cross_entropy(&fused_logits, &fused_targets, Reduction::Mean);
        assert!(
            (fl.item() - serial_sum).abs() < 1e-4,
            "{} vs {serial_sum}",
            fl.item()
        );
    }

    #[test]
    fn fused_ce_gradients_match_serial_exactly() {
        // The core §3.2 claim: per-model gradients from the scaled fused
        // loss equal the gradients of independent training.
        let mut rng = Rng::seed_from(1);
        let b = 4;
        let weights: Vec<Parameter> = (0..b)
            .map(|i| Parameter::new(rng.randn([6, 3]), format!("w{i}")))
            .collect();
        let x: Vec<_> = (0..b).map(|_| rng.randn([5, 6])).collect();
        let targets: Vec<Vec<usize>> = (0..b)
            .map(|_| (0..5).map(|_| rng.below(3)).collect())
            .collect();

        // Serial gradients.
        let mut serial_grads = Vec::new();
        for i in 0..b {
            weights[i].zero_grad();
            let tape = Tape::new();
            let logits = tape.leaf(x[i].clone()).matmul(&tape.param(&weights[i]));
            logits.cross_entropy(&targets[i]).backward();
            serial_grads.push(weights[i].grad_cloned());
        }

        // Fused: stack weights into [B, 6, 3] and inputs into [B, 5, 6].
        let stacked_w = {
            let ws: Vec<_> = weights
                .iter()
                .map(|w| w.value_cloned().unsqueeze(0))
                .collect();
            Parameter::new(
                hfta_tensor::Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0),
                "fused_w",
            )
        };
        let tape = Tape::new();
        let fx = tape.leaf(stack_array(&x).unwrap());
        let logits = fx.bmm(&tape.param(&stacked_w));
        let fused_targets = stack_targets(&targets).unwrap();
        fused_cross_entropy(&logits, &fused_targets, Reduction::Mean).backward();
        let fused_grad = stacked_w.grad_cloned();
        for (i, expected) in serial_grads.iter().enumerate() {
            let gi = fused_grad.narrow(0, i, 1).squeeze(0);
            assert!(
                gi.allclose(expected, 1e-5),
                "model {i}: max diff {}",
                gi.max_abs_diff(expected)
            );
        }
    }

    #[test]
    fn without_scaling_gradients_shrink_by_b() {
        // The ablation the paper's derivation implies: dropping the xB
        // scale divides every gradient by B.
        let mut rng = Rng::seed_from(2);
        let b = 5;
        let w = Parameter::new(rng.randn([b, 4, 2]), "w");
        let x = rng.randn([b, 3, 4]);
        let t: Vec<usize> = (0..b * 3).map(|_| rng.below(2)).collect();

        let tape = Tape::new();
        let logits = tape.leaf(x.clone()).bmm(&tape.param(&w));
        fused_cross_entropy(&logits, &t, Reduction::Mean).backward();
        let scaled = w.grad_cloned();

        w.zero_grad();
        let tape = Tape::new();
        let logits = tape.leaf(x).bmm(&tape.param(&w));
        // Unscaled fused mean loss.
        logits.reshape(&[b * 3, 2]).cross_entropy(&t).backward();
        let unscaled = w.grad_cloned();

        assert!(scaled.allclose(&unscaled.mul_scalar(b as f32), 1e-5));
    }

    #[test]
    fn sum_reduction_needs_no_scale() {
        assert_eq!(Reduction::Sum.fused_scale(32), 1.0);
    }

    #[test]
    fn fused_nll_matches_ce() {
        let mut rng = Rng::seed_from(3);
        let logits = rng.randn([2, 3, 4]);
        let t: Vec<usize> = (0..6).map(|_| rng.below(4)).collect();
        let tape = Tape::new();
        let lv = tape.leaf(logits.clone());
        let ce = fused_cross_entropy(&lv, &t, Reduction::Mean);
        let nll = fused_nll_loss(&lv.log_softmax(2), &t, Reduction::Mean);
        assert!((ce.item() - nll.item()).abs() < 1e-5);
    }

    #[test]
    fn per_model_losses_come_off_the_fused_loss_log_softmax() {
        let mut rng = Rng::seed_from(4);
        let (b, n, c) = (3, 5, 4);
        let logits = rng.randn([b, n, c]);
        let t: Vec<usize> = (0..b * n).map(|_| rng.below(c)).collect();
        let tape = Tape::new();
        let lv = tape.leaf(logits.clone());
        let alone = fused_cross_entropy(&lv, &t, Reduction::Mean);
        let nodes = tape.len();
        let (loss, per_model) = fused_cross_entropy_per_model(&lv, &t, Reduction::Mean);
        assert_eq!(tape.len() - nodes, nodes - 1, "the same ops, recorded once");
        assert_eq!(loss.item().to_bits(), alone.item().to_bits());
        let separate = crate::scope::per_model_ce_losses(&lv, &t);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&per_model), bits(&separate));
    }

    #[test]
    fn fused_bce_scales() {
        let tape = Tape::new();
        let x = tape.leaf(hfta_tensor::Tensor::zeros([4, 2]));
        let t = hfta_tensor::Tensor::ones([4, 2]);
        let l1 = fused_bce_with_logits(&x, &t, 1, Reduction::Mean);
        let l4 = fused_bce_with_logits(&x, &t, 4, Reduction::Mean);
        assert!((l4.item() - 4.0 * l1.item()).abs() < 1e-6);
    }
}
