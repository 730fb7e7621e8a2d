//! Activation gradients and softmax-family kernels.
//!
//! Each gradient is one pass that reads the upstream gradient and the one
//! saved operand it needs — the activation's input `x` or its output `y` —
//! and writes every element once. Masks are selects, not branches, and the
//! per-element IEEE operations are the ones the old mask-then-multiply
//! passes performed, in the same order.

use crate::tensor::Tensor;

/// Gradient of [`Tensor::relu`]: `gy * (x > 0 ? 1 : 0)`. The mask comes
/// from `x`, not the output: `y = 0` cannot tell `x = 0` from `x < 0`.
pub fn relu_backward(gy: &Tensor, x: &Tensor) -> Tensor {
    gy.zip(x, |g, x| g * if x > 0.0 { 1.0 } else { 0.0 })
}

/// Gradient of [`Tensor::leaky_relu`]: `gy * (x >= 0 ? 1 : slope)`. The
/// mask comes from `x`: the output's sign is lost where `x * slope`
/// underflows to `-0.0`.
pub fn leaky_relu_backward(gy: &Tensor, x: &Tensor, negative_slope: f32) -> Tensor {
    gy.zip(x, move |g, x| {
        // Read the slope before the select: a read inside the `else` arm
        // is a conditional load, which keeps the branch in the loop.
        let slope = negative_slope;
        g * if x >= 0.0 { 1.0 } else { slope }
    })
}

/// Gradient of [`Tensor::tanh`] from its output: `gy * (1 - y²)`.
pub fn tanh_backward(gy: &Tensor, y: &Tensor) -> Tensor {
    gy.zip(y, |g, y| g * (-(y * y) + 1.0))
}

/// Gradient of [`Tensor::sigmoid`] from its output: `gy * y * (1 - y)`.
pub fn sigmoid_backward(gy: &Tensor, y: &Tensor) -> Tensor {
    gy.zip(y, |g, y| g * y * (-y + 1.0))
}

impl Tensor {
    /// Numerically stable softmax along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or the axis is empty.
    pub fn softmax(&self, axis: usize) -> Tensor {
        self.log_softmax(axis).exp()
    }

    /// Numerically stable log-softmax along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or the axis is empty.
    pub fn log_softmax(&self, axis: usize) -> Tensor {
        self.shape().check_axis(axis).expect("log_softmax axis");
        let n = self.dim(axis);
        assert!(n > 0, "log_softmax over empty axis");
        let (outer, inner) = self.split_at_axis(axis);
        let src = self.as_slice();
        let mut out_t = Tensor::zeros(self.shape().clone());
        let out = out_t.as_mut_slice();
        for o in 0..outer {
            for i in 0..inner {
                let mut mx = f32::NEG_INFINITY;
                for k in 0..n {
                    mx = mx.max(src[(o * n + k) * inner + i]);
                }
                let mut sum = 0.0f32;
                for k in 0..n {
                    sum += (src[(o * n + k) * inner + i] - mx).exp();
                }
                let lse = mx + sum.ln();
                for k in 0..n {
                    let idx = (o * n + k) * inner + i;
                    out[idx] = src[idx] - lse;
                }
            }
        }
        out_t
    }
}

/// Gradient of [`Tensor::log_softmax`]: `gx = gy - softmax(x) * sum(gy)`
/// along the same axis.
pub fn log_softmax_backward(gy: &Tensor, log_probs: &Tensor, axis: usize) -> Tensor {
    let sum_gy = gy.sum_axis(axis, true);
    gy.sub(&log_probs.exp().mul(&sum_gy))
}

/// Gradient of [`Tensor::softmax`]:
/// `gx = probs * (gy - sum(gy * probs))` along the same axis.
pub fn softmax_backward(gy: &Tensor, probs: &Tensor, axis: usize) -> Tensor {
    let dot = gy.mul(probs).sum_axis(axis, true);
    probs.mul(&gy.sub(&dot))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], [2, 3]);
        let s = t.softmax(1);
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform logits → uniform probabilities.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).softmax(1);
        let b = Tensor::from_vec(vec![1001.0, 1002.0], [1, 2]).softmax(1);
        // f32 ulp at magnitude ~1e3 dominates; shapes agree to ~1e-4.
        assert!(a.allclose(&b, 1e-4));
        assert!(!b.has_non_finite());
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0], [1, 3]);
        let ls = t.log_softmax(1);
        let expected = t.softmax(1).ln();
        assert!(ls.allclose(&expected, 1e-5));
    }

    #[test]
    fn softmax_along_axis0() {
        let t = Tensor::from_vec(vec![0.0, 0.0, 100.0, 0.0], [2, 2]);
        let s = t.softmax(0);
        assert!((s.at(&[1, 0]) - 1.0).abs() < 1e-5);
        assert!((s.at(&[0, 1]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_backward_numeric() {
        let x = Tensor::from_vec(vec![0.3, -0.8, 0.5, 1.1], [2, 2]);
        let w = Tensor::from_vec(vec![0.7, -0.2, 0.4, 0.9], [2, 2]);
        let loss = |x: &Tensor| x.log_softmax(1).mul(&w).sum().item();
        let ana = log_softmax_backward(&w, &x.log_softmax(1), 1);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((num - ana.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_backward_numeric() {
        let x = Tensor::from_vec(vec![0.1, 0.9, -0.4, 0.2], [2, 2]);
        let w = Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.25], [2, 2]);
        let loss = |x: &Tensor| x.softmax(1).mul(&w).sum().item();
        let ana = softmax_backward(&w, &x.softmax(1), 1);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((num - ana.as_slice()[i]).abs() < 1e-3);
        }
    }
}
