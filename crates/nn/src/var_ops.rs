//! Differentiable arithmetic, layout and reduction ops on [`Var`].
//!
//! Every substantive op opens a forward telemetry span via
//! `Tape::record_op` before computing; when no profiler is installed the
//! call is a single branch and the cost closure never runs. Forward bodies
//! borrow their operands in place (`with_value`) and backward closures read
//! them back from the tape, so no op copies a value the tape already holds.

use hfta_telemetry::OpCost;
use hfta_tensor::activation::{
    leaky_relu_backward, relu_backward, sigmoid_backward, tanh_backward,
};
use hfta_tensor::Tensor;

use crate::tape::Var;

impl Var {
    // ------------------------------------------------------------------
    // Broadcasting arithmetic
    // ------------------------------------------------------------------

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("add", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        let value = self.with_value(|a| other.with_value(|b| a.add(b)));
        let sa = self.with_value(|a| a.shape().clone());
        let sb = other.with_value(|b| b.shape().clone());
        self.binary(
            other,
            value,
            move |g, _, _| g.sum_to(&sa),
            move |g, _, _| g.sum_to(&sb),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("sub", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        let value = self.with_value(|a| other.with_value(|b| a.sub(b)));
        let sa = self.with_value(|a| a.shape().clone());
        let sb = other.with_value(|b| b.shape().clone());
        self.binary(
            other,
            value,
            move |g, _, _| g.sum_to(&sa),
            move |g, _, _| g.neg().sum_to(&sb),
        )
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("mul", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        let value = self.with_value(|a| other.with_value(|b| a.mul(b)));
        self.binary(
            other,
            value,
            |g, a, b| g.mul(b).sum_to(a.shape()),
            |g, a, b| g.mul(a).sum_to(b.shape()),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("div", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        let value = self.with_value(|a| other.with_value(|b| a.div(b)));
        self.binary(
            other,
            value,
            |g, a, b| g.div(b).sum_to(a.shape()),
            |g, a, b| g.mul(a).neg().div(&b.square()).sum_to(b.shape()),
        )
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let _t = self
            .tape
            .record_op("add_scalar", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.add_scalar(s)), |g, _, _| g.clone())
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        let _t = self
            .tape
            .record_op("mul_scalar", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.mul_scalar(s)), move |g, _, _| {
            g.mul_scalar(s)
        })
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        let _t = self
            .tape
            .record_op("neg", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.neg()), |g, _, _| g.neg())
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let _t = self
            .tape
            .record_op("relu", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.relu()), |g, x, _| relu_backward(g, x))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let _t = self
            .tape
            .record_op("leaky_relu", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.leaky_relu(slope)), move |g, x, _| {
            leaky_relu_backward(g, x, slope)
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let _t = self
            .tape
            .record_op("tanh", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.tanh()), |g, _, y| tanh_backward(g, y))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let _t = self
            .tape
            .record_op("sigmoid", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.sigmoid()), |g, _, y| {
            sigmoid_backward(g, y)
        })
    }

    /// Natural exponential.
    pub fn exp(&self) -> Var {
        let _t = self
            .tape
            .record_op("exp", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.exp()), |g, _, y| g.mul(y))
    }

    /// Natural logarithm.
    pub fn ln(&self) -> Var {
        let _t = self
            .tape
            .record_op("ln", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.ln()), |g, x, _| g.div(x))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let _t = self
            .tape
            .record_op("square", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|x| x.square()), |g, x, _| {
            g.mul(x).mul_scalar(2.0)
        })
    }

    /// Multiplies elementwise by a *constant* tensor (no gradient into the
    /// constant) — dropout masks, attention masks, per-model LR vectors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn mul_const(&self, c: &Tensor) -> Var {
        let _t = self
            .tape
            .record_op("mul_const", || OpCost::elementwise(self.numel()));
        let cc = c.clone();
        self.unary(self.with_value(|v| v.mul(c)), move |g, x, _| {
            g.mul(&cc).sum_to(x.shape())
        })
    }

    /// Adds a *constant* tensor (no gradient into the constant).
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn add_const(&self, c: &Tensor) -> Var {
        let _t = self
            .tape
            .record_op("add_const", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|v| v.add(c)), |g, x, _| g.sum_to(x.shape()))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let _t = self
            .tape
            .record_op("sum", || OpCost::reduction(self.numel()));
        self.unary(self.with_value(|v| v.sum()), |g, x, _| {
            Tensor::full(x.shape().clone(), g.item())
        })
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let _t = self
            .tape
            .record_op("mean", || OpCost::reduction(self.numel()));
        self.unary(self.with_value(|v| v.mean()), |g, x, _| {
            Tensor::full(x.shape().clone(), g.item() / x.numel() as f32)
        })
    }

    /// Sum along `axis`, keeping it as size 1.
    pub fn sum_axis_keep(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("sum_axis", || OpCost::reduction(self.numel()));
        self.unary(self.with_value(|v| v.sum_axis(axis, true)), |g, x, _| {
            // Broadcast the reduced gradient back across the axis.
            Tensor::zeros(x.shape().clone()).add(g)
        })
    }

    /// Mean along `axis`, keeping it as size 1.
    pub fn mean_axis_keep(&self, axis: usize) -> Var {
        let n = self.with_value(|v| v.dim(axis)) as f32;
        self.sum_axis_keep(axis).mul_scalar(1.0 / n)
    }

    /// Maximum along `axis` (axis removed); gradient routes to the argmax.
    pub fn max_axis(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("max_axis", || OpCost::reduction(self.numel()));
        let (out, indices) = self.with_value(|v| v.max_axis_with_indices(axis));
        self.unary(out, move |g, x, _| {
            let dims = x.dims();
            let n = dims[axis];
            let inner: usize = dims[axis + 1..].iter().product();
            let gd = g.as_slice();
            let mut gx_t = Tensor::zeros(dims);
            let gx = gx_t.as_mut_slice();
            for (oi, (&k, &gv)) in indices.iter().zip(gd).enumerate() {
                let (o, i) = (oi / inner, oi % inner);
                gx[(o * n + k) * inner + i] += gv;
            }
            gx_t
        })
    }

    // ------------------------------------------------------------------
    // Layout
    // ------------------------------------------------------------------

    /// Reshape (element count preserved).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Var {
        let _t = self
            .tape
            .record_op("reshape", || OpCost::elementwise(self.numel()));
        self.unary(self.with_value(|v| v.reshape(dims)), |g, x, _| {
            g.reshape(x.dims())
        })
    }

    /// Flattens all dimensions from `start_axis` onward.
    pub fn flatten_from(&self, start_axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("flatten", || OpCost::elementwise(self.numel()));
        self.unary(
            self.with_value(|v| v.flatten_from(start_axis)),
            |g, x, _| g.reshape(x.dims()),
        )
    }

    /// Permutes axes.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the rank.
    pub fn permute(&self, order: &[usize]) -> Var {
        let _t = self
            .tape
            .record_op("permute", || OpCost::elementwise(self.numel()));
        let mut inverse = vec![0usize; order.len()];
        for (i, &a) in order.iter().enumerate() {
            inverse[a] = i;
        }
        self.unary(self.with_value(|v| v.permute(order)), move |g, _, _| {
            g.permute(&inverse)
        })
    }

    /// Swaps two axes.
    pub fn transpose(&self, a: usize, b: usize) -> Var {
        let mut order: Vec<usize> = (0..self.with_value(|v| v.rank())).collect();
        order.swap(a, b);
        self.permute(&order)
    }

    /// Slice of `len` elements from `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let _t = self
            .tape
            .record_op("narrow", || OpCost::elementwise(self.numel()));
        self.unary(
            self.with_value(|v| v.narrow(axis, start, len)),
            move |g, x, _| {
                let mut gx = Tensor::zeros(x.shape().clone());
                gx.narrow_assign(axis, start, g);
                gx
            },
        )
    }

    /// Concatenates variables along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or shapes are incompatible.
    pub fn concat(vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "concat of zero vars");
        let tape = vars[0].tape.clone();
        let _t = tape.record_op("concat", || {
            OpCost::elementwise(vars.iter().map(|v| v.numel()).sum())
        });
        let (value, sizes) = tape.with_values(vars, |values| {
            let sizes: Vec<usize> = values.iter().map(|v| v.dim(axis)).collect();
            (Tensor::concat(values, axis), sizes)
        });
        let ids: Vec<usize> = vars.iter().map(|v| v.id).collect();
        tape.push_op(value, move |g, ctx| {
            let mut out = Vec::with_capacity(ids.len());
            let mut off = 0;
            for (&id, &size) in ids.iter().zip(&sizes) {
                if ctx.needs_grad(id) {
                    out.push((id, g.narrow(axis, off, size)));
                }
                off += size;
            }
            out
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// 2-D matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("matmul", || {
            let (a, b) = (self.dims(), other.dims());
            OpCost::matmul(1, a[0], a[1], b[1])
        });
        let value = self.with_value(|a| other.with_value(|b| a.matmul(b)));
        self.binary(
            other,
            value,
            |g, _, b| g.matmul(&b.t()),
            |g, a, _| a.t().matmul(g),
        )
    }

    /// Batched matrix product `[B, m, k] x [B, k, n]`.
    pub fn bmm(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("bmm", || {
            let (a, b) = (self.dims(), other.dims());
            OpCost::matmul(a[0], a[1], a[2], b[2])
        });
        let value = self.with_value(|a| other.with_value(|b| a.bmm(b)));
        self.binary(other, value, |g, _, b| g.bmm_nt(b), |g, a, _| a.bmm_tn(g))
    }

    /// Batched `bias + self @ other` with broadcastable bias — the fused
    /// linear layer primitive (HFTA Table 6).
    pub fn baddbmm(&self, other: &Var, bias: &Var) -> Var {
        self.bmm(other).add(bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::parameter::Parameter;
    use crate::tape::Tape;
    use hfta_tensor::Rng;

    fn param(rng: &mut Rng, shape: &[usize], name: &str) -> Parameter {
        Parameter::new(rng.randn(shape.to_vec()), name)
    }

    #[test]
    fn add_mul_grads() {
        let w = Parameter::new(Tensor::from_vec(vec![2.0, 3.0], [2]), "w");
        let tape = Tape::new();
        let x = tape.param(&w);
        let y = x.mul(&x).add(&x).sum(); // y = x^2 + x, dy/dx = 2x + 1
        y.backward();
        assert_eq!(w.grad_cloned().to_vec(), vec![5.0, 7.0]);
    }

    #[test]
    fn broadcast_grad_sums() {
        // row [3] broadcast over [2,3]: grad of row = column-sum of g.
        let row = Parameter::new(Tensor::zeros([3]), "row");
        let tape = Tape::new();
        let m = tape.leaf(Tensor::ones([2, 3]));
        let y = m.add(&tape.param(&row)).sum();
        y.backward();
        assert_eq!(row.grad_cloned().to_vec(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = Rng::seed_from(1);
        let a = param(&mut rng, &[3, 4], "a");
        let b = param(&mut rng, &[4, 2], "b");
        check_gradients(
            &[a.clone(), b.clone()],
            |tape| tape.param(&a).matmul(&tape.param(&b)).sum(),
            1e-2,
        );
    }

    #[test]
    fn bmm_gradcheck() {
        let mut rng = Rng::seed_from(2);
        let a = param(&mut rng, &[2, 3, 4], "a");
        let b = param(&mut rng, &[2, 4, 2], "b");
        check_gradients(
            &[a.clone(), b.clone()],
            |tape| tape.param(&a).bmm(&tape.param(&b)).square().sum(),
            1e-1,
        );
    }

    #[test]
    fn baddbmm_gradcheck() {
        let mut rng = Rng::seed_from(3);
        let x = param(&mut rng, &[2, 3, 4], "x");
        let w = param(&mut rng, &[2, 4, 5], "w");
        let bias = param(&mut rng, &[2, 1, 5], "b");
        check_gradients(
            &[x.clone(), w.clone(), bias.clone()],
            |tape| {
                tape.param(&x)
                    .baddbmm(&tape.param(&w), &tape.param(&bias))
                    .sum()
            },
            1e-2,
        );
    }

    #[test]
    fn nonlinearity_gradchecks() {
        let mut rng = Rng::seed_from(4);
        let x = param(&mut rng, &[3, 3], "x");
        for f in [
            (|v: &Var| v.relu().sum()) as fn(&Var) -> Var,
            |v| v.leaky_relu(0.2).sum(),
            |v| v.tanh().sum(),
            |v| v.sigmoid().sum(),
            |v| v.exp().sum(),
            |v| v.square().sum(),
        ] {
            check_gradients(std::slice::from_ref(&x), |tape| f(&tape.param(&x)), 1e-2);
        }
    }

    #[test]
    fn ln_gradcheck_positive_domain() {
        let x = Parameter::new(Tensor::from_vec(vec![0.5, 1.0, 2.0, 3.0], [4]), "x");
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).ln().sum(),
            1e-2,
        );
    }

    #[test]
    fn div_gradcheck() {
        let a = Parameter::new(Tensor::from_vec(vec![1.0, -2.0], [2]), "a");
        let b = Parameter::new(Tensor::from_vec(vec![2.0, 4.0], [2]), "b");
        check_gradients(
            &[a.clone(), b.clone()],
            |tape| tape.param(&a).div(&tape.param(&b)).sum(),
            1e-2,
        );
    }

    #[test]
    fn max_axis_routes_gradient() {
        let w = Parameter::new(
            Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0, 0.0, 4.0], [2, 3]),
            "w",
        );
        let tape = Tape::new();
        let y = tape.param(&w).max_axis(1).sum();
        y.backward();
        assert_eq!(w.grad_cloned().to_vec(), vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn narrow_concat_round_trip_grads() {
        let w = Parameter::new(Tensor::arange(6).reshape(&[2, 3]), "w");
        let tape = Tape::new();
        let x = tape.param(&w);
        let a = x.narrow(1, 0, 1);
        let b = x.narrow(1, 1, 2);
        let y = Var::concat(&[&a, &b], 1).mul_scalar(2.0).sum();
        y.backward();
        assert_eq!(w.grad_cloned().to_vec(), vec![2.0; 6]);
    }

    #[test]
    fn permute_gradcheck() {
        let mut rng = Rng::seed_from(6);
        let x = param(&mut rng, &[2, 3, 4], "x");
        check_gradients(
            std::slice::from_ref(&x),
            |tape| tape.param(&x).permute(&[2, 0, 1]).square().sum(),
            1e-1,
        );
    }

    #[test]
    fn reductions_grads() {
        let w = Parameter::new(Tensor::ones([2, 3]), "w");
        let tape = Tape::new();
        let y = tape.param(&w).mean();
        y.backward();
        assert!(w
            .grad_cloned()
            .allclose(&Tensor::full([2, 3], 1.0 / 6.0), 1e-6));
        let w2 = Parameter::new(Tensor::ones([2, 3]), "w2");
        let tape2 = Tape::new();
        let y2 = tape2.param(&w2).sum_axis_keep(0).sum();
        y2.backward();
        assert_eq!(w2.grad_cloned().to_vec(), vec![1.0; 6]);
    }

    #[test]
    fn mul_const_does_not_track_constant() {
        let w = Parameter::new(Tensor::ones([2]), "w");
        let tape = Tape::new();
        let mask = Tensor::from_vec(vec![0.0, 2.0], [2]);
        let y = tape.param(&w).mul_const(&mask).sum();
        y.backward();
        assert_eq!(w.grad_cloned().to_vec(), vec![0.0, 2.0]);
    }
}
