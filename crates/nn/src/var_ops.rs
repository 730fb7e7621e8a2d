//! Differentiable arithmetic, layout and reduction ops on [`Var`].
//!
//! Every substantive op opens a forward telemetry span via
//! `Tape::record_op` before computing; when no profiler is installed the
//! call is a single branch and the cost closure never runs. Forward bodies
//! borrow their operands in place (`with_value`) and record an `Op` — the
//! parents' ids plus any scalar, axis, constant or index the backward
//! needs — which the sweep's one `match` reads the operands back from the
//! tape for, so no op copies a value the tape already holds.

use std::rc::Rc;

use hfta_telemetry::OpCost;
use hfta_tensor::Tensor;

use crate::tape::{Op, Var};
use crate::var_nn::Product;

impl Var {
    /// Records the broadcasting op `forward(self, other)`, its backward
    /// `op(self, other)`; the operands must share a tape.
    fn broadcast(
        &self,
        other: &Var,
        forward: fn(&Tensor, &Tensor) -> Tensor,
        op: fn(usize, usize) -> Op,
    ) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "operands must share a tape"
        );
        let value = self.with_value(|a| other.with_value(|b| forward(a, b)));
        let (a, b) = (self.id, other.id);
        self.tape.push_op(value, &[a, b], op(a, b))
    }

    // ------------------------------------------------------------------
    // Broadcasting arithmetic
    // ------------------------------------------------------------------

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("add", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        self.broadcast(other, Tensor::add, Op::Add)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("sub", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        self.broadcast(other, Tensor::sub, Op::Sub)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("mul", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        self.broadcast(other, Tensor::mul, Op::Mul)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("div", || {
            OpCost::elementwise(self.numel().max(other.numel()))
        });
        self.broadcast(other, Tensor::div, Op::Div)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let _t = self
            .tape
            .record_op("add_scalar", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.add_scalar(s)), Op::AddScalar(self.id))
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        let _t = self
            .tape
            .record_op("mul_scalar", || OpCost::elementwise(self.numel()));
        let y = self.with_value(|x| x.mul_scalar(s));
        self.record(y, Op::MulScalar(self.id, s))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        let _t = self
            .tape
            .record_op("neg", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.neg()), Op::Neg(self.id))
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let _t = self
            .tape
            .record_op("relu", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.relu()), Op::Relu(self.id))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let _t = self
            .tape
            .record_op("leaky_relu", || OpCost::elementwise(self.numel()));
        let y = self.with_value(|x| x.leaky_relu(slope));
        self.record(y, Op::LeakyRelu(self.id, slope))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let _t = self
            .tape
            .record_op("tanh", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.tanh()), Op::Tanh(self.id))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let _t = self
            .tape
            .record_op("sigmoid", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.sigmoid()), Op::Sigmoid(self.id))
    }

    /// Natural exponential.
    pub fn exp(&self) -> Var {
        let _t = self
            .tape
            .record_op("exp", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.exp()), Op::Exp(self.id))
    }

    /// Natural logarithm.
    pub fn ln(&self) -> Var {
        let _t = self
            .tape
            .record_op("ln", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.ln()), Op::Ln(self.id))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let _t = self
            .tape
            .record_op("square", || OpCost::elementwise(self.numel()));
        self.record(self.with_value(|x| x.square()), Op::Square(self.id))
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
        self.record(
            self.with_value(|v| v.mul(c)),
            Op::MulConst(self.id, c.clone()),
        )
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
        self.record(self.with_value(|v| v.add(c)), Op::AddConst(self.id))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let _t = self
            .tape
            .record_op("sum", || OpCost::reduction(self.numel()));
        self.record(self.with_value(|v| v.sum()), Op::Sum(self.id))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let _t = self
            .tape
            .record_op("mean", || OpCost::reduction(self.numel()));
        self.record(self.with_value(|v| v.mean()), Op::Mean(self.id))
    }

    /// Sum along `axis`, keeping it as size 1.
    pub fn sum_axis_keep(&self, axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("sum_axis", || OpCost::reduction(self.numel()));
        let y = self.with_value(|v| v.sum_axis(axis, true));
        self.record(y, Op::SumAxis(self.id, axis))
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
        self.record(out, Op::MaxAxis(self.id, axis, indices))
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
        self.record(self.with_value(|v| v.reshape(dims)), Op::Reshape(self.id))
    }

    /// Flattens all dimensions from `start_axis` onward.
    pub fn flatten_from(&self, start_axis: usize) -> Var {
        let _t = self
            .tape
            .record_op("flatten", || OpCost::elementwise(self.numel()));
        let y = self.with_value(|v| v.flatten_from(start_axis));
        self.record(y, Op::Reshape(self.id))
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
        let y = self.with_value(|v| v.permute(order));
        self.record(y, Op::Permute(self.id, inverse))
    }

    /// Swaps two axes.
    pub fn transpose(&self, a: usize, b: usize) -> Var {
        let mut order: Vec<usize> = (0..self.with_value(|v| v.rank())).collect();
        order.swap(a, b);
        self.permute(&order)
    }

    /// Slice of `len` elements from `start` along `axis`. Its gradient is
    /// added into the window of this node's gradient it came from.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let _t = self
            .tape
            .record_op("narrow", || OpCost::elementwise(self.numel()));
        let y = self.with_value(|v| v.narrow(axis, start, len));
        self.record(y, Op::Narrow(self.id, axis, start))
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
        let (value, parts) = tape.with_values(vars, |values| {
            let parts = (vars.iter().zip(values)).map(|(v, t)| (v.id, t.dim(axis)));
            (Tensor::concat(values, axis), parts.collect::<Vec<_>>())
        });
        let ids: Vec<usize> = vars.iter().map(|v| v.id).collect();
        tape.push_op(value, &ids, Op::Concat(parts, axis))
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
        self.product(other, None, Product::Matmul)
    }

    /// Batched matrix product `[B, m, k] x [B, k, n]`.
    pub fn bmm(&self, other: &Var) -> Var {
        let _t = self.tape.record_op("bmm", || {
            let (a, b) = (self.dims(), other.dims());
            OpCost::matmul(a[0], a[1], a[2], b[2])
        });
        self.product(other, None, Product::Bmm)
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
    fn matmul_grads_are_bitwise_the_transposed_products() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Below and above the GEMM's small-shape threshold.
        for (m, k, n) in [(3, 4, 2), (24, 40, 16)] {
            let mut rng = Rng::seed_from((m * k * n) as u64);
            let a = param(&mut rng, &[m, k], "a");
            let b = param(&mut rng, &[k, n], "b");
            let g = rng.randn([m, n]);
            let tape = Tape::new();
            let y = tape.param(&a).matmul(&tape.param(&b));
            y.backward_with(g.clone());
            // The same products on copied transposes, accumulated the same way.
            let want_a = param(&mut rng, &[m, k], "want_a");
            want_a.accumulate_grad(&g.matmul(&b.value_cloned().t()));
            let want_b = param(&mut rng, &[k, n], "want_b");
            want_b.accumulate_grad(&a.value_cloned().t().matmul(&g));
            assert_eq!(
                bits(&a.grad()),
                bits(&want_a.grad()),
                "grad a at {m}x{k}x{n}"
            );
            assert_eq!(
                bits(&b.grad()),
                bits(&want_b.grad()),
                "grad b at {m}x{k}x{n}"
            );
        }
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
