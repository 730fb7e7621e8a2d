//! Elementwise arithmetic with NumPy-style broadcasting.

use crate::shape::{Dims, Shape, MAX_RANK};
use crate::tensor::Tensor;

/// Strides of `shape` when broadcast into `out` (0 on broadcast axes),
/// aligned to `out`'s rank.
pub(crate) fn broadcast_strides(shape: &Shape, out: &Shape) -> Dims {
    let strides = shape.strides();
    let offset = out.rank() - shape.rank();
    let mut result: Dims = std::iter::repeat_n(0, out.rank()).collect();
    for i in 0..shape.rank() {
        result[offset + i] = if shape.dim(i) == 1 { 0 } else { strides[i] };
    }
    result
}

/// Applies `f(a, b)` over the broadcast of the two tensors.
fn broadcast_zip(
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32 + Sync,
    op: &'static str,
) -> Tensor {
    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        return a.zip(b, f);
    }
    // Fast path: scalar operands.
    if b.numel() == 1 {
        let s = b.as_slice()[0];
        return a.map(|v| f(v, s));
    }
    if a.numel() == 1 {
        let s = a.as_slice()[0];
        return b.map(|v| f(s, v));
    }
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .unwrap_or_else(|e| panic!("{op}: {e}"));
    let sa = broadcast_strides(a.shape(), &out_shape);
    let sb = broadcast_strides(b.shape(), &out_shape);
    let da = a.as_slice();
    let db = b.as_slice();
    let rank = out_shape.rank();
    let dims = Dims::from(out_shape.dims());
    let mut out = Tensor::unfilled(out_shape);
    // Odometer walk with incremental source offsets.
    let mut idx = [0usize; MAX_RANK];
    let mut oa = 0usize;
    let mut ob = 0usize;
    for slot in out.as_mut_slice().iter_mut() {
        *slot = f(da[oa], db[ob]);
        for axis in (0..rank).rev() {
            idx[axis] += 1;
            oa += sa[axis];
            ob += sb[axis];
            if idx[axis] < dims[axis] {
                break;
            }
            idx[axis] = 0;
            oa -= sa[axis] * dims[axis];
            ob -= sb[axis] * dims[axis];
        }
    }
    out
}

impl Tensor {
    /// Elementwise addition with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn add(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a + b, "add")
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a - b, "sub")
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a * b, "mul")
    }

    /// Elementwise division with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn div(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a / b, "div")
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, f32::max, "maximum")
    }

    /// Elementwise minimum with broadcasting.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, f32::min, "minimum")
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Subtracts a scalar from every element.
    pub fn sub_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v - s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Divides every element by a scalar.
    pub fn div_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v / s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Elementwise reciprocal.
    pub fn recip(&self) -> Tensor {
        self.map(|v| 1.0 / v)
    }

    /// Elementwise power with a scalar exponent.
    pub fn powf(&self, e: f32) -> Tensor {
        self.map(|v| v.powf(e))
    }

    /// Elementwise hyperbolic tangent: [`hfta_kernels::tanh`], the in-tree
    /// port of fdlibm's `tanhf`, so its bits do not depend on the host libm.
    pub fn tanh(&self) -> Tensor {
        let src = self.as_slice();
        let mut out = Tensor::unfilled(self.shape().clone());
        let grain = crate::tensor::ELEMWISE_GRAIN;
        hfta_kernels::for_each_chunk_mut(out.as_mut_slice(), grain, |start, chunk| {
            hfta_kernels::tanh(chunk, &src[start..start + chunk.len()])
        });
        out
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise rectified linear unit. NaN propagates (as in
    /// `torch.relu`): `f32::max` would return the non-NaN `0.0` and hide a
    /// diverging lane from the scope sentinels.
    pub fn relu(&self) -> Tensor {
        self.map(|v| if v <= 0.0 { 0.0 } else { v })
    }

    /// Elementwise leaky ReLU with the given negative slope.
    ///
    /// Both candidates are computed and one is selected, so the pass
    /// compiles to a vector blend instead of a branch that mispredicts on
    /// every sign change; the selected value is the same IEEE result the
    /// branch produced.
    pub fn leaky_relu(&self, negative_slope: f32) -> Tensor {
        self.map(|v| {
            let scaled = v * negative_slope;
            if v >= 0.0 {
                v
            } else {
                scaled
            }
        })
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Elementwise `1.0` where `self > other` (broadcasting), else `0.0`.
    pub fn gt_mask(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| if a > b { 1.0 } else { 0.0 }, "gt_mask")
    }

    /// Elementwise `1.0` where `self >= 0`, else `0.0`.
    pub fn nonneg_mask(&self) -> Tensor {
        self.map(|v| if v >= 0.0 { 1.0 } else { 0.0 })
    }

    /// In-place `self += other * alpha` (no broadcasting).
    ///
    /// The optimizer hot path: avoids allocating for every accumulation.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign_scaled shape mismatch"
        );
        let o = other.as_slice();
        hfta_kernels::for_each_chunk_mut(
            self.as_mut_slice(),
            crate::tensor::ELEMWISE_GRAIN,
            |start, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += o[start + j] * alpha;
                }
            },
        );
    }

    /// In-place elementwise `self = self * a + other * b` (no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn lerp_assign(&mut self, other: &Tensor, a: f32, b: f32) {
        assert_eq!(self.shape(), other.shape(), "lerp_assign shape mismatch");
        let o = other.as_slice();
        hfta_kernels::for_each_chunk_mut(
            self.as_mut_slice(),
            crate::tensor::ELEMWISE_GRAIN,
            |start, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = *v * a + o[start + j] * b;
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn broadcast_row_and_column() {
        let m = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(
            m.add(&row).to_vec(),
            vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
        let col = t(vec![100.0, 200.0], &[2, 1]);
        assert_eq!(
            m.add(&col).to_vec(),
            vec![101.0, 102.0, 103.0, 204.0, 205.0, 206.0]
        );
    }

    #[test]
    fn broadcast_scalar_fast_path() {
        let m = t(vec![1.0, 2.0], &[2]);
        assert_eq!(m.mul(&Tensor::scalar(3.0)).to_vec(), vec![3.0, 6.0]);
        assert_eq!(Tensor::scalar(10.0).sub(&m).to_vec(), vec![9.0, 8.0]);
    }

    #[test]
    fn broadcast_both_expand() {
        // [2,1] x [1,3] -> [2,3]
        let a = t(vec![1.0, 2.0], &[2, 1]);
        let b = t(vec![10.0, 20.0, 30.0], &[1, 3]);
        assert_eq!(a.mul(&b).to_vec(), vec![10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    fn broadcast_3d_middle_axis() {
        // [2,1,2] + [1,3,1] -> [2,3,2]
        let a = t(vec![0.0, 1.0, 10.0, 11.0], &[2, 1, 2]);
        let b = t(vec![100.0, 200.0, 300.0], &[1, 3, 1]);
        let c = a.add(&b);
        assert_eq!(c.dims(), &[2, 3, 2]);
        assert_eq!(c.at(&[0, 0, 0]), 100.0);
        assert_eq!(c.at(&[0, 2, 1]), 301.0);
        assert_eq!(c.at(&[1, 1, 0]), 210.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn incompatible_broadcast_panics() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn unary_ops() {
        let a = t(vec![-1.0, 0.0, 4.0], &[3]);
        assert_eq!(a.relu().to_vec(), vec![0.0, 0.0, 4.0]);
        assert_eq!(a.leaky_relu(0.5).to_vec(), vec![-0.5, 0.0, 4.0]);
        assert_eq!(a.abs().to_vec(), vec![1.0, 0.0, 4.0]);
        assert_eq!(a.neg().to_vec(), vec![1.0, 0.0, -4.0]);
        assert_eq!(a.square().to_vec(), vec![1.0, 0.0, 16.0]);
        assert_eq!(t(vec![4.0], &[1]).sqrt().to_vec(), vec![2.0]);
        assert_eq!(a.clamp(-0.5, 1.0).to_vec(), vec![-0.5, 0.0, 1.0]);
    }

    #[test]
    fn relu_propagates_nan_and_keeps_zero_signs() {
        let a = t(
            vec![f32::NAN, -0.0, 0.0, -f32::INFINITY, f32::INFINITY],
            &[5],
        );
        let r = a.relu().to_vec();
        assert!(r[0].is_nan(), "relu(NaN) must stay NaN, got {}", r[0]);
        // -0.0 <= 0.0, so it maps to +0.0 exactly as `max(0.0)` did.
        let bits: Vec<u32> = r[1..].iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0.0f32, 0.0, 0.0, f32::INFINITY].map(f32::to_bits));
    }

    #[test]
    fn sigmoid_and_tanh_at_zero() {
        let z = Tensor::zeros([1]);
        assert!((z.sigmoid().item() - 0.5).abs() < 1e-7);
        assert_eq!(z.tanh().item(), 0.0);
    }

    #[test]
    fn scalar_helpers() {
        let a = t(vec![2.0, 4.0], &[2]);
        assert_eq!(a.add_scalar(1.0).to_vec(), vec![3.0, 5.0]);
        assert_eq!(a.mul_scalar(0.5).to_vec(), vec![1.0, 2.0]);
        assert_eq!(a.div_scalar(2.0).to_vec(), vec![1.0, 2.0]);
        assert_eq!(a.sub_scalar(2.0).to_vec(), vec![0.0, 2.0]);
    }

    #[test]
    fn masks() {
        let a = t(vec![-1.0, 2.0], &[2]);
        assert_eq!(a.nonneg_mask().to_vec(), vec![0.0, 1.0]);
        assert_eq!(a.gt_mask(&Tensor::scalar(0.0)).to_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn inplace_accumulators() {
        let mut a = t(vec![1.0, 2.0], &[2]);
        a.add_assign_scaled(&t(vec![10.0, 10.0], &[2]), 0.5);
        assert_eq!(a.to_vec(), vec![6.0, 7.0]);
        a.lerp_assign(&t(vec![0.0, 0.0], &[2]), 0.5, 0.5);
        assert_eq!(a.to_vec(), vec![3.0, 3.5]);
    }

    #[test]
    fn maximum_minimum() {
        let a = t(vec![1.0, 5.0], &[2]);
        let b = t(vec![3.0, 2.0], &[2]);
        assert_eq!(a.maximum(&b).to_vec(), vec![3.0, 5.0]);
        assert_eq!(a.minimum(&b).to_vec(), vec![1.0, 2.0]);
    }
}
