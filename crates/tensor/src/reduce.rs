//! Reductions: sums, means, maxima and the broadcast adjoint `sum_to`.

use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements, as a scalar tensor.
    pub fn sum(&self) -> Tensor {
        Tensor::scalar(self.as_slice().iter().sum())
    }

    /// Mean of all elements, as a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> Tensor {
        assert!(self.numel() > 0, "mean of empty tensor");
        Tensor::scalar(self.as_slice().iter().sum::<f32>() / self.numel() as f32)
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max_value(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min_value(&self) -> f32 {
        assert!(self.numel() > 0, "min of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Sums along `axis`.
    ///
    /// With `keep_dim` the reduced axis stays as size 1; otherwise it is
    /// removed.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize, keep_dim: bool) -> Tensor {
        self.reduce_axis(axis, keep_dim, 0.0, |acc, v| acc + v)
    }

    /// Means along `axis` (see [`Tensor::sum_axis`] for `keep_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or has size 0.
    pub fn mean_axis(&self, axis: usize, keep_dim: bool) -> Tensor {
        let n = self.dim(axis);
        assert!(n > 0, "mean over empty axis");
        self.sum_axis(axis, keep_dim).div_scalar(n as f32)
    }

    /// Maxima along `axis` (see [`Tensor::sum_axis`] for `keep_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or has size 0.
    pub fn max_axis(&self, axis: usize, keep_dim: bool) -> Tensor {
        assert!(self.dim(axis) > 0, "max over empty axis");
        self.reduce_axis(axis, keep_dim, f32::NEG_INFINITY, f32::max)
    }

    /// Indices of the maxima along `axis` (as `f32` values; axis removed).
    ///
    /// Ties resolve to the first occurrence, matching `torch.argmax`
    /// semantics on CPU.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or has size 0.
    pub fn argmax_axis(&self, axis: usize) -> Tensor {
        self.shape().check_axis(axis).expect("argmax axis");
        let n = self.dim(axis);
        assert!(n > 0, "argmax over empty axis");
        let (outer, inner) = self.split_at_axis(axis);
        let data = self.as_slice();
        let mut dims = self.dims().to_vec();
        dims.remove(axis);
        let mut out_t = Tensor::zeros(dims);
        let out = out_t.as_mut_slice();
        for o in 0..outer {
            for i in 0..inner {
                let mut best = f32::NEG_INFINITY;
                let mut best_k = 0usize;
                for k in 0..n {
                    let v = data[(o * n + k) * inner + i];
                    if v > best {
                        best = v;
                        best_k = k;
                    }
                }
                out[o * inner + i] = best_k as f32;
            }
        }
        out_t
    }

    /// Max along `axis` together with the argmax indices (both keep the
    /// reduced axis removed). Used by max-pool-style backward passes.
    ///
    /// Each output scans its candidates in ascending order from `-inf` and
    /// a strictly greater value takes over, so the first maximum wins and
    /// NaN never does (an all-NaN or all-`-inf` line gives `-inf` at index
    /// 0). The take-over is a select, not a branch; with contiguous lines
    /// (`axis` last) several lines' scans advance together.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or has size 0.
    pub fn max_axis_with_indices(&self, axis: usize) -> (Tensor, Vec<usize>) {
        /// Lines whose scans advance together when each is contiguous.
        const LINES: usize = 8;
        self.shape().check_axis(axis).expect("max axis");
        let n = self.dim(axis);
        assert!(n > 0, "max over empty axis");
        let (outer, inner) = self.split_at_axis(axis);
        let data = self.as_slice();
        let mut dims = self.dims().to_vec();
        dims.remove(axis);
        let mut out_t = Tensor::unfilled(dims);
        let out = out_t.as_mut_slice();
        let mut idx = vec![0usize; outer * inner];
        if inner == 1 {
            for (o0, (best_out, idx_out)) in out
                .chunks_mut(LINES)
                .zip(idx.chunks_mut(LINES))
                .enumerate()
                .map(|(b, pair)| (b * LINES, pair))
            {
                // A short last block repeats its last line in the spare
                // lanes and drops their results.
                let last = o0 + best_out.len() - 1;
                let lines: [&[f32]; LINES] =
                    std::array::from_fn(|j| &data[(o0 + j).min(last) * n..][..n]);
                let mut best = [f32::NEG_INFINITY; LINES];
                let mut at = [0usize; LINES];
                for k in 0..n {
                    for ((b, a), line) in best.iter_mut().zip(&mut at).zip(&lines) {
                        let v = line[k];
                        let gt = v > *b;
                        *b = if gt { v } else { *b };
                        *a = if gt { k } else { *a };
                    }
                }
                best_out.copy_from_slice(&best[..best_out.len()]);
                idx_out.copy_from_slice(&at[..idx_out.len()]);
            }
        } else if inner > 0 {
            for ((best, at), lines) in out
                .chunks_mut(inner)
                .zip(idx.chunks_mut(inner))
                .zip(data.chunks(n * inner))
            {
                best.fill(f32::NEG_INFINITY);
                for (k, line) in lines.chunks(inner).enumerate() {
                    for ((b, a), &v) in best.iter_mut().zip(at.iter_mut()).zip(line) {
                        let gt = v > *b;
                        *b = if gt { v } else { *b };
                        *a = if gt { k } else { *a };
                    }
                }
            }
        }
        (out_t, idx)
    }

    /// Reduces this tensor down to `target` shape by summing over broadcast
    /// axes — the adjoint of broadcasting, used in autograd backward passes.
    ///
    /// # Panics
    ///
    /// Panics if `target` does not broadcast to `self.shape()`.
    pub fn sum_to(&self, target: &Shape) -> Tensor {
        if self.shape() == target {
            return self.clone();
        }
        assert!(
            target.broadcasts_to(self.shape()),
            "sum_to target {} does not broadcast to {}",
            target,
            self.shape()
        );
        let mut t = self.clone();
        // Reduce leading extra axes.
        while t.rank() > target.rank() {
            t = t.sum_axis(0, false);
        }
        // Reduce size-1 target axes.
        for axis in 0..target.rank() {
            if target.dim(axis) == 1 && t.dim(axis) != 1 {
                t = t.sum_axis(axis, true);
            }
        }
        if t.shape() != target {
            // target may be rank-0 scalar after reductions
            t = t.reshape(target.dims());
        }
        t
    }

    /// (product of dims before `axis`, product of dims after `axis`).
    pub(crate) fn split_at_axis(&self, axis: usize) -> (usize, usize) {
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        (outer, inner)
    }

    fn reduce_axis(
        &self,
        axis: usize,
        keep_dim: bool,
        init: f32,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Tensor {
        self.shape().check_axis(axis).expect("reduce axis");
        let n = self.dim(axis);
        let (_, inner) = self.split_at_axis(axis);
        let data = self.as_slice();
        let mut dims = self.dims().to_vec();
        if keep_dim {
            dims[axis] = 1;
        } else {
            dims.remove(axis);
        }
        let mut out_t = Tensor::full(dims, init);
        let out = out_t.as_mut_slice();
        if inner > 0 {
            // Parallel chunks cover whole outer slices, so each output
            // element's reduction (ascending k) stays on one thread and the
            // result is bit-identical at any thread count.
            let grain_outer = (crate::tensor::ELEMWISE_GRAIN / (n * inner).max(1)).max(1);
            hfta_kernels::for_each_chunk_mut(out, grain_outer * inner, |start, chunk| {
                for (rel, orow) in chunk.chunks_mut(inner).enumerate() {
                    let o = start / inner + rel;
                    for k in 0..n {
                        let base = (o * n + k) * inner;
                        for (i, slot) in orow.iter_mut().enumerate() {
                            *slot = f(*slot, data[base + i]);
                        }
                    }
                }
            });
        }
        out_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3])
    }

    #[test]
    fn global_reductions() {
        assert_eq!(m23().sum().item(), 21.0);
        assert_eq!(m23().mean().item(), 3.5);
        assert_eq!(m23().max_value(), 6.0);
        assert_eq!(m23().min_value(), 1.0);
    }

    #[test]
    fn sum_axis_both_axes() {
        let s0 = m23().sum_axis(0, false);
        assert_eq!(s0.dims(), &[3]);
        assert_eq!(s0.to_vec(), vec![5.0, 7.0, 9.0]);
        let s1 = m23().sum_axis(1, true);
        assert_eq!(s1.dims(), &[2, 1]);
        assert_eq!(s1.to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn mean_and_max_axis() {
        assert_eq!(m23().mean_axis(1, false).to_vec(), vec![2.0, 5.0]);
        assert_eq!(m23().max_axis(0, false).to_vec(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn argmax_first_tie_wins() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0], [1, 4]);
        assert_eq!(t.argmax_axis(1).to_vec(), vec![1.0]);
        let t2 = Tensor::from_vec(vec![5.0, 1.0, 2.0, 9.0], [2, 2]);
        assert_eq!(t2.argmax_axis(1).to_vec(), vec![0.0, 1.0]);
        assert_eq!(t2.argmax_axis(0).to_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn max_with_indices_matches_argmax() {
        let t = Tensor::from_vec(vec![1.0, 7.0, 4.0, 2.0, 0.0, 3.0], [2, 3]);
        let (m, idx) = t.max_axis_with_indices(1);
        assert_eq!(m.to_vec(), vec![7.0, 3.0]);
        assert_eq!(idx, vec![1, 2]);
    }

    #[test]
    fn sum_to_undoes_broadcast() {
        // Broadcasting [3] across [2,3] then summing back.
        let g = Tensor::ones([2, 3]);
        let reduced = g.sum_to(&Shape::new(vec![3]));
        assert_eq!(reduced.to_vec(), vec![2.0, 2.0, 2.0]);
        let reduced2 = g.sum_to(&Shape::new(vec![2, 1]));
        assert_eq!(reduced2.to_vec(), vec![3.0, 3.0]);
        let reduced3 = g.sum_to(&Shape::scalar());
        assert_eq!(reduced3.item(), 6.0);
    }

    #[test]
    fn sum_to_identity_when_same_shape() {
        let t = m23();
        assert_eq!(t.sum_to(&t.shape().clone()), t);
    }

    #[test]
    fn middle_axis_reduction() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let s = t.sum_axis(1, false);
        assert_eq!(s.dims(), &[2, 4]);
        // First outer block: rows [0..4],[4..8],[8..12] summed columnwise.
        assert_eq!(s.at(&[0, 0]), 0.0 + 4.0 + 8.0);
        assert_eq!(s.at(&[1, 3]), 15.0 + 19.0 + 23.0);
    }
}
