//! Layout transforms: reshape, permute, concatenation, slicing, padding.
//!
//! All transforms materialize new contiguous storage; a transform that
//! writes every output element starts from unfilled storage.

use crate::shape::Dims;
use crate::tensor::Tensor;

impl Tensor {
    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let numel: usize = dims.iter().product();
        assert_eq!(
            numel,
            self.numel(),
            "cannot reshape {} elements into {:?}",
            self.numel(),
            dims
        );
        self.copy_with_shape(dims)
    }

    /// Flattens into a 1-D tensor.
    pub fn flatten(&self) -> Tensor {
        self.reshape(&[self.numel()])
    }

    /// Flattens all dimensions from `start_axis` onward into one.
    ///
    /// # Panics
    ///
    /// Panics if `start_axis >= rank`.
    pub fn flatten_from(&self, start_axis: usize) -> Tensor {
        assert!(start_axis < self.rank(), "flatten_from axis out of range");
        let mut dims = Dims::from(&self.dims()[..=start_axis]);
        dims[start_axis] = self.dims()[start_axis..].iter().product();
        self.reshape(&dims)
    }

    /// Inserts a size-1 axis at `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis > rank`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        assert!(axis <= self.rank(), "unsqueeze axis out of range");
        let mut dims = Dims::from(self.dims());
        dims.insert(axis, 1);
        self.reshape(&dims)
    }

    /// Removes a size-1 axis at `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is out of range or not of size 1.
    pub fn squeeze(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "squeeze axis out of range");
        assert_eq!(self.dim(axis), 1, "squeeze axis must have size 1");
        let mut dims = Dims::from(self.dims());
        dims.remove(axis);
        self.reshape(&dims)
    }

    /// Permutes axes into the given order, materializing the result.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..rank`.
    pub fn permute(&self, order: &[usize]) -> Tensor {
        assert_eq!(order.len(), self.rank(), "permute rank mismatch");
        let mut seen = [false; crate::MAX_RANK];
        for &a in order {
            assert!(a < self.rank() && !seen[a], "permute order invalid");
            seen[a] = true;
        }
        let src_dims = self.dims();
        let new_dims: Dims = order.iter().map(|&a| src_dims[a]).collect();
        let src_strides = self.shape().strides();
        // stride of output axis i in the source layout
        let walk_strides: Dims = order.iter().map(|&a| src_strides[a]).collect();
        let (Some((&run, outer_dims)), Some((&step, outer_strides))) =
            (new_dims.split_last(), walk_strides.split_last())
        else {
            return self.clone();
        };
        let mut out_t = Tensor::unfilled(new_dims);
        let src = self.as_slice();
        // Each innermost output run is one strided read of the source.
        for (o, out) in out_t.as_mut_slice().chunks_mut(run.max(1)).enumerate() {
            let (mut rest, mut at) = (o, 0);
            for (&d, &stride) in outer_dims.iter().zip(outer_strides).rev() {
                at += rest % d * stride;
                rest /= d;
            }
            let src = &src[at..at + (out.len() - 1) * step + 1];
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = src[t * step];
            }
        }
        out_t
    }

    /// Swaps two axes.
    ///
    /// # Panics
    ///
    /// Panics if either axis is out of range.
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        let mut order: Dims = (0..self.rank()).collect();
        order.swap(a, b);
        self.permute(&order)
    }

    /// Matrix transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "t() requires a 2-D tensor");
        self.transpose(0, 1)
    }

    /// Concatenates tensors along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty, ranks differ, or non-`axis` dims differ.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = tensors[0];
        assert!(axis < first.rank(), "concat axis out of range");
        for t in tensors {
            assert_eq!(t.rank(), first.rank(), "concat rank mismatch");
            for d in 0..first.rank() {
                if d != axis {
                    assert_eq!(t.dim(d), first.dim(d), "concat dim {d} mismatch");
                }
            }
        }
        let (outer, inner) = first.split_at_axis(axis);
        let total_axis: usize = tensors.iter().map(|t| t.dim(axis)).sum();
        let mut dims = Dims::from(first.dims());
        dims[axis] = total_axis;
        let mut out_t = Tensor::unfilled(dims);
        let out = out_t.as_mut_slice();
        let mut axis_off = 0usize;
        for t in tensors {
            let n = t.dim(axis);
            let src = t.as_slice();
            for o in 0..outer {
                let dst_base = (o * total_axis + axis_off) * inner;
                let src_base = o * n * inner;
                out[dst_base..dst_base + n * inner]
                    .copy_from_slice(&src[src_base..src_base + n * inner]);
            }
            axis_off += n;
        }
        out_t
    }

    /// Splits into `chunks` equal parts along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis size is not divisible by `chunks`.
    pub fn chunk(&self, chunks: usize, axis: usize) -> Vec<Tensor> {
        assert!(chunks > 0, "chunk count must be positive");
        let n = self.dim(axis);
        assert_eq!(
            n % chunks,
            0,
            "axis {axis} size {n} not divisible by {chunks}"
        );
        let each = n / chunks;
        (0..chunks)
            .map(|c| self.narrow(axis, c * each, each))
            .collect()
    }

    /// Slice of `len` elements starting at `start` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the axis bounds.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(axis < self.rank(), "narrow axis out of range");
        let n = self.dim(axis);
        assert!(
            start + len <= n,
            "narrow window [{start}, {start}+{len}) out of bounds for axis size {n}"
        );
        let (outer, inner) = self.split_at_axis(axis);
        let src = self.as_slice();
        let mut dims = Dims::from(self.dims());
        dims[axis] = len;
        let mut out_t = Tensor::unfilled(dims);
        let out = out_t.as_mut_slice();
        for o in 0..outer {
            let src_base = (o * n + start) * inner;
            let dst_base = o * len * inner;
            out[dst_base..dst_base + len * inner]
                .copy_from_slice(&src[src_base..src_base + len * inner]);
        }
        out_t
    }

    /// Writes `src` into the window of `len = src.dim(axis)` elements
    /// starting at `start` along `axis` — the scatter counterpart of
    /// [`Tensor::narrow`], used when unfusing gradients back to models.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or the window is out of bounds.
    pub fn narrow_assign(&mut self, axis: usize, start: usize, src: &Tensor) {
        self.window_runs(axis, start, src, |dst, src| dst.copy_from_slice(src));
    }

    /// Adds `src` into the window of `len = src.dim(axis)` elements starting
    /// at `start` along `axis`, in place: `self[i] + src[i]` for every
    /// element of the window, and nothing outside it.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or the window is out of bounds.
    pub fn narrow_add_assign(&mut self, axis: usize, start: usize, src: &Tensor) {
        self.window_runs(axis, start, src, |dst, src| {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        });
    }

    /// Hands `f` each contiguous run of the window `src` covers, paired
    /// with the run of `src` that lands there.
    fn window_runs(
        &mut self,
        axis: usize,
        start: usize,
        src: &Tensor,
        mut f: impl FnMut(&mut [f32], &[f32]),
    ) {
        assert!(axis < self.rank(), "narrow_assign axis out of range");
        assert_eq!(src.rank(), self.rank(), "narrow_assign rank mismatch");
        let len = src.dim(axis);
        let n = self.dim(axis);
        assert!(start + len <= n, "narrow_assign window out of bounds");
        for d in 0..self.rank() {
            if d != axis {
                assert_eq!(self.dim(d), src.dim(d), "narrow_assign dim {d} mismatch");
            }
        }
        let (outer, inner) = self.split_at_axis(axis);
        let s = src.as_slice();
        let dst = self.as_mut_slice();
        for o in 0..outer {
            let dst_base = (o * n + start) * inner;
            let src_base = o * len * inner;
            f(
                &mut dst[dst_base..dst_base + len * inner],
                &s[src_base..src_base + len * inner],
            );
        }
    }

    /// Selects rows along `axis` by index.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Tensor {
        assert!(axis < self.rank(), "index_select axis out of range");
        let n = self.dim(axis);
        let (outer, inner) = self.split_at_axis(axis);
        let src = self.as_slice();
        let mut dims = Dims::from(self.dims());
        dims[axis] = indices.len();
        let mut out_t = Tensor::unfilled(dims);
        let out = out_t.as_mut_slice();
        for o in 0..outer {
            for (j, &ix) in indices.iter().enumerate() {
                assert!(ix < n, "index {ix} out of range for axis size {n}");
                let src_base = (o * n + ix) * inner;
                let dst_base = (o * indices.len() + j) * inner;
                out[dst_base..dst_base + inner].copy_from_slice(&src[src_base..src_base + inner]);
            }
        }
        out_t
    }

    /// Repeats each element along `axis` `repeats` times
    /// (`torch.repeat_interleave` semantics).
    ///
    /// Used to broadcast per-model optimizer hyper-parameters over fused
    /// parameter tensors of shape `[B * C, ...]`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or `repeats == 0`.
    pub fn repeat_interleave(&self, repeats: usize, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "repeat_interleave axis out of range");
        assert!(repeats > 0, "repeats must be positive");
        let indices: Vec<usize> = (0..self.dim(axis))
            .flat_map(|i| std::iter::repeat_n(i, repeats))
            .collect();
        self.index_select(axis, &indices)
    }

    /// Tiles the whole tensor `repeats` times along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or `repeats == 0`.
    pub fn tile(&self, repeats: usize, axis: usize) -> Tensor {
        assert!(repeats > 0, "repeats must be positive");
        let copies: Vec<&Tensor> = std::iter::repeat_n(self, repeats).collect();
        Tensor::concat(&copies, axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_and_flatten() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.flatten().dims(), &[6]);
        assert_eq!(t.flatten_from(1).dims(), &[2, 3]);
        let t4 = Tensor::arange(24).reshape(&[2, 3, 2, 2]);
        assert_eq!(t4.flatten_from(1).dims(), &[2, 12]);
    }

    #[test]
    fn squeeze_unsqueeze_round_trip() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let u = t.unsqueeze(1);
        assert_eq!(u.dims(), &[2, 1, 3]);
        assert_eq!(u.squeeze(1).dims(), &[2, 3]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.t();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Involution.
        assert_eq!(tt.t(), t);
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(p.at(&[c, a, b]), t.at(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "permute order invalid")]
    fn permute_rejects_duplicates() {
        Tensor::zeros([2, 2]).permute(&[0, 0]);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn chunk_then_concat_round_trip() {
        let t = Tensor::arange(12).reshape(&[2, 6]);
        let parts = t.chunk(3, 1);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].dims(), &[2, 2]);
        let refs: Vec<&Tensor> = parts.iter().collect();
        assert_eq!(Tensor::concat(&refs, 1), t);
    }

    #[test]
    fn narrow_middle_axis() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.dims(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(n.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn narrow_assign_is_inverse_of_narrow() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        let mut z = Tensor::zeros([3, 4]);
        z.narrow_assign(0, 1, &t.narrow(0, 1, 1));
        assert_eq!(z.at(&[1, 2]), t.at(&[1, 2]));
        assert_eq!(z.at(&[0, 0]), 0.0);
    }

    #[test]
    fn index_select_rows() {
        let t = Tensor::arange(6).reshape(&[3, 2]);
        let s = t.index_select(0, &[2, 0]);
        assert_eq!(s.to_vec(), vec![4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn repeat_interleave_vs_tile() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(
            t.repeat_interleave(3, 0).to_vec(),
            vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
        assert_eq!(t.tile(3, 0).to_vec(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn narrow_add_assign_adds_inside_the_window_only() {
        let mut t = Tensor::full([2, 3, 2], -0.0);
        t.narrow_add_assign(1, 1, &Tensor::full([2, 1, 2], 0.0));
        t.narrow_add_assign(1, 2, &Tensor::full([2, 1, 2], 2.5));
        let bits: Vec<u32> = (0..3).map(|i| t.at(&[1, i, 1]).to_bits()).collect();
        assert_eq!(
            bits,
            [(-0.0f32).to_bits(), 0.0f32.to_bits(), 2.5f32.to_bits()]
        );
    }
}
