//! Dense linear algebra: `matmul`, batched `bmm`, and `baddbmm`.
//!
//! `baddbmm` is load-bearing for HFTA: the horizontal fusion of `B` linear
//! layers `y_b = x_b W_b + bias_b` is exactly one
//! `baddbmm(bias[B,1,F_y], x[B,N,F_x], w[B,F_x,F_y])` (Table 6 of the paper).
//!
//! All products execute on the blocked, register-tiled kernels of
//! `hfta-kernels`; the batched variants additionally parallelize across the
//! `B` (fused-model) batch dimension when there are at least as many
//! batches as pool threads. Chunk decomposition follows the kernel layer's
//! determinism contract, so results are bit-identical at any thread count.

use crate::elementwise::broadcast_strides;
use crate::shape::Shape;
use crate::tensor::Tensor;
use hfta_kernels::{self as kernels, UnsafeSlice};

/// Below this many total FLOPs a batched product just loops serially (the
/// per-batch kernels may still parallelize internally when large).
const BATCH_PAR_MIN_FLOPS: usize = 1 << 20;

type GemmFn = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

/// Runs `kernel` over `bsz` independent `[m,n] += f(a_i, b_i)` blocks,
/// accumulating into `out`. Parallelizes across batches when that beats the
/// kernels' internal row parallelism; either path is bit-identical.
#[allow(clippy::too_many_arguments)]
fn batched_gemm(
    out: &mut [f32],
    da: &[f32],
    db: &[f32],
    bsz: usize,
    m: usize,
    k: usize,
    n: usize,
    a_stride: usize,
    b_stride: usize,
    kernel: GemmFn,
) {
    let block = m * n;
    let threads = kernels::num_threads();
    let batch_parallel =
        bsz > 1 && threads > 1 && bsz >= threads && 2 * m * k * n * bsz >= BATCH_PAR_MIN_FLOPS;
    if !batch_parallel {
        for i in 0..bsz {
            kernel(
                &mut out[i * block..(i + 1) * block],
                &da[i * a_stride..(i + 1) * a_stride],
                &db[i * b_stride..(i + 1) * b_stride],
                m,
                k,
                n,
            );
        }
        return;
    }
    let shared = UnsafeSlice::new(out);
    kernels::parallel_for_work(bsz, 1, 2 * m * k * n * bsz, |range| {
        for i in range {
            // SAFETY: each batch writes its own disjoint output block.
            let ob = unsafe { shared.slice_mut(i * block..(i + 1) * block) };
            kernel(
                ob,
                &da[i * a_stride..(i + 1) * a_stride],
                &db[i * b_stride..(i + 1) * b_stride],
                m,
                k,
                n,
            );
        }
    });
}

/// Fills `out` (shaped `out_shape`) with `src` broadcast across it.
fn broadcast_fill(out: &mut [f32], src: &Tensor, out_shape: &Shape) {
    if src.shape() == out_shape {
        out.copy_from_slice(src.as_slice());
        return;
    }
    if src.numel() == 1 {
        out.fill(src.as_slice()[0]);
        return;
    }
    assert!(
        src.shape().broadcasts_to(out_shape),
        "baddbmm bias {} does not broadcast to {}",
        src.shape(),
        out_shape
    );
    let strides = broadcast_strides(src.shape(), out_shape);
    let data = src.as_slice();
    let rank = out_shape.rank();
    let dims = out_shape.dims().to_vec();
    let mut idx = vec![0usize; rank];
    let mut offset = 0usize;
    for slot in out.iter_mut() {
        *slot = data[offset];
        for axis in (0..rank).rev() {
            idx[axis] += 1;
            offset += strides[axis];
            if idx[axis] < dims[axis] {
                break;
            }
            idx[axis] = 0;
            offset -= strides[axis] * dims[axis];
        }
    }
}

impl Tensor {
    /// 2-D matrix multiplication: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching inner dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.rank(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(
            k, k2,
            "matmul inner dims mismatch: [{m}, {k}] x [{k2}, {n}]"
        );
        let mut out = Tensor::zeros([m, n]);
        kernels::gemm(
            out.as_mut_slice(),
            self.as_slice(),
            other.as_slice(),
            m,
            k,
            n,
        );
        out
    }

    /// Batched matrix multiplication: `[B, m, k] x [B, k, n] -> [B, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 3-D with matching batch and inner
    /// dimensions.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm lhs must be 3-D");
        assert_eq!(other.rank(), 3, "bmm rhs must be 3-D");
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
        assert_eq!(b, b2, "bmm batch dims mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm inner dims mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros([b, m, n]);
        batched_gemm(
            out.as_mut_slice(),
            self.as_slice(),
            other.as_slice(),
            b,
            m,
            k,
            n,
            m * k,
            k * n,
            kernels::gemm,
        );
        out
    }

    /// Batched `bias + self @ other` with a broadcastable bias
    /// (`torch.baddbmm` semantics with `beta = alpha = 1`).
    ///
    /// `bias` must broadcast to `[B, m, n]` (typically `[B, 1, n]`). The
    /// output buffer is seeded with the broadcast bias and the product
    /// accumulates into it — one pass, no intermediate `bmm` result.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn baddbmm(&self, other: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "baddbmm lhs must be 3-D");
        assert_eq!(other.rank(), 3, "baddbmm rhs must be 3-D");
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
        assert_eq!(b, b2, "baddbmm batch dims mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "baddbmm inner dims mismatch: {k} vs {k2}");
        let out_shape = Shape::new(vec![b, m, n]);
        let mut out = Tensor::zeros(out_shape.clone());
        broadcast_fill(out.as_mut_slice(), bias, &out_shape);
        batched_gemm(
            out.as_mut_slice(),
            self.as_slice(),
            other.as_slice(),
            b,
            m,
            k,
            n,
            m * k,
            k * n,
            kernels::gemm,
        );
        out
    }

    /// `self @ other` where `other` is transposed on its last two axes:
    /// `[B, m, k] x [B, n, k] -> [B, m, n]`. Avoids materializing the
    /// transpose in backward passes.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 3-D with matching dims.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_nt lhs must be 3-D");
        assert_eq!(other.rank(), 3, "bmm_nt rhs must be 3-D");
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, n, k2) = (other.dim(0), other.dim(1), other.dim(2));
        assert_eq!(b, b2, "bmm_nt batch dims mismatch");
        assert_eq!(k, k2, "bmm_nt inner dims mismatch");
        let mut out = Tensor::zeros([b, m, n]);
        batched_gemm(
            out.as_mut_slice(),
            self.as_slice(),
            other.as_slice(),
            b,
            m,
            k,
            n,
            m * k,
            n * k,
            kernels::gemm_nt,
        );
        out
    }

    /// `self^T @ other` batched: `[B, k, m] x [B, k, n] -> [B, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 3-D with matching dims.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_tn lhs must be 3-D");
        assert_eq!(other.rank(), 3, "bmm_tn rhs must be 3-D");
        let (b, k, m) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
        assert_eq!(b, b2, "bmm_tn batch dims mismatch");
        assert_eq!(k, k2, "bmm_tn inner dims mismatch");
        let mut out = Tensor::zeros([b, m, n]);
        batched_gemm(
            out.as_mut_slice(),
            self.as_slice(),
            other.as_slice(),
            b,
            m,
            k,
            n,
            k * m,
            k * n,
            kernels::gemm_tn,
        );
        out
    }

    /// Dot product of two 1-D tensors.
    ///
    /// # Panics
    ///
    /// Panics unless both are 1-D with equal length.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot lhs must be 1-D");
        assert_eq!(other.rank(), 1, "dot rhs must be 1-D");
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::arange(6).reshape(&[3, 2]); // [[0,1],[2,3],[4,5]]
        let b = Tensor::arange(2).reshape(&[2, 1]); // [[0],[1]]
        assert_eq!(a.matmul(&b).to_vec(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_dim_check() {
        let _ = Tensor::zeros([2, 3]).matmul(&Tensor::zeros([2, 3]));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]);
        let b = Tensor::arange(18).reshape(&[2, 3, 3]);
        let c = a.bmm(&b);
        for i in 0..2 {
            let ai = a.narrow(0, i, 1).reshape(&[2, 3]);
            let bi = b.narrow(0, i, 1).reshape(&[3, 3]);
            let ci = c.narrow(0, i, 1).reshape(&[2, 3]);
            assert_eq!(ai.matmul(&bi), ci);
        }
    }

    #[test]
    fn baddbmm_broadcasts_bias() {
        let x = Tensor::ones([2, 3, 4]);
        let w = Tensor::ones([2, 4, 5]);
        let bias = Tensor::from_vec((0..10).map(|i| i as f32).collect(), [2, 1, 5]);
        let y = x.baddbmm(&w, &bias);
        assert_eq!(y.dims(), &[2, 3, 5]);
        // Each product element is 4 (sum of ones over k=4) plus the bias.
        assert_eq!(y.at(&[0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 2, 3]), 7.0);
        assert_eq!(y.at(&[1, 1, 4]), 13.0);
    }

    #[test]
    fn baddbmm_single_pass_equals_bmm_plus_add() {
        let x = Tensor::arange(24).reshape(&[2, 3, 4]).mul_scalar(0.1);
        let w = Tensor::arange(40).reshape(&[2, 4, 5]).mul_scalar(0.05);
        for bias_dims in [vec![2, 1, 5], vec![1], vec![2, 3, 5], vec![5]] {
            let numel: usize = bias_dims.iter().product();
            let bias = Tensor::arange(numel).reshape(&bias_dims).mul_scalar(0.3);
            let fused = x.baddbmm(&w, &bias);
            let two_pass = bias.add(&x.bmm(&w));
            assert!(fused.allclose(&two_pass, 1e-5), "bias dims {bias_dims:?}");
        }
    }

    #[test]
    fn bmm_nt_equals_bmm_of_transpose() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]);
        let b = Tensor::arange(24).reshape(&[2, 4, 3]);
        let direct = a.bmm_nt(&b);
        let via_transpose = a.bmm(&b.transpose(1, 2));
        assert!(direct.allclose(&via_transpose, 1e-6));
    }

    #[test]
    fn bmm_tn_equals_transpose_bmm() {
        let a = Tensor::arange(12).reshape(&[2, 3, 2]);
        let b = Tensor::arange(18).reshape(&[2, 3, 3]);
        let direct = a.bmm_tn(&b);
        let via_transpose = a.transpose(1, 2).bmm(&b);
        assert!(direct.allclose(&via_transpose, 1e-6));
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], [3]);
        assert_eq!(a.dot(&b), 32.0);
    }
}
