//! Dense linear algebra: `matmul` and the batched `bmm`, `bmm_nt` and
//! `bmm_tn`.
//!
//! The horizontal fusion of `B` linear layers `y_b = x_b W_b + bias_b` is
//! one `bmm(x[B,N,F_x], w[B,F_x,F_y])` followed by a broadcast add of
//! `bias[B,1,F_y]`: the `baddbmm` of the paper's Table 6, which the autograd
//! layer runs as exactly those two ops, so the bias is added last.
//!
//! Every product here is one [`kernels::gemm_batched`] call: `B` entries on
//! one batch axis, and a single entry for `matmul` and the rank-2 forms of
//! `bmm_nt` / `bmm_tn`. The kernel layer's one shape-only rule decides how
//! a batch splits across threads, so results are bit-identical at any
//! thread count. The `_nt` / `_tn` forms read an operand transposed where
//! it lies (the GEMM's packing absorbs it) instead of copying it.

use crate::tensor::Tensor;
use hfta_kernels::{self as kernels, Axis, Out, PackA, PackB};

impl Tensor {
    /// 2-D matrix multiplication: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching inner dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.rank(), 2, "matmul rhs must be 2-D");
        self.product(other, "matmul", (false, false))
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
        self.product(other, "bmm", (false, false))
    }

    /// `self @ other` where `other` is transposed on its last two axes:
    /// `[B, m, k] x [B, n, k] -> [B, m, n]`, or `[m, k] x [n, k] -> [m, n]`
    /// without the batch axis. The transpose is never materialized.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 3-D (or both 2-D) with matching dims.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        self.product(other, "bmm_nt", (false, true))
    }

    /// `self^T @ other` batched: `[B, k, m] x [B, k, n] -> [B, m, n]`, or
    /// `[k, m] x [k, n] -> [m, n]` without the batch axis.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 3-D (or both 2-D) with matching dims.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        self.product(other, "bmm_tn", (true, false))
    }

    /// The one product behind the four above: operands of equal rank 2 or 3,
    /// each read transposed on its last two axes where flagged.
    fn product(&self, other: &Tensor, op: &str, (ta, tb): (bool, bool)) -> Tensor {
        let rank = self.rank();
        assert!(
            (rank == 2 || rank == 3) && other.rank() == rank,
            "{op} operands must both be 2-D or both 3-D: {} x {}",
            self.shape(),
            other.shape()
        );
        let matrix = |t: &Tensor, transposed: bool| {
            let (rows, cols) = (t.dim(rank - 2), t.dim(rank - 1));
            if transposed {
                (cols, rows)
            } else {
                (rows, cols)
            }
        };
        let ((m, k), (k2, n)) = (matrix(self, ta), matrix(other, tb));
        let count = if rank == 3 { self.dim(0) } else { 1 };
        assert!(
            count == other.dim(0) || rank == 2,
            "{op} batch dims mismatch: {} x {}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            k,
            k2,
            "{op} inner dims mismatch: {} x {}",
            self.shape(),
            other.shape()
        );
        let dims: &[usize] = if rank == 3 { &[count, m, n] } else { &[m, n] };
        let mut out = Tensor::unfilled(dims);
        let (lhs, rhs) = (self.as_slice(), other.as_slice());
        let a = if ta { PackA::T(lhs) } else { PackA::N(lhs) };
        let b = if tb { PackB::T(rhs) } else { PackB::N(rhs) };
        let entries = Axis {
            count,
            a: m * k,
            b: k * n,
            out: m * n,
        };
        let batch = [entries, Axis::ONE];
        kernels::gemm_batched(Out::Write(out.as_mut_slice()), a, b, (m, k, n), batch);
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
    fn bmm_nt_equals_bmm_of_transpose() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]);
        let b = Tensor::arange(24).reshape(&[2, 4, 3]);
        let direct = a.bmm_nt(&b);
        let via_transpose = a.bmm(&b.transpose(1, 2));
        assert_eq!(direct, via_transpose);
        // The rank-2 form is the one-entry case.
        let (a0, b0) = (
            a.narrow(0, 0, 1).reshape(&[2, 3]),
            b.narrow(0, 0, 1).reshape(&[4, 3]),
        );
        assert_eq!(a0.bmm_nt(&b0), a0.matmul(&b0.t()));
    }

    #[test]
    fn bmm_tn_equals_transpose_bmm() {
        let a = Tensor::arange(12).reshape(&[2, 3, 2]);
        let b = Tensor::arange(18).reshape(&[2, 3, 3]);
        let direct = a.bmm_tn(&b);
        let via_transpose = a.transpose(1, 2).bmm(&b);
        assert_eq!(direct, via_transpose);
        let (a0, b0) = (
            a.narrow(0, 0, 1).reshape(&[3, 2]),
            b.narrow(0, 0, 1).reshape(&[3, 3]),
        );
        assert_eq!(a0.bmm_tn(&b0), a0.t().matmul(&b0));
    }

    /// `[b, m, k] x [b, k, n]`: two shapes under the GEMM's small-shape
    /// threshold (4 kFLOP per entry), the fused PointNet fc1 (B = 8, batch
    /// 2), an odd shape, three at `b >= 4` and `2·b·m·k·n >= 2^20`, and one
    /// large single product.
    const BATCHED: [(usize, usize, usize, usize); 8] = [
        (8, 2, 16, 10),
        (3, 5, 7, 9),
        (8, 2, 64, 32),
        (3, 9, 33, 17),
        (6, 32, 96, 48),
        (4, 64, 64, 64),
        (16, 24, 40, 56),
        (1, 96, 64, 80),
    ];

    type RefGemm = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

    /// `f` once per batch entry, each from a zeroed `[m, n]` block.
    fn per_entry(f: RefGemm, (m, k, n): (usize, usize, usize), a: &Tensor, b: &Tensor) -> Vec<u32> {
        let mut out = vec![0.0f32; a.numel() / (m * k) * m * n];
        let entries = out
            .chunks_exact_mut(m * n)
            .zip(a.as_slice().chunks_exact(m * k))
            .zip(b.as_slice().chunks_exact(k * n));
        for ((o, a), b) in entries {
            f(o, a, b, m, k, n);
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn batched_products_are_the_per_entry_oracle_at_every_thread_count() {
        use hfta_kernels::reference;
        let ops = ["bmm", "bmm_nt", "bmm_tn", "matmul"];
        for (i, &(bsz, m, k, n)) in BATCHED.iter().enumerate() {
            let mut rng = crate::Rng::seed_from(i as u64);
            let (a, b) = (rng.randn([bsz, m, k]), rng.randn([bsz, k, n]));
            let (at, bt) = (a.transpose(1, 2), b.transpose(1, 2));
            let a2 = a.narrow(0, 0, 1).reshape(&[m, k]);
            let b2 = b.narrow(0, 0, 1).reshape(&[k, n]);
            let want = [
                per_entry(reference::gemm_ref, (m, k, n), &a, &b),
                per_entry(reference::gemm_nt_ref, (m, k, n), &a, &bt),
                per_entry(reference::gemm_tn_ref, (m, k, n), &at, &b),
                per_entry(reference::gemm_ref, (m, k, n), &a2, &b2),
            ];
            crate::thread_counts::each(|threads| {
                let got = [a.bmm(&b), a.bmm_nt(&bt), at.bmm_tn(&b), a2.matmul(&b2)];
                for (op, (got, want)) in ops.iter().zip(got.iter().zip(&want)) {
                    let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert!(&got == want, "{op} at {bsz}x{m}x{k}x{n}, {threads} threads");
                }
            });
        }
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], [3]);
        assert_eq!(a.dot(&b), 32.0);
    }
}
