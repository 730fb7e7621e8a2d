//! Retained naive reference GEMMs — the oracle of the one GEMM contract.
//!
//! These are the semantic ground truth every kernel in [`crate::gemm`] is
//! property-tested against: each output element is `acc = fma(a[i,p],
//! b[p,j], acc)` for `p` **ascending from its initial value, one rounding
//! per step** ([`f32::mul_add`], IEEE-754 fusedMultiplyAdd). FMA is
//! correctly rounded wherever it runs — a `vfmadd` lane, an aarch64
//! `fmadd`, libm's `fmaf` on the portable x86-64 baseline — so any kernel
//! that keeps this chain per element is bit-identical to these loops (not
//! merely close), on every machine. Keeping the reference alive also gives
//! the benches a faithful "pre-kernel-layer" serial baseline.
//!
//! The loops are `#[inline(always)]` so [`crate::simd`] can instantiate the
//! same bodies with AVX2/FMA enabled for the small-shape production path;
//! called directly (the `Naive` backend, the tests) they compile for the
//! portable baseline.

/// `out[m,n] += a[m,k] @ b[k,n]`, all row-major.
#[inline(always)]
pub fn gemm_ref(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov = av.mul_add(bv, *ov);
            }
        }
    }
}

/// `out[m,n] += a[m,k] @ b[n,k]^T` (`b` stored row-major as `[n, k]`).
#[inline(always)]
pub fn gemm_nt_ref(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (c, ov) in orow.iter_mut().enumerate() {
                *ov = av.mul_add(b[c * k + p], *ov);
            }
        }
    }
}

/// `out[m,n] += a[k,m]^T @ b[k,n]` (`a` stored row-major as `[k, m]`).
#[inline(always)]
pub fn gemm_tn_ref(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (r, &av) in arow.iter().enumerate() {
            let orow = &mut out[r * n..(r + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov = av.mul_add(bv, *ov);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_known_product() {
        // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        gemm_ref(&mut out, &a, &b, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transposed_variants_agree() {
        let m = 3;
        let k = 4;
        let n = 2;
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * 0.5 - 2.0).collect();
        let mut base = vec![0.0f32; m * n];
        gemm_ref(&mut base, &a, &b, m, k, n);
        // a transposed into [k, m].
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut out_tn = vec![0.0f32; m * n];
        gemm_tn_ref(&mut out_tn, &at, &b, m, k, n);
        for (x, y) in base.iter().zip(&out_tn) {
            assert!((x - y).abs() < 1e-6);
        }
        // b transposed into [n, k].
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for c in 0..n {
                bt[c * k + p] = b[p * n + c];
            }
        }
        let mut out_nt = vec![0.0f32; m * n];
        gemm_nt_ref(&mut out_nt, &a, &bt, m, k, n);
        for (x, y) in base.iter().zip(&out_nt) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 0.0, 0.0, 2.0];
        let mut out = [10.0f32, 0.0, 0.0, 10.0];
        gemm_ref(&mut out, &a, &b, 2, 2, 2);
        assert_eq!(out, [12.0, 0.0, 0.0, 12.0]);
    }
}
