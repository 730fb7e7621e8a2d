//! Explicit-SIMD (AVX2/FMA) instantiations of the GEMM contract, with
//! runtime detection.
//!
//! The workspace builds for the portable x86-64 baseline (see
//! `.cargo/config.toml`), where `f32::mul_add` is a libm `fmaf` call and
//! autovectorization stops at SSE2. This module holds the fast twins of the
//! two portable code paths, gated behind runtime
//! `is_x86_feature_detected!` so the binary stays portable:
//!
//! * the hand-written 8×8 register tile — one f32x8 vector per accumulator
//!   row, `vfmadd` per contraction step — twin of
//!   `gemm::portable_microkernel`. Every tile kernel is `(k, a, b, c)` over
//!   three strided views: `A` rows `(ptr, rs, ks)`, `B` columns `(ptr, ks)`,
//!   the output `(ptr, ldc, from_zero)`, so it reads `A` and `B` and
//!   accumulates into its output block wherever they lie;
//! * `gemm_small` / `gemm_nt_small` / `gemm_tn_small` — the
//!   [`crate::reference`] loop bodies compiled with AVX2+FMA enabled, so
//!   `mul_add` lowers to `vfmadd` and the row loops vectorize 8-wide — the
//!   small-shape production path.
//!
//! The single-tile kernel is load-port-bound: each contraction step issues
//! nine load μops (one B vector + eight A broadcasts) against eight FMAs.
//! [`microkernel_x2`] therefore takes a `B` view **`2·NR` columns wide**
//! (an 8×16 tile, walked as two 4×16 register passes so the eight
//! accumulators, two B vectors and one broadcast fit the sixteen ymm
//! registers): every A broadcast now feeds two FMAs, moving the kernel to
//! the FMA-throughput bound. Each output lane's FMA chain is identical to
//! the single-tile kernel's, so pairing is purely a scheduling decision.
//!
//! # One contract, two instantiations
//!
//! Every output element is `acc = fma(a, b, acc)` for `p` ascending — here
//! as a `vfmadd` lane, on the portable path as `f32::mul_add`. IEEE-754
//! fusedMultiplyAdd is *correctly rounded* (the exact `a·b + acc`, rounded
//! once), so the result of each step is fully determined by its three
//! inputs no matter which instruction or library routine computes it; by
//! induction over `p` the whole chain — and hence every output bit — is
//! equal on both paths. Selection between them is by platform
//! (`detected`), never by option: each `gemm*` entry point reads it once
//! and passes a `vector` flag down, and `gemm.rs`'s unit tests pass that
//! flag themselves to pin vector == portable == oracle bitwise. This is
//! the only file that asks the CPU what it has.

use std::sync::OnceLock;

use crate::gemm::{AView, BView, CView, MR, NR};

const _: () = assert!(
    MR == 8 && NR == 8,
    "AVX2 micro-kernel is written for an 8x8 tile"
);

/// Whether this CPU has AVX2+FMA (detected once): what dispatch selects the
/// vector path by, and what the `unsafe` calls below rest on.
pub(crate) fn detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether GEMM dispatch takes the AVX2/FMA path: `detected`, under the
/// name run records (`bench_kernels`, the `benchmark/` host record) read.
pub fn simd_available() -> bool {
    detected()
}

/// AVX2/FMA twin of the portable micro-kernel: `C[r, c] = fma(A[r, p],
/// B[p, c], C[r, c])` for `p` ascending, each tile row one 8-lane `vfmadd`
/// chain held in a register between one load of `C` (or zeros) and one
/// store. The views are `gemm::tile`'s, so `A` and `C` may lie in place.
///
/// # Safety
///
/// The CPU must have AVX2+FMA, and the views must meet `gemm::tile`'s
/// contract for `NR` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(k: usize, a: AView, b: BView, c: CView) {
    use std::arch::x86_64::*;
    let mut rows = [_mm256_setzero_ps(); MR];
    if !c.from_zero {
        for (r, row) in rows.iter_mut().enumerate() {
            *row = _mm256_loadu_ps(c.ptr.add(r * c.ldc));
        }
    }
    for p in 0..k {
        let bv = _mm256_loadu_ps(b.ptr.add(p * b.ks));
        let ac = a.ptr.add(p * a.ks);
        for (r, row) in rows.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ac.add(r * a.rs));
            *row = _mm256_fmadd_ps(av, bv, *row);
        }
    }
    for (r, row) in rows.iter().enumerate() {
        _mm256_storeu_ps(c.ptr.add(r * c.ldc), *row);
    }
}

/// Paired twin of [`microkernel_avx2`]: one walk over `A` updates a tile
/// `2·NR` columns wide. Two passes of 4 rows × 16 columns keep the working
/// set (8 accumulators + 2 B vectors + 1 broadcast) inside the sixteen ymm
/// registers; per pass each contraction step is 6 load μops against 8
/// FMAs, so the kernel runs at the FMA bound instead of the single-tile
/// version's load bound. Lane-for-lane the FMA sequence equals two
/// single-tile calls on the two halves, so results are bitwise identical
/// to them.
///
/// # Safety
///
/// As [`microkernel_avx2`], for `2·NR` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2_x2(k: usize, a: AView, b: BView, c: CView) {
    use std::arch::x86_64::*;
    for r0 in [0usize, 4] {
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        if !c.from_zero {
            for (i, accv) in acc.iter_mut().enumerate() {
                let crow = c.ptr.add((r0 + i) * c.ldc);
                accv[0] = _mm256_loadu_ps(crow);
                accv[1] = _mm256_loadu_ps(crow.add(NR));
            }
        }
        let ar = a.ptr.add(r0 * a.rs);
        // k unrolled by two to amortize loop overhead against the FMA
        // bound; both sub-steps keep `p` ascending per lane, so the
        // accumulation order (and hence every result bit) is unchanged.
        let mut p = 0usize;
        while p + 1 < k {
            let (bp, bq) = (b.ptr.add(p * b.ks), b.ptr.add((p + 1) * b.ks));
            let (bv0, bv1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(NR)));
            let ac = ar.add(p * a.ks);
            for (i, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ac.add(i * a.rs));
                accv[0] = _mm256_fmadd_ps(av, bv0, accv[0]);
                accv[1] = _mm256_fmadd_ps(av, bv1, accv[1]);
            }
            let (bw0, bw1) = (_mm256_loadu_ps(bq), _mm256_loadu_ps(bq.add(NR)));
            let ad = ar.add((p + 1) * a.ks);
            for (i, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ad.add(i * a.rs));
                accv[0] = _mm256_fmadd_ps(av, bw0, accv[0]);
                accv[1] = _mm256_fmadd_ps(av, bw1, accv[1]);
            }
            p += 2;
        }
        if p < k {
            let bp = b.ptr.add(p * b.ks);
            let (bv0, bv1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(NR)));
            let ac = ar.add(p * a.ks);
            for (i, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ac.add(i * a.rs));
                accv[0] = _mm256_fmadd_ps(av, bv0, accv[0]);
                accv[1] = _mm256_fmadd_ps(av, bv1, accv[1]);
            }
        }
        for (i, accv) in acc.iter().enumerate() {
            let crow = c.ptr.add((r0 + i) * c.ldc);
            _mm256_storeu_ps(crow, accv[0]);
            _mm256_storeu_ps(crow.add(NR), accv[1]);
        }
    }
}

/// Runs the AVX2/FMA 8×8 micro-kernel. Only [`crate::gemm`]'s tiled path
/// calls it, on a `vector` flag.
///
/// # Safety
///
/// The views must meet `gemm::tile`'s contract for `NR` columns.
#[inline]
pub(crate) unsafe fn microkernel(k: usize, a: AView, b: BView, c: CView) {
    assert_detected();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `assert_detected` checked that AVX2+FMA are present; the
    // views are the caller's obligation.
    unsafe {
        microkernel_avx2(k, a, b, c);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, a, b, c);
}

/// Runs the paired (8×16) AVX2/FMA micro-kernel; bitwise equal to two
/// [`microkernel`] calls on the tile's halves.
///
/// # Safety
///
/// The views must meet `gemm::tile`'s contract for `2·NR` columns.
#[inline]
pub(crate) unsafe fn microkernel_x2(k: usize, a: AView, b: BView, c: CView) {
    assert_detected();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `microkernel`.
    unsafe {
        microkernel_avx2_x2(k, a, b, c);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, a, b, c);
}

/// Part of what makes the safe wrappers in this module sound on their own:
/// every one checks the CPU before its `unsafe` call. Callers only get here
/// on a `vector` flag that came from [`detected`] (never true off x86-64),
/// so this firing means a dispatch bug, not a slow path.
#[inline]
fn assert_detected() {
    assert!(detected(), "AVX2/FMA kernel dispatched without CPU support");
}

/// Stamps the AVX2/FMA instantiation of one [`crate::reference`] loop: the
/// same `#[inline(always)]` body, compiled where `mul_add` is a `vfmadd`
/// and the row loop vectorizes 8-wide. Same FMA chain per element, so
/// bit-identical to the portable instantiation (the reference itself).
macro_rules! small_kernel {
    ($(#[$doc:meta])* $name:ident => $body:path) => {
        $(#[$doc])*
        pub(crate) fn $name(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
            assert_detected();
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn imp(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
                    $body(out, a, b, m, k, n)
                }
                // SAFETY: `assert_detected` just checked that AVX2+FMA are
                // present.
                unsafe { imp(out, a, b, m, k, n) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = (out, a, b, m, k, n);
        }
    };
}

small_kernel!(
    /// AVX2/FMA instantiation of [`crate::reference::gemm_ref`].
    gemm_small => crate::reference::gemm_ref
);
small_kernel!(
    /// AVX2/FMA instantiation of [`crate::reference::gemm_nt_ref`].
    gemm_nt_small => crate::reference::gemm_nt_ref
);
small_kernel!(
    /// AVX2/FMA instantiation of [`crate::reference::gemm_tn_ref`].
    gemm_tn_small => crate::reference::gemm_tn_ref
);

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, mul: usize, add: usize, modulo: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul + add) % modulo) as f32 * scale - shift)
            .collect()
    }

    /// `A` with rows `rs` apart and steps `ks` apart, `B` rows `b_ks`
    /// apart, `C` rows `ldc` apart: every stride wider than its tile, so
    /// a kernel that reads or writes past its view shows.
    fn views(a: &[f32], (rs, ks): (usize, usize), b: &[f32], b_ks: usize) -> (AView, BView) {
        (
            AView {
                ptr: a.as_ptr(),
                rs,
                ks,
            },
            BView {
                ptr: b.as_ptr(),
                ks: b_ks,
            },
        )
    }

    fn out(c: &mut [f32], ldc: usize, from_zero: bool) -> CView {
        CView {
            ptr: c.as_mut_ptr(),
            ldc,
            from_zero,
        }
    }

    #[test]
    fn vector_tile_is_bitwise_portable_tile() {
        if !detected() {
            eprintln!("skipped: no AVX2+FMA on this CPU");
            return;
        }
        let (k, ks, b_ks, ldc) = (37, MR + 3, NR + 5, NR + 2);
        let a = fill(k * ks, 7, 3, 23, 0.1, 1.0);
        let b = fill(k * b_ks, 5, 1, 19, 0.3, 2.0);
        let init = fill(MR * ldc, 1, 0, 64, 0.7, 16.0);
        for from_zero in [false, true] {
            let (av, bv) = views(&a, (1, ks), &b, b_ks);
            let (mut vector, mut portable) = (init.clone(), init.clone());
            // SAFETY: AVX2+FMA are present (checked above), and every view
            // covers MR rows, NR columns and k steps of its buffer.
            unsafe {
                microkernel(k, av, bv, out(&mut vector, ldc, from_zero));
                crate::gemm::portable_microkernel(k, av, bv, out(&mut portable, ldc, from_zero));
            }
            assert_eq!(vector, portable, "from_zero = {from_zero}");
            for (r, row) in vector.chunks_exact(ldc).enumerate() {
                assert_eq!(
                    row[NR..],
                    init[r * ldc + NR..(r + 1) * ldc],
                    "row {r} overran"
                );
            }
        }
    }

    /// The invariant the macro-kernel's pairing rests on: one paired call
    /// on a tile `2·NR` wide is **bitwise** identical to two single-tile
    /// calls on its halves, so whether a column panel lands in a pair (a
    /// chunk-local scheduling accident) can never change results.
    #[test]
    fn paired_kernel_is_bitwise_two_single_calls() {
        if !detected() {
            eprintln!("skipped: no AVX2+FMA on this CPU");
            return;
        }
        let (b_ks, ldc) = (2 * NR + 3, 2 * NR + 1);
        for k in [1usize, 7, 37, 64] {
            let a = fill(MR * k, 11, 5, 29, 0.1875, 2.5);
            let b = fill(k * b_ks, 13, 2, 31, 0.0625, 1.0);
            let init = fill(MR * ldc, 3, 7, 17, 0.375, 3.0);
            for from_zero in [false, true] {
                let (av, bv) = views(&a, (k, 1), &b, b_ks);
                let (_, b_hi) = views(&a, (k, 1), &b[NR..], b_ks);
                let (mut single, mut pair) = (init.clone(), init.clone());
                // SAFETY: AVX2+FMA are present (checked above); `A` is
                // `MR x k` row-major, `B` and `C` hold `2·NR` columns
                // per row.
                unsafe {
                    microkernel(k, av, bv, out(&mut single, ldc, from_zero));
                    microkernel(k, av, b_hi, out(&mut single[NR..], ldc, from_zero));
                    microkernel_x2(k, av, bv, out(&mut pair, ldc, from_zero));
                }
                assert_eq!(pair, single, "k = {k}, from_zero = {from_zero}");
            }
        }
    }
}
