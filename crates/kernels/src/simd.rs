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
//!   `gemm::portable_microkernel`;
//! * `gemm_small` / `gemm_nt_small` / `gemm_tn_small` — the
//!   [`crate::reference`] loop bodies compiled with AVX2+FMA enabled, so
//!   `mul_add` lowers to `vfmadd` and the row loops vectorize 8-wide — the
//!   small-shape production path.
//!
//! The single-tile kernel is load-port-bound: each contraction step issues
//! nine load μops (one B vector + eight A broadcasts) against eight FMAs.
//! [`microkernel_x2`] therefore processes **two adjacent B column panels per
//! call** (an 8×16 logical tile, walked as two 4×16 register passes so the
//! eight accumulators, two B vectors and one broadcast fit the sixteen ymm
//! registers): every A broadcast now feeds two FMAs, moving the kernel to
//! the FMA-throughput bound. Each output lane's FMA chain is identical to
//! the single-panel kernel's, so pairing is purely a scheduling decision.
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

use crate::gemm::{MR, NR};

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

/// AVX2/FMA twin of the portable micro-kernel: `acc[r] = fma(apanel[p][r],
/// bpanel[p], acc[r])` as an 8-lane `vfmadd`, `p` ascending. Panel layout
/// is identical to the portable path (`apanel[p*MR + r]`, `bpanel[p*NR +
/// c]`), so the packing code is shared.
///
/// # Safety
///
/// The CPU must have AVX2+FMA, and the panels must hold at least `k * MR` /
/// `k * NR` elements (they are read through raw pointers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(k: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    let mut rows = [_mm256_setzero_ps(); MR];
    for (r, accr) in acc.iter().enumerate() {
        rows[r] = _mm256_loadu_ps(accr.as_ptr());
    }
    let ap = apanel.as_ptr();
    let bp = bpanel.as_ptr();
    for p in 0..k {
        let bv = _mm256_loadu_ps(bp.add(p * NR));
        let ac = ap.add(p * MR);
        for (r, row) in rows.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ac.add(r));
            *row = _mm256_fmadd_ps(av, bv, *row);
        }
    }
    for (r, accr) in acc.iter_mut().enumerate() {
        _mm256_storeu_ps(accr.as_mut_ptr(), rows[r]);
    }
}

/// Paired twin of [`microkernel_avx2`]: one walk over the A panel updates
/// two B panels' accumulator tiles. Two passes of 4 rows × 16 columns keep
/// the working set (8 accumulators + 2 B vectors + 1 broadcast) inside the
/// sixteen ymm registers; per pass each contraction step is 6 load μops
/// against 8 FMAs, so the kernel runs at the FMA bound instead of the
/// single-tile version's load bound. Lane-for-lane the FMA sequence equals
/// two single-tile calls, so results are bitwise identical to them.
///
/// # Safety
///
/// As [`microkernel_avx2`], for all three panels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2_x2(
    k: usize,
    apanel: &[f32],
    bpanel0: &[f32],
    bpanel1: &[f32],
    acc0: &mut [[f32; NR]; MR],
    acc1: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= k * MR);
    debug_assert!(bpanel0.len() >= k * NR && bpanel1.len() >= k * NR);
    let ap = apanel.as_ptr();
    let bp0 = bpanel0.as_ptr();
    let bp1 = bpanel1.as_ptr();
    for r0 in [0usize, 4] {
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        for (i, accv) in acc.iter_mut().enumerate() {
            accv[0] = _mm256_loadu_ps(acc0[r0 + i].as_ptr());
            accv[1] = _mm256_loadu_ps(acc1[r0 + i].as_ptr());
        }
        // k unrolled by two to amortize loop overhead against the FMA
        // bound; both sub-steps keep `p` ascending per lane, so the
        // accumulation order (and hence every result bit) is unchanged.
        let mut p = 0usize;
        while p + 1 < k {
            let bv0 = _mm256_loadu_ps(bp0.add(p * NR));
            let bv1 = _mm256_loadu_ps(bp1.add(p * NR));
            let ac = ap.add(p * MR + r0);
            for (i, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ac.add(i));
                accv[0] = _mm256_fmadd_ps(av, bv0, accv[0]);
                accv[1] = _mm256_fmadd_ps(av, bv1, accv[1]);
            }
            let bw0 = _mm256_loadu_ps(bp0.add((p + 1) * NR));
            let bw1 = _mm256_loadu_ps(bp1.add((p + 1) * NR));
            let ad = ap.add((p + 1) * MR + r0);
            for (i, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ad.add(i));
                accv[0] = _mm256_fmadd_ps(av, bw0, accv[0]);
                accv[1] = _mm256_fmadd_ps(av, bw1, accv[1]);
            }
            p += 2;
        }
        if p < k {
            let bv0 = _mm256_loadu_ps(bp0.add(p * NR));
            let bv1 = _mm256_loadu_ps(bp1.add(p * NR));
            let ac = ap.add(p * MR + r0);
            for (i, accv) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ac.add(i));
                accv[0] = _mm256_fmadd_ps(av, bv0, accv[0]);
                accv[1] = _mm256_fmadd_ps(av, bv1, accv[1]);
            }
        }
        for (i, accv) in acc.iter().enumerate() {
            _mm256_storeu_ps(acc0[r0 + i].as_mut_ptr(), accv[0]);
            _mm256_storeu_ps(acc1[r0 + i].as_mut_ptr(), accv[1]);
        }
    }
}

/// Runs the AVX2/FMA micro-kernel. Only [`crate::gemm`]'s tiled path calls
/// it, on a `vector` flag.
#[inline]
pub(crate) fn microkernel(k: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    assert_detected();
    assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the two asserts above checked that AVX2+FMA are present and
    // that the panels cover every element the kernel reads.
    unsafe {
        microkernel_avx2(k, apanel, bpanel, acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, apanel, bpanel, acc);
}

/// Runs the paired (two-B-panel) AVX2/FMA micro-kernel; bitwise equal to
/// two [`microkernel`] calls on the same panels. Same caller contract.
#[inline]
pub(crate) fn microkernel_x2(
    k: usize,
    apanel: &[f32],
    bpanel0: &[f32],
    bpanel1: &[f32],
    acc0: &mut [[f32; NR]; MR],
    acc1: &mut [[f32; NR]; MR],
) {
    assert_detected();
    assert!(apanel.len() >= k * MR && bpanel0.len() >= k * NR && bpanel1.len() >= k * NR);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `microkernel`.
    unsafe {
        microkernel_avx2_x2(k, apanel, bpanel0, bpanel1, acc0, acc1);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, apanel, bpanel0, bpanel1, acc0, acc1);
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

    #[test]
    fn vector_tile_is_bitwise_portable_tile() {
        if !detected() {
            eprintln!("skipped: no AVX2+FMA on this CPU");
            return;
        }
        let k = 37;
        let apanel: Vec<f32> = (0..k * MR)
            .map(|i| ((i * 7 + 3) % 23) as f32 * 0.1 - 1.0)
            .collect();
        let bpanel: Vec<f32> = (0..k * NR)
            .map(|i| ((i * 5 + 1) % 19) as f32 * 0.3 - 2.0)
            .collect();
        let mut vector_acc = [[0.0f32; NR]; MR];
        for (r, row) in vector_acc.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * NR + c) as f32 * 0.7 - 16.0;
            }
        }
        let mut portable_acc = vector_acc;
        microkernel(k, &apanel, &bpanel, &mut vector_acc);
        crate::gemm::portable_microkernel(k, &apanel, &bpanel, &mut portable_acc);
        assert_eq!(vector_acc, portable_acc);
    }

    /// The invariant the macro-kernel's pairing rests on: processing two B
    /// panels in one paired call is **bitwise** identical to two single-tile
    /// calls, so whether a column panel lands in a pair (a chunk-local
    /// scheduling accident) can never change results.
    #[test]
    fn paired_kernel_is_bitwise_two_single_calls() {
        if !detected() {
            eprintln!("skipped: no AVX2+FMA on this CPU");
            return;
        }
        for k in [1usize, 7, 37, 64] {
            let apanel: Vec<f32> = (0..k * MR)
                .map(|i| ((i * 11 + 5) % 29) as f32 * 0.1875 - 2.5)
                .collect();
            let bpanel0: Vec<f32> = (0..k * NR)
                .map(|i| ((i * 13 + 2) % 31) as f32 * 0.0625 - 1.0)
                .collect();
            let bpanel1: Vec<f32> = (0..k * NR)
                .map(|i| ((i * 3 + 7) % 17) as f32 * 0.375 - 3.0)
                .collect();
            let init = |r: usize, c: usize, s: f32| (r * NR + c) as f32 * s - 8.0;
            let mut single0 = [[0.0f32; NR]; MR];
            let mut single1 = [[0.0f32; NR]; MR];
            let mut pair0 = [[0.0f32; NR]; MR];
            let mut pair1 = [[0.0f32; NR]; MR];
            for r in 0..MR {
                for c in 0..NR {
                    single0[r][c] = init(r, c, 0.25);
                    pair0[r][c] = init(r, c, 0.25);
                    single1[r][c] = init(r, c, -0.5);
                    pair1[r][c] = init(r, c, -0.5);
                }
            }
            microkernel(k, &apanel, &bpanel0, &mut single0);
            microkernel(k, &apanel, &bpanel1, &mut single1);
            microkernel_x2(k, &apanel, &bpanel0, &bpanel1, &mut pair0, &mut pair1);
            assert_eq!(pair0, single0, "panel 0 diverged at k={k}");
            assert_eq!(pair1, single1, "panel 1 diverged at k={k}");
        }
    }
}
