//! Explicit-SIMD (AVX2/FMA) instantiations of the GEMM contract, with
//! runtime detection.
//!
//! The workspace builds for the portable x86-64 baseline (see
//! `.cargo/config.toml`), where `f32::mul_add` is a libm `fmaf` call and
//! autovectorization stops at SSE2. This module holds the fast twins of the
//! portable code paths, gated behind runtime `is_x86_feature_detected!` so
//! the binary stays portable, and every x86 intrinsic in the workspace:
//!
//! * the hand-written 8×8 register tile — one f32x8 vector per accumulator
//!   row, `vfmadd` per contraction step — twin of
//!   `gemm::portable_microkernel`. Every tile kernel is `(k, a, b, c)` over
//!   three strided views (`gemm::AView` / `BView` / `CView`), so it reads `A`
//!   and `B` and accumulates into its output block wherever they lie, `k`
//!   the steps of one segment or of a folded reduction's several; the
//!   single-width one also stacks entries (a `B` panel per group of rows)
//!   and masks a partial tile's columns, and both read a gathered `B` as a
//!   view (a row per step at its table offset, the panel's columns
//!   adjacent, as two quads or gathered);
//! * `gemm_small` / `gemm_tn_small` — the [`crate::reference`] loop bodies
//!   compiled with AVX2+FMA enabled, so `mul_add` lowers to `vfmadd` and the
//!   row loops vectorize 8-wide — the path of small table-addressed
//!   products;
//! * `pack_transposed`, `scatter_strip` — a transposed `B` packed as 8×8
//!   register transposes, and a convolution's offset-table scatter, eight
//!   lanes at a time along the column table's arithmetic runs: the portable
//!   loops' bits and adds, in their order;
//! * [`tanh`] — every branch of fdlibm's `tanhf` eight lanes wide, bit for
//!   bit [`crate::reference::tanhf`], the port the portable path runs;
//! * [`chacha8_blocks`] — eight ChaCha8 keystream blocks at once, one per
//!   lane, bit for bit [`crate::reference::chacha8_block`];
//! * [`ln`] and [`normals`] — glibc's `logf` and the Box–Muller draw over
//!   its `cosf` eight lanes wide, each half of the `f64` core four `f64`
//!   lanes with its table read by gather, bit for bit
//!   [`crate::reference::logf`] and [`crate::reference::normal`].
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

use std::ops::Range;
use std::sync::OnceLock;

use crate::gemm::{AView, BView, CView, Cols, Offsets, Run, Steps, MR, NR, ROW};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256;

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
/// B[p, c], C[r, c])` for `p` ascending through `k`'s segments, each tile
/// row one 8-lane `vfmadd` chain held in a register between one load of `C`
/// (or zeros) and one store. The views are `gemm::tile`'s, so `A` and `C`
/// may lie in place. `ROWS` is `b.rows`: each contraction step loads one `B`
/// vector per group of `ROWS` tile rows (one for a tile of one entry,
/// `MR / ROWS` for a lane tile) and feeds it to that group's rows. Without
/// `SEG` the kernel walks one segment and its loop compiles away (a segment
/// loop read at run time slowed a 2-step tile by a fifth). `COLS` is how a
/// `B` row's columns load ([`cols_kind`]): `NR` adjacent ones `p·ks` on, or
/// a view's row at its step offset, adjacent, two quads or gathered.
///
/// # Safety
///
/// The CPU must have AVX2+FMA, and the views must meet `gemm::tile`'s
/// contract for `NR` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2<const ROWS: usize, const SEG: bool, const COLS: u8>(
    k: Steps,
    a: &AView,
    b: &BView,
    c: CView,
) {
    use std::arch::x86_64::*;
    let groups = MR / ROWS;
    // A partial tile's `B` and `C` cells go through a mask of its first
    // `cols` lanes.
    let (full, lanes) = (c.cols >= NR, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(c.cols as i32), lanes);
    let load = |at: *const f32| match full {
        true => _mm256_loadu_ps(at),
        false => _mm256_maskload_ps(at, mask),
    };
    let (quad, idx) = match b.cols {
        Cols::Quads(d) => (d, lanes),
        Cols::Gather => {
            // Index loop: `map` may not inline across the feature boundary.
            let mut idx = [0i32; NR];
            for (c, i) in idx.iter_mut().enumerate().take(c.cols) {
                *i = b.col(c) as i32;
            }
            (0, _mm256_loadu_si256(idx.as_ptr().cast()))
        }
        Cols::Adjacent => (0, lanes),
    };
    let load_b = |at: *const f32| match COLS {
        QUADS => _mm256_set_m128(_mm_loadu_ps(at.offset(quad)), _mm_loadu_ps(at)),
        GATHER => {
            let valid = _mm256_castsi256_ps(mask);
            _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), at, idx, valid)
        }
        _ => load(at),
    };
    let step = |p: usize| match COLS {
        STRIDED => (p * b.ks) as isize,
        _ => *b.steps.add(p),
    };
    let mut rows = [_mm256_setzero_ps(); MR];
    for (r, row) in rows.iter_mut().enumerate().take(c.rows) {
        if !c.from_zero {
            *row = load(c.ptr.add(r * c.ldc));
        }
    }
    let ar: [*const f32; MR] = std::array::from_fn(|r| a.ptr.wrapping_add(a.off[r]));
    let bg: [*const f32; MR] = std::array::from_fn(|g| b.ptr.wrapping_add(b.off[g]));
    for s in 0..if SEG { k.segs } else { 1 } {
        let (sa, sb) = if SEG { (s * k.a, s * k.b) } else { (0, 0) };
        for p in 0..k.k {
            let at = sb as isize + step(p);
            let mut bv = [_mm256_setzero_ps(); MR];
            for (g, v) in bv.iter_mut().enumerate().take(groups) {
                *v = load_b(bg[g].offset(at));
            }
            for (r, row) in rows.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ar[r].add(sa + p * a.ks));
                *row = _mm256_fmadd_ps(av, bv[(r / ROWS).min(groups - 1)], *row);
            }
        }
    }
    for (r, &row) in rows.iter().enumerate().take(c.rows) {
        match full {
            true => _mm256_storeu_ps(c.ptr.add(r * c.ldc), row),
            false => _mm256_maskstore_ps(c.ptr.add(r * c.ldc), mask, row),
        }
    }
}

/// Paired twin of [`microkernel_avx2`]: one walk over `A` updates a tile
/// `2·NR` columns wide. Two passes of 4 rows × 16 columns keep the working
/// set (8 accumulators + 2 B vectors + 1 broadcast) inside the sixteen ymm
/// registers; per pass each contraction step is 6 load μops against 8
/// FMAs, so the kernel runs at the FMA bound instead of the single-tile
/// version's load bound. Lane-for-lane the FMA sequence equals two
/// single-tile calls on the two halves, so results are bitwise identical
/// to them. The second half's `B` columns lie `b.pair` past the first's;
/// a view's halves load alike, adjacent or as quads (`COLS`).
///
/// # Safety
///
/// As [`microkernel_avx2`], for `2·NR` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2_x2<const SEG: bool, const COLS: u8>(
    k: Steps,
    a: &AView,
    b: &BView,
    c: CView,
) {
    use std::arch::x86_64::*;
    let row = |at: usize, p: usize| match COLS {
        STRIDED => b.ptr.add(at + p * b.ks),
        _ => b.ptr.offset(at as isize + *b.steps.add(p)),
    };
    let quad = match b.cols {
        Cols::Quads(d) => d,
        _ => 0,
    };
    let load = |at: *const f32| match COLS {
        QUADS => _mm256_set_m128(_mm_loadu_ps(at.offset(quad)), _mm_loadu_ps(at)),
        _ => _mm256_loadu_ps(at),
    };
    let pair = match COLS {
        STRIDED => NR as isize,
        _ => b.pair,
    };
    let halves = |at: *const f32| (load(at), load(at.offset(pair)));
    for r0 in [0usize, 4] {
        // A partial tile's pass over rows past `c.rows` reads `A` rows the
        // view repeats and stores nothing; one wholly past them is skipped.
        if r0 >= c.rows {
            break;
        }
        let rows = (c.rows - r0).min(4);
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        if !c.from_zero {
            for (i, accv) in acc.iter_mut().enumerate() {
                if i < rows {
                    let crow = c.ptr.add((r0 + i) * c.ldc);
                    *accv = [_mm256_loadu_ps(crow), _mm256_loadu_ps(crow.add(NR))];
                }
            }
        }
        let ar: [*const f32; 4] = std::array::from_fn(|i| a.ptr.wrapping_add(a.off[r0 + i]));
        for s in 0..if SEG { k.segs } else { 1 } {
            let (sa, sb) = if SEG { (s * k.a, s * k.b) } else { (0, 0) };
            // k unrolled by two to amortize loop overhead against the FMA
            // bound; both sub-steps keep `p` ascending per lane, so the
            // accumulation order (and hence every result bit) is unchanged.
            let mut p = 0usize;
            while p + 1 < k.k {
                let (bp, bq) = (row(sb, p), row(sb, p + 1));
                let (bv0, bv1) = halves(bp);
                for (i, accv) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ar[i].add(sa + p * a.ks));
                    accv[0] = _mm256_fmadd_ps(av, bv0, accv[0]);
                    accv[1] = _mm256_fmadd_ps(av, bv1, accv[1]);
                }
                let (bw0, bw1) = halves(bq);
                for (i, accv) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ar[i].add(sa + (p + 1) * a.ks));
                    accv[0] = _mm256_fmadd_ps(av, bw0, accv[0]);
                    accv[1] = _mm256_fmadd_ps(av, bw1, accv[1]);
                }
                p += 2;
            }
            if p < k.k {
                let (bv0, bv1) = halves(row(sb, p));
                for (i, accv) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ar[i].add(sa + p * a.ks));
                    accv[0] = _mm256_fmadd_ps(av, bv0, accv[0]);
                    accv[1] = _mm256_fmadd_ps(av, bv1, accv[1]);
                }
            }
        }
        for (i, accv) in acc.iter().enumerate() {
            if i < rows {
                let crow = c.ptr.add((r0 + i) * c.ldc);
                _mm256_storeu_ps(crow, accv[0]);
                _mm256_storeu_ps(crow.add(NR), accv[1]);
            }
        }
    }
}

/// One-row twin of [`microkernel_avx2`]: tile row 0 across `ROW·NR` whole
/// columns, one `vfmadd` chain per 8 of them, so the `ROW` independent
/// chains hide the FMA latency that a single row's one chain would expose.
/// Per contraction step it loads one `A` broadcast and `ROW` `B` vectors.
/// Each lane's FMA sequence is the single-tile kernel's.
///
/// # Safety
///
/// As [`microkernel_avx2`], for row 0 and `ROW·NR` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn row_avx2<const SEG: bool>(k: Steps, a: &AView, b: &BView, c: CView) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); ROW];
    if !c.from_zero {
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = _mm256_loadu_ps(c.ptr.add(v * NR));
        }
    }
    let (ar, br) = (a.ptr.wrapping_add(a.off[0]), b.ptr.wrapping_add(b.off[0]));
    for s in 0..if SEG { k.segs } else { 1 } {
        let (sa, sb) = if SEG { (s * k.a, s * k.b) } else { (0, 0) };
        for p in 0..k.k {
            let (av, bp) = (
                _mm256_set1_ps(*ar.add(sa + p * a.ks)),
                br.add(sb + p * b.ks),
            );
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(v * NR)), *acc);
            }
        }
    }
    for (v, &acc) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.ptr.add(v * NR), acc);
    }
}

/// How a tile's `B` row loads, as the kernels' `COLS` parameter: `NR`
/// adjacent columns `p·ks` past the panel, or a view's row
/// ([`BView::steps`]) read as its [`Cols`].
const STRIDED: u8 = 0;
const ADJACENT: u8 = 1;
const QUADS: u8 = 2;
const GATHER: u8 = 3;

/// `b`'s `COLS` parameter.
fn cols_kind(b: &BView) -> u8 {
    match (b.steps.is_null(), b.cols) {
        (true, _) => STRIDED,
        (false, Cols::Adjacent) => ADJACENT,
        (false, Cols::Quads(_)) => QUADS,
        (false, Cols::Gather) => GATHER,
    }
}

/// Runs the AVX2/FMA 8×8 micro-kernel, instantiated for the row grouping
/// of `b` (a lane tile's 1 to 4 rows per entry, else one group) and how
/// its rows load. Only [`crate::gemm`]'s tiled path calls it, on a
/// `vector` flag.
///
/// # Safety
///
/// The views must meet `gemm::tile`'s contract for `NR` columns.
#[inline]
pub(crate) unsafe fn microkernel(k: impl Into<Steps>, a: &AView, b: &BView, c: CView) {
    let k = k.into();
    assert_detected();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `assert_detected` checked that AVX2+FMA are present; the
    // views are the caller's obligation.
    unsafe {
        macro_rules! rows {
            ($seg:literal) => {
                // A strided `B` (every lane tile) tests nothing else first.
                match (b.steps.is_null(), b.rows) {
                    (true, 1) => microkernel_avx2::<1, $seg, STRIDED>(k, a, b, c),
                    (true, 2) => microkernel_avx2::<2, $seg, STRIDED>(k, a, b, c),
                    (true, 3) => microkernel_avx2::<3, $seg, STRIDED>(k, a, b, c),
                    (true, 4) => microkernel_avx2::<4, $seg, STRIDED>(k, a, b, c),
                    (true, _) => microkernel_avx2::<MR, $seg, STRIDED>(k, a, b, c),
                    _ => match cols_kind(b) {
                        ADJACENT => microkernel_avx2::<MR, $seg, ADJACENT>(k, a, b, c),
                        QUADS => microkernel_avx2::<MR, $seg, QUADS>(k, a, b, c),
                        _ => microkernel_avx2::<MR, $seg, GATHER>(k, a, b, c),
                    },
                }
            };
        }
        match k.segs > 1 {
            true => rows!(true),
            false => rows!(false),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, a, b, c);
}

/// Runs the paired (8×16) AVX2/FMA micro-kernel, or across `ROW·NR`
/// columns of one row the one-row kernel; bitwise equal to [`microkernel`]
/// calls on the tile's column panels. A view pairs panels of one class.
///
/// # Safety
///
/// The views must meet `gemm::tile`'s contract for `c.cols` columns.
#[inline]
pub(crate) unsafe fn microkernel_x2(k: impl Into<Steps>, a: &AView, b: &BView, c: CView) {
    let k = k.into();
    assert_detected();
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `microkernel`.
    unsafe {
        macro_rules! cols {
            ($seg:literal) => {
                match cols_kind(b) {
                    ADJACENT => microkernel_avx2_x2::<$seg, ADJACENT>(k, a, b, c),
                    QUADS => microkernel_avx2_x2::<$seg, QUADS>(k, a, b, c),
                    _ => microkernel_avx2_x2::<$seg, STRIDED>(k, a, b, c),
                }
            };
        }
        match (c.cols > 2 * NR, k.segs > 1) {
            (true, true) => row_avx2::<true>(k, a, b, c),
            (true, false) => row_avx2::<false>(k, a, b, c),
            (false, true) => cols!(true),
            (false, false) => cols!(false),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (k, a, b, c);
}

/// AVX2 twin of `gemm::pack_b_into` for `B` stored `[n, k]`, column panels
/// `panels`: 8×8 blocks, eight masked row loads transposed in registers.
/// Every lane copies the portable loop's bits.
///
/// # Safety
///
/// The CPU must have AVX2+FMA, `src` must hold the `k·n` elements, and
/// `bpack` must be those panels' strips.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn pack_transposed(
    src: &[f32],
    (k, n): (usize, usize),
    panels: Range<usize>,
    bpack: &mut [f32],
) {
    use std::arch::x86_64::*;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let (at, base, end) = (src.as_ptr(), panels.start * NR, panels.end * NR);
    for lo in (base..end).step_by(NR) {
        let cols = NR.min(n - lo);
        // The strip from `j0` holds its `k` rows `w` apart, behind `(j0 - base)·k` cells.
        let j0 = lo - (lo - base) % (2 * NR);
        let w = (2 * NR).min(end - j0);
        let out = bpack.as_mut_ptr().add((j0 - base) * k + lo - j0);
        for p0 in (0..k).step_by(8) {
            let steps = 8.min(k - p0);
            let valid = _mm256_cmpgt_epi32(_mm256_set1_epi32(steps as i32), lanes);
            let mut v = [_mm256_setzero_ps(); 8];
            for (c, row) in v.iter_mut().enumerate().take(cols) {
                *row = _mm256_maskload_ps(at.add((lo + c) * k + p0), valid);
            }
            // Transpose: interleave rows in pairs, pairs in pairs, then halves.
            let mut t = v;
            for i in [0, 2, 4, 6] {
                (t[i], t[i + 1]) = (
                    _mm256_unpacklo_ps(v[i], v[i + 1]),
                    _mm256_unpackhi_ps(v[i], v[i + 1]),
                );
            }
            for i in [0, 1, 4, 5] {
                let (x, y, to) = (t[i], t[i + 2], i + (i & 1));
                (v[to], v[to + 1]) = (
                    _mm256_shuffle_ps::<0x44>(x, y),
                    _mm256_shuffle_ps::<0xEE>(x, y),
                );
            }
            for r in 0..steps {
                let row = match r < 4 {
                    true => _mm256_permute2f128_ps::<0x20>(v[r], v[r + 4]),
                    false => _mm256_permute2f128_ps::<0x31>(v[r - 4], v[r]),
                };
                _mm256_storeu_ps(out.add((p0 + r) * w), row);
            }
        }
    }
}

/// AVX2 twin of `gemm::scatter_add`: a strip's rows added run by run in
/// ascending `j` — eight cells per add along step-1 runs, four along stride-2
/// runs through a mask on the even lanes (the cells between are untouched),
/// the rest singly. A run's cells are distinct: the portable adds, in order.
/// Under `off.even`, a row whose successor lands one cell past it takes that
/// row along: their cells are disjoint, so interleaving the two rows' adds
/// (eight cells per add along stride-2 runs) gives each cell its adds in
/// the portable order.
///
/// # Safety
///
/// The CPU must have AVX2+FMA, and `off` must be checked for `dst` and
/// carry `split_runs(off.col)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn scatter_strip(dst: &mut [f32], off: Offsets<'_>, i0: usize, rows: &[f32]) {
    use std::arch::x86_64::*;
    let even = _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0);
    let spread = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
    let (n, runs) = (off.col.len(), off.runs.unwrap_or_default());
    let (count, mut i) = (rows.len() / n, 0);
    while i < count {
        let d = dst.as_mut_ptr().wrapping_offset(off.row[i0 + i]);
        let v = rows[i * n..].as_ptr();
        if off.even && i + 1 < count && off.row[i0 + i + 1] == off.row[i0 + i] + 1 {
            // Rows `i` and `i + 1` meet disjoint cells, one past the
            // other: a stride-2 run takes both rows' four values as one
            // unmasked add of eight.
            let w = rows[(i + 1) * n..].as_ptr();
            for &Run { at, len, step } in runs {
                let (mut t, to) = (0, d.wrapping_offset(off.col[at]));
                while step == 2 && t + 4 <= len {
                    let (x, y) = (_mm_loadu_ps(v.add(at + t)), _mm_loadu_ps(w.add(at + t)));
                    let xy = _mm256_set_m128(_mm_unpackhi_ps(x, y), _mm_unpacklo_ps(x, y));
                    let sum = _mm256_add_ps(_mm256_loadu_ps(to.add(2 * t)), xy);
                    _mm256_storeu_ps(to.add(2 * t), sum);
                    t += 4;
                }
                for j in at + t..at + len {
                    *d.wrapping_offset(off.col[j]) += *v.add(j);
                    *d.wrapping_offset(off.col[j] + 1) += *w.add(j);
                }
            }
            i += 2;
            continue;
        }
        for &Run { at, len, step } in runs {
            let (mut t, to) = (0, d.wrapping_offset(off.col[at]));
            while step == 1 && t + NR <= len {
                let sum = _mm256_add_ps(_mm256_loadu_ps(to.add(t)), _mm256_loadu_ps(v.add(at + t)));
                _mm256_storeu_ps(to.add(t), sum);
                t += NR;
            }
            while step == 2 && t + 4 <= len {
                let x = _mm256_castps128_ps256(_mm_loadu_ps(v.add(at + t)));
                let x = _mm256_permutevar8x32_ps(x, spread);
                let sum = _mm256_add_ps(_mm256_maskload_ps(to.add(2 * t), even), x);
                _mm256_maskstore_ps(to.add(2 * t), even, sum);
                t += 4;
            }
            for j in at + t..at + len {
                *d.wrapping_offset(off.col[j]) += *v.add(j);
            }
        }
        i += 1;
    }
}

/// Stamps a slice kernel `out[i] = f(x[i])`, bit for bit its scalar port:
/// `$lanes` eight lanes at a time and the port on the tail where the CPU has
/// AVX2+FMA, the port on every element elsewhere.
macro_rules! slice_kernel {
    ($(#[$doc:meta])* $name:ident => $lanes:ident, $port:path) => {
        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if the slices differ in length.
        pub fn $name(out: &mut [f32], x: &[f32]) {
            let what = concat!(stringify!($name), ": output and input lengths differ");
            assert_eq!(out.len(), x.len(), "{what}");
            #[cfg(target_arch = "x86_64")]
            if detected() {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn vector(out: &mut [f32], x: &[f32]) {
                    use std::arch::x86_64::*;
                    let whole = x.len() / 8 * 8;
                    for at in (0..whole).step_by(8) {
                        let y = $lanes(_mm256_loadu_ps(x.as_ptr().add(at)));
                        _mm256_storeu_ps(out.as_mut_ptr().add(at), y);
                    }
                    for (o, &v) in out[whole..].iter_mut().zip(&x[whole..]) {
                        *o = $port(v);
                    }
                }
                // SAFETY: AVX2+FMA are present, and the lengths are equal.
                return unsafe { vector(out, x) };
            }
            for (o, &v) in out.iter_mut().zip(x) {
                *o = $port(v);
            }
        }
    };
}

slice_kernel!(
    /// `out[i] = tanh(x[i])`, bit for bit [`crate::reference::tanhf`]: eight
    /// lanes at a time where the CPU has AVX2, the port itself elsewhere.
    tanh => tanh8, crate::reference::tanhf
);
slice_kernel!(
    /// `out[i] = ln x[i]`, bit for bit [`crate::reference::logf`]: eight lanes
    /// at a time where the CPU has AVX2, the port itself elsewhere.
    ln => logf8, crate::reference::logf
);

/// `out[i] = normal(words[2i], words[2i + 1])`, bit for bit
/// [`crate::reference::normal`]'s Box–Muller draws: eight at a time where
/// the CPU has AVX2, the port itself elsewhere.
///
/// # Panics
///
/// Panics unless `words` holds two words per output.
pub fn normals(out: &mut [f32], words: &[u32]) {
    assert_eq!(words.len(), 2 * out.len(), "normals: two words per output");
    #[cfg(target_arch = "x86_64")]
    if detected() {
        // SAFETY: AVX2+FMA are present, and `words` holds two per output.
        return unsafe { normals_avx2(out, words) };
    }
    for (o, w) in out.iter_mut().zip(words.chunks_exact(2)) {
        *o = crate::reference::normal(w[0], w[1]);
    }
}

/// AVX2 twin of `reference::tanhf` on eight lanes: every branch of it and
/// of the `expm1f` under it computed for all eight lanes with the same IEEE
/// ops, then selected per lane. One division serves `|x| >= 1` (`1 - 2/(t +
/// 2)`) and `|x| < 1` (`-t/(t + 2)`); a NaN lane takes `x + x`.
///
/// # Safety
///
/// The CPU must have AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn tanh8(v: __m256) -> __m256 {
    use std::arch::x86_64::*;
    let (f, i, sign) = (_mm256_set1_ps, _mm256_set1_epi32, _mm256_set1_ps(-0.0));
    // Index reads, not `map`: a closure handed to a generic cannot inline
    // into it across the target-feature boundary.
    let e = |j: usize| f(f32::from_bits(crate::reference::EXPM1F[j]));
    let (ln2_hi, ln2_lo, invln2) = (e(0), e(1), e(2));
    let (q1, q2, q3, q4, q5) = (e(3), e(4), e(5), e(6), e(7));
    let (add, sub) = (|a, b| _mm256_add_ps(a, b), |a, b| _mm256_sub_ps(a, b));
    let (mul, bits) = (|a, b| _mm256_mul_ps(a, b), |a| _mm256_castps_si256(a));
    let sel = |m, yes, no| _mm256_blendv_ps(no, yes, _mm256_castsi256_ps(m));
    // Lanes whose integer `a` is above, or below, `b`.
    let above = |a, b| _mm256_cmpgt_epi32(a, i(b));
    let below = |a, b| _mm256_cmpgt_epi32(i(b), a);
    let (ax, xs) = (_mm256_andnot_ps(sign, v), _mm256_and_ps(sign, v));
    let (ix, ge1) = (bits(ax), above(bits(ax), 0x3f7f_ffff));
    // expm1's argument `y`, reduced to `k·ln2 + r` with `r`'s error `c`.
    let y = mul(sel(ge1, f(2.0), f(-2.0)), ax);
    let hy = bits(_mm256_andnot_ps(sign, y));
    let kg = _mm256_cvttps_epi32(add(
        mul(invln2, y),
        _mm256_or_ps(f(0.5), _mm256_and_ps(sign, y)),
    ));
    let (tg, near) = (_mm256_cvtepi32_ps(kg), below(hy, 0x3f85_1592));
    let hi = sel(near, add(y, ln2_hi), sub(y, mul(tg, ln2_hi)));
    let lo = sel(near, _mm256_xor_ps(sign, ln2_lo), mul(tg, ln2_lo));
    let (r, reduced) = (sub(hi, lo), above(hy, 0x3eb1_7218));
    let c = _mm256_and_ps(_mm256_castsi256_ps(reduced), sub(sub(hi, r), lo));
    let r = sel(reduced, r, y);
    let k = _mm256_and_si256(reduced, _mm256_blendv_epi8(kg, i(-1), near));
    let (hfx, hxs) = (mul(f(0.5), r), mul(r, mul(f(0.5), r)));
    let mut p = mul(hxs, q5);
    for q in [q4, q3, q2, q1] {
        p = mul(hxs, add(q, p));
    }
    let r1 = add(f(1.0), p);
    let t = sub(f(3.0), mul(r1, hfx));
    let e = mul(hxs, _mm256_div_ps(sub(r1, t), sub(f(6.0), mul(r, t))));
    let at_k0 = sub(r, sub(mul(r, e), hxs));
    let e = sub(sub(mul(r, sub(e, c)), c), hxs);
    let at_m1 = sub(mul(f(0.5), sub(r, e)), f(0.5));
    // `y·2^k`, by adding `k` to the exponent field.
    let scale = |y| _mm256_castsi256_ps(_mm256_add_epi32(bits(y), _mm256_slli_epi32::<23>(k)));
    let e_x = sub(e, r);
    let wide = sub(scale(sub(f(1.0), e_x)), f(1.0));
    let t_lt = _mm256_sub_epi32(i(0x3f80_0000), _mm256_srlv_epi32(i(0x100_0000), k));
    let lt23 = scale(sub(_mm256_castsi256_ps(t_lt), e_x));
    let t_ge = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i(0x7f), k)));
    let ge23 = scale(add(sub(r, add(e, t_ge)), f(1.0)));
    let em = sel(below(k, 23), lt23, ge23);
    let em = sel(_mm256_or_si256(below(k, -1), above(k, 56)), wide, em);
    let em = sel(_mm256_cmpeq_epi32(k, i(-1)), at_m1, em);
    let em = sel(_mm256_cmpeq_epi32(k, i(0)), at_k0, em);
    let t = sel(below(hy, 0x3300_0000), y, em);
    // tanh from `t = expm1(y)`, its sign, then the special inputs.
    let q = _mm256_div_ps(sel(ge1, f(2.0), _mm256_xor_ps(sign, t)), add(t, f(2.0)));
    let z = sel(above(ix, 0x41af_ffff), f(1.0), sel(ge1, sub(f(1.0), q), q));
    let z = sel(
        below(ix, 0x2400_0000),
        mul(v, add(f(1.0), v)),
        _mm256_xor_ps(z, xs),
    );
    let special = sel(above(ix, 0x7f80_0000), add(v, v), _mm256_or_ps(f(1.0), xs));
    sel(above(ix, 0x7f7f_ffff), special, z)
}

/// AVX2 twin of `reference::logf` on eight lanes: subnormals normalized,
/// the `f64` core on each half with the table read by gather, then the
/// zero, negative, `+inf` and NaN lanes.
///
/// # Safety
///
/// The CPU must have AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn logf8(v: __m256) -> __m256 {
    use crate::reference::{LOGF_INVC, LOGF_LOGC, LOGF_POLY};
    use std::arch::x86_64::*;
    let (i, bits) = (_mm256_set1_epi32, _mm256_castps_si256(v));
    let above = |a, b| _mm256_cmpgt_epi32(a, i(b));
    let sel = |m, yes, no| _mm256_blendv_ps(no, yes, _mm256_castsi256_ps(m));
    let sub = _mm256_andnot_si256(above(bits, 0x007f_ffff), above(bits, 0));
    let scaled = _mm256_castps_si256(_mm256_mul_ps(v, _mm256_set1_ps(8_388_608.0)));
    let ix = _mm256_blendv_epi8(bits, _mm256_sub_epi32(scaled, i(23 << 23)), sub);
    let tmp = _mm256_sub_epi32(ix, i(0x3f33_0000));
    let idx = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), i(15));
    let k = _mm256_srai_epi32::<23>(tmp);
    let iz = _mm256_sub_epi32(ix, _mm256_and_si256(tmp, i(0xff80_0000_u32 as i32)));
    let [ln2, a0, a1, a2] = LOGF_POLY.map(f64::from_bits);
    let (add, mul) = (|a, b| _mm256_add_pd(a, b), |a, b| _mm256_mul_pd(a, b));
    let f = _mm256_set1_pd;
    let core = |iz: __m128i, i: __m128i, k: __m128i| {
        let z = _mm256_cvtps_pd(_mm_castsi128_ps(iz));
        let invc = _mm256_i32gather_pd::<8>(LOGF_INVC.as_ptr().cast(), i);
        let logc = _mm256_i32gather_pd::<8>(LOGF_LOGC.as_ptr().cast(), i);
        let r = _mm256_sub_pd(mul(z, invc), f(1.0));
        let y0 = add(logc, mul(_mm256_cvtepi32_pd(k), f(ln2)));
        let r2 = mul(r, r);
        let y = add(mul(f(a0), r2), add(mul(f(a1), r), f(a2)));
        _mm256_cvtpd_ps(add(mul(y, r2), add(y0, r)))
    };
    let (lo, hi) = (_mm256_castsi256_si128, |a| _mm256_extracti128_si256::<1>(a));
    let y = _mm256_set_m128(core(hi(iz), hi(idx), hi(k)), core(lo(iz), lo(idx), lo(k)));
    let nan = _mm256_castsi256_ps(i(crate::reference::DEFAULT_NAN as i32));
    let y = sel(_mm256_cmpgt_epi32(i(0), bits), nan, y);
    let y = sel(_mm256_cmpeq_epi32(bits, i(0x7f80_0000)), v, y);
    let y = _mm256_blendv_ps(y, _mm256_add_ps(v, v), _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
    let zero = _mm256_cmp_ps::<_CMP_EQ_OQ>(v, _mm256_setzero_ps());
    _mm256_blendv_ps(y, _mm256_set1_ps(f32::NEG_INFINITY), zero)
}

/// AVX2 twin of `reference::normal`: eight pairs of words split into `u1`
/// and `u2` lanes, `logf8` of `u1`, and `reference::cos_angle`'s `f64` core
/// on each half of the angle — `n = 0` below `0.75` (`x − 0·π/2` is `x`),
/// the cosine's coefficients negated where `n & 2`, the sine's `x` where `n
/// & 3 == 1`, the two polynomials selected by `n`'s parity — then `sqrt(−2·
/// l)·c`. The tail runs the port.
///
/// # Safety
///
/// The CPU must have AVX2+FMA, and `words` must hold two per output.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn normals_avx2(out: &mut [f32], words: &[u32]) {
    use std::arch::x86_64::*;
    let [hpi_inv, hpi, c0, c1, c2, c3, c4, s1, s2, s3] = crate::reference::COSF;
    let splat = |c: u64| _mm256_set1_pd(f64::from_bits(c));
    const EPS: f32 = f32::EPSILON;
    let (i, f) = (_mm256_set1_epi32, _mm256_set1_ps);
    let (add, mul) = (|a, b| _mm256_add_pd(a, b), |a, b| _mm256_mul_pd(a, b));
    let cos = |y: __m128, small: __m128i| {
        let x = _mm256_cvtps_pd(y);
        let n = _mm256_cvttpd_epi32(mul(x, splat(hpi_inv)));
        let n = _mm_srai_epi32::<24>(_mm_add_epi32(n, _mm_set1_epi32(0x80_0000)));
        let n = _mm_andnot_si128(small, n);
        let x = _mm256_sub_pd(x, mul(_mm256_cvtepi32_pd(n), splat(hpi)));
        let (x2, n) = (mul(x, x), _mm256_cvtepi32_epi64(n));
        // Sign bits: `n & 2` for the cosine, `n & 3 == 1` for the sine.
        let flip = _mm256_slli_epi64::<62>(_mm256_and_si256(n, _mm256_set1_epi64x(2)));
        let odd = _mm256_slli_epi64::<63>(n);
        let c = |c: u64| _mm256_xor_pd(splat(c), _mm256_castsi256_pd(flip));
        let x4 = mul(x2, x2);
        let p = add(add(c(c0), mul(x2, c(c1))), mul(x4, c(c2)));
        let cos = add(p, mul(mul(x4, x2), add(c(c3), mul(x2, c(c4)))));
        let xs = _mm256_xor_pd(x, _mm256_castsi256_pd(_mm256_andnot_si256(flip, odd)));
        let x3 = mul(xs, x2);
        let sin = add(xs, mul(x3, splat(s1)));
        let sin = add(sin, mul(mul(x3, x2), add(splat(s2), mul(x2, splat(s3)))));
        _mm256_cvtpd_ps(_mm256_blendv_pd(cos, sin, _mm256_castsi256_pd(odd)))
    };
    // `unit`'s two exact steps.
    let unit = |w: __m256i| {
        let halves = _mm256_or_si256(i(0x3f80_0000), _mm256_srli_epi32::<9>(w));
        let odd = _mm256_and_si256(_mm256_srli_epi32::<8>(w), i(1));
        let low = _mm256_castsi256_ps(_mm256_mullo_epi32(odd, i(0x3380_0000)));
        _mm256_add_ps(_mm256_sub_ps(_mm256_castsi256_ps(halves), f(1.0)), low)
    };
    // Even words, or odd ones, back in order.
    let split =
        |v: __m256| _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(v)));
    let whole = out.len() / 8 * 8;
    for at in (0..whole).step_by(8) {
        let lo = _mm256_loadu_ps(words.as_ptr().add(2 * at).cast());
        let hi = _mm256_loadu_ps(words.as_ptr().add(2 * at + 8).cast());
        let w1 = _mm256_castps_si256(split(_mm256_shuffle_ps::<0b10_00_10_00>(lo, hi)));
        let w2 = _mm256_castps_si256(split(_mm256_shuffle_ps::<0b11_01_11_01>(lo, hi)));
        // `in_range`'s `lo + (hi − lo)·u`, and `lo` where that rounds to `hi`.
        let u1 = _mm256_add_ps(f(EPS), _mm256_mul_ps(f(1.0 - EPS), unit(w1)));
        let u1 = _mm256_blendv_ps(u1, f(EPS), _mm256_cmp_ps::<_CMP_GE_OQ>(u1, f(1.0)));
        let angle = _mm256_mul_ps(f(2.0 * std::f32::consts::PI), unit(w2));
        let top = _mm256_srli_epi32::<20>(_mm256_castps_si256(angle));
        let small = _mm256_cmpgt_epi32(i(0x3f4), top);
        let (a_lo, a_hi) = (
            _mm256_castps256_ps128(angle),
            _mm256_extractf128_ps::<1>(angle),
        );
        let (s_lo, s_hi) = (
            _mm256_castsi256_si128(small),
            _mm256_extracti128_si256::<1>(small),
        );
        let c = _mm256_set_m128(cos(a_hi, s_hi), cos(a_lo, s_lo));
        let tiny = _mm256_castsi256_ps(_mm256_cmpgt_epi32(i(0x398), top));
        let c = _mm256_blendv_ps(c, f(1.0), tiny);
        let r = _mm256_sqrt_ps(_mm256_mul_ps(f(-2.0), logf8(u1)));
        _mm256_storeu_ps(out.as_mut_ptr().add(at), _mm256_mul_ps(r, c));
    }
    let tail = out[whole..]
        .iter_mut()
        .zip(words[2 * whole..].chunks_exact(2));
    for (o, w) in tail {
        *o = crate::reference::normal(w[0], w[1]);
    }
}

/// Writes `out.len() / 16` consecutive ChaCha8 keystream blocks of `state`
/// into `out`, the first at its 64-bit block counter (words 12-13, low word
/// first), and advances the counter past them, wrapping at 2^64. Each block
/// is [`crate::reference::chacha8_block`]'s bits; where the CPU has AVX2,
/// eight blocks are computed at once.
///
/// # Panics
///
/// Panics if `out` does not hold whole blocks.
pub fn chacha8_blocks(state: &mut [u32; 16], out: &mut [u32]) {
    chacha8_blocks_on(detected(), state, out);
}

/// [`chacha8_blocks`] on the instantiation `vector` names: eight blocks
/// per AVX2 call, and the blocks after the last whole group (all of them on
/// the portable path) one at a time.
pub(crate) fn chacha8_blocks_on(vector: bool, state: &mut [u32; 16], out: &mut [u32]) {
    assert_eq!(
        out.len() % 16,
        0,
        "chacha8_blocks writes whole 16-word blocks"
    );
    let counter = u64::from(state[12]) | u64::from(state[13]) << 32;
    let at = |j: usize| counter.wrapping_add(j as u64);
    let grouped = if vector { out.len() / 128 * 128 } else { 0 };
    if grouped > 0 {
        assert_detected();
        #[cfg(target_arch = "x86_64")]
        for (g, group) in out[..grouped].chunks_exact_mut(128).enumerate() {
            let group = group.try_into().expect("chunks of 128 words");
            // SAFETY: `assert_detected` just checked that AVX2+FMA are
            // present.
            unsafe { chacha8_avx2(state, at(8 * g), group) };
        }
    }
    let mut input = *state;
    for (j, block) in (grouped / 16..).zip(out[grouped..].chunks_exact_mut(16)) {
        [input[12], input[13]] = [at(j) as u32, (at(j) >> 32) as u32];
        block.copy_from_slice(&crate::reference::chacha8_block(&input));
    }
    let next = at(out.len() / 16);
    [state[12], state[13]] = [next as u32, (next >> 32) as u32];
}

/// AVX2 twin of `reference::chacha8_block` for eight blocks: lane `j` of
/// sixteen word vectors runs block `counter + j`, rotations by 16 and 8 as
/// byte shuffles and by 12 and 7 as shift pairs; two 8×8 transposes then
/// put each block's words in order.
///
/// # Safety
///
/// The CPU must have AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn chacha8_avx2(state: &[u32; 16], counter: u64, out: &mut [u32; 128]) {
    use std::arch::x86_64::*;
    // Index loops only: a closure handed to a generic (`from_fn`, `map`)
    // cannot inline into it across the target-feature boundary.
    let (mut lo, mut hi) = ([0u32; 8], [0u32; 8]);
    for j in 0..8 {
        let c = counter.wrapping_add(j as u64);
        (lo[j], hi[j]) = (c as u32, (c >> 32) as u32);
    }
    let mut input = [_mm256_setzero_si256(); 16];
    for w in 0..16 {
        input[w] = _mm256_set1_epi32(state[w] as i32);
    }
    input[12] = _mm256_loadu_si256(lo.as_ptr().cast());
    input[13] = _mm256_loadu_si256(hi.as_ptr().cast());
    #[rustfmt::skip]
    let (rot16, rot8) = (
        _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                         2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13),
        _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                         3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14),
    );
    let mut x = input;
    let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    };
    for _ in 0..4 {
        quarter(0, 4, 8, 12);
        quarter(1, 5, 9, 13);
        quarter(2, 6, 10, 14);
        quarter(3, 7, 11, 15);
        quarter(0, 5, 10, 15);
        quarter(1, 6, 11, 12);
        quarter(2, 7, 8, 13);
        quarter(3, 4, 9, 14);
    }
    for w in 0..16 {
        x[w] = _mm256_add_epi32(x[w], input[w]);
    }
    // Lane `j` of word vectors `h..h + 8` is block `j`'s words `h..h + 8`:
    // transpose each half, interleaving words in pairs, pairs in pairs,
    // then 128-bit halves, so row `j` lands at block `j`.
    let to = out.as_mut_ptr();
    for h in [0, 8] {
        let v = &x[h..h + 8];
        let mut t = [_mm256_setzero_si256(); 8];
        for i in [0, 2, 4, 6] {
            t[i] = _mm256_unpacklo_epi32(v[i], v[i + 1]);
            t[i + 1] = _mm256_unpackhi_epi32(v[i], v[i + 1]);
        }
        // `u[q + r]` holds words `r` (low half) and `r + 4` (high half) of
        // vectors `q..q + 4`.
        let mut u = [_mm256_setzero_si256(); 8];
        for q in [0, 4] {
            u[q] = _mm256_unpacklo_epi64(t[q], t[q + 2]);
            u[q + 1] = _mm256_unpackhi_epi64(t[q], t[q + 2]);
            u[q + 2] = _mm256_unpacklo_epi64(t[q + 1], t[q + 3]);
            u[q + 3] = _mm256_unpackhi_epi64(t[q + 1], t[q + 3]);
        }
        for r in 0..4 {
            let (a, b) = (u[r], u[r + 4]);
            _mm256_storeu_si256(
                to.add(16 * r + h).cast(),
                _mm256_permute2x128_si256::<0x20>(a, b),
            );
            _mm256_storeu_si256(
                to.add(16 * (r + 4) + h).cast(),
                _mm256_permute2x128_si256::<0x31>(a, b),
            );
        }
    }
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
                ks,
                off: std::array::from_fn(|r| r * rs),
            },
            BView {
                ptr: b.as_ptr(),
                ks: b_ks,
                rows: MR,
                off: [0; MR],
                steps: std::ptr::null(),
                cols: Cols::Adjacent,
                pair: NR as isize,
                at: std::ptr::null(),
            },
        )
    }

    fn out(c: &mut [f32], ldc: usize, from_zero: bool) -> CView {
        CView {
            ptr: c.as_mut_ptr(),
            ldc,
            from_zero,
            rows: MR,
            cols: NR,
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
                microkernel(k, &av, &bv, out(&mut vector, ldc, from_zero));
                crate::gemm::portable_microkernel(k, &av, &bv, out(&mut portable, ldc, from_zero));
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

    /// Both instantiations of [`chacha8_blocks`] against
    /// `reference::chacha8_block` block by block, in `gemm.rs`'s manner: 1-17
    /// blocks (whole eight-block groups and partial ones), from counters
    /// whose low word carries into the high one mid-call (`0xffff_fffa`) and
    /// that wrap at 2^64, at 1 and 4 pool threads. Each call must advance
    /// the counter past its blocks and write nothing past them.
    #[test]
    fn chacha8_blocks_equal_the_reference_block_by_block() {
        const SENTINEL: u32 = 0xdead_beef;
        let instantiations: &[bool] = if detected() {
            &[false, true]
        } else {
            eprintln!("note: no AVX2 here; vector == portable is vacuous on this CPU");
            &[false]
        };
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&crate::reference::CHACHA_CONSTANTS);
        for (w, v) in state[4..].iter_mut().enumerate() {
            *v = 0x9e37_79b9u32.wrapping_mul(w as u32 + 1) ^ 0x0123_4567;
        }
        let counters = [
            (0, 0),
            (3, 0),
            (0xffff_fffa, 0),
            (0xffff_fffa, 41),
            (0xffff_fffa, u32::MAX),
            (u32::MAX, u32::MAX),
        ];
        for pool_threads in [1, 4] {
            crate::pool::set_num_threads(pool_threads);
            for (lo, hi) in counters {
                [state[12], state[13]] = [lo, hi];
                for blocks in 1..=17 {
                    let (mut want, mut next) = (Vec::new(), state);
                    for _ in 0..blocks {
                        want.extend(crate::reference::chacha8_block(&next));
                        let c = (u64::from(next[12]) | u64::from(next[13]) << 32).wrapping_add(1);
                        [next[12], next[13]] = [c as u32, (c >> 32) as u32];
                    }
                    for &vector in instantiations {
                        let ctx = format!(
                            "counter ({lo:#x}, {hi:#x}), {blocks} blocks, \
                             {pool_threads} threads, vector={vector}"
                        );
                        let (mut got_state, mut got) = (state, vec![SENTINEL; 16 * blocks + 16]);
                        chacha8_blocks_on(vector, &mut got_state, &mut got[..16 * blocks]);
                        assert_eq!(got[..16 * blocks], want[..], "{ctx}");
                        assert!(got[16 * blocks..].iter().all(|&w| w == SENTINEL), "{ctx}");
                        assert_eq!(got_state, next, "{ctx}");
                    }
                }
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
                    microkernel(k, &av, &bv, out(&mut single, ldc, from_zero));
                    microkernel(k, &av, &b_hi, out(&mut single[NR..], ldc, from_zero));
                    microkernel_x2(k, &av, &bv, out(&mut pair, ldc, from_zero));
                }
                assert_eq!(pair, single, "k = {k}, from_zero = {from_zero}");
            }
        }
    }
}
