//! Cache-blocked, register-tiled f32 GEMM under one FMA contract.
//!
//! Structure: `A` and `B` are packed into contiguous `MR`-row / `NR`-column
//! panels (transposition is absorbed by the packing, so all three variants
//! share one macro-kernel), then an `MR x NR` micro-kernel keeps the output
//! tile in registers and walks the full contraction dimension with
//! sequential panel reads. The macro-kernel partitions work in 2-D over
//! (row-panel, column-panel-group) tiles so that medium GEMMs expose at
//! least as many chunks as the pool has threads even when `m` is small.
//!
//! # The contract
//!
//! Every output element is `acc = fma(a[i,p], b[p,j], acc)` for `p`
//! ascending from its initial value, one rounding per step — exactly the
//! loops of [`crate::reference`], the oracle. Every path computes that
//! chain, and IEEE-754 fusedMultiplyAdd is correctly rounded on every
//! platform, so all of them are **bit-identical**: to the oracle, to each
//! other, across thread counts (tile decomposition and the [`crate::pool`]
//! grain depend only on the shape), across fused widths and across
//! machines. `tests/proptests.rs` asserts identity — not closeness.
//!
//! # Paths
//!
//! | path    | shapes            | with AVX2+FMA                  | without (portable)             |
//! |---------|-------------------|--------------------------------|--------------------------------|
//! | tiled   | `>= SMALL_FLOPS`  | [`crate::simd`] 8×8 / paired 8×16 `vfmadd` tile | `portable_microkernel`, `f32::mul_add` |
//! | direct  | `< SMALL_FLOPS`; all under `Naive` | reference loops compiled with AVX2+FMA | the reference loops |
//!
//! `B` may also be *gathered* through two [`Offsets`] tables while it is
//! packed ([`gemm_gather`]), and the product *scatter-added* through them one
//! finished `MR`-row strip at a time ([`gemm_tn_scatter`]) — a convolution on
//! its padded image, no im2col matrix. On the direct row the tables first
//! materialise the operand (or the product). Same chain per element, same
//! add order per destination, either row.
//!
//! Selection is by platform and shape, never by an option: the row comes
//! from the FLOP count, the column from [`crate::simd::simd_available`]
//! (runtime detection). The process-wide [`GemmBackend`] starts as `Auto`;
//! [`set_backend`] is the in-process hook tests and A/B benchmarks use to
//! run the reference loops at every size instead. No environment variable
//! reaches this module.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::pool::{self, UnsafeSlice};
use crate::reference;
use crate::simd;
use hfta_mem::scratch;

/// Micro-kernel tile rows.
pub const MR: usize = 8;
/// Micro-kernel tile columns.
pub const NR: usize = 8;

/// Below this many FLOPs (2·m·k·n) the packed path's overhead outweighs its
/// wins and the reference loops run directly instead. Both are the same FMA
/// chain per element, so this is purely a performance crossover — a
/// constant, not a knob. Measured with the AVX2 instantiations at 1 thread
/// on the PointNet / linear-trial shapes: the `nn`/`tn` loops (unit-stride
/// rows) break even with the tiled path at 8–16 kFLOP, the `nt` loop
/// (strided `B`) already at ~2 kFLOP; 4 kFLOP sits between. By 64×64×1024
/// the tiled path is 1.9× ahead.
const SMALL_FLOPS: usize = 1 << 12;

/// Target FLOPs per parallel tile of the 2-D macro-kernel partition.
const CHUNK_FLOPS: usize = 1 << 19;

/// Which implementation the `gemm*` entry points dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmBackend {
    /// The production dispatch (default): packed, register-tiled,
    /// pool-parallel kernels above `SMALL_FLOPS`, direct loops below, each
    /// in its AVX2/FMA or portable instantiation as the CPU allows.
    Auto = 0,
    /// The retained naive serial reference loops at every size — no
    /// packing, tiling or pool — kept selectable for equivalence tests and
    /// A/B benchmarking. (The oracle proper is [`crate::reference`] called
    /// directly: these same loops, always in the portable instantiation.)
    Naive = 1,
}

impl GemmBackend {
    /// The CLI / report name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            GemmBackend::Auto => "auto",
            GemmBackend::Naive => "naive",
        }
    }
}

static BACKEND: AtomicU8 = AtomicU8::new(GemmBackend::Auto as u8);

/// Selects the GEMM implementation process-wide.
pub fn set_backend(backend: GemmBackend) {
    BACKEND.store(backend as u8, Ordering::Relaxed);
}

/// The currently selected GEMM implementation ([`GemmBackend::Auto`] until
/// [`set_backend`] says otherwise).
pub fn backend() -> GemmBackend {
    if BACKEND.load(Ordering::Relaxed) == GemmBackend::Naive as u8 {
        GemmBackend::Naive
    } else {
        GemmBackend::Auto
    }
}

/// Whether [`GemmBackend::Auto`] runs the AVX2/FMA path on this machine —
/// [`simd::simd_available`] under the name run reports record it by.
pub fn auto_simd() -> bool {
    simd::simd_available()
}

/// How operand `A` is stored relative to the `[m, k]` logical view.
#[derive(Clone, Copy)]
enum PackA<'a> {
    /// `a[m, k]` row-major.
    N(&'a [f32]),
    /// `a[k, m]` row-major (transposed access).
    T(&'a [f32]),
}

/// How operand `B` is stored relative to the `[k, n]` logical view.
#[derive(Clone, Copy)]
enum PackB<'a> {
    /// `b[k, n]` row-major.
    N(&'a [f32]),
    /// `b[n, k]` row-major (transposed access).
    T(&'a [f32]),
    /// `b[p, j] = src[off.row[p] + off.col[j]]`, `off` already checked.
    Gather(&'a [f32], Offsets<'a>),
}

/// Two offset tables addressing a logical `[rows, cols]` matrix inside a
/// larger buffer: element `(i, j)` lives at `row[i] + col[j]`.
#[derive(Debug, Clone, Copy)]
pub struct Offsets<'a> {
    row: &'a [usize],
    col: &'a [usize],
}

impl<'a> Offsets<'a> {
    /// The matrix whose element `(i, j)` lives at `row[i] + col[j]`.
    pub fn new(row: &'a [usize], col: &'a [usize]) -> Self {
        Offsets { row, col }
    }

    /// The one hard check behind the unchecked table loops: the tables have
    /// the matrix's extents and their largest sum indexes inside `len`.
    fn check(self, rows: usize, cols: usize, len: usize) {
        assert_eq!(
            (self.row.len(), self.col.len()),
            (rows, cols),
            "offset tables do not match the {rows}x{cols} matrix they address"
        );
        let max = |t: &[usize]| t.iter().max().copied();
        if let (Some(r), Some(c)) = (max(self.row), max(self.col)) {
            assert!(
                r.checked_add(c).is_some_and(|at| at < len),
                "offset tables reach {r} + {c}, outside a buffer of {len} elements"
            );
        }
    }
}

/// One of the three orientation-specific direct-loop kernels.
type DirectFn = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

/// `out[m,n] += a[m,k] @ b[k,n]`, all row-major.
pub fn gemm(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match direct_kernel(m, k, n, reference::gemm_ref, simd::gemm_small) {
        Some(direct) => direct(out, a, b, m, k, n),
        None => run_tiled(out, None, PackA::N(a), PackB::N(b), m, k, n),
    }
}

/// `out[m,n] += a[m,k] @ b[n,k]^T` (`b` stored row-major as `[n, k]`).
pub fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    match direct_kernel(m, k, n, reference::gemm_nt_ref, simd::gemm_nt_small) {
        Some(direct) => direct(out, a, b, m, k, n),
        None => run_tiled(out, None, PackA::N(a), PackB::T(b), m, k, n),
    }
}

/// `out[m,n] += a[k,m]^T @ b[k,n]` (`a` stored row-major as `[k, m]`).
pub fn gemm_tn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match direct_kernel(m, k, n, reference::gemm_tn_ref, simd::gemm_tn_small) {
        Some(direct) => direct(out, a, b, m, k, n),
        None => run_tiled(out, None, PackA::T(a), PackB::N(b), m, k, n),
    }
}

/// `out[m,n] += a[m,k] @ b[k,n]` with `b[p,j] = src[off.row[p] + off.col[j]]`,
/// gathered as the panels are packed — `b` itself never exists. Panics if
/// the tables are not `[k]` and `[n]` long or reach outside `src`.
pub fn gemm_gather(
    out: &mut [f32],
    a: &[f32],
    src: &[f32],
    off: Offsets<'_>,
    m: usize,
    k: usize,
    n: usize,
) {
    off.check(k, n, src.len());
    match direct_kernel(m, k, n, reference::gemm_ref, simd::gemm_small) {
        Some(direct) => with_dense(k * n, |b| {
            for (brow, &base) in b.chunks_exact_mut(n.max(1)).zip(off.row) {
                for (bv, &c) in brow.iter_mut().zip(off.col) {
                    *bv = src[base + c];
                }
            }
            direct(out, a, b, m, k, n)
        }),
        None => run_tiled(out, None, PackA::N(a), PackB::Gather(src, off), m, k, n),
    }
}

/// `dst[off.row[i] + off.col[j]] += (a[k,m]^T @ b[k,n])[i,j]`: every product
/// element is the contract's chain from zero, and the adds reach `dst` in
/// row-major `(i, j)` order — so overlapping destinations are well defined.
/// Panics if the tables are not `[m]` and `[n]` long or reach outside `dst`.
pub fn gemm_tn_scatter(
    dst: &mut [f32],
    a: &[f32],
    b: &[f32],
    off: Offsets<'_>,
    m: usize,
    k: usize,
    n: usize,
) {
    off.check(m, n, dst.len());
    match direct_kernel(m, k, n, reference::gemm_tn_ref, simd::gemm_tn_small) {
        Some(direct) => with_dense(m * n, |product| {
            direct(product, a, b, m, k, n);
            scatter_add(dst, off, 0, product, n);
        }),
        None => with_dense(MR * n, |strip| {
            run_tiled(dst, Some((off, strip)), PackA::T(a), PackB::N(b), m, k, n)
        }),
    }
}

/// Zeroed scratch for the dense copy of a table-addressed operand, product
/// or `MR`-row strip of one; one per thread that can be inside a GEMM.
fn with_dense<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let count = pool::in_worker().then(pool::num_threads).unwrap_or(1);
    scratch::reserve("gemm.dense", len, count);
    scratch::with(len, f)
}

/// `dst[off.row[i0 + r] + off.col[j]] += rows[r * n + j]`, row-major; `off` checked for `dst`.
fn scatter_add(dst: &mut [f32], off: Offsets<'_>, i0: usize, rows: &[f32], n: usize) {
    for (row, &base) in rows.chunks_exact(n.max(1)).zip(&off.row[i0..]) {
        for (&v, &c) in row.iter().zip(off.col) {
            // SAFETY: `Offsets::check` bounded every row + column sum.
            unsafe { *dst.get_unchecked_mut(base + c) += v };
        }
    }
}

/// The direct-loop kernel this dispatch runs, if any: the reference loops
/// — in whichever instantiation the platform allows — at every size under
/// [`GemmBackend::Naive`] and below [`SMALL_FLOPS`] otherwise; `None` for
/// the tiled path.
fn direct_kernel(
    m: usize,
    k: usize,
    n: usize,
    portable: DirectFn,
    vector: DirectFn,
) -> Option<DirectFn> {
    if backend() == GemmBackend::Auto && 2 * m * k * n >= SMALL_FLOPS {
        None
    } else if simd::simd_available() {
        Some(vector)
    } else {
        Some(portable)
    }
}

/// Packs all of `B` into `ceil(n/NR)` zero-padded column panels; panel `jb`
/// occupies `bpack[jb*k*NR..][p*NR + c] = B[p, jb*NR + c]`. `bpack` must
/// arrive zero-filled (scratch checkouts are) — the packing only writes the
/// valid columns and relies on the zeros for panel padding.
fn pack_b_into(b: PackB<'_>, k: usize, n: usize, bpack: &mut [f32]) {
    let col_panels = n.div_ceil(NR);
    debug_assert_eq!(bpack.len(), col_panels * k * NR);
    for jb in 0..col_panels {
        let j0 = jb * NR;
        let cols = NR.min(n - j0);
        let panel = &mut bpack[jb * k * NR..(jb + 1) * k * NR];
        match b {
            PackB::N(src) => {
                for p in 0..k {
                    let row = &src[p * n + j0..p * n + j0 + cols];
                    panel[p * NR..p * NR + cols].copy_from_slice(row);
                }
            }
            PackB::T(src) => {
                for (c, col) in src[j0 * k..(j0 + cols) * k].chunks_exact(k).enumerate() {
                    for (p, &v) in col.iter().enumerate() {
                        panel[p * NR + c] = v;
                    }
                }
            }
            PackB::Gather(src, off) => {
                // A short last panel reads its first column again (to keep
                // the row loop `NR` wide), then gets its zero padding back.
                let mut col = [off.col[j0]; NR];
                col[..cols].copy_from_slice(&off.col[j0..j0 + cols]);
                for (prow, &base) in panel.chunks_exact_mut(NR).zip(off.row) {
                    for (pv, &c) in prow.iter_mut().zip(&col) {
                        // SAFETY: `Offsets::check` bounded every row + column sum.
                        *pv = unsafe { *src.get_unchecked(base + c) };
                    }
                    prow[cols..].fill(0.0);
                }
            }
        }
    }
}

/// Packs rows `i0..i0+rows` of `A` into a zero-padded `MR`-row panel:
/// `buf[p*MR + r] = A[i0 + r, p]`.
fn pack_a(a: PackA<'_>, m: usize, k: usize, i0: usize, rows: usize, buf: &mut [f32]) {
    debug_assert_eq!(buf.len(), k * MR);
    if rows < MR {
        buf.fill(0.0);
    }
    match a {
        PackA::N(src) => {
            for r in 0..rows {
                let arow = &src[(i0 + r) * k..(i0 + r + 1) * k];
                for (p, &v) in arow.iter().enumerate() {
                    buf[p * MR + r] = v;
                }
            }
        }
        PackA::T(src) => {
            for (p, prow) in buf.chunks_exact_mut(MR).enumerate() {
                let arow = &src[p * m + i0..p * m + i0 + rows];
                // As for tile rows: a full panel row is a fixed-size copy.
                if rows == MR {
                    prow.copy_from_slice(arow);
                } else {
                    prow[..rows].copy_from_slice(arow);
                }
            }
        }
    }
}

/// The portable register-tiled inner kernel: `acc[r][c] = fma(apanel[p][r],
/// bpanel[p][c], acc[r][c])` for `p` ascending — the contract's chain via
/// [`f32::mul_add`] (native `fmadd` on aarch64, libm `fmaf` on x86-64
/// without FMA: slow but correctly rounded). Runs only where
/// [`simd::simd_available`] is false. `acc` rows/columns beyond the valid
/// tile see only the panels' zero padding and are never stored.
#[inline]
pub(crate) fn portable_microkernel(
    k: usize,
    apanel: &[f32],
    bpanel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(k) {
        let arow: &[f32; MR] = arow.try_into().unwrap();
        let brow: &[f32; NR] = brow.try_into().unwrap();
        for r in 0..MR {
            let av = arow[r];
            let accr = &mut acc[r];
            for c in 0..NR {
                accr[c] = av.mul_add(brow[c], accr[c]);
            }
        }
    }
}

/// The 2-D tiled macro-kernel. Work is split over (row-panel-group,
/// column-panel-group) tiles: when one row panel already carries
/// [`CHUNK_FLOPS`] the columns split so short-`m` GEMMs still expose many
/// chunks; otherwise row panels group as before. Both grains — and hence the
/// decomposition — are pure functions of the shape, and every output element
/// is produced by exactly one micro-kernel call walking the full
/// contraction ascending, so results are bit-identical at any thread count.
/// [`simd::simd_available`], read once per call, picks the AVX2/FMA
/// instantiation of the micro-kernel over the portable one.
///
/// With `scatter` tables `out` is a destination, not `[m, n]`: a row panel's
/// tiles start from zero and fill the `MR x n` strip beside the tables, which
/// is then added to `out` row by row. All of it is one chunk, so the adds to
/// any destination come in ascending row order; scattering tile by tile
/// would reorder them.
fn run_tiled(
    out: &mut [f32],
    scatter: Option<(Offsets<'_>, &mut [f32])>,
    a: PackA<'_>,
    b: PackB<'_>,
    m: usize,
    k: usize,
    n: usize,
) {
    let vector = simd::simd_available();
    let row_panels = m.div_ceil(MR);
    let col_panels = n.div_ceil(NR);
    let panel_flops = 2 * MR * k * n;
    let (row_grain, col_grain) = if scatter.is_some() {
        (row_panels, col_panels)
    } else if panel_flops >= CHUNK_FLOPS {
        (
            1,
            (CHUNK_FLOPS / (2 * MR * k * NR).max(1)).clamp(1, col_panels),
        )
    } else {
        (
            (CHUNK_FLOPS / panel_flops.max(1)).clamp(1, row_panels),
            col_panels,
        )
    };
    let row_groups = row_panels.div_ceil(row_grain);
    let col_groups = col_panels.div_ceil(col_grain);
    let n_chunks = row_groups * col_groups;
    let bpack_len = col_panels * k * NR;
    // Worst-case concurrent scratch demand. A GEMM nested inside a pool
    // worker runs inline there, so every worker can hold one B-pack and one
    // A-panel at once; a top-level GEMM holds one B-pack on the caller while
    // its tile chunks each hold an A-panel.
    let (bpack_count, apanel_count) = if pool::in_worker() {
        (pool::num_threads(), pool::num_threads())
    } else {
        (1, pool::num_threads().min(n_chunks))
    };
    let scatter = scatter.map(|(off, strip)| (off, UnsafeSlice::new(strip)));
    scratch::reserve("gemm.bpack", bpack_len, bpack_count);
    scratch::reserve("gemm.apanel", k * MR, apanel_count);
    scratch::with(bpack_len, |bpack| {
        pack_b_into(b, k, n, bpack);
        let shared = UnsafeSlice::new(out);
        pool::parallel_for_work(n_chunks, 1, 2 * m * k * n, |chunks| {
            scratch::with(k * MR, |apanel| {
                for chunk in chunks {
                    let rg = chunk / col_groups;
                    let jg = chunk % col_groups;
                    let jp_end = ((jg + 1) * col_grain).min(col_panels);
                    for ib in rg * row_grain..((rg + 1) * row_grain).min(row_panels) {
                        let i0 = ib * MR;
                        let rows = MR.min(m - i0);
                        pack_a(a, m, k, i0, rows, apanel);
                        // Tiles live in `out` itself, or in the strip.
                        let (tiles, row0, seeded) = match &scatter {
                            None => (&shared, i0, rows),
                            Some((_, strip)) => (strip, 0, 0),
                        };
                        let load_acc = |jb: usize| -> [[f32; NR]; MR] {
                            let j0 = jb * NR;
                            let cols = NR.min(n - j0);
                            let mut acc = [[0.0f32; NR]; MR];
                            for (r, accr) in acc.iter_mut().enumerate().take(seeded) {
                                let at = (row0 + r) * n + j0;
                                // SAFETY: tile (ib, jb) belongs to exactly one
                                // chunk, so these regions are disjoint across
                                // concurrent chunks.
                                let orow = unsafe { tiles.slice_mut(at..at + cols) };
                                // A full row copies as one fixed-size block;
                                // a variable length is a `memcpy` call per row.
                                if cols == NR {
                                    accr.copy_from_slice(orow);
                                } else {
                                    accr[..cols].copy_from_slice(orow);
                                }
                            }
                            acc
                        };
                        let store_acc = |jb: usize, acc: &[[f32; NR]; MR]| {
                            let j0 = jb * NR;
                            let cols = NR.min(n - j0);
                            for (r, accr) in acc.iter().enumerate().take(rows) {
                                let at = (row0 + r) * n + j0;
                                // SAFETY: as above (the strip is this chunk's
                                // own); the read borrow ended.
                                let orow = unsafe { tiles.slice_mut(at..at + cols) };
                                if cols == NR {
                                    orow.copy_from_slice(accr);
                                } else {
                                    orow.copy_from_slice(&accr[..cols]);
                                }
                            }
                        };
                        let mut jb = jg * col_grain;
                        while jb < jp_end {
                            // The vector path pairs adjacent column panels
                            // (8x16 tile) whenever the chunk holds two more:
                            // bitwise equal to two single-tile calls (see
                            // `simd::microkernel_x2`), so the pairing — a
                            // chunk-local accident — never changes results.
                            if vector && jb + 1 < jp_end {
                                let bp0 = &bpack[jb * k * NR..(jb + 1) * k * NR];
                                let bp1 = &bpack[(jb + 1) * k * NR..(jb + 2) * k * NR];
                                let mut acc0 = load_acc(jb);
                                let mut acc1 = load_acc(jb + 1);
                                simd::microkernel_x2(k, apanel, bp0, bp1, &mut acc0, &mut acc1);
                                store_acc(jb, &acc0);
                                store_acc(jb + 1, &acc1);
                                jb += 2;
                                continue;
                            }
                            let bpanel = &bpack[jb * k * NR..(jb + 1) * k * NR];
                            let mut acc = load_acc(jb);
                            if vector {
                                simd::microkernel(k, apanel, bpanel, &mut acc);
                            } else {
                                portable_microkernel(k, apanel, bpanel, &mut acc);
                            }
                            store_acc(jb, &acc);
                            jb += 1;
                        }
                        if let Some((off, strip)) = &scatter {
                            // SAFETY (both): a scatter is a single chunk and
                            // every tile borrow above has ended, so nothing
                            // else borrows `out` or the strip.
                            let dst = unsafe { shared.slice_mut(0..shared.len()) };
                            let done = unsafe { strip.slice_mut(0..rows * n) };
                            scatter_add(dst, *off, i0, done, n);
                        }
                    }
                }
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state as f64 / u64::MAX as f64) as f32 - 0.5) * 2.0
            })
            .collect()
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

    /// Runs `f` under each micro-kernel instantiation (the vector one where
    /// the CPU has it), selected through the [`simd::set_simd_enabled`] hook
    /// that [`run_tiled`] reads.
    fn for_each_instantiation(mut f: impl FnMut(bool)) {
        let _hook = simd::HOOK_LOCK.lock().unwrap();
        for vector in [false, true] {
            simd::set_simd_enabled(vector);
            if simd::simd_available() == vector {
                f(vector);
            }
        }
        simd::set_simd_enabled(true);
    }

    /// Table pair for an `[rows, cols]` matrix scattered over `len` slots:
    /// strided rows and columns that overlap each other (like a stride-1
    /// convolution's taps), deterministic in `salt`.
    fn tables(rows: usize, cols: usize, salt: usize) -> (Vec<usize>, Vec<usize>, usize) {
        let row: Vec<usize> = (0..rows).map(|i| (i * 3 + salt) % 11 + i / 4 * 5).collect();
        let col: Vec<usize> = (0..cols).map(|j| j * 2 + (j + salt) % 3).collect();
        let len = row.iter().max().unwrap() + col.iter().max().unwrap() + 1;
        (row, col, len)
    }

    #[test]
    fn tiled_bitwise_equals_reference_over_shape_sweep() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (8, 8, 8),
            (9, 17, 11),
            (16, 72, 25),
            (33, 7, 40),
            (64, 64, 64),
            // Short-m, wide-n: exercises the column-split partition regime.
            (8, 96, 700),
        ] {
            let a = fill(m * k, 1 + (m * 31 + k * 7 + n) as u64);
            let b = fill(k * n, 2 + (m + k * 13 + n * 3) as u64);
            let init = fill(m * n, 3 + (m + k + n) as u64);
            let at = transpose(&a, m, k);
            let bt = transpose(&b, k, n);

            let mut slow = init.clone();
            reference::gemm_ref(&mut slow, &a, &b, m, k, n);
            let mut slow_tn = init.clone();
            reference::gemm_tn_ref(&mut slow_tn, &at, &b, m, k, n);
            let mut slow_nt = init.clone();
            reference::gemm_nt_ref(&mut slow_nt, &a, &bt, m, k, n);

            // The same `b`, read out of a sparse buffer through tables.
            let (b_row, b_col, b_len) = tables(k, n, m);
            let mut b_src = fill(b_len, 4 + (m * k * n) as u64);
            let b_off = Offsets::new(&b_row, &b_col);
            let mut b_seen = vec![0.0f32; k * n];
            for p in 0..k {
                for j in 0..n {
                    b_seen[p * n + j] = b_src[b_row[p] + b_col[j]];
                }
            }
            let mut slow_gather = init.clone();
            reference::gemm_ref(&mut slow_gather, &a, &b_seen, m, k, n);

            // `a^T b` from zero, then added through tables in row-major order.
            let (o_row, o_col, o_len) = tables(m, n, k);
            let o_off = Offsets::new(&o_row, &o_col);
            let mut product = vec![0.0f32; m * n];
            reference::gemm_tn_ref(&mut product, &at, &b, m, k, n);
            b_src.resize(o_len.max(b_len), 0.5);
            let mut slow_scatter = b_src[..o_len].to_vec();
            for i in 0..m {
                for j in 0..n {
                    slow_scatter[o_row[i] + o_col[j]] += product[i * n + j];
                }
            }

            for_each_instantiation(|vector| {
                let tiled = |pa: PackA<'_>, pb: PackB<'_>| {
                    let mut out = init.clone();
                    run_tiled(&mut out, None, pa, pb, m, k, n);
                    out
                };
                let at_shape = format!("({m},{k},{n}) vector={vector}");
                assert_eq!(
                    tiled(PackA::N(&a), PackB::N(&b)),
                    slow,
                    "gemm mismatch at {at_shape}"
                );
                assert_eq!(
                    tiled(PackA::T(&at), PackB::N(&b)),
                    slow_tn,
                    "gemm_tn mismatch at {at_shape}"
                );
                assert_eq!(
                    tiled(PackA::N(&a), PackB::T(&bt)),
                    slow_nt,
                    "gemm_nt mismatch at {at_shape}"
                );
                assert_eq!(
                    tiled(PackA::N(&a), PackB::Gather(&b_src[..b_len], b_off)),
                    slow_gather,
                    "gemm_gather mismatch at {at_shape}"
                );
                let mut dst = b_src[..o_len].to_vec();
                let mut strip = vec![f32::NAN; MR * n];
                let sink = Some((o_off, &mut strip[..]));
                run_tiled(&mut dst, sink, PackA::T(&at), PackB::N(&b), m, k, n);
                assert_eq!(dst, slow_scatter, "gemm_tn_scatter mismatch at {at_shape}");
            });
        }
    }

    #[test]
    #[should_panic(expected = "offset tables reach 9 + 6, outside a buffer of 15 elements")]
    fn gather_rejects_a_table_that_reaches_outside_the_source() {
        let mut out = [0.0f32; 4];
        let off = Offsets::new(&[0, 9], &[0, 6]);
        gemm_gather(&mut out, &[1.0; 4], &[0.0; 15], off, 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "offset tables reach 9 + 6, outside a buffer of 15 elements")]
    fn scatter_rejects_a_table_that_reaches_outside_the_destination() {
        let mut dst = [0.0f32; 15];
        let off = Offsets::new(&[0, 9], &[0, 6]);
        gemm_tn_scatter(&mut dst, &[1.0; 6], &[1.0; 6], off, 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "offset tables do not match the 3x2 matrix they address")]
    fn gather_rejects_tables_of_the_wrong_extent() {
        let mut out = [0.0f32; 4];
        let off = Offsets::new(&[0, 1], &[0, 1]);
        gemm_gather(&mut out, &[1.0; 6], &[0.0; 16], off, 2, 3, 2);
    }

    #[test]
    fn backend_toggle_dispatches_naive() {
        let prev = backend();
        set_backend(GemmBackend::Naive);
        assert_eq!(backend(), GemmBackend::Naive);
        let a = fill(16 * 16, 9);
        let b = fill(16 * 16, 10);
        let mut via_entry = vec![0.0f32; 16 * 16];
        gemm(&mut via_entry, &a, &b, 16, 16, 16);
        set_backend(GemmBackend::Auto);
        assert_eq!(backend(), GemmBackend::Auto);
        let mut via_ref = vec![0.0f32; 16 * 16];
        reference::gemm_ref(&mut via_ref, &a, &b, 16, 16, 16);
        assert_eq!(via_entry, via_ref);
        set_backend(prev);
    }

    #[test]
    fn degenerate_dims_are_no_ops() {
        let mut out: Vec<f32> = vec![1.0; 4];
        gemm(&mut out, &[], &[], 2, 0, 2);
        assert_eq!(out, vec![1.0; 4]);
        let mut empty: Vec<f32> = Vec::new();
        gemm(&mut empty, &[], &[], 0, 3, 0);
        assert!(empty.is_empty());
    }
}
