//! Cache-blocked, register-tiled f32 GEMM under one FMA contract, behind one
//! batched entry point.
//!
//! Structure: an `MR x NR` micro-kernel (`MR x 2·NR` paired, on the vector
//! path) keeps an output tile in registers for the full contraction and
//! reads three strided views: `A` as a row offset per tile row and a k
//! stride, `B` as `(ptr, k stride)` over contiguous columns plus an offset
//! per group of rows, the output as `(ptr, ldc, from_zero, rows, cols)`.
//! Every tile reads `A` and `B` (`PackB::N`, and `PackB::Gather` as a view)
//! where they lie and accumulates straight in its output block (from its
//! value, or from zero for a write sink's first entry) or scatter strip; a
//! tile with a partial side masks its columns and skips its rows. Only
//! `PackB::T` is packed. The
//! macro-kernel partitions work in 2-D over
//! (row-panel, column-panel-group) tiles so that medium GEMMs expose at
//! least as many chunks as the pool has threads even when `m` is small.
//!
//! A product under `MR` rows fills a tile with *lanes*: the rows of up to
//! `MR / m` consecutive entries whose output blocks abut, each group of `m`
//! rows reading its own entry's `B` panel — a fused op's tiny products at
//! tile speed.
//!
//! # One call per op
//!
//! [`gemm_batched`] takes a whole batch of same-shape products: the
//! `(sample × group)` blocks of a grouped convolution, the `B` products of a
//! fused `bmm`. Each operand has a layout ([`PackA`], [`PackB`]), the
//! products go to an [`Out`], and two [`Axis`] strides place every entry. An
//! axis whose output stride is 0 is a reduction: its entries add into one
//! block in ascending order, and a tiled one *folds* — the entries become
//! segments of one contraction, so each tile keeps its chains in registers
//! across them and stores once. [`gemm()`], [`gemm_nt`] and [`gemm_tn`] are
//! the one-entry case.
//!
//! The batch splits across the pool by one rule, which depends on the shape
//! only. Output blocks, each counted with its whole reduction chain, group
//! into chunks of about `CHUNK_FLOPS`. A batch that makes a single chunk
//! runs its entries in order on the caller, and each GEMM splits its own
//! tiles. The direct-or-tiled decision, the instantiation, the lane stacking
//! and the workspace checkout are made once per call, and each chunk of
//! entries holds one slot of that workspace, not one buffer per entry.
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
//! | path    | with AVX2+FMA                  | without (portable)             |
//! |---------|--------------------------------|--------------------------------|
//! | tiled   | every product but a table-addressed one `< SMALL_FLOPS`: [`crate::simd`] 8×8 (lanes: 1–4 rows per entry) / paired 8×16 `vfmadd` tile on strided views, `B^T` packed 8×8 blocks at a time | `>= SMALL_FLOPS`, and `A^T B^T` at every size: `portable_microkernel` (8×8, lanes), `f32::mul_add` |
//! | direct  | a gathered or scattered product `< SMALL_FLOPS`: `A B` / `A^T B` reference loops compiled with AVX2+FMA | `< SMALL_FLOPS`: the reference loops |
//! | tables  | a gathered `B` as a view: row `p` at its table offset, each panel's columns adjacent (`loadu`), two quads or `vgatherdps` (`view_panels`); a scatter's column runs 8 lanes wide | the view cell by cell; the scatter one cell at a time |
//! | windows | each entry's planes zero-padded in workspace (`Pad`; a stride-2 gather's split by column parity, so its output rows read as adjacent cells), then the tables row | the same |
//! | sinks   | [`Out::Add`] / [`Out::Scatter`] add to the destination; [`Out::Write`] tiles start from zeros in registers (the direct loops: a zeroed block), [`Out::ScatterWrite`] zeroes its padded planes (unpadded: its block) instead of filling them from the destination | the same |
//! | folds   | a tiled reduction of `B` read in place, or of packed `B` under `FOLD_STEPS` steps: one contraction of `k`-step segments, each entry's `B` packed after the last's | the same |
//!
//! `B` may also be *gathered* through two [`Offsets`] tables
//! ([`PackB::Gather`]), which the tiles read as a view — step `p` at
//! `row[p]`, a panel's columns past `col[j0]` — and the product
//! *scatter-added* through them one finished `MR`-row strip at a time
//! ([`Out::Scatter`]) — a convolution on its unpadded image, whose padding
//! is the tables' [`Window`], with no im2col matrix and no padded copy. On
//! the direct row the tables first materialise the operand (or the
//! product). On the vector column each call splits a scatter's column table
//! into arithmetic runs once (`split_runs`), and `simd::scatter_strip` adds
//! a row's distinct cells run by run in ascending `j`. A gather only moves
//! bits: same chain per element, same add order per destination, on every
//! row and column.
//!
//! Selection is by platform and shape, never by an option: the row comes
//! from the FLOP count and the layout, the column from `simd::detected` (runtime
//! detection), which each call reads once and passes down as a `vector`
//! flag. No environment variable or process-wide switch reaches this
//! module; the unit tests below pick a column by passing the flag.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool::{self, UnsafeSlice};
use crate::reference;
use crate::simd;
use hfta_mem::Storage;

/// Micro-kernel tile rows.
pub const MR: usize = 8;
/// Micro-kernel tile columns.
pub const NR: usize = 8;
/// Column panels of the one-row kernel: eight chains hide the FMA latency.
pub(crate) const ROW: usize = 8;

/// How [`run_tiled`] walks one call: the stacked entries, the contraction's
/// [`Steps`] over the operands (a folded reduction's entries as its
/// segments) and whether its chains start from zero (`None`: one segment,
/// added to the output), and the [`tile_grid`].
type Tiling = (Axis, Option<(Steps, bool)>, (usize, usize, usize));

/// A contraction as a micro-kernel walks it: `segs` segments of `k` steps,
/// segment `s` reading `A` `s·a` and `B` `s·b` elements past segment 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Steps {
    pub(crate) k: usize,
    pub(crate) segs: usize,
    pub(crate) a: usize,
    pub(crate) b: usize,
}

impl From<usize> for Steps {
    /// `k` steps in one segment.
    fn from(k: usize) -> Steps {
        Steps {
            k,
            segs: 1,
            a: 0,
            b: 0,
        }
    }
}

/// Below this many FLOPs (2·m·k·n) per entry the reference loops run instead
/// of the tiles: on the portable column, and on the vector column for a
/// table-addressed product. The same FMA chain per element, so a performance
/// crossover, not a knob. Measured at 1 thread on a Xeon (`small products`
/// ablation): stacked, the AVX2 tiles beat the AVX2 loops on all but two
/// plain PointNet products (1.1–5×) and trail them by 10–30 % on those two
/// (0.6–0.8 kFLOP); a 2 kFLOP scatter still runs 1.3× faster on the loops.
/// The portable loops break even with the tiles at 8–16 kFLOP.
const SMALL_FLOPS: usize = 1 << 12;

/// Target FLOPs per parallel chunk: of output blocks in a batch, and of
/// tiles inside one GEMM.
const CHUNK_FLOPS: usize = 1 << 19;

/// Most steps, over all its entries, of a reduction whose packed `B` folds:
/// past it the packed entries outgrow the L2 cache for a saving under 1/64
/// of the FMAs (DCGAN D1 / D2 weight gradients, 2 x 1024 / 2 x 256 steps,
/// ran x0.9 folded, D4's 2 x 16 x1.15). A performance crossover, not a knob.
const FOLD_STEPS: usize = 128;

/// The one GEMM dispatch, as [`backend`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoBackend;

impl AutoBackend {
    /// The report name of the dispatch: `"auto"`.
    pub fn name(self) -> &'static str {
        "auto"
    }
}

/// The dispatch every entry point runs. There is only one, so this never
/// changes; it is kept, like [`auto_simd`] and [`crate::tune::enabled`],
/// because run records (the out-of-workspace `benchmark/` host record,
/// `bench_kernels`) name it.
pub fn backend() -> AutoBackend {
    AutoBackend
}

/// Whether the entry points run the AVX2/FMA path on this machine: CPU
/// detection, under the name the `benchmark/` host record reads.
pub fn auto_simd() -> bool {
    simd::detected()
}

/// How operand `A` is stored relative to the `[m, k]` logical view.
#[derive(Debug, Clone, Copy)]
pub enum PackA<'a> {
    /// `a[m, k]` row-major.
    N(&'a [f32]),
    /// `a[k, m]` row-major (transposed access).
    T(&'a [f32]),
}

/// How operand `B` is stored relative to the `[k, n]` logical view.
#[derive(Debug, Clone, Copy)]
pub enum PackB<'a> {
    /// `b[k, n]` row-major.
    N(&'a [f32]),
    /// `b[n, k]` row-major (transposed access).
    T(&'a [f32]),
    /// `b[p, j] = src[row[p] + col[j]]` through `[k]` and `[n]` tables:
    /// read by the tiles where it lies, as a view, so `b` itself never
    /// exists.
    Gather(&'a [f32], Offsets<'a>),
}

impl<'a> PackA<'a> {
    /// One batch entry's operand: the `len` elements at `off`.
    fn at(self, off: usize, len: usize) -> Self {
        match self {
            PackA::N(s) => PackA::N(&s[off..off + len]),
            PackA::T(s) => PackA::T(&s[off..off + len]),
        }
    }
}

impl<'a> PackB<'a> {
    /// As [`PackA::at`]; a gathered source keeps its whole tail, which the
    /// tables address.
    fn at(self, off: usize, len: usize) -> Self {
        match self {
            PackB::N(s) => PackB::N(&s[off..off + len]),
            PackB::T(s) => PackB::T(&s[off..off + len]),
            PackB::Gather(s, tables) => PackB::Gather(&s[off..], tables),
        }
    }
}

/// Two offset tables addressing a logical `[rows, cols]` matrix inside a
/// larger buffer: element `(i, j)` lives at `row[i] + col[j]`, where its
/// [`Window`], if any, holds it.
#[derive(Debug, Clone, Copy)]
pub struct Offsets<'a> {
    pub(crate) row: &'a [isize],
    pub(crate) col: &'a [isize],
    window: Option<&'a Window<'a>>,
    /// `col` as [`split_runs`] reads it, on the vector path only.
    pub(crate) runs: Option<&'a [Run]>,
    /// A gathered `B`'s column panels as [`view_panels`] classifies them.
    pub(crate) panels: Option<&'a [Cols]>,
    /// With `runs`: every `col` entry has `col[0]`'s parity, so a row one
    /// cell past another never meets it (a stride-2 scatter's `v`, `v + 1`).
    pub(crate) even: bool,
}

/// Which elements of a table pair exist. Every entry is a whole number of
/// `[h, w]` planes plus a shift inside one: `row[i] = base + y[i]·w + x[i]`,
/// and `col[j]` likewise. Element `(i, j)` exists only where the summed
/// shift `(y[i] + y[j], x[i] + x[j])` lies in `[0, h) × [0, w)`: a missing
/// one gathers as `+0.0` and scatters nowhere. A convolution's zero padding
/// is such a window, with no padded copy of its image.
#[derive(Debug, Clone, Copy)]
pub struct Window<'a> {
    /// The rows' `y` and `x` shifts.
    pub row: [&'a [i32]; 2],
    /// The columns' `y` and `x` shifts.
    pub col: [&'a [i32]; 2],
    /// The planes' `(h, w)`.
    pub hw: (usize, usize),
}

impl<'a> Offsets<'a> {
    /// The matrix whose element `(i, j)` lives at `row[i] + col[j]`.
    pub fn new(row: &'a [usize], col: &'a [usize]) -> Self {
        // SAFETY: `usize` and `isize` share size and alignment, and every
        // bit pattern is an `isize`; an entry past `isize::MAX` reads as
        // negative, which `check` rejects.
        let signed =
            |t: &'a [usize]| unsafe { std::slice::from_raw_parts(t.as_ptr().cast(), t.len()) };
        Offsets::windowed(signed(row), signed(col), None)
    }

    /// The matrix whose element `(i, j)` lives at `row[i] + col[j]`, where
    /// `window`, if any, holds it.
    pub fn windowed(row: &'a [isize], col: &'a [isize], window: Option<&'a Window<'a>>) -> Self {
        Offsets {
            row,
            col,
            window,
            runs: None,
            panels: None,
            even: false,
        }
    }

    /// These tables, their column table classified as `runs` or not.
    fn with(self, runs: Option<&'a [Run]>) -> Self {
        let even = runs.is_some()
            && self
                .col
                .iter()
                .all(|c| c.wrapping_sub(self.col[0]) % 2 == 0);
        Offsets { runs, even, ..self }
    }

    /// The one hard check behind the unchecked table loops: the tables have
    /// the matrix's extents, their least sum is not negative and their
    /// largest indexes inside `len`. Returns the span they address,
    /// `max(row) + max(col) + 1`, or 0 for an empty matrix.
    fn check(self, rows: usize, cols: usize, len: usize) -> usize {
        assert_eq!(
            (self.row.len(), self.col.len()),
            (rows, cols),
            "offset tables do not match the {rows}x{cols} matrix they address"
        );
        let span = |t: &[isize]| t.iter().copied().min().zip(t.iter().copied().max());
        let (Some((r0, r)), Some((c0, c))) = (span(self.row), span(self.col)) else {
            return 0;
        };
        match (r0.checked_add(c0), r.checked_add(c)) {
            (Some(0..), Some(at)) if (at as usize) < len => at as usize + 1,
            _ => panic!("offset tables reach {r} + {c}, outside a buffer of {len} elements"),
        }
    }
}

/// An arithmetic run of a column table: `col[at + t] = col[at] + step·t`
/// for `t < len`, `step` wrapping (0 for a lone entry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) at: usize,
    pub(crate) len: usize,
    pub(crate) step: isize,
}

/// `col` as consecutive maximal runs, taken greedily from the left. Split
/// once per call, for the scatter's vector twin.
fn split_runs(col: &[isize]) -> Vec<Run> {
    let (mut runs, mut at) = (Vec::new(), 0);
    while at < col.len() {
        let step = col.get(at + 1).map_or(0, |c| c.wrapping_sub(col[at]));
        let pairs = col[at + 1..].iter().zip(&col[at..]);
        let len = 1 + pairs
            .take_while(|(c, p)| c.wrapping_sub(**p) == step)
            .count();
        runs.push(Run { at, len, step });
        at += len;
    }
    runs
}

/// A windowed operand as every path reads it: each entry's `planes` `[h, w]`
/// planes copied into zeroed `[hp, wp]` ones at `(top, left)` in workspace,
/// wide enough that every element, there or not, lands inside them, and the
/// tables remapped to them. A gather reads a missing element from the zero
/// margin, and a scatter adds it there, to be dropped when the planes are
/// copied back. The padded planes of one entry stay in cache; reading them
/// costs less than testing every row of every `NR`-column group against
/// the window (a third of the rows of a 3x3 convolution's border groups).
///
/// With `phase` (a gather whose columns all shift `x` by even amounts, a
/// stride-2 convolution's output pixels) each padded row holds its even
/// columns, then its odd ones: a column step of 2 becomes a step of 1, so
/// a view loads an output row's pixels as adjacent cells.
struct Pad {
    planes: usize,
    hw: (usize, usize),
    at: (usize, usize),
    padded: (usize, usize),
    phase: bool,
    row: Vec<isize>,
    col: Vec<isize>,
}

impl Pad {
    /// The padded planes of `t` under its window; `check` on the remapped
    /// tables bounds what a table of the wrong length or shifts remaps to.
    ///
    /// # Panics
    ///
    /// Panics if an entry's base is not a whole number of planes.
    fn new(t: Offsets<'_>, win: &Window<'_>, phase: bool) -> Pad {
        let (h, w) = (win.hw.0 as isize, win.hw.1 as isize);
        // Each table's least and greatest `y` and `x` shift, in one pass.
        let span = |[ys, xs]: [&[i32]; 2]| {
            let mut b = [i32::MAX, i32::MIN, i32::MAX, i32::MIN];
            for (&y, &x) in ys.iter().zip(xs) {
                b = [b[0].min(y), b[1].max(y), b[2].min(x), b[3].max(x)];
            }
            b.map(|v| v as isize)
        };
        let ([ry0, ry1, rx0, rx1], [cy0, cy1, cx0, cx1]) = (span(win.row), span(win.col));
        let (top, left) = ((-(ry0 + cy0)).max(0), (-(rx0 + cx0)).max(0));
        let (hp, wp) = (top + h.max(ry1 + cy1 + 1), left + w.max(rx1 + cx1 + 1));
        let wp = wp + (wp & isize::from(phase));
        // Padded column `x`'s place in its row.
        let at = |x: isize| {
            if phase {
                (x & 1) * (wp / 2) + (x >> 1)
            } else {
                x
            }
        };
        // Each entry as a plane and a shift inside the padded planes; a run
        // of entries on one plane divides once.
        let remap = |t: &[isize], [ys, xs]: [&[i32]; 2], (dy, dx): (isize, isize)| {
            let (mut out, mut base, mut plane, mut last) = (Vec::with_capacity(t.len()), 0, 0, 0);
            for ((&o, &y), &x) in t.iter().zip(ys).zip(xs) {
                let (y, x) = (y as isize, x as isize);
                if o.wrapping_sub(y * w + x) != base || out.is_empty() {
                    base = o.wrapping_sub(y * w + x);
                    plane = base / (h * w);
                    assert!(
                        plane * h * w == base,
                        "window table base {base} is not whole planes"
                    );
                    last = last.max(plane);
                }
                out.push(plane * hp * wp + (y + dy) * wp + at(x + dx));
            }
            (out, last)
        };
        let ((row, r), (col, c)) = (
            remap(t.row, win.row, (top, left)),
            remap(t.col, win.col, (0, 0)),
        );
        Pad {
            planes: (r + c + 1).max(0) as usize,
            hw: win.hw,
            at: (top as usize, left as usize),
            padded: (hp as usize, wp as usize),
            phase,
            row,
            col,
        }
    }

    /// The remapped tables.
    fn offsets(&self) -> Offsets<'_> {
        Offsets::windowed(&self.row, &self.col, None)
    }

    /// `t`, or its padded planes' tables, as the loops read them, checked
    /// for them (the source planes for the entries' `len`); and their span.
    fn checked<'a>(
        pad: &'a Option<Pad>,
        t: Offsets<'a>,
        mn: (usize, usize),
        len: usize,
    ) -> (Offsets<'a>, usize) {
        let Some(pad) = pad else {
            return (t, t.check(mn.0, mn.1, len));
        };
        let (padded, planes) = pad.lens();
        assert!(
            planes <= len,
            "window planes reach {planes}, outside a buffer of {len} elements"
        );
        pad.offsets().check(mn.0, mn.1, padded);
        (pad.offsets(), planes)
    }

    /// The padded planes' length, and the source planes'.
    fn lens(&self) -> (usize, usize) {
        let ((h, w), (hp, wp)) = (self.hw, self.padded);
        (self.planes * hp * wp, self.planes * h * w)
    }

    /// One entry's planes of `src`, padded into `dst`.
    fn fill(&self, src: &[f32], dst: &mut [f32]) {
        let ((h, w), (top, left), (hp, wp)) = (self.hw, self.at, self.padded);
        let (padded, planes) = self.lens();
        let mut line = vec![0.0; if self.phase { wp } else { 0 }];
        let pairs = dst[..padded]
            .chunks_exact_mut(hp * wp)
            .zip(src[..planes].chunks_exact(h * w));
        for (to, from) in pairs {
            to[..top * wp].fill(0.0);
            to[(top + h) * wp..].fill(0.0);
            for (row, from) in to[top * wp..]
                .chunks_exact_mut(wp)
                .zip(from.chunks_exact(w))
            {
                if self.phase {
                    // The padded row, its columns dealt to the two halves.
                    line[left..left + w].copy_from_slice(from);
                    let (evens, odds) = row.split_at_mut(wp / 2);
                    for ((e, o), pair) in evens.iter_mut().zip(odds).zip(line.chunks_exact(2)) {
                        (*e, *o) = (pair[0], pair[1]);
                    }
                    continue;
                }
                row[..left].fill(0.0);
                row[left..left + w].copy_from_slice(from);
                row[left + w..].fill(0.0);
            }
        }
    }

    /// The interiors of `padded` copied back into the entry's planes `out`.
    fn drain(&self, padded: &[f32], out: &mut [f32]) {
        let ((h, w), (top, left), (hp, wp)) = (self.hw, self.at, self.padded);
        let pairs = padded
            .chunks_exact(hp * wp)
            .zip(out[..self.lens().1].chunks_exact_mut(h * w));
        for (from, to) in pairs {
            for (row, to) in from[top * wp..]
                .chunks_exact(wp)
                .zip(to.chunks_exact_mut(w))
            {
                to.copy_from_slice(&row[left..left + w]);
            }
        }
    }
}

/// Where [`gemm_batched`] puts each product: added to what the destination
/// holds, or written. A write sink is its adding twin on a destination
/// zeroed first, bit for bit, but never reads the destination: a tile's
/// chains start from `+0.0` registers, padded planes start zeroed, and
/// only a destination cell no kernel writes is stored as `+0.0` — so it
/// may be handed over unfilled. The adding sinks stay for what really
/// accumulates: a bias already in the output, the `gemm*` calls.
#[derive(Debug)]
pub enum Out<'a> {
    /// Row-major `[m, n]` blocks: `out[i*n + j] += product[i, j]`, each
    /// element the contract's chain from its value.
    Add(&'a mut [f32]),
    /// [`Out::Add`] into `dst` zeroed: every block element the chain from
    /// `+0.0`, every other cell `+0.0`.
    Write(&'a mut [f32]),
    /// `dst[row[i] + col[j]] += product[i, j]` through `[m]` and `[n]`
    /// tables, each product element the contract's chain from zero. The
    /// adds reach `dst` in row-major `(i, j)` order, so overlapping
    /// destinations are well defined; the vector path adds a row's runs
    /// eight or four cells at a time, never touching a cell off the tables.
    Scatter(&'a mut [f32], Offsets<'a>),
    /// [`Out::Scatter`] into `dst` zeroed: a cell no table reaches is `+0.0`.
    ScatterWrite(&'a mut [f32], Offsets<'a>),
}

/// One axis of a [`gemm_batched`] batch: `count` entries, each `a`, `b` and
/// `out` elements past the previous one in its buffer. An `out` stride of 0
/// makes the axis a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axis {
    /// Entries along the axis.
    pub count: usize,
    /// Element stride between the entries' `A` operands.
    pub a: usize,
    /// Element stride between the entries' `B` operands (or sources).
    pub b: usize,
    /// Element stride between the entries' output blocks; 0 reduces.
    pub out: usize,
}

impl Axis {
    /// The axis of a single entry.
    pub const ONE: Axis = Axis {
        count: 1,
        a: 0,
        b: 0,
        out: 0,
    };
}

/// One of the three orientation-specific direct-loop kernels.
type DirectFn = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);

/// `out[m,n] += a[m,k] @ b[k,n]`, all row-major.
pub fn gemm(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    single(out, PackA::N(a), PackB::N(b), (m, k, n));
}

/// `out[m,n] += a[m,k] @ b[n,k]^T` (`b` stored row-major as `[n, k]`).
pub fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    single(out, PackA::N(a), PackB::T(b), (m, k, n));
}

/// `out[m,n] += a[k,m]^T @ b[k,n]` (`a` stored row-major as `[k, m]`).
pub fn gemm_tn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    single(out, PackA::T(a), PackB::N(b), (m, k, n));
}

/// The one-entry [`gemm_batched`] into a dense `[m, n]` output.
fn single(out: &mut [f32], a: PackA<'_>, b: PackB<'_>, mkn: (usize, usize, usize)) {
    gemm_batched(Out::Add(out), a, b, mkn, [Axis::ONE; 2]);
}

/// Every `[m, k] x [k, n]` product of a batch, in one call. Entry `(i, j)`
/// of the two axes reads `A` from `i·batch[0].a + j·batch[1].a` and `B`
/// from `i·batch[0].b + j·batch[1].b`, and adds its product into the block
/// at `i·batch[0].out + j·batch[1].out`.
///
/// Entries with different output offsets write disjoint blocks. Entries
/// along a reducing axis (`out` stride 0) add into one block in ascending
/// order, exactly like back-to-back single calls, so every output element
/// is the contract's chain through each of them in turn.
///
/// # Panics
///
/// Panics if distinct output blocks overlap, if a buffer is too short for
/// the batch, or if a table has the wrong length or reaches outside its
/// buffer.
pub fn gemm_batched(
    out: Out<'_>,
    a: PackA<'_>,
    b: PackB<'_>,
    mkn: (usize, usize, usize),
    batch: [Axis; 2],
) {
    gemm_batched_on(simd::detected(), out, a, b, mkn, batch)
}

/// [`gemm_batched`] on an explicit instantiation: `vector` runs the
/// AVX2/FMA kernels (the CPU must have them), otherwise the portable ones.
fn gemm_batched_on(
    vector: bool,
    out: Out<'_>,
    a: PackA<'_>,
    b: PackB<'_>,
    (m, k, n): (usize, usize, usize),
    batch: [Axis; 2],
) {
    let b = dense(b, (k, n));
    let (dst, scatter, write) = match out {
        Out::Add(dst) => (dst, None, false),
        Out::Write(dst) => (dst, None, true),
        Out::Scatter(dst, t) => (dst, Some(t), false),
        Out::ScatterWrite(dst, t) => (dst, Some(t), true),
    };
    // A column product with `A` stored `[k, m]` is its transpose, the row
    // product `B^T A^T` over the operands where they lie: the same chain per
    // element (`fma` commutes its factors), a scatter's adds in one order.
    let window;
    let (a, b, (m, n), batch, scatter) = match (n, m, a, b) {
        (1, 2.., PackA::T(at), PackB::N(col) | PackB::T(col)) => {
            let swap = |x: Axis| Axis {
                a: x.b,
                b: x.a,
                ..x
            };
            window = scatter.and_then(|t| t.window).map(|w| Window {
                row: w.col,
                col: w.row,
                hw: w.hw,
            });
            let t = scatter.map(|t| Offsets::windowed(t.col, t.row, window.as_ref()));
            (PackA::N(col), PackB::N(at), (1, m), batch.map(swap), t)
        }
        _ => (a, b, (m, n), batch, scatter),
    };
    // A reducing axis goes inside, so each output block's entries are
    // consecutive: `chain` entries make one unit of work.
    let [outer, inner] = match batch {
        [o, i] if o.out == 0 && i.out != 0 => [i, o],
        axes => axes,
    };
    let entries = outer.count * inner.count;
    if entries == 0 || m * n == 0 {
        // Nothing to compute: a write sink's destination is all zeros.
        if write {
            dst.fill(0.0);
        }
        return;
    }
    let chain = if inner.out != 0 {
        1
    } else if outer.out != 0 {
        inner.count
    } else {
        entries
    };
    let units = entries / chain;
    let offsets = |e: usize| {
        let (i, j) = (e / inner.count, e % inner.count);
        let at = |o: usize, s: usize| i * o + j * s;
        (
            at(outer.a, inner.a),
            at(outer.b, inner.b),
            at(outer.out, inner.out),
        )
    };
    let (_, b_last, out_last) = offsets(entries - 1);
    // A windowed table pair is read and written through its padded planes,
    // a gather's split by column parity when its columns step `x` by 2.
    let pad = |t: Offsets<'_>, phase: bool| t.window.map(|w| Pad::new(t, w, phase));
    let b_pad = match b {
        PackB::Gather(_, t) => {
            let even = |w: &&Window| w.col[1].iter().all(|x| x % 2 == 0);
            pad(
                t,
                t.window
                    .filter(even)
                    .is_some_and(|w| w.col[1].iter().any(|&x| x != 0)),
            )
        }
        _ => None,
    };
    let out_pad = scatter.and_then(|t| pad(t, false));
    let b_tables = match b {
        PackB::Gather(src, t) => {
            Some(Pad::checked(&b_pad, t, (k, n), src.len().saturating_sub(b_last)).0)
        }
        _ => None,
    };
    let (scatter, extent) = match scatter {
        None => (None, m * n),
        Some(t) => {
            let (t, extent) = Pad::checked(&out_pad, t, (m, n), dst.len().saturating_sub(out_last));
            (Some(t), extent)
        }
    };
    // The one classification of each column table: a gather's column
    // panels, which every tile reads it by, and a scatter's runs, which the
    // vector twin adds by. The vector gather indexes with 32-bit lanes. A
    // scatter without a run of `NR` cells at step 1 or 2 stays on the
    // portable loop, which adds short runs faster than a masked vector does.
    let b_panels = b_tables.map(|t| view_panels(t.col));
    let lanes = |t: Offsets<'_>| {
        let (lo, hi) = (t.col.iter().min(), t.col.iter().max());
        lo.zip(hi)
            .is_none_or(|(lo, hi)| i32::try_from(hi - lo).is_ok())
    };
    let vector = vector && b_tables.is_none_or(lanes);
    let split = |t: Offsets<'_>| vector.then(|| split_runs(t.col));
    let long = |r: &Run| r.len >= NR && (1..=2).contains(&r.step);
    let scatter_runs = scatter.and_then(|t| split(t).filter(|runs| runs.iter().any(long)));
    let b_tables = b_tables.map(|t| Offsets {
        panels: b_panels.as_deref(),
        ..t
    });
    let scatter = scatter.map(|tables| tables.with(scatter_runs.as_deref()));
    // Chunks write distinct blocks concurrently, so they must not overlap.
    let mut end = 0;
    for unit in 0..units {
        let at = offsets(unit * chain).2;
        assert!(at >= end, "batch output blocks overlap at element {at}");
        end = at + extent;
    }
    assert!(end <= dst.len(), "batch output needs {end} elements");

    let flops = 2 * m * k * n;
    let unit_flops = flops * chain;
    let grain = CHUNK_FLOPS
        .checked_div(unit_flops)
        .map_or(units, |g| g.clamp(1, units));
    let work = units * unit_flops;
    let gather = matches!(b, PackB::Gather(..));
    let tables = gather || scatter.is_some();
    let direct = direct_kernel(vector, flops, (a, b), tables);
    // A reduction of tiled products into blocks folds into the contraction:
    // a block's entries are the segments of one product, each entry's `A`
    // and `B` (or packed `B`) one step of the reducing axis past the last,
    // in the same order, so a tile keeps its chains in registers across
    // them and stores once.
    let fold = (chain > 1 && chain == inner.count && inner.out == 0)
        && (direct.is_none() && scatter.is_none())
        && (chain * k <= FOLD_STEPS || !matches!(b, PackB::T(_)));
    let segs = if fold { chain } else { 1 };
    let per_unit = chain / segs;
    let grid = tile_grid(m, segs * k, n, scatter.is_some());
    // Lane tiles: a one-chunk product under `MR` rows stacks the rows of up
    // to `MR / m` consecutive units in one tile, along the writing axis the
    // units step (the inner one unless it reduces or holds one entry) when
    // their output blocks abut. `run` units share the other axis's entry.
    let (lane, run) = if inner.count > 1 && inner.out != 0 {
        (inner, inner.count)
    } else {
        (outer, units)
    };
    let stacks = direct.is_none() && !tables && grid.2 == 1 && lane.out == m * n;
    let lanes = if stacks { (MR / m).clamp(1, run) } else { 1 };

    // The call's workspace, one storage checked out on this thread and cut
    // into `pairs` slots: each chunk of units holds one slot, a pair of
    // buffers it reuses for all its entries (the direct loops' dense `B` and
    // product; the tiles' scatter strip and the packed `B` of `lanes`
    // entries, each of `segs`). A call that fans out runs at most one chunk
    // per thread; one inline on its thread holds one slot.
    let (threads, chunks) = (pool::num_threads(), units.div_ceil(grain));
    let pairs = if pool::runs_inline(chunks, work) {
        1
    } else {
        threads.min(chunks)
    };
    let (scattered, packed) = (scatter.is_some(), matches!(b, PackB::T(_)));
    // A transposed `B` is packed whole, or one column panel of each stacked
    // entry at a time (see `run_tiled`).
    let panels = if panelwise(b, m, grid.2) {
        lanes
    } else {
        n.div_ceil(NR) * usize::from(packed)
    };
    let mut lens = match direct {
        Some(_) => [k * n * usize::from(gather), m * n * usize::from(scattered)],
        None => [MR * n * usize::from(scattered), k * NR * panels * segs],
    };
    // Behind the first buffer, the padded planes of each folded entry's `B`
    // and of the output.
    let planes = [&b_pad, &out_pad].map(|p| p.as_ref().map_or(0, |p| p.lens().0));
    let first = lens[0];
    lens[0] += planes[0] * segs + planes[1];
    let slot = lens[0] + lens[1];
    let mut workspace = Storage::unfilled(pairs * slot);
    let (workspace, taken) = (UnsafeSlice::new(&mut workspace), AtomicU64::new(0));

    // A unit's kernels write its blocks (tiles from zero, padded planes
    // drained) unless they add into them: the direct loops, an unwindowed
    // scatter. A write sink zeroes what they leave, up to the next unit's
    // block (and, for the first unit, what lies before its own).
    let writes = (direct.is_none() && scatter.is_none()) || out_pad.is_some();
    let (len, shared) = (dst.len(), UnsafeSlice::new(dst));
    // Segment `s` of a folded unit: its `s`-th entry, whose planes pad
    // `planes[0]` apart.
    let b_seg = if b_pad.is_some() { planes[0] } else { inner.b };
    let steps = Steps {
        k,
        segs,
        a: inner.a,
        b: b_seg,
    };
    let next = |u: usize| if u < units { offsets(u * chain).2 } else { len };
    pool::parallel_for_on(threads, units, grain, work, |chunk| {
        // A free slot, held while the chunk runs: at most `pairs` chunks
        // run at once, one per thread.
        let free = taken.fetch_update(Ordering::Acquire, Ordering::Relaxed, |t| {
            Some(t | 1 << (!t).trailing_zeros())
        });
        let i = (!free.expect("the update always applies")).trailing_zeros() as usize;
        assert!(i < pairs, "more chunks in flight than workspace slots");
        // SAFETY: slot `i` is this chunk's alone until it clears its bit.
        let ws = unsafe { workspace.slice_mut(i * slot..(i + 1) * slot) };
        if cfg!(debug_assertions) {
            // Unspecified values: a read before a write shows in every
            // bit-identity test.
            ws.fill(f32::NAN);
        }
        let (s0, s1) = ws.split_at_mut(lens[0]);
        let mut u = chunk.start;
        while u < chunk.end {
            let h = lanes.min(chunk.end - u).min(run - u % run);
            let stack = Axis { count: h, ..lane };
            for e in u * chain..u * chain + per_unit {
                let (head, tail) = (e == u * chain, e + 1 == u * chain + per_unit);
                let (a_at, b_at, out_at) = offsets(e);
                let end = out_at + (h - 1) * lane.out + extent;
                if write && head {
                    let (lo, hi) = (if u == 0 { 0 } else { out_at }, next(u + h));
                    // SAFETY: these units own the cells up to the next unit's
                    // block, and the first also those before its own; no
                    // other borrow of them lives.
                    unsafe { shared.slice_mut(lo..out_at) }.fill(0.0);
                    let from = if writes { end } else { out_at };
                    unsafe { shared.slice_mut(from..hi) }.fill(0.0);
                }
                // SAFETY: distinct units own disjoint output blocks (checked
                // above), the `h` units stacked here abut, and a unit's
                // entries run one after another here.
                let block = unsafe { shared.slice_mut(out_at..end) };
                let (fa, fb) = ((segs - 1) * inner.a, (segs - 1) * inner.b);
                let a = a.at(a_at, (h - 1) * lane.a + fa + m * k);
                let b = b.at(b_at, (h - 1) * lane.b + fb + k * n);
                let (s0, rest) = s0.split_at_mut(first);
                let (b_planes, out_planes) = rest.split_at_mut(planes[0] * segs);
                // Each folded entry's planes, padded one after another.
                let b = match (b, b_tables, &b_pad) {
                    (PackB::Gather(src, _), Some(t), Some(pad)) => {
                        for (s, to) in b_planes.chunks_exact_mut(planes[0]).enumerate() {
                            pad.fill(&src[s * inner.b..], to);
                        }
                        PackB::Gather(b_planes, t)
                    }
                    (PackB::Gather(src, _), Some(t), None) => PackB::Gather(src, t),
                    _ => b,
                };
                let out = match &out_pad {
                    Some(pad) => {
                        match (head, write) {
                            (true, true) => out_planes.fill(0.0),
                            (true, false) => pad.fill(block, out_planes),
                            _ => {}
                        }
                        &mut *out_planes
                    }
                    None => &mut *block,
                };
                let bufs = (s0, &mut *s1);
                match direct {
                    Some(f) => run_direct(f, out, scatter, a, b, (m, k, n), bufs),
                    None => {
                        let zero = write && head && scatter.is_none();
                        let tiling = (stack, Some((steps, zero)), grid);
                        run_tiled(vector, out, scatter, (a, b), (m, k, n), tiling, bufs)
                    }
                }
                if let (Some(pad), true) = (&out_pad, tail) {
                    pad.drain(out_planes, block);
                }
            }
            u += h;
        }
        taken.fetch_and(!(1 << i), Ordering::Release);
    });
}

/// A gathered `B` whose tables lay it out densely (no window, rows `n`
/// apart, columns adjacent) as `B` stored `[k, n]`: a gather moves bits only.
fn dense(b: PackB<'_>, (k, n): (usize, usize)) -> PackB<'_> {
    let PackB::Gather(src, t) = b else { return b };
    let steps = |t: &[isize], by| t.windows(2).all(|w| w[1].checked_sub(w[0]) == Some(by));
    let dense = t.window.is_none() && steps(t.row, n as isize) && steps(t.col, 1);
    let start = (t.row.first().zip(t.col.first())).and_then(|(r, c)| r.checked_add(*c));
    match start
        .filter(|_| dense)
        .and_then(|at| src.get(usize::try_from(at).ok()?..))
    {
        Some(b) if b.len() >= k * n => PackB::N(b),
        _ => b,
    }
}

/// The direct-loop kernel this dispatch runs, if any: below [`SMALL_FLOPS`]
/// the oracle's loops for the layout pair, on the portable column for every
/// pair but `A^T B^T` (which has no loops of its own), on the vector column
/// (their AVX2/FMA instantiation) only for a product read or written through
/// `tables`, which the loops materialise first. `None` for the tiled path.
fn direct_kernel(
    vector: bool,
    flops: usize,
    ab: (PackA<'_>, PackB<'_>),
    tables: bool,
) -> Option<DirectFn> {
    let (portable, fast): (DirectFn, DirectFn) = match ab {
        _ if flops >= SMALL_FLOPS || vector && !tables => return None,
        (PackA::N(_), PackB::T(_)) if !vector => return Some(reference::gemm_nt_ref),
        (PackA::N(_), PackB::N(_) | PackB::Gather(..)) => (reference::gemm_ref, simd::gemm_small),
        (PackA::T(_), PackB::N(_) | PackB::Gather(..)) => {
            (reference::gemm_tn_ref, simd::gemm_tn_small)
        }
        _ => return None,
    };
    Some(if vector { fast } else { portable })
}

/// One entry on the direct loops. A gathered `B` is first copied out into
/// `dense`; a scattered product lands in `product`, zeroed first, and is then
/// added through the tables, row-major like the tiled sink.
fn run_direct(
    f: DirectFn,
    out: &mut [f32],
    scatter: Option<Offsets<'_>>,
    a: PackA<'_>,
    b: PackB<'_>,
    (m, k, n): (usize, usize, usize),
    (dense, product): (&mut [f32], &mut [f32]),
) {
    let (PackA::N(a) | PackA::T(a)) = a;
    let b = match b {
        PackB::N(b) | PackB::T(b) => b,
        PackB::Gather(src, tables) => {
            for (row, &base) in dense.chunks_exact_mut(n.max(1)).zip(tables.row) {
                for (v, &c) in row.iter_mut().zip(tables.col) {
                    *v = src[(base + c) as usize];
                }
            }
            dense
        }
    };
    match scatter {
        None => f(out, a, b, m, k, n),
        Some(tables) => {
            product.fill(0.0);
            f(product, a, b, m, k, n);
            scatter_add(out, tables, 0, product, n);
        }
    }
}

/// `dst[off.row[i0 + r] + off.col[j]] += rows[r * n + j]`, row-major; `off` checked for `dst`.
fn scatter_add(dst: &mut [f32], off: Offsets<'_>, i0: usize, rows: &[f32], n: usize) {
    #[cfg(target_arch = "x86_64")]
    if off.runs.is_some() {
        // SAFETY: `Offsets::check` bounded every row + column sum, and only
        // a `vector` call, on a CPU with AVX2+FMA, classifies tables.
        return unsafe { simd::scatter_strip(dst, off, i0, rows) };
    }
    for (row, &base) in rows.chunks_exact(n.max(1)).zip(&off.row[i0..]) {
        for (&v, &c) in row.iter().zip(off.col) {
            // SAFETY: `Offsets::check` bounded every row + column sum.
            unsafe { *dst.get_unchecked_mut((base + c) as usize) += v };
        }
    }
}

/// `A` rows as a micro-kernel reads them, where they lie: tile row `r`'s
/// `A[., p]` at `ptr + off[r] + p·ks`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AView {
    pub(crate) ptr: *const f32,
    pub(crate) ks: usize,
    pub(crate) off: [usize; MR],
}

/// `B` columns as a micro-kernel reads them: `B[p, j0 + c]` at
/// `ptr + off[g] + p·ks + c` for tile row group `g` (rows `g·rows..`, the
/// last of the `MR / rows` groups taking the rest): one group for one entry,
/// a group per stacked entry in a lane tile.
///
/// A *view* reads a gathered `B` where it lies (or in its padded planes),
/// one column panel at a time: step `p`'s row at `steps[p]` instead of
/// `p·ks`, its columns past the panel's first as `cols` says.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BView {
    pub(crate) ptr: *const f32,
    pub(crate) ks: usize,
    pub(crate) rows: usize,
    pub(crate) off: [usize; MR],
    /// A view's `k` step offsets (each segment's), or null.
    pub(crate) steps: *const isize,
    pub(crate) cols: Cols,
    /// Where a paired tile's second panel starts, past the first.
    pub(crate) pair: isize,
    /// A gathered view's column table, from the panel's first column.
    pub(crate) at: *const isize,
}

/// Where the columns of a `B` row lie past its first, as a tile loads
/// them: adjacent (a view's output row at stride 1, or at stride 2 in
/// planes split by column parity), as two adjacent quads `d` apart (a
/// weight gradient's kernel rows, an output row of 4), or anywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cols {
    Adjacent,
    Quads(isize),
    /// Column `c` at `at[c] - at[0]` of the panel's column table `at`.
    Gather,
}

impl BView {
    /// Column `c` of a row, past its first.
    ///
    /// # Safety
    ///
    /// A gathered view's panel must hold column `c`.
    #[inline(always)]
    pub(crate) unsafe fn col(&self, c: usize) -> isize {
        match self.cols {
            Cols::Adjacent => c as isize,
            Cols::Quads(d) if c >= 4 => d + c as isize - 4,
            Cols::Quads(_) => c as isize,
            Cols::Gather => *self.at.add(c) - *self.at,
        }
    }
}

/// A gathered `B`'s column panels, `NR` columns each (the last may hold
/// fewer), classified once per call for every tile that reads them.
fn view_panels(col: &[isize]) -> Vec<Cols> {
    let panel = |c: &[isize]| {
        let adjacent =
            |lo: usize, hi: usize| (lo..hi.min(c.len())).all(|i| c[i] - c[lo] == (i - lo) as isize);
        match (
            adjacent(0, NR),
            c.len() == NR && adjacent(0, 4) && adjacent(4, NR),
        ) {
            (true, _) => Cols::Adjacent,
            (_, true) => Cols::Quads(c[4] - c[0]),
            _ => Cols::Gather,
        }
    };
    col.chunks(NR).map(panel).collect()
}

/// A tile's output cells: `(r, c)` at `ptr + r·ldc + c`, for `r < rows` and
/// `c < cols`; a kernel leaves every other cell of its tile alone. With
/// `from_zero` every chain starts at zero and the cells are only written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CView {
    pub(crate) ptr: *mut f32,
    pub(crate) ldc: usize,
    pub(crate) from_zero: bool,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// Runs the micro-kernel `width` columns wide (`NR`, or `2·NR` on the
/// vector path for a whole tile of one group of rows) on one tile: each
/// `C[r, c]` with `r < c.rows`, `c < c.cols` becomes the contract's chain over
/// `A[r, p]·B[p, c]` (row `r`'s group's `B`), `p` ascending through `k`'s
/// segments, from its value or from zero.
///
/// # Safety
///
/// For every step of `k`, every `A` cell the view names for `r < MR`, every `B` cell
/// it names for `c < c.cols` (all `width` columns of a whole tile) and
/// every `C` cell above must lie in one live allocation; no reference to a
/// `C` cell may be live, and no mutable one to an `A` or `B` cell. `vector`
/// must come from `simd::detected`.
unsafe fn tile(vector: bool, width: usize, k: Steps, a: &AView, b: &BView, c: CView) {
    match (vector, width == NR) {
        (true, true) => simd::microkernel(k, a, b, c),
        (true, false) => simd::microkernel_x2(k, a, b, c),
        (false, true) => portable_microkernel(k, a, b, c),
        (false, false) => unreachable!("the portable kernel is {NR} columns wide"),
    }
}

/// The portable register-tiled kernel: `C[r, c] = fma(A[r, p], B[p, c],
/// C[r, c])` for `p` ascending through `k`'s segments — the contract's
/// chain via [`f32::mul_add`]
/// (native `fmadd` on aarch64, libm `fmaf` on x86-64 without FMA: slow but
/// correctly rounded). Runs only where `simd::detected` is false (and in
/// the tests).
///
/// # Safety
///
/// As [`tile`], for `NR` columns.
pub(crate) unsafe fn portable_microkernel(k: impl Into<Steps>, a: &AView, b: &BView, c: CView) {
    let (k, groups) = (k.into(), MR / b.rows);
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc
        .iter_mut()
        .enumerate()
        .take(c.rows)
        .filter(|_| !c.from_zero)
    {
        for (j, v) in accr.iter_mut().enumerate().take(c.cols) {
            *v = *c.ptr.add(r * c.ldc + j);
        }
    }
    for (s, p) in (0..k.segs).flat_map(|s| (0..k.k).map(move |p| (s, p))) {
        let at = (s * k.b) as isize
            + match b.steps.is_null() {
                true => (p * b.ks) as isize,
                false => *b.steps.add(p),
            };
        for (r, accr) in acc.iter_mut().enumerate() {
            let g = (r / b.rows).min(groups - 1);
            let brow = b.ptr.add(b.off[g]).offset(at);
            let av = *a.ptr.add(a.off[r] + s * k.a + p * a.ks);
            for (j, v) in accr.iter_mut().enumerate().take(c.cols) {
                *v = av.mul_add(*brow.offset(b.col(j)), *v);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(c.rows) {
        for (j, v) in accr.iter().enumerate().take(c.cols) {
            *c.ptr.add(r * c.ldc + j) = *v;
        }
    }
}

/// Packs column panels `panels` of `B` stored `[n, k]` into strips two
/// panels (`2·NR` columns) wide, a lone last panel `NR` wide: each strip
/// holds its `k` rows at its width apart, so a pair of panels starting an
/// even number of panels past `panels.start` is `2·NR` contiguous columns
/// ([`b_view`] finds a panel). The padding columns are never read: a tile
/// whose last columns fall past `n` masks them.
fn pack_b_into(
    vector: bool,
    b: PackB<'_>,
    (k, n): (usize, usize),
    panels: Range<usize>,
    bpack: &mut [f32],
) {
    let PackB::T(src) = b else {
        unreachable!("only a transposed B is packed")
    };
    let end = panels.end * NR;
    debug_assert_eq!(bpack.len(), k * (end - panels.start * NR));
    #[cfg(target_arch = "x86_64")]
    if vector {
        // SAFETY: a `vector` call runs on a CPU with AVX2+FMA, and `src`
        // holds the `k·n` elements `run_tiled` asserts.
        return unsafe { simd::pack_transposed(src, (k, n), panels, bpack) };
    }
    let (mut j0, mut at) = (panels.start * NR, 0);
    while j0 < end {
        let w = (2 * NR).min(end - j0);
        let cols = w.min(n - j0);
        let strip = &mut bpack[at..at + k * w];
        let columns = src[j0 * k..(j0 + cols) * k].chunks_exact(k.max(1));
        for (c, col) in columns.enumerate() {
            for (p, &v) in col.iter().enumerate() {
                strip[p * w + c] = v;
            }
        }
        (j0, at) = (j0 + w, at + k * w);
    }
}

/// Column panel `jb` of `B` (and `jb + 1`, paired) as a tile reads it: in
/// place from `B` stored `[k, n]`, a gathered `B` as a view through its
/// tables and `cols`, its panels' classes, else from the strips
/// [`pack_b_into`] filled with `panels`. The `stack`ed entries' panels lie
/// `stack.b` apart in place, or `segs` packed regions apart.
#[inline(always)]
fn b_view(
    b: PackB<'_>,
    (bpack, cols): (&[f32], &[Cols]),
    (m, k, n): (usize, usize, usize),
    (jb, panels): (usize, Range<usize>),
    stack: Axis,
    segs: usize,
) -> BView {
    let (src, at, ks, step) = match b {
        PackB::N(src) => (src, jb * NR, n, stack.b),
        PackB::Gather(src, t) => {
            debug_assert_eq!(stack.count, 1, "a view stacks no entries");
            return BView {
                ptr: src.as_ptr().wrapping_offset(t.col[jb * NR]),
                ks: 0,
                rows: MR,
                off: [0; MR],
                steps: t.row.as_ptr(),
                cols: cols[jb],
                pair: t.col.get(jb * NR + NR).map_or(0, |c| c - t.col[jb * NR]),
                at: t.col[jb * NR..].as_ptr(),
            };
        }
        PackB::T(_) => {
            let (strip, half) = ((jb - panels.start) / 2, (jb - panels.start) % 2);
            let j0 = (panels.start + 2 * strip) * NR;
            let width = (2 * NR).min(panels.end * NR - j0);
            (
                bpack,
                strip * 2 * NR * k + half * NR,
                width,
                k * panels.len() * NR * segs,
            )
        }
    };
    let (rows, off) = match stack.count {
        1 => (MR, [0; MR]),
        h => (m, std::array::from_fn(|g| g.min(h - 1) * step)),
    };
    BView {
        ptr: src.as_ptr().wrapping_add(at),
        ks,
        rows,
        off,
        steps: std::ptr::null(),
        cols: Cols::Adjacent,
        pair: NR as isize,
        at: std::ptr::null(),
    }
}

/// Rows `i0..i0 + MR` of `A` as a tile reads them, in place: row `i` of the
/// stacked entry `t` (`m` rows each, `stack.a` apart) at `t·stack.a + i·rs`.
/// Rows past the last stacked one repeat it, so a partial panel reads inside
/// `A`; the tile never stores their sums.
fn a_view(a: PackA<'_>, (m, k): (usize, usize), stack: Axis, i0: usize) -> AView {
    let (src, rs, ks) = match a {
        PackA::N(src) => (src, k, 1),
        PackA::T(src) => (src, 1, m),
    };
    let (mut t, mut i, mut off) = (0, i0, [0; MR]);
    for o in off.iter_mut() {
        *o = t * stack.a + i * rs;
        if i + 1 < m {
            i += 1;
        } else if t + 1 < stack.count {
            (t, i) = (t + 1, 0);
        }
    }
    AView {
        ptr: src.as_ptr(),
        ks,
        off,
    }
}

/// The 2-D tile partition of one GEMM, a pure function of the shape: row
/// panels group `row_grain` and column panels `col_grain` to a chunk, of
/// which there are `chunks`. When one row panel already carries
/// `CHUNK_FLOPS` the columns split, so short-`m` GEMMs still expose many
/// chunks; otherwise row panels group. A scatter is one chunk, so its
/// strips reach the destination in ascending row order.
fn tile_grid(m: usize, k: usize, n: usize, scatter: bool) -> (usize, usize, usize) {
    let (row_panels, col_panels) = (m.div_ceil(MR), n.div_ceil(NR));
    let panel_flops = 2 * MR * k * n;
    let (row_grain, col_grain) = if scatter {
        (row_panels, col_panels)
    } else if panel_flops >= CHUNK_FLOPS {
        let grain = CHUNK_FLOPS / (2 * MR * k * NR).max(1);
        (1, grain.clamp(1, col_panels))
    } else {
        let grain = CHUNK_FLOPS / panel_flops.max(1);
        (grain.clamp(1, row_panels), col_panels)
    };
    let chunks = row_panels.div_ceil(row_grain) * col_panels.div_ceil(col_grain);
    (row_grain, col_grain, chunks)
}

/// Whether [`run_tiled`] packs `B` one column panel at a time: a transposed
/// `B` of a one-chunk product under `MR` rows, whose tiles never pair.
fn panelwise(b: PackB<'_>, m: usize, chunks: usize) -> bool {
    matches!(b, PackB::T(_)) && m < MR && chunks == 1
}

/// The 2-D tiled macro-kernel on one entry (`m, n >= 1`), or on `stack.count`
/// entries `stack.a` and `stack.b` apart whose `[m, n]` blocks abut in `out`
/// and whose `m` rows each one row panel stacks (a lane tile). Every output
/// element is produced by exactly one micro-kernel call walking the full
/// contraction ascending, and the tile grid, the call's [`tile_grid`],
/// depends only on the shape, so results are bit-identical at any thread
/// count. `vector`, read once per call, picks the AVX2/FMA instantiation of
/// the micro-kernel over the portable one.
///
/// Only a transposed `B` is packed, into the caller's `bpack`:
/// whole, or one column panel of each stacked entry at a time, and each
/// entry of the `chain` apart.
///
/// With `scatter` tables `out` is a destination, not `[m, n]`: a row panel's
/// tiles start from zero and fill the `MR x n` strip beside the tables, which
/// is then added to `out` row by row. All of it is one chunk, so the adds to
/// any destination come in ascending row order; scattering tile by tile
/// would reorder them.
fn run_tiled(
    vector: bool,
    out: &mut [f32],
    scatter: Option<Offsets<'_>>,
    (a, b): (PackA<'_>, PackB<'_>),
    (m, k, n): (usize, usize, usize),
    (stack, chain, (row_grain, col_grain, n_chunks)): Tiling,
    (strip, bpack): (&mut [f32], &mut [f32]),
) {
    let (h, rows_all) = (stack.count, stack.count * m);
    let (chain, zero) = chain.unwrap_or((Steps::from(k), false));
    // The tile views below read inside these lengths.
    let (a_len, b_len) = (
        (h - 1) * stack.a + (chain.segs - 1) * chain.a + m * k,
        (h - 1) * stack.b + (chain.segs - 1) * chain.b + k * n,
    );
    let (PackA::N(a_src) | PackA::T(a_src)) = a;
    assert!(a_src.len() >= a_len, "A needs {a_len} elements");
    if let PackB::N(src) | PackB::T(src) = b {
        assert!(src.len() >= b_len, "B needs {b_len} elements");
    }
    let (row_panels, col_panels) = (rows_all.div_ceil(MR), n.div_ceil(NR));
    let col_groups = col_panels.div_ceil(col_grain);
    // A gathered `B` is a view, its column panels classified once per call
    // (here, for a call that did not).
    let view = match b {
        PackB::Gather(_, t) => Some(t),
        _ => None,
    };
    let classified = view
        .filter(|t| t.panels.is_none())
        .map(|t| view_panels(t.col));
    let cols = (view.and_then(|t| t.panels).or(classified.as_deref())).unwrap_or_default();
    let packed = matches!(b, PackB::T(_));
    let (shared, strip) = (UnsafeSlice::new(out), UnsafeSlice::new(strip));
    // Tiles live in `out` itself, or from zero in the strip.
    let (tiles, from_zero) = match scatter {
        None => (&shared, zero),
        Some(_) => (&strip, true),
    };
    // Row panel `ib`'s tiles in column panels `jbs`, `B` packed with `panels`.
    let row_panel = |ib: usize, jbs: Range<usize>, bpack: &[f32], panels: Range<usize>| {
        let i0 = ib * MR;
        let (rows, row0) = (MR.min(rows_all - i0), i0 * usize::from(scatter.is_none()));
        // Segment `s` reads `B` `s` entries (or packed regions) on; one-step
        // segments are the steps of one segment, at their strides.
        let region = k * panels.len() * NR;
        let b_seg = if packed { region } else { chain.b };
        let mut steps = Steps { b: b_seg, ..chain };
        let mut av = a_view(a, (m, k), stack, i0);
        if k == 1 && view.is_none() {
            (av.ks, steps) = (chain.a, Steps::from(chain.segs));
        }
        let mut jb = jbs.start;
        while jb < jbs.end {
            // The vector path runs a lone row of `B` in place `ROW` panels
            // at a time, and pairs adjacent full column panels (8x16 tile)
            // of one entry's row panel whenever the chunk holds both and `B`
            // has them as contiguous columns: bitwise equal to single-tile
            // calls (see `simd::microkernel_x2`), so
            // which one runs — a chunk-local accident — never changes results.
            let fits = |panels: usize| jb + panels <= jbs.end && (jb + panels) * NR <= n;
            let row = vector && rows_all == 1 && !packed && view.is_none() && fits(ROW);
            // A view pairs two panels of one class: adjacent, or quads alike.
            let alike = |_| cols[jb] == cols[jb + 1] && cols[jb] != Cols::Gather;
            let pair = vector
                && h == 1
                && fits(2)
                && (!packed || (jb - panels.start).is_multiple_of(2))
                && view.is_none_or(alike);
            let width = match (row, pair) {
                (true, _) => ROW * NR,
                (_, true) => 2 * NR,
                _ => NR,
            };
            let mut bv = b_view(
                b,
                (bpack, cols),
                (m, k, n),
                (jb, panels.clone()),
                stack,
                chain.segs,
            );
            bv.ks = if k == 1 && view.is_none() {
                b_seg
            } else {
                bv.ks
            };
            let (cols, at) = (width.min(n - jb * NR), row0 * n + jb * NR);
            let c = CView {
                ptr: tiles.ptr(at..at + (rows - 1) * n + cols),
                ldc: n,
                from_zero,
                rows,
                cols,
            };
            // SAFETY: the tile reads `A` rows `i0..i0 + MR` of the stacked
            // rows (or repeats of the last), inside the `a_len` elements
            // asserted above, and each row group's `B` columns `jb·NR..`,
            // those up to `n` in place inside the `b_len` asserted, a
            // packed strip of `k` rows `width` wide, or a view's cells
            // `row[p] + col[j]`, which `gemm_batched_on` checked for each
            // entry's source (or padded planes), in each segment. It
            // touches `rows` row segments, `cols` cells each, of `tiles` rows `row0..`, inside
            // the range `ptr` checked: the entries' abutting `m·n` blocks,
            // whose bounds and disjointness from other entries'
            // `gemm_batched_on` asserts, or this chunk's own strip. Tile
            // `(ib, jb)` belongs to one chunk and each row segment to one
            // tile, so no other chunk touches these cells, and no reference
            // to them is live.
            unsafe { tile(vector, width, steps, &av, &bv, c) };
            jb += width / NR;
        }
        if let Some(tables) = scatter {
            // SAFETY (both): a scatter is a single chunk and every tile borrow
            // above has ended, so nothing else borrows `out` or the strip.
            let dst = unsafe { shared.slice_mut(0..shared.len()) };
            let done = unsafe { strip.slice_mut(0..rows * n) };
            scatter_add(dst, tables, i0, done, n);
        }
    };
    if panelwise(b, m, n_chunks) {
        // One chunk of one row panel: pack each stacked entry's column
        // panel, each of its chain's, then run its tile.
        let per = k * NR;
        for jb in 0..col_panels {
            for e in 0..h * chain.segs {
                let (t, s) = (e / chain.segs, e % chain.segs);
                let entry = b.at(t * stack.b + s * chain.b, k * n);
                let to = &mut bpack[e * per..][..per];
                pack_b_into(vector, entry, (k, n), jb..jb + 1, to);
            }
            row_panel(0, jb..jb + 1, bpack, jb..jb + 1);
        }
        return;
    }
    let per = k * col_panels * NR;
    for s in (0..chain.segs).filter(|_| packed) {
        let to = &mut bpack[s * per..][..per];
        pack_b_into(vector, b.at(s * chain.b, k * n), (k, n), 0..col_panels, to);
    }
    let bpack = &*bpack;
    let work = 2 * m * chain.segs * k * n;
    pool::parallel_for_work(n_chunks, 1, work, |chunks| {
        for chunk in chunks {
            let (rg, jg) = (chunk / col_groups, chunk % col_groups);
            let jbs = jg * col_grain..((jg + 1) * col_grain).min(col_panels);
            for ib in rg * row_grain..((rg + 1) * row_grain).min(row_panels) {
                row_panel(ib, jbs.clone(), bpack, 0..col_panels);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Each `[rows, cols]` matrix of a batch stored one after another,
    /// transposed in place.
    fn transpose_each(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        let len = (rows * cols).max(1);
        for (o, s) in out.chunks_exact_mut(len).zip(src.chunks_exact(len)) {
            for r in 0..rows {
                for c in 0..cols {
                    o[c * rows + r] = s[r * cols + c];
                }
            }
        }
        out
    }

    /// One entry on the tiled macro-kernel, at any size, with the workspace
    /// a call holds (NaN, as debug builds hand it over).
    fn tiled_alone(
        vector: bool,
        out: &mut [f32],
        scatter: Option<Offsets<'_>>,
        (a, b): (PackA<'_>, PackB<'_>),
        (m, k, n): (usize, usize, usize),
    ) {
        let grid = tile_grid(m, k, n, scatter.is_some());
        let l0 = if scatter.is_some() { MR * n } else { 0 };
        let panels = match (b, panelwise(b, m, grid.2)) {
            (PackB::N(_), _) => 0,
            (_, true) => 1,
            _ => n.div_ceil(NR),
        };
        let l1 = k * NR * panels;
        let tiling = (Axis::ONE, None, grid);
        let bufs = (&mut vec![f32::NAN; l0][..], &mut vec![f32::NAN; l1][..]);
        run_tiled(vector, out, scatter, (a, b), (m, k, n), tiling, bufs)
    }

    /// Bit patterns, so `-0.0 != 0.0`.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The `vector` flags this CPU can run: the portable instantiation
    /// always, the AVX2/FMA one where detected.
    fn instantiations() -> Vec<bool> {
        if simd::detected() {
            vec![false, true]
        } else {
            eprintln!("note: no AVX2+FMA here; vector == portable is vacuous on this CPU");
            vec![false]
        }
    }

    /// Table pair for an `[rows, cols]` matrix: strided rows and columns
    /// that overlap each other (like a stride-1 convolution's taps),
    /// deterministic in `salt`.
    fn tables(rows: usize, cols: usize, salt: usize) -> (Vec<usize>, Vec<usize>) {
        let row = (0..rows).map(|i| (i * 3 + salt) % 11 + i / 4 * 5).collect();
        let col = (0..cols).map(|j| j * 2 + (j + salt) % 3).collect();
        (row, col)
    }

    /// The layouts a case runs, in order: `A·B`, `A·B^T`, `A^T·B`,
    /// `A^T·B^T`, `A·B` with `B` gathered, and `A^T·B` scattered.
    const LAYOUTS: [&str; 6] = ["N·N", "N·T", "T·N", "T·T", "gather", "scatter"];

    /// One shape's batch in every layout and the oracle's answer to each.
    /// The batch is `par` output blocks, each the sum of a chain of `red`
    /// entries added in ascending order; the reducing axis is listed first
    /// when `red_outer`. Entry `e = block * red + r` keeps its operands `e`
    /// operand lengths into each buffer.
    struct Case {
        m: usize,
        k: usize,
        n: usize,
        par: usize,
        red: usize,
        red_outer: bool,
        a: Vec<f32>,
        at: Vec<f32>,
        b: Vec<f32>,
        bt: Vec<f32>,
        init: Vec<f32>,
        /// The entries' gather sources, `s_len` apart, and their tables.
        src: Vec<f32>,
        s_len: usize,
        src_off: (Vec<usize>, Vec<usize>),
        /// The blocks' scatter destinations, `d_len` apart, and their tables.
        dst: Vec<f32>,
        d_len: usize,
        dst_off: (Vec<usize>, Vec<usize>),
        expect: [Vec<u32>; 6],
    }

    impl Case {
        fn new(m: usize, k: usize, n: usize, batch: (usize, usize, bool), seed: u64) -> Case {
            let (src, dst) = (tables(k, n, m), tables(m, n, k));
            Case::with_tables((m, k, n), batch, seed, src, dst)
        }

        /// A case whose gathered `B` (`[k]` and `[n]` tables) and scattered
        /// product (`[m]` and `[n]` tables) go through the given tables,
        /// each source and destination as long as its tables reach.
        fn with_tables(
            (m, k, n): (usize, usize, usize),
            batch: (usize, usize, bool),
            seed: u64,
            (s_row, s_col): (Vec<usize>, Vec<usize>),
            (d_row, d_col): (Vec<usize>, Vec<usize>),
        ) -> Case {
            assert_eq!((s_row.len(), s_col.len()), (k, n));
            assert_eq!((d_row.len(), d_col.len()), (m, n));
            let span = |row: &[usize], col: &[usize]| {
                let max = |t: &[usize]| t.iter().max().copied().unwrap_or(0);
                max(row) + max(col) + 1
            };
            let (s_len, d_len) = (span(&s_row, &s_col), span(&d_row, &d_col));
            let (par, red, red_outer) = batch;
            let entries = par * red;
            let (mk, kn, mn) = (m * k, k * n, m * n);
            let a = fill(entries * mk, seed);
            let b = fill(entries * kn, seed + 1);
            let init = fill(par * mn, seed + 2);
            let (at, bt) = (transpose_each(&a, m, k), transpose_each(&b, k, n));

            // The tables overlap, so each gathered `B` is whatever its
            // source holds where they point.
            let src = fill(entries * s_len, seed + 3);
            let mut b_seen = vec![0.0f32; entries * kn];
            for e in 0..entries {
                for p in 0..k {
                    for j in 0..n {
                        b_seen[e * kn + p * n + j] = src[e * s_len + s_row[p] + s_col[j]];
                    }
                }
            }
            let mut dst = fill(par * d_len, seed + 4);
            // Cells no table reaches must come back holding the sentinel.
            let mut reached = vec![false; d_len];
            for &r in &d_row {
                for &c in &d_col {
                    reached[r + c] = true;
                }
            }
            for block in dst.chunks_exact_mut(d_len) {
                for (v, _) in block.iter_mut().zip(&reached).filter(|(_, &hit)| !hit) {
                    *v = SENTINEL;
                }
            }

            let oracle = |f: DirectFn, a: &[f32], b: &[f32]| {
                let mut out = init.clone();
                for e in 0..entries {
                    let block = &mut out[e / red * mn..][..mn];
                    f(block, &a[e * mk..][..mk], &b[e * kn..][..kn], m, k, n);
                }
                bits(&out)
            };
            // Each `a^T b` from zero, then added through the tables row-major.
            let mut scattered = dst.clone();
            for e in 0..entries {
                let mut product = vec![0.0f32; mn];
                reference::gemm_tn_ref(
                    &mut product,
                    &at[e * mk..][..mk],
                    &b[e * kn..][..kn],
                    m,
                    k,
                    n,
                );
                let base = e / red * d_len;
                for i in 0..m {
                    for j in 0..n {
                        scattered[base + d_row[i] + d_col[j]] += product[i * n + j];
                    }
                }
            }
            let nn = oracle(reference::gemm_ref, &a, &b);
            let expect = [
                nn.clone(),
                oracle(reference::gemm_nt_ref, &a, &bt),
                oracle(reference::gemm_tn_ref, &at, &b),
                nn,
                oracle(reference::gemm_ref, &a, &b_seen),
                bits(&scattered),
            ];
            Case {
                m,
                k,
                n,
                par,
                red,
                red_outer,
                a,
                at,
                b,
                bt,
                init,
                src,
                s_len,
                src_off: (s_row, s_col),
                dst,
                d_len,
                dst_off: (d_row, d_col),
                expect,
            }
        }

        /// The two batch axes for per-entry `A`, `B` and output strides.
        fn batch(&self, a: usize, b: usize, out: usize) -> [Axis; 2] {
            let red = Axis {
                count: self.red,
                a,
                b,
                out: 0,
            };
            let par = Axis {
                count: self.par,
                a: self.red * a,
                b: self.red * b,
                out,
            };
            if self.red_outer {
                [red, par]
            } else {
                [par, red]
            }
        }

        /// Every layout's answer through the dispatch on one instantiation,
        /// with the output blocks and scatter destinations spread `gap`
        /// sentinel cells apart (see [`spread`]).
        fn dispatch(&self, vector: bool, gap: usize) -> [Vec<u32>; 6] {
            let (m, k, n) = (self.m, self.k, self.n);
            let spread_f32 = |v: &[f32], len: usize| -> Vec<f32> {
                let spread = spread(&bits(v), len, gap);
                spread.into_iter().map(f32::from_bits).collect()
            };
            let dense = |a: PackA<'_>, b: PackB<'_>, b_len: usize| {
                let mut out = spread_f32(&self.init, m * n);
                let batch = self.batch(m * k, b_len, m * n + gap);
                gemm_batched_on(vector, Out::Add(&mut out), a, b, (m, k, n), batch);
                bits(&out)
            };
            let src_off = Offsets::new(&self.src_off.0, &self.src_off.1);
            let dst_off = Offsets::new(&self.dst_off.0, &self.dst_off.1);
            let mut scattered = spread_f32(&self.dst, self.d_len);
            let sink = Out::Scatter(&mut scattered, dst_off);
            let (a, b) = (PackA::T(&self.at), PackB::N(&self.b));
            let batch = self.batch(m * k, k * n, self.d_len + gap);
            gemm_batched_on(vector, sink, a, b, (m, k, n), batch);
            [
                dense(PackA::N(&self.a), PackB::N(&self.b), k * n),
                dense(PackA::N(&self.a), PackB::T(&self.bt), k * n),
                dense(PackA::T(&self.at), PackB::N(&self.b), k * n),
                dense(PackA::T(&self.at), PackB::T(&self.bt), k * n),
                dense(
                    PackA::N(&self.a),
                    PackB::Gather(&self.src, src_off),
                    self.s_len,
                ),
                bits(&scattered),
            ]
        }

        /// A one-entry case's layouts through the tiled macro-kernel at any
        /// size.
        fn tiled(&self, vector: bool) -> [Vec<u32>; 6] {
            assert_eq!(self.par * self.red, 1, "the macro-kernel runs one entry");
            let mkn = (self.m, self.k, self.n);
            let tiled = |a: PackA<'_>, b: PackB<'_>| {
                let mut out = self.init.clone();
                tiled_alone(vector, &mut out, None, (a, b), mkn);
                bits(&out)
            };
            let src_off = Offsets::new(&self.src_off.0, &self.src_off.1);
            let dst_off = Offsets::new(&self.dst_off.0, &self.dst_off.1);
            let (a, at, b, bt) = (&self.a, &self.at, &self.b, &self.bt);
            let mut scattered = self.dst.clone();
            let operands = (PackA::T(at), PackB::N(b));
            tiled_alone(vector, &mut scattered, Some(dst_off), operands, mkn);
            [
                tiled(PackA::N(a), PackB::N(b)),
                tiled(PackA::N(a), PackB::T(bt)),
                tiled(PackA::T(at), PackB::N(b)),
                tiled(PackA::T(at), PackB::T(bt)),
                tiled(PackA::N(a), PackB::Gather(&self.src, src_off)),
                bits(&scattered),
            ]
        }

        /// The first layout whose answer in `got` is not the oracle's, its
        /// blocks spread `gap` sentinel cells apart.
        fn mismatch(&self, got: [Vec<u32>; 6], gap: usize) -> Option<&'static str> {
            let lens = [self.m * self.n; 5].into_iter().chain([self.d_len]);
            let want = self
                .expect
                .iter()
                .zip(lens)
                .map(|(v, len)| spread(v, len, gap));
            let mut pairs = LAYOUTS.into_iter().zip(got.iter().zip(want));
            pairs
                .find(|(_, (got, want))| **got != *want)
                .map(|(name, _)| name)
        }
    }

    /// Bits no product or sum in these tests produces: a signalling NaN.
    const SENTINEL: f32 = f32::from_bits(0x7fa0_5a5a);

    /// `v`'s consecutive `len`-cell blocks, each followed by `gap` cells
    /// holding [`SENTINEL`]'s bits.
    fn spread(v: &[u32], len: usize, gap: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(v.len() / len * (len + gap));
        for block in v.chunks_exact(len) {
            out.extend_from_slice(block);
            out.extend(std::iter::repeat_n(SENTINEL.to_bits(), gap));
        }
        out
    }

    /// The tiles write their own output cells and nothing else. Output
    /// blocks sit `GAP` cells apart with a `GAP`-cell tail, scatter
    /// destinations hold cells no table reaches, and all of those hold
    /// [`SENTINEL`], which every layout must leave as it found it. `m` and
    /// `n` fall on both sides of a tile (8) and of a tile pair (16); every
    /// shape is above `SMALL_FLOPS`, so it runs the tiled path, with two
    /// output blocks each reducing two entries.
    #[test]
    fn tiles_write_only_their_own_cells() {
        const GAP: usize = 5;
        const DIMS: [usize; 6] = [7, 8, 9, 15, 16, 17];
        let k = 45;
        for (m, n) in DIMS.into_iter().flat_map(|m| DIMS.map(|n| (m, n))) {
            assert!(2 * m * k * n >= SMALL_FLOPS);
            let case = Case::new(m, k, n, (2, 2, false), (m * 100 + n) as u64);
            let unreached = case.dst[..case.d_len]
                .iter()
                .any(|v| v.to_bits() == SENTINEL.to_bits());
            assert!(unreached, "every scatter cell reached at ({m},{k},{n})");
            for vector in instantiations() {
                let bad = case.mismatch(case.dispatch(vector, GAP), GAP);
                assert!(bad.is_none(), "{bad:?} at ({m},{k},{n}) vector={vector}");
            }
        }
    }

    /// [`tiles_write_only_their_own_cells`] for short products, `m` below,
    /// at and past half a tile, on batches a tile may stack several entries
    /// of: a grouped-conv forward (two samples sharing `A`, five groups'
    /// blocks abutting, the samples' runs `GAP` sentinel cells apart), a
    /// weight gradient (five abutting blocks, each reducing two entries,
    /// then a `GAP` tail) and a `bmm` whose blocks and `A` operands sit
    /// `GAP` cells apart. Every layout pair and both instantiations, at 1
    /// and 4 threads, bitwise against the oracle run entry by entry; every
    /// cell outside the blocks keeps [`SENTINEL`].
    #[test]
    fn short_products_write_only_their_own_cells() {
        const GAP: usize = 5;
        let _lock = pool::tests::THREAD_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let threads = pool::num_threads();
        for m in [1usize, 2, 3, 4, 5, 7] {
            for (k, n) in [(5usize, 3usize), (37, 8), (16, 9), (3, 17)] {
                let (mk, kn, mn) = (m * k, k * n, m * n);
                let axis = |count, a, b, out| Axis { count, a, b, out };
                let shapes = [
                    [axis(2, 0, 5 * kn, 5 * mn + GAP), axis(5, mk, kn, mn)],
                    [axis(5, mk, kn, mn), axis(2, 5 * mk, 5 * kn, 0)],
                    [axis(5, mk + GAP, kn, mn + GAP), Axis::ONE],
                ];
                for (shape, batch) in shapes.into_iter().enumerate() {
                    let span = |f: fn(&Axis) -> usize, len: usize| {
                        batch.iter().map(|x| (x.count - 1) * f(x)).sum::<usize>() + len
                    };
                    let seed = (m * 1000 + k * 10 + shape) as u64;
                    let a = fill(span(|x| x.a, mk), seed);
                    let b = fill(span(|x| x.b, kn), seed + 1);
                    let mut init = fill(span(|x| x.out, mn) + GAP, seed + 2);
                    let entries = || {
                        let [o, i] = batch;
                        (0..o.count).flat_map(move |p| {
                            (0..i.count).map(move |q| {
                                (p * o.a + q * i.a, p * o.b + q * i.b, p * o.out + q * i.out)
                            })
                        })
                    };
                    let mut inside = vec![false; init.len()];
                    for (_, _, at) in entries() {
                        inside[at..at + mn].fill(true);
                    }
                    for (v, _) in init.iter_mut().zip(&inside).filter(|(_, &hit)| !hit) {
                        *v = SENTINEL;
                    }
                    for (layout, name) in LAYOUTS[..4].iter().enumerate() {
                        let mut want = init.clone();
                        for (a_at, b_at, at) in entries() {
                            let (ea, eb) = (&a[a_at..a_at + mk], &b[b_at..b_at + kn]);
                            let block = &mut want[at..at + mn];
                            match layout {
                                0 => reference::gemm_ref(block, ea, eb, m, k, n),
                                1 => reference::gemm_nt_ref(block, ea, eb, m, k, n),
                                2 => reference::gemm_tn_ref(block, ea, eb, m, k, n),
                                _ => {
                                    let ea = transpose_each(ea, k, m);
                                    reference::gemm_nt_ref(block, &ea, eb, m, k, n)
                                }
                            }
                        }
                        let pa = if layout < 2 {
                            PackA::N(&a)
                        } else {
                            PackA::T(&a)
                        };
                        let pb = if layout % 2 == 0 {
                            PackB::N(&b)
                        } else {
                            PackB::T(&b)
                        };
                        for pool_threads in [1, 4] {
                            pool::set_num_threads(pool_threads);
                            for vector in instantiations() {
                                let mut got = init.clone();
                                gemm_batched_on(
                                    vector,
                                    Out::Add(&mut got),
                                    pa,
                                    pb,
                                    (m, k, n),
                                    batch,
                                );
                                assert!(
                                    bits(&got) == bits(&want),
                                    "{name} shape {shape} at ({m},{k},{n}), {pool_threads} threads, vector={vector}"
                                );
                            }
                        }
                    }
                }
            }
        }
        pool::set_num_threads(threads);
    }

    /// A convolution's `(koff, soff)` tables over `c` channels of the
    /// smallest image its taps fit, built as `hfta-tensor`'s conv builds
    /// them: `koff[(ci,u,v)] = (ci·hp + u)·wp + v`, `soff[(oy,ox)] =
    /// oy·sh·wp + ox·sw`.
    fn conv_tables(
        c: usize,
        (kh, kw): (usize, usize),
        (sh, sw): (usize, usize),
        (ho, wo): (usize, usize),
    ) -> (Vec<usize>, Vec<usize>) {
        let (hp, wp) = ((ho - 1) * sh + kh, (wo - 1) * sw + kw);
        let koff = (0..c * kh * kw).map(|r| (r / (kh * kw) * hp + r / kw % kh) * wp + r % kw);
        let soff = (0..ho * wo).map(|s| s / wo * sh * wp + s % wo * sw);
        (koff.collect(), soff.collect())
    }

    /// [`tiles_write_only_their_own_cells`] on conv-shaped tables, one
    /// case per way a gathered strip or a scattered row can be laid out:
    /// step-1 runs of 16; stride-2 runs of 32, 8 and 4; a weight
    /// gradient's four step-1 runs of 4 (`koff` as the column table); an
    /// irregular table with repeats and descents; a partial last strip; a
    /// stride-2 table whose last gathered element is its source's last
    /// element, and whose 1x1 scatter leaves every other cell unreached; and
    /// one case small enough for the direct loops. Each runs both
    /// instantiations at 1 and 4 threads, bitwise against the oracle, each
    /// table's rows serving as both the gather's `[k]` and the scatter's
    /// `[m]` table.
    #[test]
    fn conv_tables_take_every_gather_and_scatter_arm() {
        const GAP: usize = 5;
        let irregular = (0..40).map(|j| [3, 3, 0, 1, 2, 9, 5, 7][j % 8] + j / 8 * 4);
        let (weight_rows, weight_cols) = conv_tables(3, (4, 4), (2, 2), (4, 4));
        let cases = [
            ("step-1 runs of 16", conv_tables(2, (3, 3), (1, 1), (2, 16))),
            (
                "stride-2 runs of 32",
                conv_tables(1, (4, 4), (2, 2), (1, 32)),
            ),
            ("stride-2 runs of 8", conv_tables(2, (4, 4), (2, 2), (3, 8))),
            ("stride-2 runs of 4", conv_tables(2, (4, 4), (2, 2), (4, 4))),
            ("four step-1 runs of 4", (weight_cols, weight_rows)),
            (
                "irregular",
                (
                    conv_tables(2, (3, 3), (1, 1), (1, 1)).0,
                    irregular.collect(),
                ),
            ),
            (
                "partial last strip",
                conv_tables(2, (4, 4), (2, 2), (1, 21)),
            ),
            (
                "source's last element",
                conv_tables(12, (1, 1), (2, 2), (2, 8)),
            ),
            ("direct loops", conv_tables(2, (1, 1), (2, 2), (2, 8))),
        ];
        let _lock = pool::tests::THREAD_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let threads = pool::num_threads();
        for (seed, (name, (row, col))) in cases.into_iter().enumerate() {
            let (m, n) = (row.len(), col.len());
            let tiled = 2 * m * m * n >= SMALL_FLOPS;
            assert_eq!(tiled, name != "direct loops", "{name} runs the wrong path");
            let tables = (row, col);
            let case = Case::with_tables(
                (m, m, n),
                (2, 2, false),
                seed as u64,
                tables.clone(),
                tables,
            );
            if name == "source's last element" {
                let unreached = case.dst[..case.d_len]
                    .iter()
                    .any(|v| v.to_bits() == SENTINEL.to_bits());
                assert!(unreached, "every scatter cell of {name} reached");
            }
            for pool_threads in [1, 4] {
                pool::set_num_threads(pool_threads);
                for vector in instantiations() {
                    let bad = case.mismatch(case.dispatch(vector, GAP), GAP);
                    assert!(
                        bad.is_none(),
                        "{bad:?} for {name} at {pool_threads} threads, vector={vector}"
                    );
                }
            }
        }
        pool::set_num_threads(threads);
    }

    /// A `c`-channel convolution's windowed tables over unpadded `[h, w]`
    /// planes, taps then pixels, as `hfta-tensor`'s conv builds them: tap
    /// `(ci,u,v)` at `ci·h·w + (u−ph)·w + (v−pw)` shifted `(u−ph, v−pw)`,
    /// pixel `(oy,ox)` at `oy·sh·w + ox·sw` shifted `(oy·sh, ox·sw)`.
    #[allow(clippy::type_complexity)]
    fn windowed_tables(
        c: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        (sh, sw): (usize, usize),
        (ph, pw): (usize, usize),
    ) -> ([Vec<isize>; 2], [[Vec<i32>; 2]; 2]) {
        let (ho, wo) = ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1);
        let (mut off, mut shift): ([Vec<isize>; 2], [[Vec<i32>; 2]; 2]) = Default::default();
        let mut push = |side: usize, base: usize, y: isize, x: isize| {
            off[side].push(base as isize + y * w as isize + x);
            shift[side][0].push(y as i32);
            shift[side][1].push(x as i32);
        };
        for ci in 0..c {
            for u in 0..kh {
                for v in 0..kw {
                    push(
                        0,
                        ci * h * w,
                        u as isize - ph as isize,
                        v as isize - pw as isize,
                    );
                }
            }
        }
        for oy in 0..ho {
            for ox in 0..wo {
                push(1, 0, (oy * sh) as isize, (ox * sw) as isize);
            }
        }
        (off, shift)
    }

    /// The window canary. Windowed conv tables, forward (`[taps, pixels]`)
    /// and swapped (`[pixels, taps]`), over sources and destinations whose
    /// cells outside the entries' planes — before, between and after them —
    /// hold [`SENTINEL`], a signalling NaN. A gather must read `+0.0` for
    /// every element the window leaves out (a sentinel read turns the
    /// product NaN), and a scatter must leave every cell outside the planes
    /// at its sentinel: both instantiations, at 1 and 4 threads, bitwise
    /// against reference loops that materialise the zeros. The cases put the
    /// gather on quads (a weight gradient's runs of 4), stride-2 evens, the
    /// masked gather (groups spanning output rows) and the direct loops, and
    /// the scatter on step-1 runs, stride-2 runs and the portable loop.
    #[test]
    fn windows_read_zeros_and_write_nothing_outside_their_planes() {
        const GAP: usize = 7;
        // (channels, plane, kernel, stride, padding, swapped)
        let cases = [
            (2, (8, 32), (3, 3), (1, 1), (1, 1), false),
            (3, (16, 32), (4, 4), (2, 2), (1, 1), false),
            (4, (8, 8), (4, 4), (2, 2), (1, 1), false),
            (3, (16, 16), (4, 4), (2, 2), (1, 1), true),
            (2, (6, 7), (3, 2), (1, 2), (2, 1), true),
            (1, (3, 4), (2, 2), (1, 1), (1, 1), false),
        ];
        let _lock = pool::tests::THREAD_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let threads = pool::num_threads();
        for (seed, &(c, (h, w), kernel, stride, pad, swapped)) in cases.iter().enumerate() {
            let (off, shift) = windowed_tables(c, (h, w), kernel, stride, pad);
            let (r, q) = (usize::from(swapped), usize::from(!swapped));
            let yx = |s: usize| [&shift[s][0][..], &shift[s][1][..]];
            let window = Window {
                row: yx(r),
                col: yx(q),
                hw: (h, w),
            };
            let tables = Offsets::windowed(&off[r], &off[q], Some(&window));
            let (k, n, m, entries) = (off[r].len(), off[q].len(), 5, 3);
            let plane = c * h * w;
            // Entry `e`'s planes start `GAP + e·(plane + GAP)` in: sentinels
            // before, between and after them.
            let stride = plane + GAP;
            let mut src = vec![SENTINEL; GAP + entries * stride];
            let values = fill(entries * plane, seed as u64);
            for (e, v) in values.chunks_exact(plane).enumerate() {
                src[GAP + e * stride..][..plane].copy_from_slice(v);
            }
            let exists = |i: usize, j: usize| {
                let y = window.row[0][i] + window.col[0][j];
                let x = window.row[1][i] + window.col[1][j];
                (0..h as i32).contains(&y) && (0..w as i32).contains(&x)
            };
            let at = |i: usize, j: usize| (tables.row[i] + tables.col[j]) as usize;
            let a = fill(entries * m * k, seed as u64 + 1);
            let at_t = fill(entries * k * m, seed as u64 + 2);
            let gy = fill(entries * m * n, seed as u64 + 3);
            // The gather's oracle: `B` with the missing elements as `+0.0`.
            let mut want_gather = vec![0.0f32; entries * m * n];
            // The scatter's oracle: each `a^T gy` from zero, added where it exists.
            let mut want_scatter = src.clone();
            for e in 0..entries {
                let mut dense = vec![0.0f32; k * n];
                for (p, j) in (0..k).flat_map(|p| (0..n).map(move |j| (p, j))) {
                    if exists(p, j) {
                        dense[p * n + j] = src[GAP + e * stride + at(p, j)];
                    }
                }
                let block = &mut want_gather[e * m * n..][..m * n];
                reference::gemm_ref(block, &a[e * m * k..][..m * k], &dense, m, k, n);
                let mut product = vec![0.0f32; k * n];
                let (ae, ge) = (&at_t[e * k * m..][..k * m], &gy[e * m * n..][..m * n]);
                reference::gemm_tn_ref(&mut product, ae, ge, k, m, n);
                for (i, j) in (0..k).flat_map(|i| (0..n).map(move |j| (i, j))) {
                    if exists(i, j) {
                        want_scatter[GAP + e * stride + at(i, j)] += product[i * n + j];
                    }
                }
            }
            for pool_threads in [1, 4] {
                pool::set_num_threads(pool_threads);
                for vector in instantiations() {
                    let what = format!("case {seed} at {pool_threads} threads, vector={vector}");
                    let mut got = vec![0.0f32; entries * m * n];
                    let batch = [
                        Axis {
                            count: entries,
                            a: m * k,
                            b: stride,
                            out: m * n,
                        },
                        Axis::ONE,
                    ];
                    let b = PackB::Gather(&src[GAP..], tables);
                    gemm_batched_on(
                        vector,
                        Out::Add(&mut got),
                        PackA::N(&a),
                        b,
                        (m, k, n),
                        batch,
                    );
                    assert!(bits(&got) == bits(&want_gather), "gather of {what}");
                    let mut dst = src.clone();
                    let batch = [
                        Axis {
                            count: entries,
                            a: k * m,
                            b: m * n,
                            out: stride,
                        },
                        Axis::ONE,
                    ];
                    let sink = Out::Scatter(&mut dst[GAP..], tables);
                    let operands = (PackA::T(&at_t), PackB::N(&gy));
                    gemm_batched_on(vector, sink, operands.0, operands.1, (k, m, n), batch);
                    assert!(bits(&dst) == bits(&want_scatter), "scatter of {what}");
                }
            }
        }
        pool::set_num_threads(threads);
    }

    /// The three products of every `dcgan_compute` layer (B = 6 as groups,
    /// batch 2), with `hfta-tensor`'s conv tables and axes: each `(cing,
    /// coutg)` conv over `[h, h]` planes below is D1-D5, and as the adjoint
    /// of a transposed conv, G5-G2 (D1-D4's products) and G1 (the last).
    /// The forward gathers, the input gradient scatter-adds, the weight
    /// gradient gathers the swapped tables with the samples reducing; each
    /// against reference loops over the materialised operand (`+0.0` where
    /// the window leaves an element out) and `col2im`'s row-major adds, on
    /// both instantiations at 1 and 4 threads, bit for bit.
    #[test]
    fn dcgan_layer_products_on_both_instantiations() {
        // (cing, coutg, h, stride, pad): 4x4 kernels throughout.
        let layers = [
            (3, 12, 64, 2, 1),
            (12, 24, 32, 2, 1),
            (24, 48, 16, 2, 1),
            (48, 96, 8, 2, 1),
            (96, 1, 4, 1, 0),
            (96, 32, 4, 1, 0),
        ];
        let (groups, samples) = (6, 2);
        let _lock = pool::tests::THREAD_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let threads = pool::num_threads();
        for (seed, &(cing, coutg, h, s, p)) in layers.iter().enumerate() {
            let (off, shift) = windowed_tables(cing, (h, h), (4, 4), (s, s), (p, p));
            let yx = |side: usize| [&shift[side][0][..], &shift[side][1][..]];
            let windows = [false, true].map(|swap| Window {
                row: yx(usize::from(swap)),
                col: yx(usize::from(!swap)),
                hw: (h, h),
            });
            let tables = |swap: bool| {
                let (r, c) = (usize::from(swap), usize::from(!swap));
                let window = (p > 0).then_some(&windows[usize::from(swap)]);
                Offsets::windowed(&off[r], &off[c], window)
            };
            let (krows, spatial, plane) = (off[0].len(), off[1].len(), cing * h * h);
            let (cin, cout) = (groups * cing, groups * coutg);
            let inside = |tap: usize, pixel: usize| {
                let y = shift[0][0][tap] + shift[1][0][pixel];
                let x = shift[0][1][tap] + shift[1][1][pixel];
                (0..h as i32).contains(&y) && (0..h as i32).contains(&x)
            };
            let at = |tap: usize, pixel: usize| (off[0][tap] + off[1][pixel]) as usize;
            let seed = seed as u64 * 10;
            let x = fill(samples * cin * plane, seed);
            let w = fill(cout * cing * 16, seed + 1);
            let gy = fill(samples * cout * spatial, seed + 2);
            let (mut fwd, mut igrad) = (vec![0.0f32; gy.len()], vec![0.0f32; x.len()]);
            let mut wgrad = vec![0.0f32; w.len()];
            for (ni, gi) in (0..groups).flat_map(|g| (0..samples).map(move |n| (n, g))) {
                let img = &x[(ni * cin + gi * cing) * plane..][..plane];
                let mut cols = vec![0.0f32; krows * spatial];
                for (t, px) in (0..krows).flat_map(|t| (0..spatial).map(move |px| (t, px))) {
                    if inside(t, px) {
                        cols[t * spatial + px] = img[at(t, px)];
                    }
                }
                let wg = &w[gi * coutg * krows..][..coutg * krows];
                let gyg = &gy[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
                let block = &mut fwd[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
                reference::gemm_ref(block, wg, &cols, coutg, krows, spatial);
                let mut product = vec![0.0f32; krows * spatial];
                reference::gemm_tn_ref(&mut product, wg, gyg, krows, coutg, spatial);
                let dst = &mut igrad[(ni * cin + gi * cing) * plane..][..plane];
                for (t, px) in (0..krows).flat_map(|t| (0..spatial).map(move |px| (t, px))) {
                    if inside(t, px) {
                        dst[at(t, px)] += product[t * spatial + px];
                    }
                }
                let block = &mut wgrad[gi * coutg * krows..][..coutg * krows];
                reference::gemm_nt_ref(block, gyg, &cols, coutg, spatial, krows);
            }
            let axis = |count, a, b, out| Axis { count, a, b, out };
            for pool_threads in [1, 4] {
                pool::set_num_threads(pool_threads);
                for vector in instantiations() {
                    let what = format!(
                        "{cing}->{coutg} over {h}x{h} at {pool_threads} threads, vector={vector}"
                    );
                    let mut got = vec![0.0f32; gy.len()];
                    let batch = [
                        axis(samples, 0, cin * plane, cout * spatial),
                        axis(groups, coutg * krows, cing * plane, coutg * spatial),
                    ];
                    let (a, b) = (PackA::N(&w), PackB::Gather(&x, tables(false)));
                    gemm_batched_on(
                        vector,
                        Out::Add(&mut got),
                        a,
                        b,
                        (coutg, krows, spatial),
                        batch,
                    );
                    assert!(bits(&got) == bits(&fwd), "forward of {what}");
                    let mut got = vec![0.0f32; x.len()];
                    let batch = [
                        axis(samples, 0, cout * spatial, cin * plane),
                        axis(groups, coutg * krows, coutg * spatial, cing * plane),
                    ];
                    let sink = Out::Scatter(&mut got, tables(false));
                    let (a, b) = (PackA::T(&w), PackB::N(&gy));
                    gemm_batched_on(vector, sink, a, b, (krows, coutg, spatial), batch);
                    assert!(bits(&got) == bits(&igrad), "input gradient of {what}");
                    let mut got = vec![0.0f32; w.len()];
                    let batch = [
                        axis(groups, coutg * spatial, cing * plane, coutg * krows),
                        axis(samples, cout * spatial, cin * plane, 0),
                    ];
                    let (a, b) = (PackA::N(&gy), PackB::Gather(&x, tables(true)));
                    gemm_batched_on(
                        vector,
                        Out::Add(&mut got),
                        a,
                        b,
                        (coutg, spatial, krows),
                        batch,
                    );
                    assert!(bits(&got) == bits(&wgrad), "weight gradient of {what}");
                }
            }
        }
        pool::set_num_threads(threads);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The three products of a grouped conv, as `hfta-tensor` issues
        // them, on both instantiations at 1 and 4 threads against reference
        // loops over the materialised operand: strides 1 and 2, kernels 1-5,
        // padding 0-2, output rows of 1 to 19 pixels, up to 11 output
        // channels per group (a view at up to 8, packed past) and one or two
        // samples folding into the weight gradient.
        #[test]
        fn conv_views_are_the_oracle_on_both_instantiations(
            cing in 1usize..4,
            coutg in 1usize..12,
            groups in 1usize..3,
            samples in 1usize..3,
            h in 1usize..7,
            w in 1usize..18,
            kernel in 1usize..6,
            stride in 1usize..3,
            pad in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            if h + 2 * pad < kernel || w + 2 * pad < kernel {
                return Ok(());
            }
            let (off, shift) = windowed_tables(cing, (h, w), (kernel, kernel), (stride, stride), (pad, pad));
            let yx = |side: usize| [&shift[side][0][..], &shift[side][1][..]];
            let windows = [false, true].map(|swap| Window {
                row: yx(usize::from(swap)),
                col: yx(usize::from(!swap)),
                hw: (h, w),
            });
            let tables = |swap: bool| {
                let (r, c) = (usize::from(swap), usize::from(!swap));
                Offsets::windowed(&off[r], &off[c], Some(&windows[usize::from(swap)]))
            };
            let (krows, spatial, plane) = (off[0].len(), off[1].len(), cing * h * w);
            let (cin, cout) = (groups * cing, groups * coutg);
            let exists = |t: usize, q: usize| {
                let (y, x) = (shift[0][0][t] + shift[1][0][q], shift[0][1][t] + shift[1][1][q]);
                (0..h as i32).contains(&y) && (0..w as i32).contains(&x)
            };
            let at = |t: usize, q: usize| (off[0][t] + off[1][q]) as usize;
            let x = fill(samples * cin * plane, seed);
            let wt = fill(cout * krows, seed + 1);
            let gy = fill(samples * cout * spatial, seed + 2);
            let (mut fwd, mut igrad) = (vec![0.0f32; gy.len()], vec![0.0f32; x.len()]);
            let mut wgrad = vec![0.0f32; wt.len()];
            for (gi, ni) in (0..groups).flat_map(|g| (0..samples).map(move |n| (g, n))) {
                let img = &x[(ni * cin + gi * cing) * plane..][..plane];
                let mut cols = vec![0.0f32; krows * spatial];
                for (t, q) in (0..krows).flat_map(|t| (0..spatial).map(move |q| (t, q))) {
                    if exists(t, q) {
                        cols[t * spatial + q] = img[at(t, q)];
                    }
                }
                let wg = &wt[gi * coutg * krows..][..coutg * krows];
                let gyg = &gy[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
                let block = &mut fwd[(ni * cout + gi * coutg) * spatial..][..coutg * spatial];
                reference::gemm_ref(block, wg, &cols, coutg, krows, spatial);
                let mut product = vec![0.0f32; krows * spatial];
                reference::gemm_tn_ref(&mut product, wg, gyg, krows, coutg, spatial);
                let dst = &mut igrad[(ni * cin + gi * cing) * plane..][..plane];
                for (t, q) in (0..krows).flat_map(|t| (0..spatial).map(move |q| (t, q))) {
                    if exists(t, q) {
                        dst[at(t, q)] += product[t * spatial + q];
                    }
                }
                let block = &mut wgrad[gi * coutg * krows..][..coutg * krows];
                reference::gemm_nt_ref(block, gyg, &cols, coutg, spatial, krows);
            }
            let axis = |count, a, b, out| Axis { count, a, b, out };
            let _lock = pool::tests::THREAD_LOCK
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let threads = pool::num_threads();
            for (pool_threads, vector) in [1, 4].into_iter().flat_map(|t| instantiations().into_iter().map(move |v| (t, v))) {
                pool::set_num_threads(pool_threads);
                let what = format!("{pool_threads} threads, vector={vector}");
                let mut got = vec![f32::NAN; gy.len()];
                let batch = [
                    axis(samples, 0, cin * plane, cout * spatial),
                    axis(groups, coutg * krows, cing * plane, coutg * spatial),
                ];
                let (a, b) = (PackA::N(&wt), PackB::Gather(&x, tables(false)));
                gemm_batched_on(vector, Out::Write(&mut got), a, b, (coutg, krows, spatial), batch);
                let forward = bits(&got) == bits(&fwd);
                let mut got = vec![f32::NAN; x.len()];
                let batch = [
                    axis(samples, 0, cout * spatial, cin * plane),
                    axis(groups, coutg * krows, coutg * spatial, cing * plane),
                ];
                let sink = Out::ScatterWrite(&mut got, tables(false));
                gemm_batched_on(vector, sink, PackA::T(&wt), PackB::N(&gy), (krows, coutg, spatial), batch);
                let input = bits(&got) == bits(&igrad);
                let mut got = vec![f32::NAN; wt.len()];
                let batch = [
                    axis(groups, coutg * spatial, cing * plane, coutg * krows),
                    axis(samples, cout * spatial, cin * plane, 0),
                ];
                let (a, b) = (PackA::N(&gy), PackB::Gather(&x, tables(true)));
                gemm_batched_on(vector, Out::Write(&mut got), a, b, (coutg, spatial, krows), batch);
                let weight = bits(&got) == bits(&wgrad);
                pool::set_num_threads(threads);
                prop_assert!(forward && input && weight, "forward {forward}, input {input}, weight {weight} at {what}");
            }
        }
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
            let case = Case::new(m, k, n, (1, 1, false), (m * 31 + k * 7 + n) as u64);
            for vector in instantiations() {
                let bad = case.mismatch(case.tiled(vector), 0);
                assert!(bad.is_none(), "{bad:?} at ({m},{k},{n}) vector={vector}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // vector == portable == oracle for every layout, on batches of one
        // to three output blocks each reducing a chain of one to three
        // entries, with the reducing axis listed either first or second.
        // 2·m·k·n runs from 0 to ~63k FLOPs per entry, straddling
        // `SMALL_FLOPS`, so both rows of the dispatch table are compared;
        // n ≥ 16 puts a panel pair (the paired 8×16 kernel) in a chunk with
        // an odd panel behind it.
        #[test]
        fn every_entry_point_is_the_oracle_on_both_instantiations(
            m in 1usize..28,
            k in 0usize..28,
            n in 1usize..40,
            par in 1usize..4,
            red in 1usize..4,
            red_outer in any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            let case = Case::new(m, k, n, (par, red, red_outer), seed);
            for vector in instantiations() {
                let bad = case.mismatch(case.dispatch(vector, 0), 0);
                prop_assert!(
                    bad.is_none(),
                    "{bad:?} at ({m},{k},{n}) x ({par} blocks, {red} deep) vector={vector}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Each write sink on a destination of NaN equals its adding twin on
        // zeros, on both instantiations at 1 and 4 threads: dense blocks in
        // every layout pair (`B` gathered too), a scatter through
        // overlapping tables and a conv's windowed scatter at strides 1 and
        // 2; `par` blocks `gap` cells apart, each reducing `red` entries.
        #[test]
        fn write_sinks_are_adds_into_zeros_on_both_instantiations(
            m in 1usize..24,
            k in 1usize..41,
            n in 1usize..36,
            par in 1usize..4,
            red in 1usize..4,
            red_outer in any::<bool>(),
            gap in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let case = Case::new(m, k, n, (par, red, red_outer), seed);
            let (cing, h, stride) = (1 + m % 3, 2 + n % 5, 1 + k % 2);
            let (off, shift) = windowed_tables(cing, (h, h), (3, 3), (stride, stride), (1, 1));
            let yx = |s: usize| [&shift[s][0][..], &shift[s][1][..]];
            let window = Window { row: yx(0), col: yx(1), hw: (h, h) };
            let conv = Offsets::windowed(&off[0], &off[1], Some(&window));
            let (src_off, dst_off) = (
                Offsets::new(&case.src_off.0, &case.src_off.1),
                Offsets::new(&case.dst_off.0, &case.dst_off.1),
            );
            let (taps, pixels) = (off[0].len(), off[1].len());
            let (a, b) = (fill(par * red * taps * k, seed), fill(par * red * k * pixels, seed + 1));
            type Sink<'a> = (PackA<'a>, PackB<'a>, Option<Offsets<'a>>, (usize, usize, usize), usize, usize);
            let (ka, kb) = (m * k, k * n);
            let sinks: [Sink<'_>; 6] = [
                (PackA::N(&case.a), PackB::N(&case.b), None, (m, k, n), kb, m * n),
                (PackA::N(&case.a), PackB::T(&case.bt), None, (m, k, n), kb, m * n),
                (PackA::T(&case.at), PackB::N(&case.b), None, (m, k, n), kb, m * n),
                (PackA::N(&case.a), PackB::Gather(&case.src, src_off), None, (m, k, n), case.s_len, m * n),
                (PackA::T(&case.at), PackB::N(&case.b), Some(dst_off), (m, k, n), kb, case.d_len),
                (PackA::T(&a), PackB::N(&b), Some(conv), (taps, k, pixels), k * pixels, cing * h * h),
            ];
            let _lock = pool::tests::THREAD_LOCK
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let threads = pool::num_threads();
            for (i, &(pa, pb, tables, mkn, b_len, block)) in sinks.iter().enumerate() {
                let a_len = if i == 5 { taps * k } else { ka };
                let batch = case.batch(a_len, b_len, block + gap);
                let run = |vector: bool, write: bool| {
                    let mut out = vec![if write { f32::NAN } else { 0.0 }; par * (block + gap)];
                    let sink = match (tables, write) {
                        (None, false) => Out::Add(&mut out),
                        (None, true) => Out::Write(&mut out),
                        (Some(t), false) => Out::Scatter(&mut out, t),
                        (Some(t), true) => Out::ScatterWrite(&mut out, t),
                    };
                    gemm_batched_on(vector, sink, pa, pb, mkn, batch);
                    bits(&out)
                };
                for pool_threads in [1, 4] {
                    pool::set_num_threads(pool_threads);
                    for vector in instantiations() {
                        let what = format!("sink {i} at {mkn:?}, {pool_threads} threads, vector={vector}");
                        prop_assert!(run(vector, true) == run(vector, false), "{}", what);
                    }
                }
            }
            pool::set_num_threads(threads);
        }
    }

    #[test]
    #[should_panic(expected = "offset tables reach 9 + 6, outside a buffer of 15 elements")]
    fn gather_rejects_a_table_that_reaches_outside_the_source() {
        let mut out = [0.0f32; 4];
        let b = PackB::Gather(&[0.0; 15], Offsets::new(&[0, 9], &[0, 6]));
        gemm_batched(
            Out::Add(&mut out),
            PackA::N(&[1.0; 4]),
            b,
            (2, 2, 2),
            [Axis::ONE; 2],
        );
    }

    #[test]
    #[should_panic(expected = "offset tables reach 9 + 6, outside a buffer of 15 elements")]
    fn scatter_rejects_a_table_that_reaches_outside_the_destination() {
        let mut dst = [0.0f32; 15];
        let out = Out::Scatter(&mut dst, Offsets::new(&[0, 9], &[0, 6]));
        gemm_batched(
            out,
            PackA::T(&[1.0; 6]),
            PackB::N(&[1.0; 6]),
            (2, 3, 2),
            [Axis::ONE; 2],
        );
    }

    #[test]
    #[should_panic(expected = "offset tables do not match the 3x2 matrix they address")]
    fn gather_rejects_tables_of_the_wrong_extent() {
        let mut out = [0.0f32; 4];
        let b = PackB::Gather(&[0.0; 16], Offsets::new(&[0, 1], &[0, 1]));
        gemm_batched(
            Out::Add(&mut out),
            PackA::N(&[1.0; 6]),
            b,
            (2, 3, 2),
            [Axis::ONE; 2],
        );
    }

    #[test]
    #[should_panic(expected = "batch output blocks overlap at element 2")]
    fn overlapping_output_blocks_are_rejected() {
        // Two 2x2 blocks two elements apart.
        let mut out = [0.0f32; 8];
        let blocks = Axis {
            count: 2,
            a: 2,
            b: 2,
            out: 2,
        };
        let (a, b) = (PackA::N(&[1.0; 4]), PackB::N(&[1.0; 4]));
        gemm_batched(Out::Add(&mut out), a, b, (2, 1, 2), [blocks, Axis::ONE]);
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
