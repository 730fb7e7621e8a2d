//! Property tests of the one GEMM contract: every output element is
//! `acc = fma(a[i,p], b[p,j], acc)` for `p` ascending, one rounding per
//! step. For every layout of the one entry point — across shapes straddling
//! the small-shape threshold and the 8×8 tile, random initial output
//! contents (the kernels accumulate) and thread counts 1, 2 and 4 — the
//! tests assert **bit identity**, never closeness:
//!
//! * default dispatch == the oracle ([`reference`]);
//! * on inputs where a fused multiply-add and a separate multiply + add
//!   provably differ, every path produces the *fused* answer, checked
//!   against hand-derived bits rather than against another kernel;
//! * the table-addressed layouts are the same GEMMs: a gathered `B` == the
//!   oracle on the `B` its tables materialise, a scattered product == the
//!   oracle into zeroed columns followed by a row-major add through the
//!   tables — including, on a hand-derived case, the *order* of those adds;
//! * a batch is its entries: a reduction over entries == the oracle run on
//!   each entry in ascending order into one block, and a scatter batch ==
//!   each entry scattered into its own block, at batch sizes that split
//!   across the pool.
//!
//! That the AVX2/FMA and the portable instantiations agree is a unit test
//! in `src/gemm.rs`, which can name an instantiation; from here, dispatch
//! takes whichever the CPU has.
//!
//! `set_num_threads` is process-wide, so every test in this binary
//! serializes on [`THREADS_LOCK`] and restores the thread count before
//! releasing it.

use hfta_kernels::{
    gemm, gemm_batched, gemm_nt, gemm_tn, reference, set_num_threads, Axis, Offsets, Out, PackA,
    PackB, Window,
};
use proptest::prelude::*;
use std::sync::Mutex;

static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic pseudo-random fill (xorshift), decorrelated by `salt`.
fn fill(n: usize, seed: u64, salt: u64) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(salt)
        .wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state as f64 / u64::MAX as f64) as f32 - 0.5) * 4.0
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

/// Bit patterns, so `-0.0 != 0.0` and NaNs compare by payload.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Restores the thread count when a test body exits (even early).
struct RestoreThreads(usize);

impl Drop for RestoreThreads {
    fn drop(&mut self) {
        set_num_threads(self.0);
    }
}

/// The three public entry points, each fed from the same logical operands
/// `a[m,k]`, `b[k,n]`.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Gemm,
    GemmNt,
    GemmTn,
}

const ENTRIES: [Entry; 3] = [Entry::Gemm, Entry::GemmNt, Entry::GemmTn];

/// One problem in the storage layout its entry point expects.
struct Problem {
    entry: Entry,
    a: Vec<f32>,
    b: Vec<f32>,
    init: Vec<f32>,
    m: usize,
    k: usize,
    n: usize,
}

impl Problem {
    fn new(entry: Entry, a: &[f32], b: &[f32], init: &[f32], m: usize, k: usize, n: usize) -> Self {
        let (a, b) = match entry {
            Entry::Gemm => (a.to_vec(), b.to_vec()),
            Entry::GemmNt => (a.to_vec(), transpose(b, k, n)),
            Entry::GemmTn => (transpose(a, m, k), b.to_vec()),
        };
        Problem {
            entry,
            a,
            b,
            init: init.to_vec(),
            m,
            k,
            n,
        }
    }

    /// Runs the entry point at the current thread count.
    fn run(&self) -> Vec<u32> {
        let (m, k, n) = (self.m, self.k, self.n);
        let mut out = self.init.clone();
        match self.entry {
            Entry::Gemm => gemm(&mut out, &self.a, &self.b, m, k, n),
            Entry::GemmNt => gemm_nt(&mut out, &self.a, &self.b, m, k, n),
            Entry::GemmTn => gemm_tn(&mut out, &self.a, &self.b, m, k, n),
        }
        bits(&out)
    }

    /// The oracle's answer.
    fn oracle(&self) -> Vec<u32> {
        let (m, k, n) = (self.m, self.k, self.n);
        let mut out = self.init.clone();
        match self.entry {
            Entry::Gemm => reference::gemm_ref(&mut out, &self.a, &self.b, m, k, n),
            Entry::GemmNt => reference::gemm_nt_ref(&mut out, &self.a, &self.b, m, k, n),
            Entry::GemmTn => reference::gemm_tn_ref(&mut out, &self.a, &self.b, m, k, n),
        }
        bits(&out)
    }
}

/// Asserts, for every entry point, that every thread count (see
/// [`check_every_configuration`]) reproduces `expect` — or, when `None`, each
/// entry's oracle — bit for bit.
fn check_all_paths(
    a: &[f32],
    b: &[f32],
    init: &[f32],
    (m, k, n): (usize, usize, usize),
    expect: Option<&[u32]>,
) -> Result<(), String> {
    for entry in ENTRIES {
        let problem = Problem::new(entry, a, b, init, m, k, n);
        let oracle = problem.oracle();
        let expect = expect.unwrap_or(&oracle);
        prop_assert!(
            oracle == expect,
            "{entry:?}: oracle diverged from the expected bits at {m}x{k}x{n}"
        );
        check_every_configuration(&format!("{entry:?} {m}x{k}x{n}"), expect, || problem.run())?;
    }
    Ok(())
}

/// Runs `run` through default dispatch at 1, 2 and 4 threads and asserts
/// each result equals `expect`.
fn check_every_configuration(
    what: &str,
    expect: &[u32],
    run: impl Fn() -> Vec<u32>,
) -> Result<(), String> {
    let _g = THREADS_LOCK.lock().unwrap();
    let _restore = RestoreThreads(hfta_kernels::num_threads());
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        prop_assert!(
            run() == expect,
            "{what}: default dispatch diverged at {threads} threads"
        );
    }
    Ok(())
}

/// Pseudo-random offset table of `len` entries below `bound` (repeats, and
/// so overlapping destinations, included), decorrelated by `salt`.
fn table(len: usize, bound: usize, seed: u64, salt: u64) -> Vec<usize> {
    fill(len, seed, salt)
        .iter()
        .map(|v| ((v + 2.0) * 1e4) as usize % bound)
        .collect()
}

/// A gathered `B` against the oracle on the `B` its tables materialise, and
/// a scattered `a^T b` against the oracle into zeroed columns followed by a
/// row-major `dst[row[i] + col[j]] += cols[i][j]`, at every thread count.
fn check_tables(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let a = fill(m * k, seed, 1);
    let init = fill(m * n, seed, 3);

    let (b_row, b_col) = (table(k, 3 * k + 1, seed, 4), table(n, 2 * n + 1, seed, 5));
    let src = fill(5 * (k + n) + 2, seed, 6);
    let mut b = vec![0.0f32; k * n];
    for (p, &base) in b_row.iter().enumerate() {
        for (j, &c) in b_col.iter().enumerate() {
            b[p * n + j] = src[base + c];
        }
    }
    let mut expect = init.clone();
    reference::gemm_ref(&mut expect, &a, &b, m, k, n);
    check_every_configuration(&format!("gather {m}x{k}x{n}"), &bits(&expect), || {
        let mut out = init.clone();
        let b = PackB::Gather(&src, Offsets::new(&b_row, &b_col));
        gemm_batched(
            Out::Add(&mut out),
            PackA::N(&a),
            b,
            (m, k, n),
            [Axis::ONE; 2],
        );
        bits(&out)
    })?;

    // Offsets far smaller than the matrix, so most destinations are hit many
    // times, from several rows and several column tiles.
    let (d_row, d_col) = (table(m, m / 2 + 1, seed, 7), table(n, n / 2 + 1, seed, 8));
    let dst = fill(m / 2 + n / 2 + 1, seed, 9);
    let at = transpose(&a, m, k);
    let mut cols = vec![0.0f32; m * n];
    reference::gemm_tn_ref(&mut cols, &at, &b, m, k, n);
    let mut expect = dst.clone();
    for (i, &base) in d_row.iter().enumerate() {
        for (j, &c) in d_col.iter().enumerate() {
            expect[base + c] += cols[i * n + j];
        }
    }
    check_every_configuration(&format!("scatter {m}x{k}x{n}"), &bits(&expect), || {
        let mut out = dst.clone();
        let sink = Out::Scatter(&mut out, Offsets::new(&d_row, &d_col));
        gemm_batched(sink, PackA::T(&at), PackB::N(&b), (m, k, n), [Axis::ONE; 2]);
        bits(&out)
    })
}

/// Two batches shaped like a grouped convolution's, at every thread count.
///
/// A reduction (the weight gradient's layout): `groups` output blocks, each
/// `a[s, g] @ b[s, g]^T` summed over the `samples` in ascending order. A
/// scatter (the input gradient's layout): `samples × groups` entries
/// `w[g]^T @ b[s, g]`, the weights shared by every sample, each added
/// through the same tables into its own destination block.
fn check_batches(
    (groups, samples): (usize, usize),
    (m, k, n): (usize, usize, usize),
    seed: u64,
) -> Result<(), String> {
    let entries = groups * samples;
    let (mk, kn, mn) = (m * k, k * n, m * n);
    let a = fill(entries * mk, seed, 1);
    let b = fill(entries * kn, seed, 2);
    let init = fill(groups * mn, seed, 3);
    let mut expect = init.clone();
    for g in 0..groups {
        for s in 0..samples {
            let (e, block) = (s * groups + g, &mut expect[g * mn..][..mn]);
            reference::gemm_nt_ref(block, &a[e * mk..][..mk], &b[e * kn..][..kn], m, k, n);
        }
    }
    let group = Axis {
        count: groups,
        a: mk,
        b: kn,
        out: mn,
    };
    let sample = Axis {
        count: samples,
        a: groups * mk,
        b: groups * kn,
        out: 0,
    };
    let what = format!("reduction {groups}x{samples} of {m}x{k}x{n}");
    check_every_configuration(&what, &bits(&expect), || {
        let mut out = init.clone();
        let (pa, pb) = (PackA::N(&a), PackB::T(&b));
        gemm_batched(Out::Add(&mut out), pa, pb, (m, k, n), [group, sample]);
        bits(&out)
    })?;

    let w = fill(groups * mk, seed, 4);
    let (row, col) = (table(m, m / 2 + 1, seed, 5), table(n, n / 2 + 1, seed, 6));
    let block = m / 2 + n / 2 + 1;
    let dst = fill(entries * block, seed, 7);
    let mut expect = dst.clone();
    for e in 0..entries {
        let mut cols = vec![0.0f32; mn];
        let g = e % groups;
        reference::gemm_tn_ref(&mut cols, &w[g * mk..][..mk], &b[e * kn..][..kn], m, k, n);
        for (i, &base) in row.iter().enumerate() {
            for (j, &c) in col.iter().enumerate() {
                expect[e * block + base + c] += cols[i * n + j];
            }
        }
    }
    let sample = Axis {
        count: samples,
        a: 0,
        b: groups * kn,
        out: groups * block,
    };
    let group = Axis {
        count: groups,
        a: mk,
        b: kn,
        out: block,
    };
    let what = format!("scatter {samples}x{groups} of {m}x{k}x{n}");
    check_every_configuration(&what, &bits(&expect), || {
        let mut out = dst.clone();
        let sink = Out::Scatter(&mut out, Offsets::new(&row, &col));
        gemm_batched(sink, PackA::T(&w), PackB::N(&b), (m, k, n), [sample, group]);
        bits(&out)
    })
}

/// A batch of `runs x entries` products that all write: a fused `bmm`'s
/// (every entry its own `A`), or a grouped-conv forward's when `shared_a`
/// (the outer, sample axis has `A` stride 0). The `entries` of a run abut
/// (`A` and output blocks `m·k` and `m·n` apart), or with `gaps` sit `gap`
/// cells further apart, as do the runs. `layout` picks `A` (`N`/`T`) and `B`
/// (`N`/`T`). Against the oracle run entry by entry, at every thread count;
/// cells outside every block must come back as they went in.
fn check_lanes(
    (runs, entries, shared_a): (usize, usize, bool),
    (m, k, n): (usize, usize, usize),
    (layout, gap): (usize, usize),
    seed: u64,
) -> Result<(), String> {
    let (mk, kn, mn) = (m * k, k * n, m * n);
    let inner = Axis {
        count: entries,
        a: mk + gap,
        b: kn,
        out: mn + gap,
    };
    let outer = Axis {
        count: runs,
        a: if shared_a { 0 } else { entries * inner.a },
        b: entries * kn,
        out: entries * inner.out + gap,
    };
    let span = |f: fn(&Axis) -> usize, len: usize| {
        (runs - 1) * f(&outer) + (entries - 1) * f(&inner) + len
    };
    let a = fill(span(|x| x.a, mk), seed, 1);
    let b = fill(span(|x| x.b, kn), seed, 2);
    let init = fill(span(|x| x.out, mn) + gap, seed, 3);
    let mut expect = init.clone();
    for (r, e) in (0..runs).flat_map(|r| (0..entries).map(move |e| (r, e))) {
        let at = |f: fn(&Axis) -> usize| r * f(&outer) + e * f(&inner);
        let (ea, eb) = (&a[at(|x| x.a)..][..mk], &b[at(|x| x.b)..][..kn]);
        let block = &mut expect[at(|x| x.out)..][..mn];
        match layout {
            0 => reference::gemm_ref(block, ea, eb, m, k, n),
            1 => reference::gemm_nt_ref(block, ea, eb, m, k, n),
            2 => reference::gemm_tn_ref(block, ea, eb, m, k, n),
            _ => reference::gemm_nt_ref(block, &transpose(ea, k, m), eb, m, k, n),
        }
    }
    let what =
        format!("layout {layout}, {runs}x{entries} of {m}x{k}x{n}, gap {gap}, shared A {shared_a}");
    check_every_configuration(&what, &bits(&expect), || {
        let mut out = init.clone();
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
        gemm_batched(Out::Add(&mut out), pa, pb, (m, k, n), [outer, inner]);
        bits(&out)
    })
}

/// A thin batch: `groups` output blocks, each the sum of `samples` entries
/// in ascending order, every entry `m x k x n` with `m` or `n` equal to 1 and
/// `k` up to past 1536 (the DCGAN edge layers' `96·4·4`). Each layout pair
/// of dense operands against the oracle run entry by entry, at every thread
/// count.
fn check_thin(
    (groups, samples): (usize, usize),
    (m, k, n): (usize, usize, usize),
    layout: usize,
    seed: u64,
) -> Result<(), String> {
    let entries = groups * samples;
    let (mk, kn, mn) = (m * k, k * n, m * n);
    let a = fill(entries * mk, seed, 1);
    let b = fill(entries * kn, seed, 2);
    let init = fill(groups * mn, seed, 3);
    let mut expect = init.clone();
    for (g, s) in (0..groups).flat_map(|g| (0..samples).map(move |s| (g, s))) {
        let e = s * groups + g;
        let (ea, eb) = (&a[e * mk..][..mk], &b[e * kn..][..kn]);
        let block = &mut expect[g * mn..][..mn];
        match layout {
            0 => reference::gemm_ref(block, ea, eb, m, k, n),
            1 => reference::gemm_nt_ref(block, ea, eb, m, k, n),
            2 => reference::gemm_tn_ref(block, ea, eb, m, k, n),
            _ => reference::gemm_nt_ref(block, &transpose(ea, k, m), eb, m, k, n),
        }
    }
    let group = Axis {
        count: groups,
        a: mk,
        b: kn,
        out: mn,
    };
    let sample = Axis {
        count: samples,
        a: groups * mk,
        b: groups * kn,
        out: 0,
    };
    let what = format!("thin layout {layout}, {groups}x{samples} of {m}x{k}x{n}");
    check_every_configuration(&what, &bits(&expect), || {
        let mut out = init.clone();
        let pa = if layout < 2 {
            PackA::N(&a)
        } else {
            PackA::T(&a)
        };
        let pb = if layout.is_multiple_of(2) {
            PackB::N(&b)
        } else {
            PackB::T(&b)
        };
        gemm_batched(Out::Add(&mut out), pa, pb, (m, k, n), [group, sample]);
        bits(&out)
    })
}

/// A `cing`-channel 4x4 convolution's windowed tables over unpadded `[h, h]`
/// planes at stride 1, taps then pixels, as `hfta-tensor`'s conv builds
/// them, and the shifts of each.
#[allow(clippy::type_complexity)]
fn conv_window(cing: usize, h: usize, pad: usize) -> ([Vec<isize>; 2], [[Vec<i32>; 2]; 2]) {
    let out = h + 2 * pad - 3;
    let (mut off, mut shift): ([Vec<isize>; 2], [[Vec<i32>; 2]; 2]) = Default::default();
    let mut push = |side: usize, base: usize, y: isize, x: isize| {
        off[side].push(base as isize + y * h as isize + x);
        shift[side][0].push(y as i32);
        shift[side][1].push(x as i32);
    };
    let p = pad as isize;
    for ci in 0..cing {
        for u in 0..4 {
            for v in 0..4 {
                push(0, ci * h * h, u - p, v - p);
            }
        }
    }
    for oy in 0..out {
        for ox in 0..out {
            push(1, 0, oy as isize, ox as isize);
        }
    }
    (off, shift)
}

/// A grouped conv's gathered products at thin shapes: the forward
/// (`[coutg, taps] x [taps, pixels]`) or, `swapped`, the weight gradient
/// (`[coutg, pixels] x [pixels, taps]`), through a windowed table pair over
/// `cing` channels of `[h, h]` planes (`pad` 0 to 2, so one to nine pixels
/// against up to 1600 taps). `groups` blocks, each reducing `samples`
/// entries, against the oracle on the `B` the tables materialise (`+0.0`
/// where the window leaves an element out), at every thread count.
fn check_thin_gather(
    (groups, samples): (usize, usize),
    (coutg, cing, h, pad): (usize, usize, usize, usize),
    swapped: bool,
    seed: u64,
) -> Result<(), String> {
    let (off, shift) = conv_window(cing, h, pad);
    let (r, q) = (usize::from(swapped), usize::from(!swapped));
    let yx = |s: usize| [&shift[s][0][..], &shift[s][1][..]];
    let window = Window {
        row: yx(r),
        col: yx(q),
        hw: (h, h),
    };
    let window = (pad > 0).then_some(window);
    let tables = Offsets::windowed(&off[r], &off[q], window.as_ref());
    let (m, k, n) = (coutg, off[r].len(), off[q].len());
    let (entries, plane) = (groups * samples, cing * h * h);
    let a = fill(entries * m * k, seed, 1);
    let src = fill(entries * plane, seed, 2);
    let init = fill(groups * m * n, seed, 3);
    let inside = |i: usize, j: usize| {
        let y = shift[r][0][i] + shift[q][0][j];
        let x = shift[r][1][i] + shift[q][1][j];
        (0..h as i32).contains(&y) && (0..h as i32).contains(&x)
    };
    let mut expect = init.clone();
    for (g, s) in (0..groups).flat_map(|g| (0..samples).map(move |s| (g, s))) {
        let e = s * groups + g;
        let mut dense = vec![0.0f32; k * n];
        for (p, j) in (0..k).flat_map(|p| (0..n).map(move |j| (p, j))) {
            if inside(p, j) {
                dense[p * n + j] = src[e * plane + (off[r][p] + off[q][j]) as usize];
            }
        }
        let block = &mut expect[g * m * n..][..m * n];
        reference::gemm_ref(block, &a[e * m * k..][..m * k], &dense, m, k, n);
    }
    let group = Axis {
        count: groups,
        a: m * k,
        b: plane,
        out: m * n,
    };
    let sample = Axis {
        count: samples,
        a: groups * m * k,
        b: groups * plane,
        out: 0,
    };
    let what = format!(
        "thin gather {groups}x{samples} of {m}x{k}x{n}, {cing} channels of {h}x{h}, pad {pad}"
    );
    check_every_configuration(&what, &bits(&expect), || {
        let mut out = init.clone();
        let (pa, pb) = (PackA::N(&a), PackB::Gather(&src, tables));
        gemm_batched(Out::Add(&mut out), pa, pb, (m, k, n), [group, sample]);
        bits(&out)
    })
}

fn check_random(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let a = fill(m * k, seed, 1);
    let b = fill(k * n, seed, 2);
    let init = fill(m * n, seed, 3);
    check_all_paths(&a, &b, &init, (m, k, n), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // 2·m·k·n runs from 0 (k = 0) to ~47k FLOPs, straddling the 4 kFLOP
    // small-shape threshold; m, k, n are mostly not multiples of the 8×8
    // tile, and n ≥ 16 puts two column panels in one chunk (the paired
    // 8×16 kernel) with an odd third panel behind them.
    #[test]
    fn all_paths_bit_identical(m in 1usize..28, k in 0usize..28, n in 1usize..32, seed in 0u64..1_000_000) {
        check_random(m, k, n, seed)?;
    }

    // Enough row panels and column groups that the 2-D tile partition and
    // the pool both engage.
    #[test]
    fn all_paths_bit_identical_large(m in 24usize..80, n in 24usize..80, seed in 0u64..1_000_000) {
        check_random(m, 33, n, seed)?;
    }

    // The same straddle for the table-addressed entry points: k in {0, 1}
    // included, m and n mostly off the tile edges, several row panels (the
    // scatter's strips) and an odd column panel behind the pairs.
    // Grouped-conv-sized batches: 2 to 6 groups of 1 to 3 samples, entries
    // from under the small-shape threshold to ~230 kFLOP. Some batches stay
    // on the caller, others split across the pool, and a group's reduction
    // chain sometimes exceeds a chunk's FLOP target on its own.
    #[test]
    fn batches_bit_identical(
        groups in 2usize..7,
        samples in 1usize..4,
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..72,
        seed in 0u64..1_000_000,
    ) {
        check_batches((groups, samples), (m, k, n), seed)?;
    }

    // Batches whose every entry writes, shaped like a fused `bmm` and a
    // grouped-conv forward: 1 to 17 entries in each of 1 to 3 runs, short
    // and tile-sized `m` (a tile may stack several entries' rows), abutting
    // or gapped blocks, every layout pair. This binary reaches the
    // instantiation the CPU has; `src/gemm.rs`'s
    // `short_products_write_only_their_own_cells` pins both.
    #[test]
    fn lane_batches_bit_identical(
        runs in 1usize..4,
        entries in 1usize..18,
        shared_a in any::<bool>(),
        m in 1usize..10,
        k in 0usize..41,
        n in 1usize..21,
        layout in 0usize..4,
        gapped in any::<bool>(),
        gap in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let gap = if gapped { gap } else { 0 };
        check_lanes((runs, entries, shared_a), (m, k, n), (layout, gap), seed)?;
    }

    // Thin products: `m` or `n` is 1 (both, sometimes) and `k` runs to past
    // the 1536 of the DCGAN edge layers, in every layout pair, on batches of
    // 1 to 6 blocks each reducing 1 to 3 entries.
    #[test]
    fn thin_products_bit_identical(
        groups in 1usize..7,
        samples in 1usize..4,
        unit_m in any::<bool>(),
        other in 1usize..40,
        k in 0usize..1700,
        layout in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (m, n) = if unit_m { (1, other) } else { (other, 1) };
        check_thin((groups, samples), (m, k, n), layout, seed)?;
    }

    // The gathered thin products of a grouped conv's edge layers: a 4x4
    // kernel over 1 to 100 channels of a 1x1 to 4x4 plane (zero-padded by
    // a window, or not), forward or weight-gradient orientation, `m` 1 to 3,
    // samples reducing into each group's block.
    #[test]
    fn thin_gathers_bit_identical(
        groups in 1usize..7,
        samples in 1usize..4,
        coutg in 1usize..4,
        cing in 1usize..101,
        h in 1usize..5,
        swapped in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let pad = if h < 4 { (5 - h) / 2 } else { (seed % 2) as usize };
        check_thin_gather((groups, samples), (coutg, cing, h, pad), swapped, seed)?;
    }

    #[test]
    fn table_paths_bit_identical(m in 1usize..28, k in 0usize..28, n in 1usize..40, seed in 0u64..1_000_000) {
        check_tables(m, k, n, seed)?;
    }
}

/// The scatter's add order, derived by hand. Rows 0, 1, 2 of one row panel
/// carry `1e8`, `-1e8` and `1.0` in every column, and the tables land row 0's
/// third column tile, row 1's second and row 2's first on the same eight
/// destinations. Added in ascending row order — what a `col2im` pass over the
/// whole product does — each of those reads `(1e8 + -1e8) + 1.0 = 1.0`. A
/// scatter done tile by tile would reach them in column-tile order, rows 2,
/// 1, 0: `(1.0 + -1e8) + 1e8`, and `1.0 - 1e8` rounds to `-1e8` (the spacing
/// of f32 there is 8), leaving `0.0`.
#[test]
fn scatter_adds_in_ascending_row_order() {
    let taps = [1e8f32, -1e8, 1.0];
    assert_eq!(
        (taps[0] + taps[1]) + taps[2],
        1.0,
        "hand-derived ascending sum"
    );
    assert_eq!(
        (taps[2] + taps[1]) + taps[0],
        0.0,
        "case is blind to the order"
    );
    // k = 32 puts the product above the small-shape threshold; only the last
    // contraction step is active, so each product element is exactly a tap.
    let (m, k, n) = (3usize, 32usize, 24usize);
    let mut a = vec![0.0f32; k * m];
    a[(k - 1) * m..].copy_from_slice(&taps);
    let b = vec![1.0f32; k * n];
    let row = [0usize, 8, 16];
    let col: Vec<usize> = (0..n).collect();
    // Destination d collects row 0's column d, row 1's d - 8, row 2's d - 16.
    let expect: Vec<f32> = (0..40)
        .map(|d| match d / 8 {
            0 => 1e8,        // row 0 alone
            1 => 1e8 + -1e8, // rows 0, 1
            2 => 1.0,        // rows 0, 1, 2: the case above
            3 => -1e8 + 1.0, // rows 1, 2
            _ => 1.0,        // row 2 alone
        })
        .collect();
    check_every_configuration("scatter order", &bits(&expect), || {
        let mut dst = vec![0.0f32; 40];
        let sink = Out::Scatter(&mut dst, Offsets::new(&row, &col));
        gemm_batched(sink, PackA::T(&a), PackB::N(&b), (m, k, n), [Axis::ONE; 2]);
        bits(&dst)
    })
    .unwrap();
}

/// Inputs on which `fma(a, b, c)` and `(a * b) + c` round differently, with
/// the fused answer derived by hand. Only the *last* contraction step is
/// active (earlier columns of `A` are zero, so `fma(0, b, c) == c` carries
/// the initial value through unchanged); every path dispatch takes —
/// oracle, small loops, tiled, paired — must produce the fused bits, so
/// reintroducing a separate multiply and add anywhere fails here.
#[test]
fn every_path_rounds_once_per_step() {
    let two = |e: i32| 2.0f32.powi(e);
    // (name, a, b, c, fused, split)
    let cases = [
        // (1+2^-12)^2 = 1 + 2^-11 + 2^-24; the product alone ties to even
        // and loses the 2^-24, the fused sum keeps exactly it.
        (
            "catastrophic cancellation",
            1.0 + two(-12),
            1.0 + two(-12),
            -(1.0 + two(-11)),
            two(-24),
            0.0,
        ),
        // 2^-150 is half the smallest subnormal: alone it ties to 0, fused
        // with 2^-149 the exact 1.5 ulp ties to the even 2 ulp.
        (
            "subnormal product",
            two(-75),
            two(-75),
            two(-149),
            two(-148),
            two(-149),
        ),
        // -2^-200 alone underflows to -0 and -0 + +0 = +0; fused, the exact
        // tiny negative sum rounds to -0.
        ("signed zero", -two(-100), two(-100), 0.0, -0.0, 0.0),
    ];
    for (name, av, bv, cv, fused, split) in cases {
        assert_eq!(
            av.mul_add(bv, cv).to_bits(),
            fused.to_bits(),
            "{name}: hand-derived fused result is wrong"
        );
        assert_eq!(
            (av * bv + cv).to_bits(),
            split.to_bits(),
            "{name}: hand-derived split result is wrong"
        );
        assert_ne!(fused.to_bits(), split.to_bits(), "{name}: case is blind");
        // Small loops; full tiles, one panel pair; pairs plus an odd panel
        // with remainder rows and columns.
        for (m, k, n) in [(3usize, 5usize, 4usize), (16, 16, 16), (9, 7, 35)] {
            let mut a = vec![0.0f32; m * k];
            for row in a.chunks_exact_mut(k) {
                row[k - 1] = av;
            }
            let b = vec![bv; k * n];
            let init = vec![cv; m * n];
            let expect = vec![fused.to_bits(); m * n];
            check_all_paths(&a, &b, &init, (m, k, n), Some(&expect))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
