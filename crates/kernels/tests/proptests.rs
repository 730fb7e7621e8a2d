//! Property tests of the one GEMM contract: every output element is
//! `acc = fma(a[i,p], b[p,j], acc)` for `p` ascending, one rounding per
//! step. For all three entry points (`gemm`, `gemm_nt`, `gemm_tn`) —
//! across shapes straddling the small-shape threshold and the 8×8 tile,
//! random initial output contents (the kernels accumulate) and thread
//! counts 1, 2 and 4 — the tests assert **bit identity**, never closeness:
//!
//! * default dispatch == the oracle ([`reference`]);
//! * the AVX2/FMA path == the portable `mul_add` path (forced with
//!   [`set_simd_enabled`]`(false)`), which is what carries results across
//!   machines;
//! * on inputs where a fused multiply-add and a separate multiply + add
//!   provably differ, every path produces the *fused* answer, checked
//!   against hand-derived bits rather than against another kernel;
//! * the table-addressed entry points are the same GEMMs: `gemm_gather` ==
//!   the oracle on the `B` its tables materialise, `gemm_tn_scatter` == the
//!   oracle into zeroed columns followed by a row-major add through the
//!   tables — including, on a hand-derived case, the *order* of those adds.
//!
//! `set_num_threads` / `set_backend` / `set_simd_enabled` are process
//! globals, so every test in this binary serializes on [`GLOBAL_LOCK`] and
//! restores the previous configuration before releasing it.

use hfta_kernels::{
    gemm, gemm_gather, gemm_nt, gemm_tn, gemm_tn_scatter, reference, set_backend, set_num_threads,
    set_simd_enabled, simd_available, GemmBackend, Offsets,
};
use proptest::prelude::*;
use std::sync::Mutex;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

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

/// Restores thread count, backend and platform selection when a test body
/// exits (even early).
struct RestoreGlobals {
    threads: usize,
    backend: GemmBackend,
}

impl RestoreGlobals {
    fn capture() -> Self {
        RestoreGlobals {
            threads: hfta_kernels::num_threads(),
            backend: hfta_kernels::backend(),
        }
    }
}

impl Drop for RestoreGlobals {
    fn drop(&mut self) {
        set_num_threads(self.threads);
        set_backend(self.backend);
        set_simd_enabled(true);
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

    /// Runs the entry point under the current global configuration.
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

/// Asserts, for every entry point, that every configuration (see
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

/// Runs `run` under every configuration — the `Naive` backend, then default
/// dispatch at 1/2/4 threads on the vector and the forced-portable path —
/// and asserts each result equals `expect`.
fn check_every_configuration(
    what: &str,
    expect: &[u32],
    run: impl Fn() -> Vec<u32>,
) -> Result<(), String> {
    let _g = GLOBAL_LOCK.lock().unwrap();
    let _restore = RestoreGlobals::capture();
    set_simd_enabled(true);
    if !simd_available() {
        eprintln!("note: no AVX2+FMA here; vector == portable is vacuous on this CPU");
    }
    set_backend(GemmBackend::Naive);
    prop_assert!(run() == expect, "{what}: naive backend diverged");
    set_backend(GemmBackend::Auto);
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for vector in [true, false] {
            set_simd_enabled(vector);
            prop_assert!(
                run() == expect,
                "{what}: default dispatch diverged at {threads} threads, vector={vector}"
            );
        }
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

/// `gemm_gather` against the oracle on the `B` its tables materialise, and
/// `gemm_tn_scatter` against the oracle into zeroed columns followed by a
/// row-major `dst[row[i] + col[j]] += cols[i][j]`, over every configuration.
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
        let off = Offsets::new(&b_row, &b_col);
        gemm_gather(&mut out, &a, &src, off, m, k, n);
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
        let off = Offsets::new(&d_row, &d_col);
        gemm_tn_scatter(&mut out, &at, &b, off, m, k, n);
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
        gemm_tn_scatter(&mut dst, &a, &b, Offsets::new(&row, &col), m, k, n);
        bits(&dst)
    })
    .unwrap();
}

/// Inputs on which `fma(a, b, c)` and `(a * b) + c` round differently, with
/// the fused answer derived by hand. Only the *last* contraction step is
/// active (earlier columns of `A` are zero, so `fma(0, b, c) == c` carries
/// the initial value through unchanged); every path — oracle, small loops,
/// tiled, paired, vector and portable — must produce the fused
/// bits, so reintroducing a separate multiply and add anywhere fails here.
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
