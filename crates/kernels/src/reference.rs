//! Retained naive reference GEMMs — the oracle of the one GEMM contract.
//!
//! These are the semantic ground truth every kernel in [`crate::gemm`] is
//! property-tested against: each output element is `acc = fma(a[i,p],
//! b[p,j], acc)` for `p` **ascending from its initial value, one rounding
//! per step** ([`f32::mul_add`], IEEE-754 fusedMultiplyAdd). FMA is
//! correctly rounded wherever it runs — a `vfmadd` lane, an aarch64
//! `fmadd`, libm's `fmaf` on the portable x86-64 baseline — so any kernel
//! that keeps this chain per element is bit-identical to these loops (not
//! merely close), on every machine.
//!
//! The loops are `#[inline(always)]` so [`crate::simd`] can instantiate the
//! same bodies with AVX2/FMA enabled for the small-shape production path;
//! called directly (the small-shape path without AVX2/FMA, the tests) they
//! compile for the portable baseline.
//!
//! The scalar oracles of the other vector twins in [`crate::simd`] live here
//! too: [`tanhf`], the ChaCha8 block [`chacha8_block`], and [`logf`] and
//! the Box–Muller draw [`normal`] — the algorithms glibc 2.36 runs (Arm's
//! optimized-routines `logf` and `cosf`), with their tables and
//! polynomials, so their bits are the host's on x86-64 linux-gnu with
//! AVX2+FMA and the same on every other platform.

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

/// `tanh` as fdlibm's `tanhf` computes it through its `expm1f` — the code
/// glibc's `tanhf` runs — in plain `f32` `+ − × ÷` and integer ops, never
/// `mul_add`, so its bits are the same on every platform: the oracle of the
/// vector twin [`crate::simd::tanh`] runs on AVX2, and its portable path.
pub fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let z = match ix {
        // A NaN comes back quieted (`x + x`, as `1/x ± 1` does), ±inf as ±1.
        0x7f80_0001.. => return x + x,
        0x7f80_0000 => 1.0,
        // |x| < 2^-55, ±0 included.
        ..0x2400_0000 => return x * (1.0 + x),
        // |x| >= 22: fdlibm's `1 - 1e-30`, which rounds to 1.
        0x41b0_0000.. => 1.0,
        0x3f80_0000.. => 1.0 - 2.0 / (expm1f(2.0 * x.abs()) + 2.0),
        _ => {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    };
    // `-z` for a negative `x`.
    f32::from_bits(z.to_bits() ^ (x.to_bits() & 0x8000_0000))
}

/// fdlibm's `expm1f` constants: `ln2` in two parts, `1/ln2`, `Q1`..`Q5`.
#[rustfmt::skip]
pub(crate) const EXPM1F: [u32; 8] = [
    0x3f31_7180, 0x3717_f7d1, 0x3fb8_aa3b, 0xbd08_8889, 0x3ad0_0d01, 0xb8a6_70cd, 0x3686_7e54, 0xb457_edbb,
];

/// fdlibm's `expm1f` on the arguments [`tanhf`] passes it, `2|x|` in
/// `[2, 44)` and `-2|x|` in `(-2, -2^-54]`, which reach none of its
/// overflow and non-finite filters and not its `k == 1` branch.
fn expm1f(x: f32) -> f32 {
    let [ln2_hi, ln2_lo, invln2, q1, q2, q3, q4, q5] = EXPM1F.map(f32::from_bits);
    let hx = x.to_bits() & 0x7fff_ffff;
    // x = k·ln2 + r, r = hi - lo carried as `x` with its rounding error `c`.
    let (k, x, c) = if hx < 0x3300_0000 {
        return x; // |x| < 2^-25
    } else if hx <= 0x3eb1_7218 {
        (0, x, 0.0)
    } else {
        let (k, hi, lo) = if hx < 0x3f85_1592 {
            debug_assert!(x < 0.0, "expm1f's k == 1 branch is not ported");
            (-1, x + ln2_hi, -ln2_lo)
        } else {
            let k = (invln2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (k, x - t * ln2_hi, t * ln2_lo)
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    // `y·2^k`, by adding `k` to the exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k == -1 {
        0.5 * (x - e) - 0.5
    } else if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        scale(f32::from_bits(0x3f80_0000 - (0x100_0000 >> k)) - (e - x))
    } else {
        scale(x - (e + f32::from_bits(((0x7f - k) << 23) as u32)) + 1.0)
    }
}

/// `[0, 1)` from a word's top 24 bits `m`, as `rand`'s `gen::<f32>()`:
/// exactly `m · 2^-24`, built as `(1 + (m >> 1) · 2^-23) − 1` plus `2^-24`
/// when `m` is odd. Both steps are exact, so the bits are those of
/// `m as f32 * 2^-24`, without its integer-to-float conversion: that
/// instruction writes only the low lane of its register, so consecutive
/// draws inlined into one loop would chain through the lane's old value.
#[inline(always)]
pub fn unit(w: u32) -> f32 {
    let halves = f32::from_bits(0x3f80_0000 | w >> 9) - 1.0;
    halves + f32::from_bits((w >> 8 & 1) * 0x3380_0000)
}

/// `[lo, hi)` from a word, as `rand`'s `gen_range(lo..hi)`: `lo + (hi −
/// lo)·u`, and `lo` where rounding lands on `hi`.
#[inline(always)]
pub fn in_range(w: u32, lo: f32, hi: f32) -> f32 {
    let v = lo + (hi - lo) * unit(w);
    if v >= hi {
        lo
    } else {
        v
    }
}

/// One standard normal sample from two words (Box–Muller): `u1` in
/// `[EPSILON, 1)`, `u2` in `[0, 1)`, `sqrt(-2·logf(u1))·cosf(2π·u2)` in
/// `f32`. The scalar oracle of [`crate::simd::normals`].
pub fn normal(w1: u32, w2: u32) -> f32 {
    let (u1, u2) = (in_range(w1, f32::EPSILON, 1.0), unit(w2));
    (-2.0 * logf(u1)).sqrt() * cos_angle(2.0 * std::f32::consts::PI * u2)
}

/// `logf`'s table: `1/c` and `ln c` for the `c` near the middle of each of
/// the 16 subintervals `z` falls in, `f64` bits.
#[rustfmt::skip]
pub(crate) const LOGF_INVC: [u64; 16] = [
    0x3ff6_61ec_79f8_f3be, 0x3ff5_71ed_4aaf_883d, 0x3ff4_9539_f0f0_10b0, 0x3ff3_c995_b0b8_0385,
    0x3ff3_0d19_0c88_64a5, 0x3ff2_5e22_7b0b_8ea0, 0x3ff1_bb4a_4a1a_343f, 0x3ff1_2358_f08a_e5ba,
    0x3ff0_953f_4199_00a7, 0x3ff0_0000_0000_0000, 0x3fee_608c_fd9a_47ac, 0x3fec_a4b3_1f02_6aa0,
    0x3feb_2036_576a_fce6, 0x3fe9_c2d1_63a1_aa2d, 0x3fe8_86e6_0378_41ed, 0x3fe7_67dc_f553_4862,
];
#[rustfmt::skip]
pub(crate) const LOGF_LOGC: [u64; 16] = [
    0xbfd5_7bf7_808c_aade, 0xbfd2_bef0_a7c0_6ddb, 0xbfd0_1eae_7f51_3a67, 0xbfcb_31d8_a682_24e9,
    0xbfc6_574f_0ac0_7758, 0xbfc1_aa2b_c79c_8100, 0xbfba_4e76_ce8c_0e5e, 0xbfb1_973c_5a61_1ccc,
    0xbfa2_52f4_38e1_0c1e, 0x0000_0000_0000_0000, 0x3faa_a5aa_5df2_5984, 0x3fbc_5e53_aa36_2eb4,
    0x3fc5_26e5_7720_db08, 0x3fcb_c286_0d22_4770, 0x3fd1_058b_c8a0_7ee1, 0x3fd4_0430_57b6_ee09,
];
/// `logf`'s `ln 2` and `log1p` polynomial `A[0..3]`, `f64` bits.
#[rustfmt::skip]
pub(crate) const LOGF_POLY: [u64; 4] = [
    0x3fe6_2e42_fefa_39ef, 0xbfd0_0ea3_48b8_8334, 0x3fd5_575b_0be0_0b6a, 0xbfdf_fffe_f20a_4123,
];

/// The NaN an x86 invalid operation returns (`0/0`, `ln` of a negative):
/// what glibc's `logf` gives for a negative input there.
pub(crate) const DEFAULT_NAN: u32 = 0xffc0_0000;

/// `ln x` as glibc's `logf` computes it: `x = 2^k·z` with `z` in `[0.7,
/// 1.4)`, `ln x = log1p(z/c − 1) + ln c + k·ln 2` in `f64` for the table's
/// `c`, with plain `+ − ×` — its FMA-contracted form gives the same bits on
/// every input. A negative input returns x86's default NaN, a NaN comes back
/// quieted.
pub fn logf(x: f32) -> f32 {
    let mut ix = x.to_bits();
    if ix.wrapping_sub(0x0080_0000) >= 0x7f00_0000 {
        // Subnormal, zero, negative, inf or NaN.
        if ix << 1 == 0 {
            return f32::NEG_INFINITY;
        }
        if ix == 0x7f80_0000 {
            return x;
        }
        if x.is_nan() {
            return x + x;
        }
        if ix >> 31 != 0 {
            return f32::from_bits(DEFAULT_NAN);
        }
        ix = (x * 8_388_608.0).to_bits().wrapping_sub(23 << 23);
    }
    let [ln2, a0, a1, a2] = LOGF_POLY.map(f64::from_bits);
    let tmp = ix.wrapping_sub(0x3f33_0000);
    let i = (tmp >> 19) as usize % 16;
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z * f64::from_bits(LOGF_INVC[i]) - 1.0;
    let y0 = f64::from_bits(LOGF_LOGC[i]) + f64::from(k) * ln2;
    let r2 = r * r;
    let y = a0 * r2 + (a1 * r + a2);
    (y * r2 + (y0 + r)) as f32
}

/// `cosf`'s `2^24·2/π`, `π/2`, cosine polynomial `c0..c4` and sine
/// polynomial `s1..s3`, `f64` bits.
#[rustfmt::skip]
pub(crate) const COSF: [u64; 10] = [
    0x4164_5f30_6dc9_c883, 0x3ff9_21fb_5444_2d18,
    0x3ff0_0000_0000_0000, 0xbfdf_ffff_fd0c_621c, 0x3fa5_5553_e106_8f19, 0xbf56_c087_e89a_359d,
    0x3ef9_9343_027b_f8c3,
    0xbfc5_5554_5995_a603, 0x3f81_1076_0523_0bc4, 0xbf29_94eb_3774_cf24,
];

/// `cos y` as glibc's `cosf` computes it for `y` in `[0, 120)`, which holds
/// Box–Muller's angles `[0, 2π)`: `1` below `2^-12`; below `0.75` the cosine
/// polynomial; above, `y = n·π/2 + x` for the nearest `n` and the sine or
/// cosine polynomial of `x` by `n`'s parity, signed by its quadrant. Plain
/// `+ − ×`, like [`logf`].
fn cos_angle(y: f32) -> f32 {
    let [hpi_inv, hpi, c0, c1, c2, c3, c4, s1, s2, s3] = COSF.map(f64::from_bits);
    let top = y.to_bits() >> 20 & 0x7ff;
    if top < 0x398 {
        return 1.0;
    }
    let x = f64::from(y);
    let n = if top < 0x3f4 {
        0
    } else {
        ((x * hpi_inv) as i32 + 0x80_0000) >> 24
    };
    let x = x - f64::from(n) * hpi;
    let x2 = x * x;
    if n & 1 == 0 {
        // The cosine, its coefficients negated in quadrant 2.
        let c = |c: f64| if n & 2 != 0 { -c } else { c };
        let x4 = x2 * x2;
        let p = c(c0) + x2 * c(c1) + x4 * c(c2);
        (p + x4 * x2 * (c(c3) + x2 * c(c4))) as f32
    } else {
        // The sine of `x`, negated in quadrant 1.
        let x = if n & 2 == 0 { -x } else { x };
        let x3 = x * x2;
        (x + x3 * s1 + x3 * x2 * (s2 + x2 * s3)) as f32
    }
}

/// ChaCha's "expand 32-byte k" words, the first four of every input block.
pub const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One ChaCha8 keystream block of `state` (the four constants, eight key
/// words, the 64-bit block counter in words 12-13 low word first, two nonce
/// words): four double rounds of column then diagonal quarter rounds, the
/// input added back word by word. The scalar oracle of
/// [`crate::simd::chacha8_blocks`], and the block its portable path runs.
pub fn chacha8_block(state: &[u32; 16]) -> [u32; 16] {
    let mut x = *state;
    let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
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
    std::array::from_fn(|w| x[w].wrapping_add(state[w]))
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

    /// The all-zero key, nonce and counter: the first ChaCha8 block of the
    /// published 8-round, 256-bit-key test vector.
    #[test]
    fn chacha8_block_matches_the_zero_key_vector() {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        let bytes: Vec<u8> = chacha8_block(&state)
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
             984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42"
        );
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
