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
//! too: [`tanhf`] and the ChaCha8 block, [`chacha8_block`].

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
