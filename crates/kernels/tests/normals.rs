//! `hfta_kernels::normals` against the scalar port `reference::normal`, bit
//! for bit and NaN payloads included, and the port against the host's
//! Box–Muller formula over `f32::ln` and `f32::cos` where those are the code
//! the port follows (glibc on x86-64 linux-gnu with AVX2+FMA). A draw reads
//! the top 24 bits of each of its two words, so each factor's domain is
//! 2^24 values. Tier 1 checks a strided 2^20 sample of each; the ignored
//! test pairs every value of each domain with two of the other
//! (`cargo test --release -p hfta-kernels --test normals -- --ignored`).

use hfta_kernels::reference::{in_range, normal, unit};

/// Whether `f32::ln` and `f32::cos` here are the code the port follows.
/// `simd_available` is the crate's AVX2+FMA detection.
fn host_is_glibc_fma() -> bool {
    cfg!(all(
        target_arch = "x86_64",
        target_os = "linux",
        target_env = "gnu"
    )) && hfta_kernels::simd_available()
}

/// The draw as the host's libm computes it.
fn libm_normal(w1: u32, w2: u32) -> f32 {
    let (u1, u2) = (in_range(w1, f32::EPSILON, 1.0), unit(w2));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// `(w1, w2, vector, port, host)` for the first pair whose answers disagree.
type Mismatch = (u32, u32, u32, u32, Option<u32>);

fn first_mismatch(pairs: impl Iterator<Item = (u32, u32)>) -> Option<Mismatch> {
    let words: Vec<u32> = pairs.flat_map(|(w1, w2)| [w1, w2]).collect();
    let mut vector = vec![0.0; words.len() / 2];
    hfta_kernels::normals(&mut vector, &words);
    let host = host_is_glibc_fma();
    words.chunks_exact(2).zip(&vector).find_map(|(w, v)| {
        let port = normal(w[0], w[1]).to_bits();
        let h = host.then(|| libm_normal(w[0], w[1]).to_bits());
        let bad = v.to_bits() != port || h.is_some_and(|h| h != port);
        bad.then_some((w[0], w[1], v.to_bits(), port, h))
    })
}

/// Multiplying by an odd constant permutes `n`-bit values, so every value
/// of one word's domain meets a scattered partner in the other's.
fn scatter(m: u32, bits: u32) -> u32 {
    m.wrapping_mul(0x9e37_79b1) & ((1 << bits) - 1)
}

#[test]
fn vector_port_and_host_agree_on_a_strided_sample() {
    // Low bits the draw ignores vary too, and three extra pairs make the
    // scalar tail run.
    for offset in [0u32, 0x7ff, 0x801] {
        let pairs = (0u32..1 << 20)
            .map(|i| ((i << 12) | offset, (scatter(i, 20) << 12) | offset))
            .chain([(0, 0), (u32::MAX, u32::MAX), (0x100, 0xffff_ff00)]);
        assert_eq!(first_mismatch(pairs), None, "(w1, w2, vector, port, host)");
    }
}

#[test]
#[ignore = "both 2^24 factor domains, twice each: run in release"]
fn vector_port_and_host_agree_on_both_factor_domains() {
    let word = |m: u32| (m << 8) | (m & 0xff);
    for pass in [0, 1] {
        let pairs = (0u32..1 << 24).map(|m| {
            let other = word(scatter(m ^ (pass * 0x5a_5a5a), 24));
            (word(m), other)
        });
        let swapped = (0u32..1 << 24).map(|m| (word(scatter(m + pass, 24)), word(m)));
        assert_eq!(
            first_mismatch(pairs.chain(swapped)),
            None,
            "(w1, w2, vector, port, host)"
        );
    }
}
