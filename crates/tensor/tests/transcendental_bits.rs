//! Pins the bits of `Tensor::exp`, `ln`, `sigmoid` and `log_softmax` and of
//! the `Rng` normal draws: tables at the inputs where `expf` and `logf`
//! change branch — ±0, subnormals, 1.0, `expf`'s overflow and underflow
//! cut-offs, ±inf, quiet and signalling NaNs — and FNV-1a digests of their
//! output bits over every 4096th bit pattern and of `randn` streams that
//! straddle the keystream's refills. The expected bits were taken from
//! glibc 2.36 on x86-64 with AVX2+FMA. `ln` and the normal draws run
//! in-tree ports of its `logf` and `cosf`, so their pins hold on every
//! platform; `exp`, `sigmoid` and `log_softmax` call the host's libm, so
//! theirs hold where that is glibc's FMA `expf`, like the workspace's other
//! digests.

use hfta_tensor::{Rng, Tensor};

/// `(input bits, exp bits)`.
const EXP: [(u32, u32); 34] = [
    (0x0000_0000, 0x3f80_0000),
    (0x8000_0000, 0x3f80_0000),
    (0x0000_0001, 0x3f80_0000),
    (0x8000_0001, 0x3f80_0000),
    (0x007f_ffff, 0x3f80_0000),
    (0x3f80_0000, 0x402d_f854),
    (0xbf80_0000, 0x3ebc_5ab2),
    (0x42af_ffff, 0x7ef8_823b),
    (0x42b0_0000, 0x7ef8_82b7),
    (0xc2af_ffff, 0x0041_ede5),
    (0xc2b0_0000, 0x0041_edc4),
    (0x42b1_7217, 0x7f7f_ff84),
    (0x42b1_7218, 0x7f80_0000),
    (0xc2ce_8ecf, 0x0000_0001),
    (0xc2ce_8ed0, 0x0000_0001),
    (0xc2cf_f1b4, 0x0000_0001),
    (0xc2cf_f1b5, 0x0000_0000),
    (0x4202_422f, 0x56fc_9f1c),
    (0x7f7f_ffff, 0x7f80_0000),
    (0xff7f_ffff, 0x0000_0000),
    (0x7f80_0000, 0x7f80_0000),
    (0xff80_0000, 0x0000_0000),
    (0x7fc0_0000, 0x7fc0_0000),
    (0xffc0_0000, 0xffc0_0000),
    (0x7fc1_2345, 0x7fc1_2345),
    (0xffc5_4321, 0xffc5_4321),
    (0x7f80_0001, 0x7fc0_0001),
    (0xff80_0001, 0xffc0_0001),
    (0x7fa1_2345, 0x7fe1_2345),
    (0xffa5_4321, 0xffe5_4321),
    (0x3300_0000, 0x3f80_0000),
    (0xb300_0000, 0x3f80_0000),
    (0x3f31_7218, 0x4000_0000),
    (0xc0a0_0000, 0x3bdc_c9ff),
];

/// `(input bits, ln bits)`.
const LN: [(u32, u32); 30] = [
    (0x0000_0000, 0xff80_0000),
    (0x8000_0000, 0xff80_0000),
    (0x0000_0001, 0xc2ce_8ed0),
    (0x0000_0002, 0xc2cd_2bec),
    (0x0040_0000, 0xc2b0_0f34),
    (0x007f_ffff, 0xc2ae_ac50),
    (0x0080_0000, 0xc2ae_ac50),
    (0x3f32_ffff, 0xbeb7_307a),
    (0x3f33_0000, 0xbeb7_3077),
    (0x3f7f_ffff, 0xb380_0000),
    (0x3f80_0000, 0x0000_0000),
    (0x3f80_0001, 0x33ff_ffff),
    (0x3fb3_0000, 0x3eab_b3b9),
    (0x4000_0000, 0x3f31_7218),
    (0x402d_f854, 0x3f7f_ffff),
    (0x7f7f_ffff, 0x42b1_7218),
    (0x7f80_0000, 0x7f80_0000),
    (0xff80_0000, 0xffc0_0000),
    (0xbf80_0000, 0xffc0_0000),
    (0x8000_0001, 0xffc0_0000),
    (0x7fc0_0000, 0x7fc0_0000),
    (0xffc0_0000, 0xffc0_0000),
    (0x7fc1_2345, 0x7fc1_2345),
    (0xffc5_4321, 0xffc5_4321),
    (0x7f80_0001, 0x7fc0_0001),
    (0xff80_0001, 0xffc0_0001),
    (0x7fa1_2345, 0x7fe1_2345),
    (0xffa5_4321, 0xffe5_4321),
    (0x3400_0000, 0xc17f_1402),
    (0x3f7f_fffe, 0xb400_0000),
];

/// `(input bits, sigmoid bits)`.
const SIGMOID: [(u32, u32); 16] = [
    (0x0000_0000, 0x3f00_0000),
    (0x8000_0000, 0x3f00_0000),
    (0x0000_0001, 0x3f00_0000),
    (0x3f80_0000, 0x3f3b_26a8),
    (0xbf80_0000, 0x3e89_b2b1),
    (0x42b1_7217, 0x3f80_0000),
    (0xc2b1_7218, 0x0000_0000),
    (0x42ce_8ed0, 0x3f80_0000),
    (0xc2cf_f1b5, 0x0000_0000),
    (0x7f7f_ffff, 0x3f80_0000),
    (0xff7f_ffff, 0x0000_0000),
    (0x7f80_0000, 0x3f80_0000),
    (0xff80_0000, 0x0000_0000),
    (0x7fc0_0000, 0xffc0_0000),
    (0xffa5_4321, 0x7fe5_4321),
    (0x4202_422f, 0x3f80_0000),
];

/// FNV-1a over the little-endian bytes of each op's outputs on
/// `from_bits(i << 12 | 0x801)`, `i < 2^20`, laid out as the op needs.
const EXP_DIGEST: u64 = 0x60a2_10f5_7bfd_ff8f;
const LN_DIGEST: u64 = 0xe2e3_0067_0373_a357;
const SIGMOID_DIGEST: u64 = 0x6f7e_b5fd_33f1_fe63;
/// `log_softmax` over those inputs as `[2^16, 16]` along axis 1 (rows),
/// then as `[64, 16, 1024]` along axis 1 (a strided axis).
const LOG_SOFTMAX_DIGEST: u64 = 0x666f_ff6a_5e93_de1f;
/// `log_softmax` over finite inputs in about `[-64, 64)` as `[4096, 12]`.
const LOG_SOFTMAX_FINITE_DIGEST: u64 = 0x5410_75d3_877a_7010;
/// `randn` tensors of lengths 1..=300 from one generator, an odd number of
/// words drawn between some of them so pairs straddle refills at both
/// parities, with `standard_normal` and `normal` draws mixed in.
const RANDN_DIGEST: u64 = 0xeaaf_4a37_53de_69b7;

fn digest(bits: impl IntoIterator<Item = u32>) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bits.into_iter().flat_map(u32::to_le_bytes) {
        d = (d ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

fn tensor(bits: &[u32]) -> Tensor {
    Tensor::from_vec(
        bits.iter().copied().map(f32::from_bits).collect(),
        [bits.len()],
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn strided() -> Vec<u32> {
    (0u32..1 << 20).map(|i| (i << 12) | 0x801).collect()
}

fn check_table(name: &str, table: &[(u32, u32)], op: fn(&Tensor) -> Tensor) {
    let inputs: Vec<u32> = table.iter().map(|&(x, _)| x).collect();
    let got = bits(&op(&tensor(&inputs)));
    for (&(x, want), got) in table.iter().zip(got) {
        assert_eq!(
            got, want,
            "{name}({x:#010x}) = {got:#010x}, want {want:#010x}"
        );
    }
}

#[test]
fn exp_ln_and_sigmoid_match_their_bit_tables() {
    check_table("exp", &EXP, Tensor::exp);
    check_table("ln", &LN, Tensor::ln);
    check_table("sigmoid", &SIGMOID, Tensor::sigmoid);
}

#[test]
fn elementwise_ops_match_their_strided_digests() {
    let x = tensor(&strided());
    for (name, op, want) in [
        ("exp", Tensor::exp as fn(&Tensor) -> Tensor, EXP_DIGEST),
        ("ln", Tensor::ln, LN_DIGEST),
        ("sigmoid", Tensor::sigmoid, SIGMOID_DIGEST),
    ] {
        let got = digest(bits(&op(&x)));
        assert_eq!(got, want, "{name}: digest {got:#018x}");
    }
}

#[test]
fn log_softmax_matches_its_digests() {
    let x = tensor(&strided());
    let rows = x.reshape(&[1 << 16, 16]).log_softmax(1);
    let strided_axis = x.reshape(&[64, 16, 1024]).log_softmax(1);
    let got = digest(bits(&rows).into_iter().chain(bits(&strided_axis)));
    assert_eq!(got, LOG_SOFTMAX_DIGEST, "digest {got:#018x}");

    let finite: Vec<f32> = (0u32..4096 * 12)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 8) as f32 * (1.0 / 131_072.0) - 64.0)
        .collect();
    let got = digest(bits(&Tensor::from_vec(finite, [4096, 12]).log_softmax(1)));
    assert_eq!(got, LOG_SOFTMAX_FINITE_DIGEST, "finite digest {got:#018x}");
}

#[test]
fn randn_streams_match_their_digest() {
    let mut rng = Rng::seed_from(0x5eed);
    let mut out = Vec::new();
    for len in 1..=300usize {
        out.extend(bits(&rng.randn([len])));
        match len % 4 {
            0 => out.push(rng.uniform(0.0, 1.0).to_bits()),
            1 => out.push(rng.standard_normal().to_bits()),
            2 => out.extend(bits(&rng.normal([len % 7 + 1], 0.5, 2.0))),
            _ => {}
        }
    }
    let got = digest(out);
    assert_eq!(got, RANDN_DIGEST, "digest {got:#018x}");
}
