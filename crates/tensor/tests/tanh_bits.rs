//! Pins the bits of `Tensor::tanh`: a table of `f32::tanh` (glibc 2.36 on
//! x86-64) at the inputs where its code changes branch — ±0, the smallest
//! subnormals, both sides of 2^-55, of 1.0 and of 22.0, ±inf, quiet and
//! signalling NaNs of each sign — and an FNV-1a digest of its output bits
//! over every 4096th bit pattern. The expected bits were taken once; no
//! host libm is called here, so the table holds on every platform.

use hfta_tensor::Tensor;

/// `(input bits, tanh bits)`.
const TABLE: [(u32, u32); 30] = [
    (0x0000_0000, 0x0000_0000),
    (0x8000_0000, 0x8000_0000),
    (0x0000_0001, 0x0000_0001),
    (0x8000_0001, 0x8000_0001),
    (0x23ff_ffff, 0x23ff_ffff),
    (0x2400_0000, 0x2400_0000),
    (0xa3ff_ffff, 0xa3ff_ffff),
    (0xa400_0000, 0xa400_0000),
    (0x3f7f_ffff, 0x3f42_f7d5),
    (0x3f80_0000, 0x3f42_f7d6),
    (0xbf7f_ffff, 0xbf42_f7d5),
    (0xbf80_0000, 0xbf42_f7d6),
    (0x41af_ffff, 0x3f80_0000),
    (0x41b0_0000, 0x3f80_0000),
    (0xc1af_ffff, 0xbf80_0000),
    (0xc1b0_0000, 0xbf80_0000),
    (0x7f80_0000, 0x3f80_0000),
    (0xff80_0000, 0xbf80_0000),
    (0x7fc0_0000, 0x7fc0_0000),
    (0xffc0_0000, 0xffc0_0000),
    (0x7fc1_2345, 0x7fc1_2345),
    (0xffc5_4321, 0xffc5_4321),
    (0x7f80_0001, 0x7fc0_0001),
    (0xff80_0001, 0xffc0_0001),
    (0x7fa1_2345, 0x7fe1_2345),
    (0xffa5_4321, 0xffe5_4321),
    (0x3e80_0000, 0x3e7a_cbf5),
    (0x3fb8_aa3b, 0x3f64_ecd8),
    (0x4100_0000, 0x3f7f_fffc),
    (0x3300_0000, 0x3300_0000),
];

/// FNV-1a over the little-endian bytes of `tanh(from_bits(i << 12))`, `i < 2^20`.
const STRIDED_DIGEST: u64 = 0xad2f_8646_38ea_9475;

fn tanh_bits(inputs: Vec<u32>) -> Vec<u32> {
    let len = inputs.len();
    let x = Tensor::from_vec(inputs.into_iter().map(f32::from_bits).collect(), [len]);
    x.tanh().as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn tanh_matches_its_bit_table() {
    let got = tanh_bits(TABLE.iter().map(|&(x, _)| x).collect());
    for (&(x, want), got) in TABLE.iter().zip(got) {
        assert_eq!(
            got, want,
            "tanh({x:#010x}) = {got:#010x}, want {want:#010x}"
        );
    }
}

#[test]
fn tanh_matches_its_strided_digest() {
    let got = tanh_bits((0u32..1 << 20).map(|i| i << 12).collect());
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in got.iter().flat_map(|y| y.to_le_bytes()) {
        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(digest, STRIDED_DIGEST, "digest {digest:#018x}");
}
