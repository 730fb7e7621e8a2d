//! Pins the bits of the fused family's batch norm over `Linear` outputs.
//!
//! `Fused(b).batch_norm_linear` normalises array-format features
//! `[B, N, F]` with one batch norm of `B * F` channels, channel `(b, f)`
//! being model `b`'s feature `f`. Random shapes (B 1-8, N 1-4, F 1-70),
//! inputs and upstream gradients sprinkled with `-0.0`, `±inf` and NaN
//! payloads, random affine weights and running statistics, in training and
//! in evaluation mode: an FNV-1a digest per mode covers the outputs, the
//! input, `gamma` and `beta` gradients and (training) the running
//! statistics after the step, every NaN as one value. Checked at 1 and 4
//! worker threads.

use hfta_core::ops::{Fused, Ops};
use hfta_kernels::set_num_threads;
use hfta_nn::layers::BatchNorm;
use hfta_nn::{Module, Parameter, Tape};
use hfta_tensor::{Rng, Tensor};

/// Values sprinkled into inputs and upstream gradients: ±0, ±inf, quiet
/// NaNs of either sign with payloads, a signalling NaN and a subnormal.
const SPECIALS: [f32; 8] = [
    -0.0,
    0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7fc0_1234),
    f32::from_bits(0xffc0_0001),
    f32::from_bits(0x7f80_0042),
    1e-45,
];

/// A random tensor with about one element in eight replaced by a special.
fn sprinkled(rng: &mut Rng, dims: [usize; 3]) -> Tensor {
    let mut t = rng.randn(dims);
    for v in t.as_mut_slice() {
        if rng.below(8) == 0 {
            *v = SPECIALS[rng.below(SPECIALS.len())];
        }
    }
    t
}

struct Hash(u64);

impl Hash {
    fn words(&mut self, values: &[f32]) {
        for v in values {
            // Rust leaves the payload and sign of a NaN computed from NaNs
            // unspecified (they move with operand order), so every NaN
            // digests alike.
            let v = if v.is_nan() { f32::NAN } else { *v };
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// One step of `case`: digests the output, the three gradients and, in
/// training mode, the running statistics.
fn step(h: &mut Hash, case: u64, train: bool) {
    let mut rng = Rng::seed_from(0xb0a7 + case);
    let (b, n, f) = (1 + rng.below(8), 1 + rng.below(4), 1 + rng.below(70));
    let c = b * f;
    let bn = BatchNorm::from_parts(
        rng.rand([c], 0.5, 1.5),
        rng.randn([c]),
        rng.randn([c]).to_vec(),
        rng.rand([c], 0.25, 2.0).to_vec(),
    );
    bn.set_training(train);
    let x = Parameter::new(sprinkled(&mut rng, [b, n, f]), "x");
    let gy = sprinkled(&mut rng, [b, n, f]);
    let tape = Tape::new();
    let y = Fused(b).batch_norm_linear(&bn, &tape.param(&x));
    assert_eq!(y.dims(), vec![b, n, f]);
    h.words(y.value().as_slice());
    y.backward_with(gy);
    h.words(x.grad().as_slice());
    h.words(bn.gamma.grad().as_slice());
    h.words(bn.beta.grad().as_slice());
    if train {
        h.words(&bn.running_mean());
        h.words(&bn.running_var());
    }
}

fn digest(train: bool) -> u64 {
    let mut h = Hash(0xcbf2_9ce4_8422_2325);
    for case in 0..48 {
        step(&mut h, case, train);
    }
    h.0
}

fn check(train: bool, want: u64) {
    for threads in [1, 4] {
        set_num_threads(threads);
        let got = digest(train);
        assert_eq!(
            got, want,
            "train = {train} at {threads} threads: {got:#018x}"
        );
    }
}

#[test]
fn training_batch_norm_over_linear_outputs() {
    check(true, 0xcf90_fcbd_41c7_7301);
}

#[test]
fn evaluation_batch_norm_over_linear_outputs() {
    check(false, 0xd1d2_a50e_0163_761f);
}
