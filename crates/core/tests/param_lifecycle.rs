//! Pins what a parameter's gradient slot and value look like from outside
//! across zeroing, accumulation, reads and writes.
//!
//! - Seeds full of `-0.0`, `±inf` and quiet / signalling NaN payloads
//!   reach a freshly zeroed slot once and twice, directly and through a
//!   backward sweep, with and without reads in between: every read sees the
//!   bits of the plain rule (fill the slot with `0.0`, then add each
//!   gradient scaled by `1.0`), and an FNV-1a digest of all of them is
//!   pinned.
//! - A parameter that changes between a forward and its backward — by an
//!   optimizer step, `set_value` or a lane splice — still gets, and still
//!   hands its neighbours, the gradients of the values the forward saw.

use hfta_core::ops::FusedParameter;
use hfta_core::optim::{FusedAdam, FusedSgd, PerModel};
use hfta_core::surgery::{extract_lane, splice_lanes};
use hfta_nn::{Parameter, Tape, Var};
use hfta_tensor::conv::ConvCfg;
use hfta_tensor::{Rng, Tensor};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn tensor(&mut self, t: &Tensor) {
        for x in t.as_slice() {
            for byte in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn seed(values: [u32; 10]) -> Tensor {
    Tensor::from_vec(values.map(f32::from_bits).to_vec(), [10])
}

/// `±0`, `±inf`, quiet NaNs of either sign with payloads, signalling NaNs,
/// a subnormal and ordinary values; the second seed meets the first with
/// opposite infinities, two NaNs and a NaN beside a number.
fn seeds() -> [Tensor; 2] {
    [
        seed([
            0x8000_0000,
            0x0000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_1234,
            0xffc0_0001,
            0x7f80_0042,
            0xff80_0007,
            0x0000_0001,
            0xbfc0_0000,
        ]),
        seed([
            0x8000_0000,
            0x8000_0000,
            0xff80_0000,
            0x7f80_0000,
            0x7fc0_0077,
            0x3f80_0000,
            0xffc0_0abc,
            0x7f80_0100,
            0x8000_0001,
            0x4010_0000,
        ]),
    ]
}

/// The plain rule: zero the slot, then add every gradient scaled by 1.
fn plain(grads: &[&Tensor]) -> Vec<u32> {
    let mut slot = Tensor::full([10], 7.0);
    slot.as_mut_slice().fill(0.0);
    for g in grads {
        slot.add_assign_scaled(g, 1.0);
    }
    bits(&slot)
}

#[test]
fn special_values_land_in_a_zeroed_slot_with_the_plain_rule_bits() {
    let [a, b] = seeds();
    let mut digest = Fnv::new();
    for via_tape in [false, true] {
        let p = Parameter::new(Tensor::ones([10]), "w");
        p.accumulate_grad(&Tensor::full([10], 7.0));
        let add = |g: &Tensor| {
            if via_tape {
                Tape::new().param(&p).backward_with(g.clone());
            } else {
                p.accumulate_grad(g);
            }
        };
        let mut read = |want: Vec<u32>| {
            let got = p.grad_cloned();
            assert_eq!(bits(&got), want, "via tape: {via_tape}");
            digest.tensor(&got);
        };
        for (first, second) in [(&a, &b), (&b, &a), (&a, &a)] {
            p.zero_grad();
            add(first);
            read(plain(&[first]));
            add(second);
            read(plain(&[first, second]));
            add(first);
            add(second);
            read(plain(&[first, second, first, second]));

            p.zero_grad();
            add(first);
            add(second);
            read(plain(&[first, second]));

            p.zero_grad();
            read(plain(&[]));
            add(second);
            read(plain(&[second]));
        }
        p.zero_grad();
        p.update_grad(|g| assert_eq!(bits(g), plain(&[])));
        add(&a);
        read(plain(&[&a]));
    }
    assert_eq!(digest.0, 0x01b7_56ba_69fe_3d99, "{:#018x}", digest.0);
}

/// How the parameter changes between the forward and the backward.
#[derive(Clone, Copy, Debug)]
enum Change {
    None,
    Step,
    SetValue,
    Splice,
}

/// Gradients of `[x, w]` through `op(x, w)` under a fixed output gradient,
/// `w` (a width-2 fused parameter) changed by `change` after the forward.
fn grads(op: fn(&Var, &Var) -> Var, xd: &[usize], wd: &[usize], change: Change) -> [Vec<u32>; 2] {
    let mut rng = Rng::seed_from(5);
    let x = Parameter::new(rng.randn(xd.to_vec()), "x");
    let w = Parameter::new(rng.randn(wd.to_vec()), "w");
    let fused = || {
        vec![FusedParameter {
            param: w.clone(),
            b: 2,
        }]
    };
    let mut sgd = FusedSgd::new(fused(), PerModel::new(vec![0.5, 0.25]), 0.0).unwrap();
    let mut adam = FusedAdam::new(fused(), PerModel::new(vec![0.1, 0.1])).unwrap();
    w.accumulate_grad(&rng.randn(wd.to_vec()));
    let other = rng.randn(wd.to_vec());
    let tape = Tape::new();
    let y = op(&tape.param(&x), &tape.param(&w));
    let g = y.with_value(|v| v.map(|e| (e * 0.3).cos()));
    let before = bits(&w.value());
    match change {
        Change::None => {}
        Change::Step => sgd.step(),
        Change::SetValue => w.set_value(other),
        Change::Splice => {
            let lanes = [1, 0].map(|l| extract_lane(&fused(), &adam, l));
            splice_lanes(&lanes, &fused(), &mut adam);
        }
    }
    let changed = bits(&w.value()) != before;
    assert_eq!(changed, !matches!(change, Change::None), "{change:?}");
    w.zero_grad();
    y.backward_with(g);
    [bits(&x.grad_cloned()), bits(&w.grad_cloned())]
}

#[test]
fn a_backward_reads_the_values_its_forward_saw() {
    type Op = fn(&Var, &Var) -> Var;
    let cases: [(&str, &[usize], &[usize], Op); 3] = [
        ("bmm", &[2, 3, 5], &[2, 5, 4], |x, w| x.bmm(w)),
        ("mul", &[2, 6], &[2, 6], |x, w| x.mul(w)),
        ("conv2d", &[2, 4, 6, 6], &[6, 2, 3, 3], |x, w| {
            x.conv2d(w, None, ConvCfg::square(1, 1, 2))
        }),
    ];
    for (name, xd, wd, op) in cases {
        let want = grads(op, xd, wd, Change::None);
        for change in [Change::Step, Change::SetValue, Change::Splice] {
            assert_eq!(grads(op, xd, wd, change), want, "{name} after {change:?}");
        }
    }
}
