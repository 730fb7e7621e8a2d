//! Pins the bits the backward sweep leaves in a gradient slot that
//! `narrow`ed windows feed.
//!
//! A `[6, 5, 4]` parameter is narrowed into windows along each axis, each
//! window feeding its own parameterised op (a product, a sum or a `bmm`
//! with a parameter), and the branches' outputs are flattened, concatenated
//! and seeded with a gradient full of `-0.0`, `±inf` and NaN payloads. The
//! window sets: one window; 2-6 disjoint windows that cover the axis;
//! disjoint windows with gaps; two overlapping windows; windows beside a
//! consumer of the whole tensor. Each set is also narrowed from an op node
//! (a reshape) instead of the parameter itself. The parameter's slot is
//! filled with `-0.0` first, so its accumulated gradient is the sweep's slot
//! bit for bit; an FNV-1a digest per kind of set pins them, at 1 and 4
//! worker threads.

use hfta_kernels::set_num_threads;
use hfta_nn::{Parameter, Tape, Var};
use hfta_tensor::{Rng, Tensor};

const DIMS: [usize; 3] = [6, 5, 4];

/// Seed-gradient values: ±0, ±inf, quiet NaNs of either sign with
/// payloads, a signalling NaN, subnormals and ordinary values.
const SPECIALS: [f32; 10] = [
    -0.0,
    0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7fc0_1234),
    f32::from_bits(0xffc0_0001),
    f32::from_bits(0x7f80_0042),
    1e-45,
    -1.5,
    2.25,
];

/// Where a set's whole-tensor consumer sits relative to its windows.
#[derive(Clone, Copy, Debug)]
enum Whole {
    None,
    /// Recorded first, so its gradient arrives after every window's.
    First,
    /// Recorded last, so its gradient arrives first.
    Last,
}

/// A window set along one axis: `(start, len)` windows, in recording order.
struct Set {
    axis: usize,
    windows: Vec<(usize, usize)>,
    whole: Whole,
}

/// Splits `n` into `k` runs covering it, listed in reverse for odd `k`.
fn covering(n: usize, k: usize) -> Vec<(usize, usize)> {
    let mut start = 0;
    let mut runs: Vec<(usize, usize)> = (0..k)
        .map(|i| {
            let len = n / k + usize::from(i < n % k);
            start += len;
            (start - len, len)
        })
        .collect();
    if k % 2 == 1 {
        runs.reverse();
    }
    runs
}

fn sets(kind: &str) -> Vec<Set> {
    let mut out = Vec::new();
    for (axis, &n) in DIMS.iter().enumerate() {
        let mut add = |windows: Vec<(usize, usize)>, whole| {
            out.push(Set {
                axis,
                windows,
                whole,
            })
        };
        match kind {
            "one" => {
                add(vec![(1, 2)], Whole::None);
                add(vec![(0, n)], Whole::None);
            }
            "covering" => {
                for k in 2..=n.min(6) {
                    add(covering(n, k), Whole::None);
                }
            }
            "gapped" => {
                add(vec![(0, 1), (2, 1)], Whole::None);
                add(vec![(n - 1, 1), (0, 2)], Whole::None);
                add(vec![(1, 1), (n - 1, 1)], Whole::None);
            }
            "overlapping" => {
                add(vec![(0, 3), (2, 2)], Whole::None);
                add(vec![(1, 2), (1, 2)], Whole::None);
                add(vec![(n - 2, 2), (0, n)], Whole::None);
            }
            "mixed" => {
                add(vec![(0, 2), (3, 1)], Whole::First);
                add(vec![(0, 2), (3, 1)], Whole::Last);
                add(covering(n, 3), Whole::Last);
                add(vec![(1, 3)], Whole::First);
            }
            _ => unreachable!("unknown set kind {kind}"),
        }
    }
    out
}

/// A parameter whose slot holds `-0.0`, the additive identity on every bit
/// pattern but a signalling NaN's.
fn param(value: Tensor, name: &str) -> Parameter {
    let p = Parameter::new(value, name);
    p.update_grad(|g| g.as_mut_slice().fill(-0.0));
    p
}

/// A tensor with one element in three drawn from [`SPECIALS`].
fn seed_tensor(rng: &mut Rng, n: usize) -> Tensor {
    let v = (0..n)
        .map(|_| match rng.below(3) {
            0 => SPECIALS[rng.below(SPECIALS.len())],
            _ => rng.uniform(-4.0, 4.0),
        })
        .collect();
    Tensor::from_vec(v, [n])
}

/// The big parameter's gradient bits after one backward through `set`.
fn slot_bits(set: &Set, via_op: bool, case: u64) -> Vec<u32> {
    let mut rng = Rng::seed_from(case);
    let big = param(rng.randn(DIMS.to_vec()), "big");
    let tape = Tape::new();
    let base = tape.param(&big);
    let base = if via_op { base.reshape(&DIMS) } else { base };
    let mut keep = Vec::new();
    let mut outputs: Vec<Var> = Vec::new();
    let whole = |rng: &mut Rng, keep: &mut Vec<Parameter>| {
        let r = param(rng.rand(DIMS.to_vec(), -2.0, 2.0), "whole");
        let y = base.mul(&tape.param(&r));
        keep.push(r);
        y.reshape(&[y.numel()])
    };
    if let Whole::First = set.whole {
        outputs.push(whole(&mut rng, &mut keep));
    }
    for (k, &(start, len)) in set.windows.iter().enumerate() {
        let w = base.narrow(set.axis, start, len);
        let dims = w.dims();
        let y = match k % 3 {
            0 => {
                let signs = [1.0f32, -1.0, 0.5, 2.0];
                let n: usize = dims.iter().product();
                let q = (0..n).map(|_| signs[rng.below(4)]).collect();
                let q = param(Tensor::from_vec(q, dims.clone()), "q");
                let y = w.mul(&tape.param(&q));
                keep.push(q);
                y
            }
            1 => {
                let b = param(rng.randn(dims.clone()), "b");
                let y = w.add(&tape.param(&b));
                keep.push(b);
                y
            }
            _ => {
                let m = param(rng.randn([dims[0], dims[2], dims[2]]), "m");
                let y = w.bmm(&tape.param(&m));
                keep.push(m);
                y
            }
        };
        outputs.push(y.reshape(&[y.numel()]));
    }
    if let Whole::Last = set.whole {
        outputs.push(whole(&mut rng, &mut keep));
    }
    let refs: Vec<&Var> = outputs.iter().collect();
    let out = Var::concat(&refs, 0);
    out.backward_with(seed_tensor(&mut rng, out.numel()));
    big.grad_cloned()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// FNV-1a over the little-endian bytes of every slot of every `kind` set.
fn digest(kind: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut case = 0u64;
    for set in sets(kind) {
        for via_op in [false, true] {
            case += 1;
            for b in slot_bits(&set, via_op, case) {
                for byte in b.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn check(kind: &str, want: u64) {
    for threads in [1, 4] {
        set_num_threads(threads);
        let got = digest(kind);
        assert_eq!(
            got, want,
            "{kind} windows at {threads} threads: {got:#018x}"
        );
    }
}

#[test]
fn one_window() {
    check("one", 0x5c3b_88f3_a15a_9aae);
}

#[test]
fn disjoint_windows_covering_the_axis() {
    check("covering", 0x7ca3_38e5_c328_7df2);
}

#[test]
fn disjoint_windows_with_gaps() {
    check("gapped", 0x8e1c_635d_f2e0_31d8);
}

#[test]
fn overlapping_windows() {
    check("overlapping", 0xebde_1470_d723_1bee);
}

#[test]
fn windows_beside_a_whole_tensor_consumer() {
    check("mixed", 0xcad6_e571_5a7c_790f);
}
