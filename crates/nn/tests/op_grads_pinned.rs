//! Pins the bits of every public `Var` op: its forward value and every
//! parameter's gradient under a seeded `backward_with`, twice. The first
//! sweep runs against empty gradient slots (every product gradient runs
//! in the sweep); reading the slots then marks them read, so the second
//! sweep defers each convolution and matrix product's weight and bias
//! gradient into its slot, and reading the slots again forces them. One
//! FNV-1a digest per case covers the forward value, the gradients after
//! the first sweep and the gradients after the second, at 1 and at 4
//! worker threads. The products run with and without bias and with their
//! input both a constant leaf and a parameter; batch norm runs in training
//! and in eval mode, plain and grouped.

use hfta_kernels::set_num_threads;
use hfta_nn::{Parameter, Tape, Var};
use hfta_tensor::conv::ConvCfg;
use hfta_tensor::{Rng, Tensor};

/// An operand: its dims, whether it is a parameter (else a constant
/// leaf), and whether its values are kept positive (`ln`, a divisor,
/// a variance).
#[derive(Clone, Copy)]
struct Operand(&'static [usize], bool, bool);

const P: fn(&'static [usize]) -> Operand = |d| Operand(d, true, false);
const L: fn(&'static [usize]) -> Operand = |d| Operand(d, false, false);
const POS: fn(&'static [usize]) -> Operand = |d| Operand(d, true, true);

type OpFn = fn(&[Var]) -> Var;

/// A constant tensor an op reads (a mask, a target, running statistics).
fn ramp(dims: &[usize]) -> Tensor {
    let n = dims.iter().product();
    Tensor::arange(n).map(|i| (i * 0.37).sin()).reshape(dims)
}

fn conv2d_cfg() -> ConvCfg {
    ConvCfg {
        stride: (2, 1),
        padding: (1, 1),
        groups: 1,
    }
}

fn bn_eval(v: &[Var], groups: Option<usize>, c: usize) -> Var {
    let (mean, var) = (
        ramp(&[c]).to_vec(),
        ramp(&[c]).abs().add_scalar(0.5).to_vec(),
    );
    let (y, _) = v[0].batch_norm_grouped(groups, &v[1], &v[2], 1e-5, Some((&mean, &var)));
    y
}

fn cases() -> Vec<(&'static str, Vec<Operand>, OpFn)> {
    let x = || vec![P(&[3, 4])];
    vec![
        ("add", vec![P(&[3, 4]), P(&[4])], |v| v[0].add(&v[1])),
        ("sub", vec![P(&[3, 4]), P(&[3, 1])], |v| v[0].sub(&v[1])),
        ("mul", vec![P(&[3, 4]), P(&[4])], |v| v[0].mul(&v[1])),
        ("mul_self", vec![P(&[3, 4])], |v| v[0].mul(&v[0])),
        ("div", vec![P(&[3, 4]), POS(&[1, 4])], |v| v[0].div(&v[1])),
        ("add_scalar", x(), |v| v[0].add_scalar(0.3)),
        ("mul_scalar", x(), |v| v[0].mul_scalar(-1.7)),
        ("neg", x(), |v| v[0].neg()),
        ("relu", x(), |v| v[0].relu()),
        ("leaky_relu", x(), |v| v[0].leaky_relu(0.2)),
        ("tanh", x(), |v| v[0].tanh()),
        ("sigmoid", x(), |v| v[0].sigmoid()),
        ("exp", x(), |v| v[0].exp()),
        ("ln", vec![POS(&[3, 4])], |v| v[0].ln()),
        ("square", x(), |v| v[0].square()),
        ("mul_const", x(), |v| v[0].mul_const(&ramp(&[4]))),
        ("add_const", x(), |v| v[0].add_const(&ramp(&[3, 4]))),
        ("sum", x(), |v| v[0].sum()),
        ("mean", x(), |v| v[0].mean()),
        ("sum_axis_keep", x(), |v| v[0].sum_axis_keep(1)),
        ("mean_axis_keep", x(), |v| v[0].mean_axis_keep(0)),
        ("max_axis", vec![P(&[3, 5])], |v| v[0].max_axis(1)),
        ("reshape", x(), |v| v[0].reshape(&[2, 6])),
        ("flatten_from", vec![P(&[2, 3, 2])], |v| {
            v[0].flatten_from(1)
        }),
        ("permute", vec![P(&[2, 3, 4])], |v| v[0].permute(&[2, 0, 1])),
        ("transpose", vec![P(&[2, 3, 4])], |v| v[0].transpose(0, 2)),
        ("narrow", x(), |v| v[0].narrow(1, 1, 2)),
        ("narrow_pair", x(), |v| {
            v[0].narrow(1, 0, 2).add(&v[0].narrow(1, 2, 2))
        }),
        ("concat", vec![P(&[2, 3]), L(&[2, 1]), P(&[2, 2])], |v| {
            Var::concat(&[&v[0], &v[1], &v[2]], 1)
        }),
        ("matmul_leaf", vec![L(&[3, 4]), P(&[4, 5])], |v| {
            v[0].matmul(&v[1])
        }),
        ("matmul", vec![P(&[3, 4]), P(&[4, 5])], |v| {
            v[0].matmul(&v[1])
        }),
        ("bmm_leaf", vec![L(&[2, 3, 4]), P(&[2, 4, 5])], |v| {
            v[0].bmm(&v[1])
        }),
        ("bmm", vec![P(&[2, 3, 4]), P(&[2, 4, 5])], |v| {
            v[0].bmm(&v[1])
        }),
        (
            "baddbmm",
            vec![P(&[2, 3, 4]), P(&[2, 4, 5]), P(&[2, 1, 5])],
            |v| v[0].baddbmm(&v[1], &v[2]),
        ),
        (
            "conv2d_leaf",
            vec![L(&[2, 3, 6, 5]), P(&[4, 3, 3, 3])],
            |v| v[0].conv2d(&v[1], None, conv2d_cfg()),
        ),
        ("conv2d", vec![P(&[2, 3, 6, 5]), P(&[4, 3, 3, 3])], |v| {
            v[0].conv2d(&v[1], None, conv2d_cfg())
        }),
        (
            "conv2d_bias_leaf",
            vec![L(&[2, 3, 6, 5]), P(&[4, 3, 3, 3]), P(&[4])],
            |v| v[0].conv2d(&v[1], Some(&v[2]), conv2d_cfg()),
        ),
        (
            "conv2d_bias",
            vec![P(&[2, 3, 6, 5]), P(&[4, 3, 3, 3]), P(&[4])],
            |v| v[0].conv2d(&v[1], Some(&v[2]), conv2d_cfg()),
        ),
        ("conv1d_leaf", vec![L(&[2, 4, 9]), P(&[6, 2, 3])], |v| {
            v[0].conv1d(&v[1], None, 2, 1, 2)
        }),
        ("conv1d", vec![P(&[2, 4, 9]), P(&[6, 2, 3])], |v| {
            v[0].conv1d(&v[1], None, 2, 1, 2)
        }),
        (
            "conv1d_bias_leaf",
            vec![L(&[2, 4, 9]), P(&[6, 2, 3]), P(&[6])],
            |v| v[0].conv1d(&v[1], Some(&v[2]), 2, 1, 2),
        ),
        (
            "conv1d_bias",
            vec![P(&[2, 4, 9]), P(&[6, 2, 3]), P(&[6])],
            |v| v[0].conv1d(&v[1], Some(&v[2]), 2, 1, 2),
        ),
        (
            "conv_transpose2d_leaf",
            vec![L(&[2, 4, 3, 3]), P(&[4, 3, 4, 4])],
            |v| v[0].conv_transpose2d(&v[1], None, ConvCfg::square(2, 1, 2)),
        ),
        (
            "conv_transpose2d",
            vec![P(&[2, 4, 3, 3]), P(&[4, 3, 4, 4])],
            |v| v[0].conv_transpose2d(&v[1], None, ConvCfg::square(2, 1, 2)),
        ),
        (
            "conv_transpose2d_bias_leaf",
            vec![L(&[2, 4, 3, 3]), P(&[4, 3, 4, 4]), P(&[6])],
            |v| v[0].conv_transpose2d(&v[1], Some(&v[2]), ConvCfg::square(2, 1, 2)),
        ),
        (
            "conv_transpose2d_bias",
            vec![P(&[2, 4, 3, 3]), P(&[4, 3, 4, 4]), P(&[6])],
            |v| v[0].conv_transpose2d(&v[1], Some(&v[2]), ConvCfg::square(2, 1, 2)),
        ),
        ("max_pool2d", vec![P(&[1, 2, 4, 6])], |v| {
            v[0].max_pool2d((2, 2), (2, 2))
        }),
        (
            "batch_norm_train",
            vec![P(&[2, 3, 2, 2]), POS(&[3]), P(&[3])],
            |v| v[0].batch_norm(&v[1], &v[2], 1e-5, None).0,
        ),
        (
            "batch_norm_eval",
            vec![P(&[2, 3, 2, 2]), POS(&[3]), P(&[3])],
            |v| bn_eval(v, None, 3),
        ),
        (
            "batch_norm_train_leaf",
            vec![L(&[4, 3]), POS(&[3]), P(&[3])],
            |v| v[0].batch_norm(&v[1], &v[2], 1e-5, None).0,
        ),
        (
            "batch_norm_grouped_train",
            vec![P(&[2, 3, 2, 4]), POS(&[4]), P(&[4])],
            |v| v[0].batch_norm_grouped(Some(2), &v[1], &v[2], 1e-5, None).0,
        ),
        (
            "batch_norm_grouped_eval",
            vec![P(&[2, 3, 2, 4]), POS(&[4]), P(&[4])],
            |v| bn_eval(v, Some(2), 4),
        ),
        ("log_softmax", x(), |v| v[0].log_softmax(1)),
        ("softmax", x(), |v| v[0].softmax(1)),
        ("nll_loss", x(), |v| v[0].nll_loss(&[1, 0, 3])),
        ("nll_loss_3d", vec![P(&[2, 3, 4])], |v| {
            v[0].nll_loss(&[0, 1, 2, 0, 2, 2, 1, 0])
        }),
        ("cross_entropy", x(), |v| v[0].cross_entropy(&[2, 0, 3])),
        ("bce_with_logits", x(), |v| {
            v[0].bce_with_logits(&ramp(&[3, 4]).map(|t| f32::from(u8::from(t > 0.0))))
        }),
        ("mse_loss", x(), |v| v[0].mse_loss(&ramp(&[3, 4]))),
    ]
}

/// FNV-1a over the bits of `t`'s elements, folded into `h`.
fn fold(h: &mut u64, t: &Tensor) {
    for v in t.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The case's digest: each sweep's forward value and the gradients after
/// it, an eager sweep first and then one into the read slots.
fn digest(case: usize, operands: &[Operand], op: OpFn) -> u64 {
    let mut rng = Rng::seed_from(1000 + case as u64);
    let values: Vec<Tensor> = (operands.iter())
        .map(|&Operand(dims, _, positive)| {
            let t = rng.randn(dims);
            if positive {
                t.abs().add_scalar(0.5)
            } else {
                t
            }
        })
        .collect();
    let params: Vec<Option<Parameter>> = (operands.iter().zip(&values))
        .map(|(o, v)| o.1.then(|| Parameter::new(v.clone(), "p")))
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut seed = None;
    for _sweep in 0..2 {
        let tape = Tape::new();
        let vars: Vec<Var> = (params.iter().zip(&values))
            .map(|(p, v)| match p {
                Some(p) => tape.param(p),
                None => tape.leaf(v.clone()),
            })
            .collect();
        let y = op(&vars);
        let seed = seed.get_or_insert_with(|| rng.randn(y.dims()));
        y.with_value(|v| fold(&mut h, v));
        y.backward_with(seed.clone());
        for p in params.iter().flatten() {
            fold(&mut h, &p.grad_cloned());
        }
    }
    h
}

/// Runs `f` at 1 and at 4 worker threads.
fn at_1_and_4_threads(mut f: impl FnMut()) {
    for threads in [1, 4] {
        set_num_threads(threads);
        f();
    }
}

/// The digests, one per case in `cases()` order.
const PINS: &[(&str, u64)] = &[
    ("add", 0x328e14e5fbdbf149),
    ("sub", 0x7b27b93017ecb2ff),
    ("mul", 0x9446922e068c0143),
    ("mul_self", 0xb7b807c0e0dd5a93),
    ("div", 0x09e4a402922121ec),
    ("add_scalar", 0xb44ea89fbf0beef0),
    ("mul_scalar", 0xfa7dceedd0f54a1a),
    ("neg", 0x785c59e937536836),
    ("relu", 0x4a7af870bb113791),
    ("leaky_relu", 0xb37b3ac0b2a85020),
    ("tanh", 0xd9740ad828a9d794),
    ("sigmoid", 0x3da10e1d82c9ed11),
    ("exp", 0xfbd9b36aa3a2fcaf),
    ("ln", 0x9dae0c9c81bb470e),
    ("square", 0xfee4d33fbb91227d),
    ("mul_const", 0x5f156f799dc73704),
    ("add_const", 0xda1f5239b53598e8),
    ("sum", 0xd8f0523cffdf32c5),
    ("mean", 0x9fd911ed2c70a2c9),
    ("sum_axis_keep", 0xf6f92b04054bae75),
    ("mean_axis_keep", 0xd433e39924475daf),
    ("max_axis", 0x9b5a7e836856be8a),
    ("reshape", 0xcd17b3b974356fb8),
    ("flatten_from", 0x7ee1086f0f171c15),
    ("permute", 0x3e3898fc5a602261),
    ("transpose", 0xab183c0a70447af6),
    ("narrow", 0x45d9c18ac5fb4ea5),
    ("narrow_pair", 0x8a5907f212057e3d),
    ("concat", 0xe9d253c69f417b18),
    ("matmul_leaf", 0xf673aefd01a98857),
    ("matmul", 0x85394c2ae01a7764),
    ("bmm_leaf", 0xbd92087701a1112b),
    ("bmm", 0x71ac708f560df83e),
    ("baddbmm", 0xbf2c3965254039ae),
    ("conv2d_leaf", 0x77e5d1896f1e69ab),
    ("conv2d", 0x9e212525c8c8ae34),
    ("conv2d_bias_leaf", 0xf626e697ce3fc226),
    ("conv2d_bias", 0x2d5560b4e59957c5),
    ("conv1d_leaf", 0xe51d1849c3bc72cf),
    ("conv1d", 0x15d8da4c85bd4213),
    ("conv1d_bias_leaf", 0xfb2264f42d815ad9),
    ("conv1d_bias", 0xbb232eff8accd082),
    ("conv_transpose2d_leaf", 0xf26acfcab6d3a072),
    ("conv_transpose2d", 0x460e5480d2f8a35f),
    ("conv_transpose2d_bias_leaf", 0x4e0ee3fd86892f99),
    ("conv_transpose2d_bias", 0x3e1d8265b86a5732),
    ("max_pool2d", 0x3d5166637521c6c6),
    ("batch_norm_train", 0x27c0bc15d9c6aea4),
    ("batch_norm_eval", 0x0a2f98ea966b3550),
    ("batch_norm_train_leaf", 0x51d196df5569a40b),
    ("batch_norm_grouped_train", 0x5914bb42a48754f8),
    ("batch_norm_grouped_eval", 0x609b18543a1bd9e8),
    ("log_softmax", 0x4b3cf7fc4ad2cac0),
    ("softmax", 0x41a8fe660fb5f40b),
    ("nll_loss", 0x9815f849d66dcb94),
    ("nll_loss_3d", 0xd63e10dd81af3405),
    ("cross_entropy", 0xe1a0d17434002a8a),
    ("bce_with_logits", 0x7594441d84897ff1),
    ("mse_loss", 0x5cc4b919c93bdc5f),
];

#[test]
fn every_op_keeps_its_forward_and_gradient_bits() {
    let cases = cases();
    at_1_and_4_threads(|| {
        let got: Vec<(&str, u64)> = (cases.iter().enumerate())
            .map(|(i, (name, operands, op))| (*name, digest(i, operands, *op)))
            .collect();
        let table: String = (got.iter())
            .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
            .collect();
        assert_eq!(got, PINS, "digests:\n{table}");
    });
}
