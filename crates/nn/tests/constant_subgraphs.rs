//! Pins what a subgraph that reaches no parameter costs the gradients that
//! do: nothing. Constant leaves pass through one to four ops — layout
//! (reshape, permute, transpose, narrow, concat), arithmetic between
//! constants, activations, `max_axis`, and a convolution or `bmm` whose
//! other operand is constant too — before meeting a convolution, `conv1d`,
//! `bmm`, linear or batch-norm layer's parameters. Every parameter's
//! gradient must carry the same bits as the same graph with the constant
//! prefix computed on plain tensors and fed in as one `Tape::leaf`, at 1
//! and at 4 worker threads. A loss that reaches no parameter must leave
//! every gradient slot as it was.

use hfta_kernels::set_num_threads;
use hfta_nn::{Parameter, Tape, Var};
use hfta_tensor::conv::{conv2d, ConvCfg};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Shape every constant op takes and returns, so any sequence composes.
const S: [usize; 4] = [2, 4, 4, 4];

/// Runs `case` at 1 and at 4 worker threads.
fn at_1_and_4_threads(mut case: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    [1, 4].into_iter().try_for_each(|threads| {
        set_num_threads(threads);
        case()
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One constant op, `S -> S`; `k` picks the other constant leaf a binary
/// op reads.
#[derive(Clone, Copy, Debug)]
enum Op {
    Reshape,
    Permute,
    Transpose,
    /// Rotates axis 2 by two: two `narrow`s and a `concat`.
    Narrow,
    /// Stacks with another leaf along axis 0 and narrows back.
    Concat(usize),
    Add(usize),
    Mul(usize),
    Relu,
    Tanh,
    Exp,
    /// `max_axis(1)`, broadcast back by a four-way `concat`.
    MaxAxis,
    /// 3x3 convolution by a constant weight.
    Conv,
    /// `bmm` by a constant `[8, 4, 4]` operand.
    Bmm,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..39).prop_map(|code| match code / 3 {
        0 => Op::Reshape,
        1 => Op::Permute,
        2 => Op::Transpose,
        3 => Op::Narrow,
        4 => Op::Concat(code % 3),
        5 => Op::Add(code % 3),
        6 => Op::Mul(code % 3),
        7 => Op::Relu,
        8 => Op::Tanh,
        9 => Op::Exp,
        10 => Op::MaxAxis,
        11 => Op::Conv,
        _ => Op::Bmm,
    })
}

/// The constant operands: the leaves and the convolution / `bmm` operands.
struct Consts {
    leaves: Vec<Tensor>,
    conv_w: Tensor,
    bmm_b: Tensor,
}

fn apply_var(op: Op, v: &Var, leaves: &[Var], conv_w: &Var, bmm_b: &Var) -> Var {
    let other = |k: usize| &leaves[k % leaves.len()];
    match op {
        Op::Reshape => v.reshape(&[8, 16]).reshape(&S),
        Op::Permute => v.permute(&[0, 1, 3, 2]),
        Op::Transpose => v.transpose(1, 2),
        Op::Narrow => Var::concat(&[&v.narrow(2, 2, 2), &v.narrow(2, 0, 2)], 2),
        Op::Concat(k) => Var::concat(&[v, other(k)], 0).narrow(0, 1, 2),
        Op::Add(k) => v.add(other(k)),
        Op::Mul(k) => v.mul(other(k)),
        Op::Relu => v.relu(),
        Op::Tanh => v.tanh(),
        Op::Exp => v.exp(),
        Op::MaxAxis => {
            let m = v.max_axis(1).reshape(&[2, 1, 4, 4]);
            Var::concat(&[&m, &m, &m, &m], 1)
        }
        Op::Conv => v.conv2d(conv_w, None, ConvCfg::square(1, 1, 1)),
        Op::Bmm => v.reshape(&[8, 4, 4]).bmm(bmm_b).reshape(&S),
    }
}

fn apply_tensor(op: Op, v: &Tensor, c: &Consts) -> Tensor {
    let other = |k: usize| &c.leaves[k % c.leaves.len()];
    match op {
        Op::Reshape => v.reshape(&[8, 16]).reshape(&S),
        Op::Permute => v.permute(&[0, 1, 3, 2]),
        Op::Transpose => v.transpose(1, 2),
        Op::Narrow => Tensor::concat(&[&v.narrow(2, 2, 2), &v.narrow(2, 0, 2)], 2),
        Op::Concat(k) => Tensor::concat(&[v, other(k)], 0).narrow(0, 1, 2),
        Op::Add(k) => v.add(other(k)),
        Op::Mul(k) => v.mul(other(k)),
        Op::Relu => v.relu(),
        Op::Tanh => v.tanh(),
        Op::Exp => v.exp(),
        Op::MaxAxis => {
            let m = v.max_axis_with_indices(1).0.reshape(&[2, 1, 4, 4]);
            Tensor::concat(&[&m, &m, &m, &m], 1)
        }
        Op::Conv => conv2d(v, &c.conv_w, None, ConvCfg::square(1, 1, 1)),
        Op::Bmm => v.reshape(&[8, 4, 4]).bmm(&c.bmm_b).reshape(&S),
    }
}

/// The parameterised layer the constant meets.
#[derive(Clone, Copy, Debug)]
enum Head {
    Conv2d,
    Conv1d,
    Bmm,
    Linear,
    BatchNorm,
}

fn head_strategy() -> impl Strategy<Value = Head> {
    (0u8..5).prop_map(|i| match i {
        0 => Head::Conv2d,
        1 => Head::Conv1d,
        2 => Head::Bmm,
        3 => Head::Linear,
        _ => Head::BatchNorm,
    })
}

/// The head's parameter values.
fn head_values(head: Head, rng: &mut Rng) -> Vec<Tensor> {
    let dims: &[&[usize]] = match head {
        Head::Conv2d => &[&[3, 4, 3, 3], &[3]],
        Head::Conv1d => &[&[3, 4, 3], &[3]],
        Head::Bmm => &[&[8, 4, 3]],
        Head::Linear => &[&[16, 5], &[5]],
        Head::BatchNorm => &[&[4], &[4]],
    };
    dims.iter().map(|d| rng.randn(d.to_vec())).collect()
}

fn apply_head(head: Head, x: &Var, p: &[Var]) -> Var {
    match head {
        Head::Conv2d => x.conv2d(&p[0], Some(&p[1]), ConvCfg::square(1, 1, 1)),
        Head::Conv1d => x.reshape(&[2, 4, 16]).conv1d(&p[0], Some(&p[1]), 1, 1, 1),
        Head::Bmm => x.reshape(&[8, 4, 4]).bmm(&p[0]),
        Head::Linear => x.reshape(&[8, 16]).matmul(&p[0]).add(&p[1]),
        Head::BatchNorm => x.batch_norm(&p[0], &p[1], 1e-5, None).0,
    }
}

/// The head's parameter gradients after seeding its output with a
/// gradient drawn from `seed`, the input built by `input` on the tape.
fn head_grads(
    head: Head,
    values: &[Tensor],
    seed: u64,
    input: impl FnOnce(&Tape) -> Var,
) -> Vec<Vec<u32>> {
    let params: Vec<Parameter> = values
        .iter()
        .enumerate()
        .map(|(i, v)| Parameter::new(v.clone(), format!("p{i}")))
        .collect();
    let tape = Tape::new();
    let x = input(&tape);
    let p: Vec<Var> = params.iter().map(|p| tape.param(p)).collect();
    let y = apply_head(head, &x, &p);
    let gy = Rng::seed_from(seed).randn(y.dims());
    y.backward_with(gy);
    params.iter().map(|p| bits(&p.grad_cloned())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn constant_prefixes_leave_parameter_grads_bitwise(
        seed in any::<u64>(),
        n_leaves in 1usize..4,
        ops in prop::collection::vec(op_strategy(), 1..5),
        head in head_strategy(),
    ) {
        let mut rng = Rng::seed_from(seed);
        let consts = Consts {
            leaves: (0..n_leaves).map(|_| rng.randn(S.to_vec())).collect(),
            conv_w: rng.randn([4, 4, 3, 3]).mul_scalar(0.3),
            bmm_b: rng.randn([8, 4, 4]).mul_scalar(0.5),
        };
        let values = head_values(head, &mut rng);
        at_1_and_4_threads(|| {
            let on_tape = head_grads(head, &values, seed, |tape| {
                let leaves: Vec<Var> = consts.leaves.iter().map(|l| tape.leaf(l.clone())).collect();
                let conv_w = tape.leaf(consts.conv_w.clone());
                let bmm_b = tape.leaf(consts.bmm_b.clone());
                ops.iter().fold(leaves[0].clone(), |v, &op| {
                    apply_var(op, &v, &leaves, &conv_w, &bmm_b)
                })
            });
            let prefix = ops
                .iter()
                .fold(consts.leaves[0].clone(), |v, &op| apply_tensor(op, &v, &consts));
            let as_leaf = head_grads(head, &values, seed, |tape| tape.leaf(prefix.clone()));
            for (i, (got, want)) in on_tape.iter().zip(&as_leaf).enumerate() {
                prop_assert!(got == want, "{head:?} parameter {i} after {ops:?}");
            }
            Ok(())
        })?;
    }

    #[test]
    fn a_loss_that_reaches_no_parameter_leaves_every_slot_alone(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(), 1..5),
        head in head_strategy(),
    ) {
        let mut rng = Rng::seed_from(seed);
        let consts = Consts {
            leaves: (0..2).map(|_| rng.randn(S.to_vec())).collect(),
            conv_w: rng.randn([4, 4, 3, 3]).mul_scalar(0.3),
            bmm_b: rng.randn([8, 4, 4]).mul_scalar(0.5),
        };
        let params: Vec<Parameter> = head_values(head, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let p = Parameter::new(v, format!("p{i}"));
                let poison = rng.randn(p.grad_cloned().dims().to_vec());
                p.update_grad(|g| {
                    g.as_mut_slice().copy_from_slice(poison.as_slice());
                    g.as_mut_slice()[0] = f32::from_bits(0x7fc0_0bad);
                    g.as_mut_slice()[poison.numel() - 1] = -0.0;
                });
                p
            })
            .collect();
        let before: Vec<Vec<u32>> = params.iter().map(|p| bits(&p.grad_cloned())).collect();
        at_1_and_4_threads(|| {
            let tape = Tape::new();
            let leaves: Vec<Var> = consts.leaves.iter().map(|l| tape.leaf(l.clone())).collect();
            let conv_w = tape.leaf(consts.conv_w.clone());
            let bmm_b = tape.leaf(consts.bmm_b.clone());
            let x = ops.iter().fold(leaves[0].clone(), |v, &op| {
                apply_var(op, &v, &leaves, &conv_w, &bmm_b)
            });
            // The parameters are on the tape, in a branch the loss never reads.
            let p: Vec<Var> = params.iter().map(|p| tape.param(p)).collect();
            let _unread = apply_head(head, &x, &p);
            x.mul(&leaves[1]).sum().backward();
            for (i, (p, want)) in params.iter().zip(&before).enumerate() {
                prop_assert!(&bits(&p.grad_cloned()) == want, "{head:?} parameter {i} after {ops:?}");
            }
            Ok(())
        })?;
    }
}
