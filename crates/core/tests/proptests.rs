//! Property-based tests of the HFTA fusion invariants: every Table 6 rule
//! is an identity over random shapes, weights and inputs (bit for bit for
//! the stacking rules, forward and backward); fuse → unfuse round-trips;
//! the loss-scaling rule reconstructs serial gradients; fused optimizers
//! match serial ones.

use hfta_core::format::{stack_array, stack_conv, unstack_array, unstack_conv};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{
    fuse_batch_norm, fuse_conv1d, fuse_conv2d, fuse_conv_transpose2d, FusedLinear, FusedParameter,
};
use hfta_core::optim::{FusedAdadelta, FusedAdam, FusedOptimizer, FusedSgd, PerModel, Update};
use hfta_core::rules::fuse;
use hfta_nn::layers::{BatchNorm, Conv1d, Conv2d, Conv2dCfg, ConvTranspose2d, Linear, LinearCfg};
use hfta_nn::{Adam, Module, Optimizer, Parameter, Tape};
use hfta_plan::{OpSpec, ShapedOp};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// A `Linear` over `n` rows as the shaped op the fusion rules check.
fn linear_op(n: usize, f_in: usize, f_out: usize) -> ShapedOp {
    OpSpec::linear(LinearCfg::new(f_in, f_out))
        .at(&[f_in], n)
        .unwrap()
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    bits_of(t.as_slice())
}

/// The stacking rule's contract: the fused layer on stacked conv-format
/// inputs equals each model on its own input, bit for bit, in the output,
/// the input gradient and every lane of every parameter gradient. The loss
/// is `sum(y²)`, so each lane's upstream gradient is its own `2y`.
fn assert_lanes_bitwise<M: Module>(
    models: &[M],
    fused: &M,
    inputs: &[Tensor],
) -> Result<(), String> {
    let b = models.len();
    let run = |m: &M, x: Tensor| {
        let x = Parameter::new(x, "x");
        let tape = Tape::new();
        let y = m.forward(&tape.param(&x));
        y.square().sum().backward();
        (y.value(), x.grad_cloned())
    };
    let (y, gx) = run(fused, stack_conv(inputs).unwrap());
    let (ys, gxs) = (unstack_conv(&y, b), unstack_conv(&gx, b));
    let lanes = FusedParameter::of(fused, b);
    for (i, m) in models.iter().enumerate() {
        let (yi, gxi) = run(m, inputs[i].clone());
        prop_assert!(bits(&ys[i]) == bits(&yi), "model {i}: output");
        prop_assert!(bits(&gxs[i]) == bits(&gxi), "model {i}: input gradient");
        let params = m.parameters();
        prop_assert_eq!(params.len(), lanes.len());
        for (j, (lane, p)) in lanes.iter().zip(&params).enumerate() {
            prop_assert!(
                bits(&lane.model_grad_slice(i)) == bits(&p.grad_cloned()),
                "model {i}: parameter {j} gradient"
            );
        }
    }
    Ok(())
}

/// The three fused update rules as the tensor-op compositions they were
/// before the one-pass lane kernels (`hfta_nn::{sgd,adam,adadelta}_update`)
/// replaced them: per-model hyper-parameters broadcast as a
/// `[dim0, 1, ..., 1]` tensor (Figure 1), one temporary per operator. Kept
/// here, test-side only, as the oracle the kernels must match bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    Sgd,
    Adam,
    Adadelta,
}

struct Oracle {
    rule: Rule,
    b: usize,
    lr: Vec<f32>,
    /// Per-model momentum (SGD) or rho (Adadelta); unused by Adam.
    aux: Vec<f32>,
    value: Tensor,
    state: [Tensor; 2],
    t: u64,
    quarantined: Vec<bool>,
}

fn zero_lane(t: &mut Tensor, b: usize, lane: usize) {
    let chunk = t.numel() / b;
    t.as_mut_slice()[lane * chunk..(lane + 1) * chunk].fill(0.0);
}

impl Oracle {
    /// `values` broadcast over the model axis of the fused parameter.
    fn expand(&self, values: &[f32]) -> Tensor {
        let mut dims = vec![1; self.value.rank()];
        dims[0] = self.value.dim(0);
        let chunk = dims[0] / self.b;
        let flat = values.iter().flat_map(|&v| vec![v; chunk]).collect();
        Tensor::from_vec(flat, dims)
    }

    fn quarantine(&mut self, lane: usize) {
        self.quarantined[lane] = true;
        for s in &mut self.state {
            zero_lane(s, self.b, lane);
        }
    }

    fn step(&mut self, grad: &Tensor) {
        let mut g = grad.clone();
        for lane in (0..self.b).filter(|&l| self.quarantined[l]) {
            zero_lane(&mut g, self.b, lane);
        }
        let (lr, aux) = (self.expand(&self.lr), self.expand(&self.aux));
        let [s0, s1] = &mut self.state;
        let update = match self.rule {
            Rule::Sgd if self.aux.iter().all(|&m| m == 0.0) => g.mul(&lr),
            Rule::Sgd => {
                *s0 = s0.mul(&aux).add(&g);
                s0.mul(&lr)
            }
            Rule::Adam => {
                let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8);
                self.t += 1;
                let bc1 = 1.0 - beta1.powi(self.t as i32);
                let bc2 = 1.0 - beta2.powi(self.t as i32);
                s0.lerp_assign(&g, beta1, 1.0 - beta1);
                s1.lerp_assign(&g.square(), beta2, 1.0 - beta2);
                let (m_hat, v_hat) = (s0.div_scalar(bc1), s1.div_scalar(bc2));
                m_hat.div(&v_hat.sqrt().add_scalar(eps)).mul(&lr)
            }
            Rule::Adadelta => {
                let eps = 1e-6;
                let rho = aux;
                let one_minus_rho = rho.neg().add_scalar(1.0);
                *s0 = s0.mul(&rho).add(&g.square().mul(&one_minus_rho));
                let delta = s1
                    .add_scalar(eps)
                    .sqrt()
                    .div(&s0.add_scalar(eps).sqrt())
                    .mul(&g);
                *s1 = s1.mul(&rho).add(&delta.square().mul(&one_minus_rho));
                delta.mul(&lr)
            }
        };
        self.value.add_assign_scaled(&update, -1.0);
    }
}

/// One generated optimizer scenario; everything else derives from `seed`.
#[derive(Debug, Clone, Copy)]
struct OptimCase {
    seed: u64,
    rule: Rule,
    rank: usize,
    b: usize,
    steps: usize,
    /// Lane quarantined before step `.1` (skipped when the step never runs).
    quarantine: (usize, usize),
    /// Lane whose gradient is NaN / +-inf from step `.1` on.
    poison: (usize, usize),
}

/// Drives the real fused optimizer and the oracle through `case` in
/// lockstep, asserting equal parameter and state bits after every step;
/// returns the final parameter + state bits. `poisoned = false` feeds the
/// poison lane its finite gradient instead.
fn run_optimizer_case(case: OptimCase, poisoned: bool) -> Result<Vec<Vec<u32>>, String> {
    let OptimCase { rule, b, .. } = case;
    let mut rng = Rng::seed_from(case.seed);
    let mut dims: Vec<usize> = (0..case.rank).map(|_| 1 + rng.below(3)).collect();
    dims[0] *= b;
    let lr: Vec<f32> = (0..b).map(|_| rng.uniform(1e-3, 0.5)).collect();
    let aux: Vec<f32> = (0..b)
        .map(|_| match (rule, rng.below(3)) {
            (Rule::Sgd, 0) => 0.0,
            (Rule::Sgd, _) => rng.uniform(0.1, 0.95),
            _ => rng.uniform(0.5, 0.99),
        })
        .collect();
    let init = rng.randn(dims.clone());
    let fused = FusedParameter {
        param: Parameter::new(init.clone(), "wf"),
        b,
    };
    let (params, lrs, auxs) = (
        vec![fused.clone()],
        PerModel::new(lr.clone()),
        PerModel::new(aux.clone()),
    );
    let oracle = Oracle {
        rule,
        b,
        lr,
        aux,
        state: [init.zeros_like(), init.zeros_like()],
        value: init,
        t: 0,
        quarantined: vec![false; b],
    };
    match rule {
        Rule::Sgd => {
            let opt = FusedSgd::with_momenta(params, lrs, auxs).unwrap();
            lockstep(case, poisoned, opt, oracle, &fused, rng, &dims)
        }
        Rule::Adam => {
            let opt = FusedAdam::new(params, lrs).unwrap();
            lockstep(case, poisoned, opt, oracle, &fused, rng, &dims)
        }
        Rule::Adadelta => {
            let opt = FusedAdadelta::new(params, lrs, auxs, 1e-6).unwrap();
            lockstep(case, poisoned, opt, oracle, &fused, rng, &dims)
        }
    }
}

/// The lockstep loop of [`run_optimizer_case`] over one update rule.
fn lockstep<U: Update>(
    case: OptimCase,
    poisoned: bool,
    mut opt: FusedOptimizer<U>,
    mut oracle: Oracle,
    fused: &FusedParameter,
    mut rng: Rng,
    dims: &[usize],
) -> Result<Vec<Vec<u32>>, String> {
    let b = case.b;
    let (q_lane, q_step) = (case.quarantine.0 % b, case.quarantine.1);
    let (p_lane, p_step) = (case.poison.0 % b, case.poison.1);
    let chunk = oracle.value.numel() / b;
    for step in 0..case.steps {
        if step == q_step {
            opt.quarantine(q_lane);
            oracle.quarantine(q_lane);
        }
        let mut grad = rng.randn(dims.to_vec());
        if poisoned && step >= p_step {
            let lane = &mut grad.as_mut_slice()[p_lane * chunk..(p_lane + 1) * chunk];
            for (i, g) in lane.iter_mut().enumerate() {
                *g = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
            }
        }
        fused
            .param
            .update_grad(|g| g.as_mut_slice().copy_from_slice(grad.as_slice()));
        opt.step();
        oracle.step(&grad);
        prop_assert!(
            bits(&fused.param.value()) == bits(&oracle.value),
            "{case:?}: value differs from the oracle at step {step}"
        );
        for slot in 0..opt.state_slots() {
            prop_assert!(
                bits(opt.state(0, slot)) == bits(&oracle.state[slot]),
                "{case:?}: state slot {slot} differs from the oracle at step {step}"
            );
        }
    }
    let mut out = vec![bits(&fused.param.value())];
    out.extend((0..opt.state_slots()).map(|slot| bits(opt.state(0, slot))));
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_conv2d_identity(
        seed in 0u64..1000,
        b in 1usize..4,
        cin in 1usize..3,
        cout in 1usize..3,
        groups in 1usize..3,
        kernel in 1usize..4,
        stride in 1usize..3,
        bias in any::<bool>(),
    ) {
        // Conv2d and ConvTranspose2d share `Conv2dCfg`: one case checks both.
        let mut rng = Rng::seed_from(seed);
        let cfg = Conv2dCfg::new(cin * groups, cout * groups, kernel)
            .stride(stride)
            .padding(kernel / 2)
            .groups(groups)
            .bias(bias);
        let inputs: Vec<Tensor> = (0..b).map(|_| rng.randn([2, cin * groups, 5, 5])).collect();
        let convs: Vec<Conv2d> = (0..b).map(|_| Conv2d::new(cfg, &mut rng.split())).collect();
        assert_lanes_bitwise(&convs, &fuse_conv2d(&convs).unwrap(), &inputs)?;
        let deconvs: Vec<ConvTranspose2d> = (0..b)
            .map(|_| ConvTranspose2d::new(cfg, &mut rng.split()))
            .collect();
        assert_lanes_bitwise(&deconvs, &fuse_conv_transpose2d(&deconvs).unwrap(), &inputs)?;
    }

    #[test]
    fn fused_conv1d_identity(
        seed in 0u64..1000,
        b in 1usize..5,
        cin in 1usize..4,
        cout in 1usize..5,
        groups in 1usize..3,
        kernel in 1usize..4,
        stride in 1usize..3,
    ) {
        let mut rng = Rng::seed_from(seed);
        let models: Vec<Conv1d> = (0..b)
            .map(|_| {
                let (ci, co) = (cin * groups, cout * groups);
                Conv1d::new(ci, co, kernel, stride, kernel / 2, groups, &mut rng.split())
            })
            .collect();
        let inputs: Vec<Tensor> = (0..b).map(|_| rng.randn([2, cin * groups, 10])).collect();
        assert_lanes_bitwise(&models, &fuse_conv1d(&models).unwrap(), &inputs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_linear_identity(seed in 0u64..1000, b in 1usize..5, fin in 1usize..6, fout in 1usize..6) {
        let mut rng = Rng::seed_from(seed);
        let models: Vec<Linear> = (0..b)
            .map(|_| Linear::new(LinearCfg::new(fin, fout), &mut rng.split()))
            .collect();
        let fused = FusedLinear::from_models(&models).unwrap();
        let inputs: Vec<Tensor> = (0..b).map(|_| rng.randn([3, fin])).collect();
        let tape = Tape::new();
        let fx = tape.leaf(stack_array(&inputs).unwrap());
        let outs = unstack_array(&fused.forward(&fx).value(), b);
        for (i, m) in models.iter().enumerate() {
            let tape = Tape::new();
            let y = m.forward(&tape.leaf(inputs[i].clone())).value();
            prop_assert!(outs[i].allclose(&y, 1e-3));
        }
    }

    #[test]
    fn fused_batchnorm_identity(
        seed in 0u64..1000,
        b in 1usize..4,
        c in 1usize..4,
        spatial in 0usize..3,
        training in any::<bool>(),
    ) {
        let mut rng = Rng::seed_from(seed);
        // Distinct per-model affine weights and running statistics, so eval
        // mode reads each lane's own.
        let models: Vec<BatchNorm> = (0..b)
            .map(|_| {
                let mean = rng.randn([c]).to_vec();
                let var = rng.rand([c], 0.5, 2.0).to_vec();
                BatchNorm::from_parts(rng.randn([c]), rng.randn([c]), mean, var)
            })
            .collect();
        let fused = fuse_batch_norm(&models).unwrap();
        for m in models.iter().chain([&fused]) {
            m.set_training(training);
        }
        let mut dims = vec![4, c];
        dims.extend(vec![3; spatial]);
        let inputs: Vec<Tensor> = (0..b).map(|_| rng.randn(dims.clone())).collect();
        assert_lanes_bitwise(&models, &fused, &inputs)?;
        let (mean, var) = (fused.running_mean(), fused.running_var());
        for (i, m) in models.iter().enumerate() {
            let lane = i * c..(i + 1) * c;
            let lane_mean = bits_of(&mean[lane.clone()]);
            prop_assert!(lane_mean == bits_of(&m.running_mean()), "model {i}: running mean");
            prop_assert!(bits_of(&var[lane]) == bits_of(&m.running_var()), "model {i}: running var");
        }
    }

    #[test]
    fn unfuse_round_trips_weights(seed in 0u64..1000, b in 1usize..5) {
        let mut rng = Rng::seed_from(seed);
        let cfg = Conv2dCfg::new(2, 4, 3);
        let models: Vec<Conv2d> = (0..b).map(|_| Conv2d::new(cfg, &mut rng.split())).collect();
        let fused = fuse_conv2d(&models).unwrap();
        let lanes = FusedParameter::of(&fused, b);
        for (i, m) in models.iter().enumerate() {
            prop_assert_eq!(m.weight.value_cloned(), lanes[0].model_slice(i));
        }
        let linears: Vec<Linear> = (0..b)
            .map(|_| Linear::new(LinearCfg::new(3, 2), &mut rng.split()))
            .collect();
        let flin = FusedLinear::from_models(&linears).unwrap();
        for (m, u) in linears.iter().zip(flin.unfuse()) {
            prop_assert_eq!(m.weight.value_cloned(), u.weight.value_cloned());
        }
    }

    #[test]
    fn loss_scaling_reconstructs_serial_gradients(
        seed in 0u64..1000,
        b in 1usize..5,
        n in 1usize..5,
        c in 2usize..5,
    ) {
        let mut rng = Rng::seed_from(seed);
        let weights: Vec<Parameter> = (0..b)
            .map(|i| Parameter::new(rng.randn([4, c]), format!("w{i}")))
            .collect();
        let xs: Vec<Tensor> = (0..b).map(|_| rng.randn([n, 4])).collect();
        let ys: Vec<Vec<usize>> = (0..b)
            .map(|_| (0..n).map(|_| rng.below(c)).collect())
            .collect();
        // Serial gradients.
        let mut serial = Vec::new();
        for ((w, x), y) in weights.iter().zip(&xs).zip(&ys) {
            w.zero_grad();
            let tape = Tape::new();
            tape.leaf(x.clone())
                .matmul(&tape.param(w))
                .cross_entropy(y)
                .backward();
            serial.push(w.grad_cloned());
        }
        // Fused gradients via the scaled loss.
        let stacked = {
            let vs: Vec<_> = weights.iter().map(|w| w.value_cloned().unsqueeze(0)).collect();
            Parameter::new(Tensor::concat(&vs.iter().collect::<Vec<_>>(), 0), "wf")
        };
        let tape = Tape::new();
        let fx = tape.leaf(stack_array(&xs).unwrap());
        let logits = fx.bmm(&tape.param(&stacked));
        let targets: Vec<usize> = ys.iter().flatten().copied().collect();
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        let fused = stacked.grad_cloned();
        for (i, expected) in serial.iter().enumerate() {
            let gi = fused.narrow(0, i, 1).squeeze(0);
            prop_assert!(
                gi.allclose(expected, 1e-4),
                "model {i} grad diff {}",
                gi.max_abs_diff(expected)
            );
        }
    }

    #[test]
    fn fused_adam_matches_serial_over_random_steps(
        seed in 0u64..1000,
        b in 1usize..4,
        steps in 1usize..6,
    ) {
        let mut rng = Rng::seed_from(seed);
        let serial: Vec<Parameter> = (0..b)
            .map(|i| Parameter::new(rng.randn([3]), format!("w{i}")))
            .collect();
        let lrs: Vec<f32> = (0..b).map(|i| 0.1 / (i + 1) as f32).collect();
        let stacked = {
            let vs: Vec<_> = serial.iter().map(|p| p.value_cloned()).collect();
            FusedParameter {
                param: Parameter::new(Tensor::concat(&vs.iter().collect::<Vec<_>>(), 0), "wf"),
                b,
            }
        };
        let mut serial_opts: Vec<Adam> = serial
            .iter()
            .zip(&lrs)
            .map(|(p, &lr)| Adam::new(vec![p.clone()], lr))
            .collect();
        let mut fused_opt =
            FusedAdam::new(vec![stacked.clone()], PerModel::new(lrs.clone())).unwrap();
        for _ in 0..steps {
            let grads: Vec<Tensor> = (0..b).map(|_| rng.randn([3])).collect();
            for (p, g) in serial.iter().zip(&grads) {
                p.zero_grad();
                p.accumulate_grad(g);
            }
            stacked.param.zero_grad();
            stacked
                .param
                .accumulate_grad(&Tensor::concat(&grads.iter().collect::<Vec<_>>(), 0));
            for o in &mut serial_opts {
                o.step();
            }
            fused_opt.step();
        }
        for (i, p) in serial.iter().enumerate() {
            prop_assert!(bits(&stacked.model_slice(i)) == bits(&p.value()), "model {i}");
        }
    }

    #[test]
    fn op_spec_fusion_is_associative_in_width(b1 in 1usize..4, b2 in 1usize..4) {
        // Fusing b1 then b2 equals fusing b1 * b2 at once.
        for op in [
            OpSpec::conv2d(Conv2dCfg::new(3, 8, 3).padding(1)).at(&[3, 8, 8], 4).unwrap(),
            linear_op(8, 16, 4),
        ] {
            prop_assert_eq!(op.fused(b1).fused(b2), op.fused(b1 * b2));
        }
    }

    #[test]
    fn fuse_checker_accepts_replicas_rejects_mutants(copies in 1usize..6, mutate in 0usize..3) {
        let mut specs = vec![linear_op(8, 16, 4); copies];
        prop_assert!(fuse(&specs).is_ok());
        if copies > 1 {
            specs[copies - 1] = match mutate {
                0 => linear_op(9, 16, 4),
                1 => linear_op(8, 17, 4),
                _ => OpSpec::relu().at(&[10], 1).unwrap(),
            };
            prop_assert!(fuse(&specs).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lane_kernels_equal_the_tensor_op_oracle_bit_for_bit(
        seed in 0u64..10_000,
        rule in 0usize..3,
        rank in 1usize..5,
        width in 0usize..4,
        steps in 1usize..7,
        q_lane in 0usize..6,
        q_step in 0usize..8,
        p_lane in 0usize..6,
        p_step in 0usize..6,
    ) {
        let rule = [Rule::Sgd, Rule::Adam, Rule::Adadelta][rule];
        let b = [1, 2, 3, 6][width];
        let (quarantine, poison) = ((q_lane, q_step), (p_lane, p_step));
        let case = OptimCase { seed, rule, rank, b, steps, quarantine, poison };
        let poisoned = run_optimizer_case(case, true)?;
        let clean = run_optimizer_case(case, false)?;
        // Lanes never mix: poisoning one lane's gradient leaves every other
        // lane's parameter and state bits exactly where the clean run put them.
        let p_lane = p_lane % b;
        for (with, without) in poisoned.iter().zip(&clean) {
            let chunk = with.len() / b;
            for lane in (0..b).filter(|&l| l != p_lane) {
                let r = lane * chunk..(lane + 1) * chunk;
                prop_assert!(with[r.clone()] == without[r], "{case:?}: lane {lane} moved");
            }
        }
    }
}
