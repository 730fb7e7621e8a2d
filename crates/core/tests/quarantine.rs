//! The hfta-scope quarantine acceptance test: NaN-seeding one model of a
//! B-way array and quarantining it must leave the surviving B − 1 models
//! **bit-identical** to a (B − 1)-way run that never contained the bad
//! model.
//!
//! This is a stronger claim than the Figure-3 fused-vs-serial equivalence
//! (which holds to fp32 round-off): here both runs are fused, every fused
//! op computes each lane independently (per-batch `baddbmm`, per-lane
//! elementwise optimizer math, the §3.2-scaled loss whose per-model
//! gradients do not depend on B), and the kernels are bit-deterministic —
//! so the comparison is exact `f32` equality, not `allclose`.

use hfta_core::format::stack_array;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{FusedLinear, FusedModule, FusedParameter};
use hfta_core::optim::{FusedAdam, FusedOptimizer, FusedSgd, PerModel, Update};
use hfta_core::scope::{per_model_ce_losses, poison_model_lane, ScopeMonitor, SentinelCfg};
use hfta_core::surgery::{extract_lane, splice_lanes, LaneState};
use hfta_nn::layers::LinearCfg;
use hfta_nn::{Module, Tape, Var};
use hfta_telemetry::SentinelKind;
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

const STEPS: usize = 5;
const POISON_STEP: u64 = 2;
const N: usize = 5;
const F_IN: usize = 6;
const CLASSES: usize = 4;

struct RunResult {
    /// Final fused weight storage, model-major.
    weight: Vec<f32>,
    /// Final fused bias storage, model-major.
    bias: Vec<f32>,
    /// `losses[t][m]` = model `m`'s own loss at step `t`.
    losses: Vec<Vec<f32>>,
    /// Fused weight storage snapshot after each step.
    weight_history: Vec<Vec<f32>>,
    monitor: ScopeMonitor,
}

/// Stacks per-model `[N, F]` inputs and runs the fused forward pass.
fn forward(model: &FusedLinear, xs: &[Tensor]) -> (Tape, Var) {
    let tape = Tape::new();
    let logits = model.forward(&tape.leaf(stack_array(xs).unwrap()));
    (tape, logits)
}

/// Trains a fused array on fixed per-model batches; when `poison` is set,
/// NaN-seeds that model's gradient lane after `backward()` at step
/// `POISON_STEP` (the sentinel then quarantines it).
fn train(
    model: FusedLinear,
    lrs: &[f32],
    batches: &[(Vec<Tensor>, Vec<Vec<usize>>)],
    poison: Option<usize>,
) -> RunResult {
    let b = lrs.len();
    let params = model.fused_parameters();
    let mut opt = FusedSgd::new(params.clone(), PerModel::new(lrs.to_vec()), 0.9).unwrap();
    let mut monitor = ScopeMonitor::new(b, SentinelCfg::default());
    let mut losses = Vec::with_capacity(STEPS);
    let mut weight_history = Vec::with_capacity(STEPS);
    for (step, (xs, ys)) in batches.iter().enumerate() {
        opt.zero_grad();
        let (_tape, logits) = forward(&model, xs);
        let targets: Vec<usize> = ys.iter().flatten().copied().collect();
        losses.push(per_model_ce_losses(&logits, &targets));
        let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
        loss.backward();
        if step as u64 == POISON_STEP {
            if let Some(victim) = poison {
                poison_model_lane(&params, victim);
            }
        }
        monitor.after_backward(step as u64, losses.last().unwrap(), &params, &mut opt);
        opt.step();
        monitor.after_step(step as u64, &params);
        weight_history.push(model.weight.value_cloned().to_vec());
    }
    RunResult {
        weight: model.weight.value_cloned().to_vec(),
        bias: model.bias.as_ref().unwrap().value_cloned().to_vec(),
        losses,
        weight_history,
        monitor,
    }
}

#[test]
fn quarantined_survivors_match_a_smaller_array_bitwise() {
    let mut rng = Rng::seed_from(0xC0FFEE);
    // Build the 3-way array, then a 2-way array from the *same* first two
    // per-model initializations.
    let fused3 = FusedLinear::new(3, LinearCfg::new(F_IN, CLASSES), &mut rng);
    let members = fused3.unfuse();
    let fused2 = FusedLinear::from_models(&members[..2]).unwrap();

    // Fixed per-model data; the 2-way run sees models 0 and 1's batches.
    let batches3: Vec<(Vec<Tensor>, Vec<Vec<usize>>)> = (0..STEPS)
        .map(|_| {
            let xs: Vec<Tensor> = (0..3).map(|_| rng.randn([N, F_IN])).collect();
            let ys: Vec<Vec<usize>> = (0..3)
                .map(|_| (0..N).map(|_| rng.below(CLASSES)).collect())
                .collect();
            (xs, ys)
        })
        .collect();
    let batches2: Vec<(Vec<Tensor>, Vec<Vec<usize>>)> = batches3
        .iter()
        .map(|(xs, ys)| (xs[..2].to_vec(), ys[..2].to_vec()))
        .collect();

    let lrs3 = [0.2f32, 0.05, 0.1];
    let with_victim = train(fused3, &lrs3, &batches3, Some(2));
    let without_victim = train(fused2, &lrs3[..2], &batches2, None);

    // The sentinel fired exactly once, on model 2, and quarantined it.
    let events = with_victim.monitor.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].model, 2);
    assert_eq!(events[0].step, POISON_STEP);
    assert_eq!(events[0].kind, SentinelKind::NonFiniteGrad);
    assert!(events[0].quarantined);
    assert!(without_victim.monitor.events().is_empty());

    // Survivors' parameters are bit-identical to the 2-way run: exact f32
    // equality over each surviving lane, not allclose.
    let w_lane = with_victim.weight.len() / 3;
    assert_eq!(
        &with_victim.weight[..2 * w_lane],
        &without_victim.weight[..],
        "surviving weight lanes must match the (B-1)-way run bit-for-bit"
    );
    let b_lane = with_victim.bias.len() / 3;
    assert_eq!(
        &with_victim.bias[..2 * b_lane],
        &without_victim.bias[..],
        "surviving bias lanes must match the (B-1)-way run bit-for-bit"
    );

    // Per-model loss curves of the survivors are bit-identical too.
    for (t, (l3, l2)) in with_victim
        .losses
        .iter()
        .zip(&without_victim.losses)
        .enumerate()
    {
        assert_eq!(&l3[..2], &l2[..], "step {t} survivor losses differ");
    }

    // The quarantined model froze: its lane never went NaN (only its
    // gradient did), and from the step before the quarantine onward its
    // weights never move again (the quarantine masked that step's update
    // and every later one).
    assert!(with_victim.weight[2 * w_lane..]
        .iter()
        .all(|v| v.is_finite()));
    let frozen = &with_victim.weight_history[POISON_STEP as usize - 1][2 * w_lane..];
    for t in POISON_STEP as usize..STEPS {
        assert_eq!(
            &with_victim.weight_history[t][2 * w_lane..],
            frozen,
            "victim lane moved at step {t} despite quarantine"
        );
    }
    // ...whereas it was still training before the fault.
    assert_ne!(&with_victim.weight_history[0][2 * w_lane..], frozen);
}

#[test]
fn unquarantined_nan_poisons_its_own_lane_only() {
    // Without quarantine the NaN gradient wrecks the victim's parameters at
    // the next step — but still never crosses into the survivors' lanes.
    let mut rng = Rng::seed_from(42);
    let fused = FusedLinear::new(2, LinearCfg::new(F_IN, CLASSES), &mut rng);
    let params = fused.fused_parameters();
    let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.1), 0.9).unwrap();
    let xs: Vec<Tensor> = (0..2).map(|_| rng.randn([N, F_IN])).collect();
    let targets: Vec<usize> = (0..2 * N).map(|_| rng.below(CLASSES)).collect();
    for _ in 0..2 {
        opt.zero_grad();
        let (_tape, logits) = forward(&fused, &xs);
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        poison_model_lane(&params, 1);
        opt.step(); // no monitor: the NaN reaches the victim's parameters
    }
    let w = fused.weight.value_cloned().to_vec();
    let lane = w.len() / 2;
    assert!(w[..lane].iter().all(|v| v.is_finite()), "survivor poisoned");
    assert!(w[lane..].iter().any(|v| v.is_nan()), "victim should be NaN");
}

// ---------------------------------------------------------------------------
// Lane-surgery property: pack → train → extract → splice → continue is
// invisible to the survivors.
// ---------------------------------------------------------------------------

/// The per-(model, step) batch. Keyed by the model's *identity*, never by
/// array width or lane position — the data-stream contract the scheduler's
/// lane surgery relies on.
fn surgery_batch(seed: u64, id: usize, step: usize) -> (Tensor, Vec<usize>) {
    let mut h = seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_add((step as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
    let mut rng = Rng::seed_from(h);
    let x = rng.randn([N, F_IN]);
    let y = (0..N).map(|_| rng.below(CLASSES)).collect();
    (x, y)
}

/// Trains `model` for global steps `steps`, lane `j` consuming model
/// `ids[j]`'s data stream.
fn train_ids<U: Update>(
    model: &FusedLinear,
    opt: &mut FusedOptimizer<U>,
    seed: u64,
    ids: &[usize],
    steps: std::ops::Range<usize>,
) {
    for step in steps {
        opt.zero_grad();
        let mut xs = Vec::with_capacity(ids.len());
        let mut targets = Vec::with_capacity(ids.len() * N);
        for &id in ids {
            let (x, y) = surgery_batch(seed, id, step);
            xs.push(x);
            targets.extend(y);
        }
        let (_tape, logits) = forward(model, &xs);
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
    }
}

/// Trains a 3-way array for `n1` steps, extracts the survivors in `mask`,
/// splices them into a fresh width-|survivors| array and trains `n2` more
/// steps; every survivor must end bit-identical (parameters *and*
/// optimizer-state lanes, and the step count) to an uninterrupted
/// full-width run. `make` builds the optimizer from parameters and rates.
fn surgery_resumes_survivors<U: Update>(
    make: impl Fn(Vec<FusedParameter>, Vec<f32>) -> FusedOptimizer<U>,
    seed: u64,
    n1: usize,
    n2: usize,
    mask: usize,
) -> Result<(), String> {
    let lrs = [0.2f32, 0.05, 0.1];
    let survivors: Vec<usize> = (0..3).filter(|i| mask & (1 << i) != 0).collect();

    let mut rng = Rng::seed_from(seed);
    let cfg = LinearCfg::new(F_IN, CLASSES);
    let members = FusedLinear::new(3, cfg, &mut rng).unfuse();

    // Uninterrupted reference: width 3 for n1 + n2 steps.
    let reference = FusedLinear::from_models(&members).unwrap();
    let ref_params = reference.fused_parameters();
    let mut ref_opt = make(ref_params.clone(), lrs.to_vec());
    train_ids(&reference, &mut ref_opt, seed, &[0, 1, 2], 0..n1 + n2);

    // Subject: the same width-3 array for the first n1 steps...
    let subject = FusedLinear::from_models(&members).unwrap();
    let sub_params = subject.fused_parameters();
    let mut sub_opt = make(sub_params.clone(), lrs.to_vec());
    train_ids(&subject, &mut sub_opt, seed, &[0, 1, 2], 0..n1);

    // ...then surgery: extract the survivors and splice them into a
    // fresh narrow array (whose own random init and zeroed optimizer
    // state are fully overwritten)...
    let lanes: Vec<LaneState> = survivors
        .iter()
        .map(|&i| extract_lane(&sub_params, &sub_opt, i))
        .collect();
    let packed = FusedLinear::new(survivors.len(), cfg, &mut rng);
    let packed_params = packed.fused_parameters();
    let packed_lrs: Vec<f32> = survivors.iter().map(|&i| lrs[i]).collect();
    let mut packed_opt = make(packed_params.clone(), packed_lrs);
    splice_lanes(&lanes, &packed_params, &mut packed_opt);

    // ...and train the remaining n2 steps on the survivors' streams.
    train_ids(&packed, &mut packed_opt, seed, &survivors, n1..n1 + n2);

    for (lane, &id) in survivors.iter().enumerate() {
        let got = extract_lane(&packed_params, &packed_opt, lane);
        let want = extract_lane(&ref_params, &ref_opt, id);
        prop_assert_eq!(got.step_count, want.step_count);
        for (g, w) in got.params.iter().zip(&want.params) {
            prop_assert!(g.to_vec() == w.to_vec(), "model {} params diverged", id);
        }
        for (gs, ws) in got.opt_state.iter().zip(&want.opt_state) {
            for (g, w) in gs.iter().zip(ws) {
                prop_assert!(
                    g.to_vec() == w.to_vec(),
                    "model {} optimizer state diverged",
                    id
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over random survivor subsets, split points, and both optimizer
    /// families, lane surgery resumes every survivor bit for bit. Adam
    /// additionally checks that [`splice_lanes`] restores the shared step
    /// counter its bias correction depends on.
    #[test]
    fn lane_surgery_resumes_survivors_bitwise(
        seed in 0u64..1000,
        n1 in 1usize..4,
        n2 in 1usize..4,
        mask in 1usize..8,
        adam in 0usize..2,
    ) {
        if adam == 1 {
            let make = |p, lrs| FusedAdam::new(p, PerModel::new(lrs)).unwrap();
            surgery_resumes_survivors(make, seed, n1, n2, mask)?;
        } else {
            let make = |p, lrs| FusedSgd::new(p, PerModel::new(lrs), 0.9).unwrap();
            surgery_resumes_survivors(make, seed, n1, n2, mask)?;
        }
    }
}
