//! Property test of the checkpoint/restore contract behind `hfta-serve`:
//! snapshotting every lane of a fused array (`save_lane`), decoding the
//! bytes (`load_lane`), and splicing the decoded states into a *fresh*
//! array must continue training bit-identically to an array that was
//! never interrupted — for SGD-with-momentum AND Adam, across random
//! widths, checkpoint points, and resume lengths. The CI thread matrix
//! runs this at `HFTA_NUM_THREADS` 1 and 4, so the property also pins
//! down thread-count independence of the restored trajectory.

use hfta_core::ops::{FusedLinear, FusedModule, FusedParameter};
use hfta_core::optim::{FusedAdam, FusedOptimizer, FusedSgd, PerModel, Update};
use hfta_core::snapshot::{load_lane, save_lane};
use hfta_core::surgery::{extract_lane, splice_lanes, LaneState};
use hfta_nn::layers::LinearCfg;
use hfta_tensor::Rng;
use proptest::prelude::*;

fn build(b: usize, seed: u64) -> Vec<FusedParameter> {
    let mut rng = Rng::seed_from(seed);
    FusedLinear::new(b, LinearCfg::new(4, 3), &mut rng).fused_parameters()
}

/// Distinct per-lane learning rates, so lanes have genuinely different
/// trajectories and a lane mix-up cannot cancel out.
fn lrs(b: usize) -> PerModel {
    PerModel::new((0..b).map(|i| 0.05 / (i + 1) as f32).collect())
}

/// Deterministic gradient for global step `s`: depends only on the step
/// index and the parameter shapes, never on when or where it is applied.
fn apply_grad(params: &[FusedParameter], s: u64) {
    let mut rng = Rng::seed_from(0xC0FF_EE00 ^ (s.wrapping_mul(0x9E37_79B9)));
    for p in params {
        let dims = p.param.value().dims().to_vec();
        p.param.zero_grad();
        p.param.accumulate_grad(&rng.randn(dims));
    }
}

fn param_bits(params: &[FusedParameter]) -> Vec<u32> {
    params
        .iter()
        .flat_map(|p| {
            p.param
                .value()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn state_bits<U: Update>(params: &[FusedParameter], opt: &FusedOptimizer<U>) -> Vec<u32> {
    (0..params.len())
        .flat_map(|pi| {
            (0..opt.state_slots())
                .flat_map(|slot| {
                    opt.state(pi, slot)
                        .as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Trains `pre + post` steps straight through, and `pre` steps, a
/// snapshot round trip of every lane into a fresh array, then `post`
/// steps; the two must end bit-identical.
fn restore_continues<U: Update>(
    make: impl Fn(Vec<FusedParameter>, PerModel) -> FusedOptimizer<U>,
    seed: u64,
    b: usize,
    pre: u64,
    post: u64,
) -> Result<(), String> {
    // Uninterrupted reference: pre + post steps straight through.
    let ref_params = build(b, seed);
    let mut ref_opt = make(ref_params.clone(), lrs(b));
    for s in 0..pre + post {
        apply_grad(&ref_params, s);
        ref_opt.step();
    }

    // Checkpointed run: train `pre` steps, snapshot every lane to
    // bytes, decode, splice into a freshly built array with different
    // init (everything must be overwritten), and train `post` more.
    let src_params = build(b, seed);
    let mut src_opt = make(src_params.clone(), lrs(b));
    for s in 0..pre {
        apply_grad(&src_params, s);
        src_opt.step();
    }
    let restored: Vec<LaneState> = (0..b)
        .map(|lane| {
            let bytes = save_lane(&extract_lane(&src_params, &src_opt, lane));
            load_lane(&bytes).expect("snapshot decodes")
        })
        .collect();
    drop(src_opt);

    let dst_params = build(b, seed ^ 0xDEAD);
    let mut dst_opt = make(dst_params.clone(), lrs(b));
    splice_lanes(&restored, &dst_params, &mut dst_opt);
    if U::COUNTS_STEPS {
        // Adam's bias correction depends on the restored counter.
        prop_assert_eq!(dst_opt.step_count(), pre);
    }
    for s in pre..pre + post {
        apply_grad(&dst_params, s);
        dst_opt.step();
    }

    prop_assert_eq!(param_bits(&dst_params), param_bits(&ref_params));
    prop_assert_eq!(
        state_bits(&dst_params, &dst_opt),
        state_bits(&ref_params, &ref_opt)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn snapshot_restore_continues_bit_identically(
        seed in 0u64..500,
        b in 1usize..6,
        pre in 0u64..5,
        post in 1u64..5,
        adam in any::<bool>(),
    ) {
        if adam {
            let make = |p, lrs| FusedAdam::new(p, lrs).unwrap();
            restore_continues(make, seed, b, pre, post)?;
        } else {
            let make = |p, lrs| FusedSgd::new(p, lrs, 0.9).unwrap();
            restore_continues(make, seed, b, pre, post)?;
        }
    }
}
