//! Pins the bits of the fused optimizers through quarantine and lane
//! surgery: for SGD (plain and with per-lane momenta), Adam and Adadelta
//! (per-lane `rho`) over a width-3 set of a conv weight, a bias and a
//! parameter of more than 64k elements, and for the planned optimizer on
//! a four-lane mixed discriminator plan, an FNV-1a digest of
//!
//! - the parameter values, every optimizer-state slot and the step count
//!   after four steps with lane 1 quarantined before the third;
//! - the `snapshot::save_lane` bytes of every extracted lane;
//! - the same again after splicing the lanes, permuted, into a fresh
//!   optimizer and taking two more steps.
//!
//! The constants were taken once, before the fused optimizers became one
//! type; slot order, the per-rule step count and the per-block segment
//! order of a planned lane state all show up here as a changed digest.

use hfta_core::ops::FusedParameter;
use hfta_core::optim::*;
use hfta_core::planned::{per_lane_ce, PlannedArray, PlannedOptimizer};
use hfta_core::snapshot::save_lane;
use hfta_core::surgery::{extract_lane, splice_lanes, LaneState};
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_nn::Parameter;
use hfta_plan::{FusionPlan, ModelGraph, OpSpec};
use hfta_tensor::{Rng, Tensor};

const B: usize = 3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rank() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        for x in t.as_slice() {
            self.u64(u64::from(x.to_bits()));
        }
    }
}

/// A conv weight, a bias and an 80k-element-per-lane parameter, `B` lanes each.
fn params(seed: u64) -> Vec<FusedParameter> {
    let mut rng = Rng::seed_from(seed);
    [vec![B * 4, 5, 3, 3], vec![B * 4], vec![B * 2, 40_000]]
        .into_iter()
        .map(|dims| FusedParameter {
            param: Parameter::new(rng.randn(dims), "w"),
            b: B,
        })
        .collect()
}

fn set_grads(params: &[FusedParameter], rng: &mut Rng) {
    for p in params {
        let g = rng.randn(p.param.value().dims().to_vec());
        p.param.zero_grad();
        p.param.accumulate_grad(&g);
    }
}

fn lrs() -> PerModel {
    PerModel::new(vec![0.1, 0.01, 0.05])
}

/// Digests the optimizer's parameters, state slots and step count.
macro_rules! digest_opt {
    ($h:expr, $params:expr, $opt:expr) => {{
        for (pi, p) in $params.iter().enumerate() {
            $h.tensor(&p.param.value());
            for slot in 0..$opt.state_slots() {
                $h.tensor($opt.state(pi, slot));
            }
        }
        $h.u64($opt.step_count());
    }};
}

/// Four steps (lane 1 quarantined before the third), extract every lane,
/// splice them as `[2, 0, 1]` into a fresh optimizer, two more steps.
macro_rules! pin_rule {
    ($make:expr) => {{
        let make = $make;
        let mut h = Fnv::new();
        let mut rng = Rng::seed_from(2);
        let src = params(1);
        let mut opt = make(src.clone());
        for step in 0..4 {
            if step == 2 {
                opt.quarantine(1);
            }
            set_grads(&src, &mut rng);
            opt.step();
        }
        digest_opt!(h, src, opt);
        let lanes: Vec<LaneState> = (0..B).map(|l| extract_lane(&src, &opt, l)).collect();
        for lane in &lanes {
            h.bytes(&save_lane(lane));
        }
        let dst = params(3);
        let mut fresh = make(dst.clone());
        let permuted = [lanes[2].clone(), lanes[0].clone(), lanes[1].clone()];
        splice_lanes(&permuted, &dst, &mut fresh);
        for _ in 0..2 {
            set_grads(&dst, &mut rng);
            fresh.step();
        }
        digest_opt!(h, dst, fresh);
        for l in 0..B {
            h.bytes(&save_lane(&extract_lane(&dst, &fresh, l)));
        }
        h.0
    }};
}

#[test]
fn fused_optimizer_bits_are_pinned() {
    let got = [
        pin_rule!(|p| FusedSgd::new(p, lrs(), 0.0).unwrap()),
        pin_rule!(|p| {
            FusedSgd::with_momenta(p, lrs(), PerModel::new(vec![0.9, 0.0, 0.5])).unwrap()
        }),
        pin_rule!(|p| FusedAdam::new(p, lrs()).unwrap()),
        pin_rule!(|p| {
            let rho = PerModel::new(vec![0.9, 0.8, 0.95]);
            FusedAdadelta::new(p, PerModel::new(vec![1.0, 0.5, 0.25]), rho, 1e-6).unwrap()
        }),
    ];
    let want: [u64; 4] = [
        0xd32e4728700e2929,
        0xfed60abc0c2a9a7f,
        0x05f871418f460d95,
        0x91a8045c006869bf,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

/// A small DCGAN-style discriminator with `extra` shape-preserving
/// refinement convs after the stem.
fn discriminator(extra: usize) -> ModelGraph {
    let w = 4;
    let mut ops = vec![
        OpSpec::conv2d(Conv2dCfg::new(3, w, 4).stride(2).padding(1).bias(false)),
        OpSpec::leaky_relu(0.2),
    ];
    for _ in 0..extra {
        ops.push(OpSpec::conv2d(
            Conv2dCfg::new(w, w, 3).stride(1).padding(1).bias(false),
        ));
        ops.push(OpSpec::leaky_relu(0.2));
    }
    ops.extend([
        OpSpec::conv2d(Conv2dCfg::new(w, 2 * w, 4).stride(2).padding(1).bias(false)),
        OpSpec::batch_norm(2 * w),
        OpSpec::leaky_relu(0.2),
        OpSpec::flatten(),
        OpSpec::linear(LinearCfg::new(2 * w * 2 * 2, 2)),
    ]);
    ModelGraph::new(format!("d+{extra}"), vec![3, 8, 8], ops)
}

const LANES: usize = 4;

fn mixed_plan() -> (Vec<ModelGraph>, FusionPlan) {
    let graphs: Vec<ModelGraph> = [0, 1, 0, 2].into_iter().map(discriminator).collect();
    let plan = FusionPlan::plan(&graphs).unwrap();
    assert!(plan.fused_fraction() > 0.0 && plan.fused_fraction() < 1.0);
    (graphs, plan)
}

fn build(graphs: &[ModelGraph], plan: &FusionPlan, seed: u64) -> PlannedArray {
    let seeds: Vec<u64> = (0..LANES as u64).map(|l| seed + l).collect();
    PlannedArray::build(graphs, plan, &seeds).unwrap()
}

/// One forward and backward pass over a fresh random batch.
fn backward(array: &PlannedArray, rng: &mut Rng) {
    let inputs: Vec<Tensor> = (0..LANES).map(|_| rng.randn([2, 3, 8, 8])).collect();
    let targets: Vec<Vec<usize>> = (0..LANES)
        .map(|_| vec![rng.below(2), rng.below(2)])
        .collect();
    let (_tape, outs) = array.forward(&inputs).unwrap();
    let (_, total) = per_lane_ce(&outs, &targets);
    total.backward();
}

/// Trains the mixed plan with lane 1 quarantined before the third step,
/// digests every extracted lane, splices lanes 0 and 2 (same program)
/// swapped into a fresh array's optimizer and trains two more steps.
macro_rules! pin_planned {
    ($make:expr) => {{
        let make = $make;
        let (graphs, plan) = mixed_plan();
        let lr = PerModel::new(vec![0.02, 0.01, 0.03, 0.015]);
        let mut rng = Rng::seed_from(5);
        let mut h = Fnv::new();
        let src = build(&graphs, &plan, 300);
        let mut opt = make(&src, &lr);
        for step in 0..4 {
            if step == 2 {
                opt.quarantine(1);
            }
            opt.zero_grad();
            backward(&src, &mut rng);
            opt.step();
        }
        let states: Vec<LaneState> = (0..LANES).map(|l| opt.extract_lane(&src, l)).collect();
        for state in &states {
            h.bytes(&save_lane(state));
        }
        let dst = build(&graphs, &plan, 400);
        let mut fresh = make(&dst, &lr);
        let swapped = [
            states[2].clone(),
            states[1].clone(),
            states[0].clone(),
            states[3].clone(),
        ];
        fresh.splice_lanes(&dst, &swapped);
        for _ in 0..2 {
            fresh.zero_grad();
            backward(&dst, &mut rng);
            fresh.step();
        }
        for l in 0..LANES {
            h.bytes(&save_lane(&fresh.extract_lane(&dst, l)));
        }
        h.u64(fresh.step_count());
        h.0
    }};
}

#[test]
fn planned_optimizer_bits_are_pinned() {
    let got = [
        pin_planned!(|a: &PlannedArray, lr: &PerModel| PlannedOptimizer::sgd(a, lr, 0.9).unwrap()),
        pin_planned!(|a: &PlannedArray, lr: &PerModel| PlannedOptimizer::adam(a, lr).unwrap()),
    ];
    let want: [u64; 2] = [0x6569f90ff3041189, 0x2e3655095bad395d];
    assert_eq!(got, want, "{got:#018x?}");
}
