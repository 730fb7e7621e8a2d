//! Property-based tests of planned (partially fused) execution: over
//! random mixed model sets, widths, and update rules (SGD, Adam, and
//! Adadelta with per-lane `rho`), a planner-driven run is bit-identical
//! per lane to the all-serial plan; lane surgery round-trips through
//! serial and sub-width blocks; and quarantining a lane inside fused
//! blocks leaves every other lane bit-identical.

use hfta_core::optim::{AdadeltaUpdate, FusedOptimizer, PerModel, Update};
use hfta_core::planned::{per_lane_ce, PlannedArray, PlannedOptimizer};
use hfta_core::surgery::LaneState;
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_plan::{FusionPlan, ModelGraph, OpSpec};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

const SIDE: usize = 4;
const CLASSES: usize = 3;

/// A small conv-net family: shared stem and head, with `refine`
/// shape-preserving refinement blocks in the middle and a per-arch
/// channel width. Lanes sharing `(channels, refine)` are isomorphic;
/// others fuse only where tokens happen to agree.
fn arch(channels: usize, refine: usize) -> Vec<OpSpec> {
    let mut ops = vec![
        OpSpec::conv2d(
            Conv2dCfg::new(2, channels, 3)
                .stride(1)
                .padding(1)
                .bias(false),
        ),
        OpSpec::relu(),
    ];
    for _ in 0..refine {
        ops.push(OpSpec::conv2d(
            Conv2dCfg::new(channels, channels, 3)
                .stride(1)
                .padding(1)
                .bias(false),
        ));
        ops.push(OpSpec::leaky_relu(0.1));
    }
    ops.push(OpSpec::flatten());
    ops.push(OpSpec::linear(LinearCfg::new(
        channels * SIDE * SIDE,
        CLASSES,
    )));
    ops
}

fn graphs_from(arch_ids: &[(usize, usize)]) -> Vec<ModelGraph> {
    arch_ids
        .iter()
        .enumerate()
        .map(|(l, &(c, r))| {
            ModelGraph::new(format!("lane{l}-c{c}r{r}"), vec![2, SIDE, SIDE], arch(c, r))
        })
        .collect()
}

fn seeds(lanes: usize) -> Vec<u64> {
    (0..lanes as u64).map(|l| 900 + l).collect()
}

fn lrs(lanes: usize) -> PerModel {
    PerModel::new((0..lanes).map(|l| 0.03 + 0.005 * l as f32).collect())
}

fn data(lanes: usize, seed: u64) -> (Vec<Tensor>, Vec<Vec<usize>>) {
    let mut rng = Rng::seed_from(seed);
    let inputs = (0..lanes).map(|_| rng.randn([2, 2, SIDE, SIDE])).collect();
    let targets = (0..lanes)
        .map(|_| (0..2).map(|_| rng.below(CLASSES)).collect())
        .collect();
    (inputs, targets)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().iter().map(|v| v.to_bits()).collect()
}

type StateBits = (Vec<Vec<u32>>, Vec<Vec<Vec<u32>>>, u64);

fn state_bits(s: &LaneState) -> StateBits {
    (
        s.params.iter().map(bits).collect(),
        s.opt_state
            .iter()
            .map(|slots| slots.iter().map(bits).collect())
            .collect(),
        s.step_count,
    )
}

/// Trains `plan` for `steps` with update rule `rule` (0: SGD with
/// momentum, 1: Adam, 2: Adadelta with per-lane `rho`) and returns
/// per-step per-lane loss bits and each lane's extracted final state.
fn run(
    graphs: &[ModelGraph],
    plan: &FusionPlan,
    rule: usize,
    steps: usize,
    quarantine: Option<usize>,
    data_seed: u64,
) -> (Vec<Vec<u32>>, Vec<LaneState>) {
    let array = PlannedArray::build(graphs, plan, &seeds(graphs.len())).unwrap();
    let lr = lrs(graphs.len());
    let data = data(graphs.len(), data_seed);
    match rule {
        0 => {
            let opt = PlannedOptimizer::sgd(&array, &lr, 0.9).unwrap();
            train(&array, opt, steps, quarantine, data)
        }
        1 => {
            let opt = PlannedOptimizer::adam(&array, &lr).unwrap();
            train(&array, opt, steps, quarantine, data)
        }
        _ => {
            let rho = PerModel::new((0..graphs.len()).map(|l| 0.9 - 0.05 * l as f32).collect());
            let update = AdadeltaUpdate { rho, eps: 1e-6 };
            let opt = FusedOptimizer::planned(&array, &lr, update).unwrap();
            train(&array, opt, steps, quarantine, data)
        }
    }
}

fn train<U: Update>(
    array: &PlannedArray,
    mut opt: PlannedOptimizer<U>,
    steps: usize,
    quarantine: Option<usize>,
    (inputs, targets): (Vec<Tensor>, Vec<Vec<usize>>),
) -> (Vec<Vec<u32>>, Vec<LaneState>) {
    if let Some(lane) = quarantine {
        opt.quarantine(lane);
    }
    let mut loss_bits = Vec::new();
    for _ in 0..steps {
        let (_tape, outs) = array.forward(&inputs).unwrap();
        let (losses, total) = per_lane_ce(&outs, &targets);
        total.backward();
        opt.step();
        opt.zero_grad();
        loss_bits.push(losses.iter().map(|l| l.to_bits()).collect());
    }
    let states = (0..array.lanes())
        .map(|l| opt.extract_lane(array, l))
        .collect();
    (loss_bits, states)
}

/// Encodes `(channels, refine)` as one id: channels in {2, 3}, refine in
/// {0, 1, 2} — the vendored proptest has no tuple strategies.
fn decode(ids: &[usize]) -> Vec<(usize, usize)> {
    ids.iter().map(|id| (2 + id % 2, id / 2)).collect()
}

fn arch_ids_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..6, 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn planned_is_bit_identical_to_serial_over_random_mixed_sets(
        arch_ids in arch_ids_strategy(),
        rule in 0usize..3,
        data_seed in 0u64..1000,
    ) {
        let graphs = graphs_from(&decode(&arch_ids));
        let fused = FusionPlan::plan(&graphs).unwrap();
        let serial = FusionPlan::serial(&graphs).unwrap();
        let (fl, fs) = run(&graphs, &fused, rule, 2, None, data_seed);
        let (sl, ss) = run(&graphs, &serial, rule, 2, None, data_seed);
        prop_assert_eq!(fl, sl);
        for (lane, (a, b)) in fs.iter().zip(&ss).enumerate() {
            let _ = lane;
            prop_assert_eq!(state_bits(a), state_bits(b));
        }
    }

    #[test]
    fn extract_splice_round_trips_through_serial_blocks(
        arch_ids in arch_ids_strategy(),
        data_seed in 0u64..1000,
    ) {
        let graphs = graphs_from(&decode(&arch_ids));
        let plan = FusionPlan::plan(&graphs).unwrap();
        let array = PlannedArray::build(&graphs, &plan, &seeds(graphs.len())).unwrap();
        let mut opt = PlannedOptimizer::sgd(&array, &lrs(graphs.len()), 0.9).unwrap();
        let (inputs, targets) = data(graphs.len(), data_seed);
        let (_tape, outs) = array.forward(&inputs).unwrap();
        let (_, total) = per_lane_ce(&outs, &targets);
        total.backward();
        opt.step();
        opt.zero_grad();
        let before: Vec<LaneState> = (0..graphs.len())
            .map(|l| opt.extract_lane(&array, l))
            .collect();
        opt.splice_lanes(&array, &before);
        for (lane, b) in before.iter().enumerate() {
            let after = opt.extract_lane(&array, lane);
            let _ = lane;
            prop_assert_eq!(state_bits(b), state_bits(&after));
        }
    }

    #[test]
    fn quarantine_in_fused_blocks_leaves_other_lanes_bit_identical(
        arch_ids in arch_ids_strategy(),
        lane_pick in 0usize..8,
        rule in 0usize..3,
        data_seed in 0u64..1000,
    ) {
        let graphs = graphs_from(&decode(&arch_ids));
        let lane = lane_pick % graphs.len();
        let plan = FusionPlan::plan(&graphs).unwrap();
        let (_, clean) = run(&graphs, &plan, rule, 2, None, data_seed);
        let (_, isolated) = run(&graphs, &plan, rule, 2, Some(lane), data_seed);
        for l in 0..graphs.len() {
            if l == lane {
                continue;
            }
            prop_assert_eq!(state_bits(&clean[l]), state_bits(&isolated[l]));
        }
    }
}
