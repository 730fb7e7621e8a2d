//! Planned (partially fused) execution: run an `hfta-plan`
//! [`FusionPlan`] over the fused operators of [`crate::ops`].
//!
//! A [`PlannedArray`] materializes each plan block at its own width —
//! fused blocks as width-`k` fused operators, serial blocks as width-1
//! ones — and runs them all on **one tape**, stitching per-lane
//! activations into block-fused activations with differentiable
//! `concat`/`narrow` at block boundaries. Because every fused operator
//! computes each lane independently of the array width and of lane
//! position (the width-independence the quarantine tests prove), and
//! concat/narrow are bit-preserving copies, a planned run is
//! **bit-identical per lane** to the all-serial plan over the same
//! graphs — and a fully homogeneous plan is bit-identical to the
//! hand-fused model (the fused layers of [`crate::ops`]) built from the
//! same per-lane models.
//!
//! Parameter initialization follows the one init rule of [`crate::ops`]:
//! each lane owns a generator seeded from its seed, and each block op is
//! built at the block's width by [`Fused`], lane `j` of the block from its
//! lane's generator. A lane's blocks come in its program order, so every
//! lane draws its ops in program order whatever the plan's shape: the
//! plan never influences initial parameter bits.
//!
//! The [`PlannedOptimizer`] is the partially fused optimizer: the one
//! [`FusedOptimizer`] with a parameter group per parameter-carrying block,
//! carrying the block's lanes. A lane's extracted [`LaneState`] is its
//! per-block segments in plan order — its own program order — and so is
//! interchangeable with a width-1 array's of the same program.

use hfta_nn::layers::{
    BatchNorm, Conv1d, Conv2d, Conv2dCfg, ConvTranspose2d, LeakyRelu, LinearCfg, MaxPool2d, Relu,
    Tanh,
};
use hfta_nn::{Module, Tape, Var};
use hfta_plan::{FusionPlan, ModelGraph, OpKind, OpSpec};
use hfta_tensor::{Rng, Tensor};

use crate::error::{FusionError, Result};
use crate::format::{array_to_conv, conv_to_array};
use crate::loss::{fused_cross_entropy, Reduction};
use crate::ops::{Fused, FusedLinear, FusedModule, FusedParameter, LaneInit, Ops};
use crate::optim::{AdamUpdate, FusedOptimizer, PerModel, SgdUpdate, Update};
use crate::surgery::LaneState;

/// One op of one block at the block's width. Only `Linear` changes type
/// when fused: a fused conv or batch norm is the same `hfta-nn` layer at
/// the widened configuration, and a stateless op runs unchanged over the
/// widened tensor.
enum Layer {
    Conv2d(Conv2d),
    ConvTranspose2d(ConvTranspose2d),
    Conv1d(Conv1d),
    BatchNorm(BatchNorm),
    Relu,
    LeakyRelu(LeakyRelu),
    Tanh,
    MaxPool2d(MaxPool2d),
    Flatten,
    Linear(FusedLinear),
}

fn mismatch(detail: String) -> FusionError {
    FusionError::StructureMismatch { detail }
}

impl Layer {
    /// Builds `spec` at one lane per init source, lane `j` from `lanes[j]`.
    fn build(spec: &OpSpec, lanes: &mut [LaneInit]) -> Result<Layer> {
        let ops = Fused(lanes.len());
        let conv_cfg = Conv2dCfg::new(spec.c_in, spec.c_out, spec.kernel)
            .stride(spec.stride)
            .padding(spec.padding)
            .groups(spec.groups)
            .bias(spec.bias);
        Ok(match spec.kind {
            OpKind::Conv2d => Layer::Conv2d(ops.conv2d(conv_cfg, lanes)),
            OpKind::ConvTranspose2d => {
                Layer::ConvTranspose2d(ops.conv_transpose2d(conv_cfg, lanes))
            }
            OpKind::Conv1d => {
                let (s, groups) = (spec, spec.groups.max(1));
                let new = |rng: &mut Rng| {
                    Conv1d::new(s.c_in, s.c_out, s.kernel, s.stride, s.padding, groups, rng)
                };
                let (weight, bias) = ops.stacked(lanes, true, new);
                let groups = lanes.len() * groups;
                Layer::Conv1d(Conv1d::from_parts(
                    weight, bias, s.stride, s.padding, groups,
                ))
            }
            OpKind::BatchNorm => Layer::BatchNorm(ops.batch_norm(spec.c_in)),
            OpKind::Linear => {
                let cfg = LinearCfg::new(spec.c_in, spec.c_out).bias(spec.bias);
                Layer::Linear(ops.linear(cfg, lanes))
            }
            OpKind::Relu => Layer::Relu,
            OpKind::LeakyRelu => Layer::LeakyRelu(LeakyRelu::new(spec.slope())),
            OpKind::Tanh => Layer::Tanh,
            OpKind::MaxPool2d => Layer::MaxPool2d(MaxPool2d::new(spec.kernel)),
            OpKind::Flatten => Layer::Flatten,
            _ => {
                return Err(mismatch(format!(
                    "{:?} is plannable but not executable by PlannedArray",
                    spec.kind
                )))
            }
        })
    }

    /// The op as a module; `None` for `Flatten`, a reshape.
    fn module(&self) -> Option<&dyn Module> {
        let m: &dyn Module = match self {
            Layer::Conv2d(m) => m,
            Layer::ConvTranspose2d(m) => m,
            Layer::Conv1d(m) => m,
            Layer::BatchNorm(m) => m,
            Layer::Relu => &Relu,
            Layer::LeakyRelu(m) => m,
            Layer::Tanh => &Tanh,
            Layer::MaxPool2d(m) => m,
            Layer::Linear(m) => m,
            Layer::Flatten => return None,
        };
        Some(m)
    }

    /// Applies the op to a block-fused activation. Conv-format ops see
    /// `[N, B*C, ...]`; `Flatten` collapses to `[N, B*F]`; `Linear` hops
    /// through array format and back so the block boundary stays on the
    /// channel axis.
    fn forward(&self, x: &Var) -> Var {
        match self {
            Layer::Flatten => {
                let dims = x.dims();
                let n = dims[0];
                let rest: usize = dims[1..].iter().product();
                x.reshape(&[n, rest])
            }
            Layer::Linear(m) => array_to_conv(&m.forward(&conv_to_array(x, m.b()))),
            op => op.module().expect("every other op is a layer").forward(x),
        }
    }
}

/// One materialized plan block: its lane map and fused ops at the
/// block's width.
struct ExecBlock {
    lanes: Vec<usize>,
    ops: Vec<Layer>,
    params: Vec<FusedParameter>,
}

/// A partially fused model array executing a [`FusionPlan`].
pub struct PlannedArray {
    plan: FusionPlan,
    blocks: Vec<ExecBlock>,
}

impl PlannedArray {
    /// Materializes `plan` over `graphs`: builds each block's ops at the
    /// block's width, lane `j` of the block from its lane's generator
    /// (seeded from `seeds[lane]`), in plan order.
    ///
    /// # Errors
    ///
    /// Structure errors when the plan does not cover the graphs (a block
    /// op differs from a lane's graph op, a lane's blocks skip or revisit
    /// ops, or ops are left over), or an op is not executable
    /// ([`hfta_plan::OpKind::GlobalMaxPool`] /
    /// [`hfta_plan::OpKind::ResidualAdd`]).
    pub fn build(graphs: &[ModelGraph], plan: &FusionPlan, seeds: &[u64]) -> Result<PlannedArray> {
        if graphs.is_empty() {
            return Err(FusionError::Empty);
        }
        if plan.lanes != graphs.len() || seeds.len() != graphs.len() {
            return Err(mismatch(format!(
                "plan covers {} lanes, got {} graphs and {} seeds",
                plan.lanes,
                graphs.len(),
                seeds.len()
            )));
        }
        let mut rngs: Vec<LaneInit> = (seeds.iter())
            .map(|&s| LaneInit::Draw(Rng::seed_from(s)))
            .collect();
        // The next op of each lane's program the plan must reach.
        let mut next = vec![0; graphs.len()];
        let mut blocks = Vec::with_capacity(plan.blocks.len());
        for pb in &plan.blocks {
            let ascending = pb.lanes.windows(2).all(|w| w[0] < w[1]);
            if pb.lanes.is_empty() || pb.lanes.len() != pb.starts.len() || !ascending {
                return Err(mismatch(format!(
                    "a block needs distinct ascending lanes, one start each: {:?} at {:?}",
                    pb.lanes, pb.starts
                )));
            }
            for (&l, &s) in pb.lanes.iter().zip(&pb.starts) {
                let g = graphs
                    .get(l)
                    .ok_or_else(|| mismatch(format!("no lane {l}")))?;
                if s != next[l] {
                    return Err(mismatch(format!(
                        "lane {l}'s block starts at op {s}, its program is at op {}",
                        next[l]
                    )));
                }
                if g.ops.get(s..s + pb.ops.len()) != Some(&pb.ops[..]) {
                    return Err(mismatch(format!(
                        "block ops at lane {l} op {s} differ from graph {:?}",
                        g.name
                    )));
                }
                next[l] += pb.ops.len();
            }
            let mut lanes: Vec<LaneInit> = pb.lanes.iter().map(|&l| rngs[l].clone()).collect();
            let ops = (pb.ops.iter())
                .map(|spec| Layer::build(spec, &mut lanes))
                .collect::<Result<Vec<_>>>()?;
            for (&l, rng) in pb.lanes.iter().zip(lanes) {
                rngs[l] = rng;
            }
            let b = pb.lanes.len();
            let params = ops
                .iter()
                .filter_map(Layer::module)
                .flat_map(|m| FusedParameter::of(m, b))
                .collect();
            blocks.push(ExecBlock {
                lanes: pb.lanes.clone(),
                ops,
                params,
            });
        }
        if (graphs.iter().zip(&next)).any(|(g, &n)| n != g.ops.len()) {
            return Err(mismatch(
                "plan does not cover every op of every lane".into(),
            ));
        }
        Ok(PlannedArray {
            plan: plan.clone(),
            blocks,
        })
    }

    /// Number of lanes (trials) in the array.
    pub fn lanes(&self) -> usize {
        self.plan.lanes
    }

    /// The plan this array executes.
    pub fn plan(&self) -> &FusionPlan {
        &self.plan
    }

    /// Every block's fused parameters, in plan order.
    pub fn fused_parameters(&self) -> Vec<FusedParameter> {
        self.blocks.iter().flat_map(|b| b.params.clone()).collect()
    }

    /// Switches training/eval mode on every block.
    pub fn set_training(&self, training: bool) {
        for b in &self.blocks {
            for m in b.ops.iter().filter_map(Layer::module) {
                m.set_training(training);
            }
        }
    }

    /// Runs the plan: per-lane inputs in, per-lane outputs out, all on
    /// one tape. Fused blocks gather their lanes' activations with a
    /// channel-axis concat and scatter them back with narrows; serial
    /// blocks run width-1 on the lane's own activation.
    ///
    /// # Errors
    ///
    /// Returns a structure error when the input count or batch sizes
    /// disagree with the plan.
    pub fn forward(&self, inputs: &[Tensor]) -> Result<(Tape, Vec<Var>)> {
        if inputs.len() != self.lanes() {
            return Err(FusionError::StructureMismatch {
                detail: format!("{} inputs for {} lanes", inputs.len(), self.lanes()),
            });
        }
        let n = inputs[0].dim(0);
        if inputs.iter().any(|t| t.dim(0) != n) {
            return Err(FusionError::StructureMismatch {
                detail: "lanes disagree on batch size".into(),
            });
        }
        let tape = Tape::new();
        let mut acts: Vec<Option<Var>> =
            inputs.iter().map(|t| Some(tape.leaf(t.clone()))).collect();
        for block in &self.blocks {
            let b = block.lanes.len();
            let mut x = if b == 1 {
                acts[block.lanes[0]].take().expect("lane activation live")
            } else {
                let gathered: Vec<Var> = block
                    .lanes
                    .iter()
                    .map(|&l| acts[l].take().expect("lane activation live"))
                    .collect();
                let refs: Vec<&Var> = gathered.iter().collect();
                Var::concat(&refs, 1)
            };
            for op in &block.ops {
                x = op.forward(&x);
            }
            if b == 1 {
                acts[block.lanes[0]] = Some(x);
            } else {
                let c = x.dim(1) / b;
                for (j, &l) in block.lanes.iter().enumerate() {
                    acts[l] = Some(x.narrow(1, j * c, c));
                }
            }
        }
        let outs = acts
            .into_iter()
            .map(|a| a.expect("every lane produced an output"))
            .collect();
        Ok((tape, outs))
    }
}

/// Per-lane mean cross-entropy losses and their sum, formulated
/// identically for planned and serial runs: each lane's logits `[N, C]`
/// are lifted to a width-1 array-format `[1, N, C]` fused loss. The sum
/// backpropagates gradient 1.0 into every lane's loss — exactly what a
/// per-lane serial backward sees — so summing keeps per-lane gradients
/// bit-identical while using one tape.
pub fn per_lane_ce(outputs: &[Var], targets: &[Vec<usize>]) -> (Vec<f32>, Var) {
    assert_eq!(outputs.len(), targets.len(), "one target set per lane");
    let mut total: Option<Var> = None;
    let mut losses = Vec::with_capacity(outputs.len());
    for (out, t) in outputs.iter().zip(targets) {
        let dims = out.dims();
        assert_eq!(dims.len(), 2, "per-lane logits must be [N, C]");
        let lifted = out.reshape(&[1, dims[0], dims[1]]);
        let loss = fused_cross_entropy(&lifted, t, Reduction::Mean);
        losses.push(loss.value().to_vec()[0]);
        total = Some(match total {
            Some(acc) => acc.add(&loss),
            None => loss,
        });
    }
    (losses, total.expect("at least one lane"))
}

/// The partially fused optimizer: the one [`FusedOptimizer`] over a
/// [`PlannedArray`]'s blocks (SGD unless named otherwise).
pub type PlannedOptimizer<U = SgdUpdate> = FusedOptimizer<U>;

impl<U: Update> FusedOptimizer<U> {
    /// Rule `update` over `array`: one parameter group per
    /// parameter-carrying block, carrying the block's lanes, in plan order.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError`] when `lr` or the rule's vectors disagree
    /// with the array's lane count.
    pub fn planned(array: &PlannedArray, lr: &PerModel, update: U) -> Result<Self> {
        lr.check_b(array.lanes())?;
        let groups = (array.blocks.iter())
            .filter(|b| !b.params.is_empty())
            .map(|b| (b.lanes.clone(), b.params.clone()))
            .collect();
        FusedOptimizer::grouped(groups, lr.clone(), update)
    }

    /// [`FusedOptimizer::extract`] on the planned array it steps.
    pub fn extract_lane(&self, array: &PlannedArray, lane: usize) -> LaneState {
        assert_eq!(array.lanes(), self.lanes(), "not this optimizer's array");
        self.extract(lane)
    }

    /// [`FusedOptimizer::splice`] on the planned array it steps.
    pub fn splice_lanes(&mut self, array: &PlannedArray, lanes: &[LaneState]) {
        assert_eq!(array.lanes(), self.lanes(), "not this optimizer's array");
        self.splice(lanes);
    }
}

impl PlannedOptimizer {
    /// SGD with one momentum shared by every lane; fails like
    /// [`FusedOptimizer::planned`].
    pub fn sgd(array: &PlannedArray, lr: &PerModel, momentum: f32) -> Result<Self> {
        let momentum = PerModel::uniform(array.lanes(), momentum);
        FusedOptimizer::planned(array, lr, SgdUpdate { momentum })
    }
}

impl PlannedOptimizer<AdamUpdate> {
    /// Adam with the defaults of [`AdamUpdate`]; fails like
    /// [`FusedOptimizer::planned`].
    pub fn adam(array: &PlannedArray, lr: &PerModel) -> Result<Self> {
        FusedOptimizer::planned(array, lr, AdamUpdate::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::stack_conv;
    use crate::ops::fuse_conv2d;
    use hfta_nn::layers::{Conv2dCfg, Linear, LinearCfg};
    use hfta_nn::Parameter;
    use hfta_tensor::{Rng, Tensor};

    const INPUT: [usize; 3] = [2, 6, 6];
    const CLASSES: usize = 4;
    const FEATURES: usize = 3 * 6 * 6;

    fn base_ops() -> Vec<OpSpec> {
        vec![
            OpSpec::conv2d(Conv2dCfg::new(2, 3, 3).stride(1).padding(1).bias(false)),
            OpSpec::leaky_relu(0.2),
            OpSpec::flatten(),
            OpSpec::linear(LinearCfg::new(FEATURES, CLASSES)),
        ]
    }

    /// Base arch with a shape-preserving refinement block after the
    /// first activation — fusible prefix and suffix, serial middle.
    fn variant_ops() -> Vec<OpSpec> {
        let mut ops = base_ops();
        ops.insert(
            2,
            OpSpec::conv2d(Conv2dCfg::new(3, 3, 3).stride(1).padding(1).bias(false)),
        );
        ops.insert(3, OpSpec::relu());
        ops
    }

    fn mixed_graphs() -> Vec<ModelGraph> {
        vec![
            ModelGraph::new("base0", INPUT.to_vec(), base_ops()),
            ModelGraph::new("variant1", INPUT.to_vec(), variant_ops()),
            ModelGraph::new("base2", INPUT.to_vec(), base_ops()),
            ModelGraph::new("variant3", INPUT.to_vec(), variant_ops()),
        ]
    }

    fn seeds(lanes: usize) -> Vec<u64> {
        (0..lanes as u64).map(|l| 100 + l).collect()
    }

    fn lrs(lanes: usize) -> PerModel {
        PerModel::new((0..lanes).map(|l| 0.05 + 0.01 * l as f32).collect())
    }

    fn data(lanes: usize, n: usize) -> (Vec<Tensor>, Vec<Vec<usize>>) {
        let mut rng = Rng::seed_from(42);
        let inputs = (0..lanes)
            .map(|_| rng.randn([n, INPUT[0], INPUT[1], INPUT[2]]))
            .collect();
        let targets = (0..lanes)
            .map(|_| (0..n).map(|_| rng.below(CLASSES)).collect())
            .collect();
        (inputs, targets)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_lane_state_eq(a: &LaneState, b: &LaneState, what: &str) {
        assert_eq!(a.params.len(), b.params.len(), "{what}: param count");
        for (pi, (x, y)) in a.params.iter().zip(&b.params).enumerate() {
            assert_eq!(bits(x), bits(y), "{what}: param {pi} bits");
        }
        assert_eq!(a.opt_state.len(), b.opt_state.len(), "{what}: state count");
        for (pi, (xs, ys)) in a.opt_state.iter().zip(&b.opt_state).enumerate() {
            assert_eq!(xs.len(), ys.len(), "{what}: param {pi} slot count");
            for (si, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_eq!(bits(x), bits(y), "{what}: param {pi} slot {si} bits");
            }
        }
        assert_eq!(a.step_count, b.step_count, "{what}: step count");
    }

    /// Trains `plan` over `graphs` for `steps` and returns the per-step
    /// per-lane loss bits plus every lane's final extracted state.
    fn run(
        graphs: &[ModelGraph],
        plan: &FusionPlan,
        adam: bool,
        steps: usize,
        quarantine: Option<usize>,
    ) -> (Vec<Vec<u32>>, Vec<LaneState>) {
        let array = PlannedArray::build(graphs, plan, &seeds(graphs.len())).unwrap();
        let lr = lrs(graphs.len());
        if adam {
            let opt = PlannedOptimizer::adam(&array, &lr).unwrap();
            train(&array, opt, steps, quarantine)
        } else {
            let opt = PlannedOptimizer::sgd(&array, &lr, 0.9).unwrap();
            train(&array, opt, steps, quarantine)
        }
    }

    fn train<U: Update>(
        array: &PlannedArray,
        mut opt: PlannedOptimizer<U>,
        steps: usize,
        quarantine: Option<usize>,
    ) -> (Vec<Vec<u32>>, Vec<LaneState>) {
        if let Some(lane) = quarantine {
            opt.quarantine(lane);
        }
        let lanes = array.lanes();
        let (inputs, targets) = data(lanes, 2);
        let mut loss_bits = Vec::new();
        for _ in 0..steps {
            let (_tape, outs) = array.forward(&inputs).unwrap();
            let (losses, total) = per_lane_ce(&outs, &targets);
            total.backward();
            opt.step();
            opt.zero_grad();
            loss_bits.push(losses.iter().map(|l| l.to_bits()).collect());
        }
        let states = (0..lanes).map(|l| opt.extract_lane(array, l)).collect();
        (loss_bits, states)
    }

    #[test]
    fn mixed_plan_is_bit_identical_to_serial_plan_sgd() {
        let graphs = mixed_graphs();
        let fused = FusionPlan::plan(&graphs).unwrap();
        assert!(fused.fused_fraction() > 0.5, "prefix+suffix should fuse");
        let serial = FusionPlan::serial(&graphs).unwrap();
        let (fl, fs) = run(&graphs, &fused, false, 3, None);
        let (sl, ss) = run(&graphs, &serial, false, 3, None);
        assert_eq!(fl, sl, "per-step per-lane loss bits");
        for (lane, (a, b)) in fs.iter().zip(&ss).enumerate() {
            assert_lane_state_eq(a, b, &format!("lane {lane}"));
        }
    }

    #[test]
    fn mixed_plan_is_bit_identical_to_serial_plan_adam() {
        let graphs = mixed_graphs();
        let fused = FusionPlan::plan(&graphs).unwrap();
        let serial = FusionPlan::serial(&graphs).unwrap();
        let (fl, fs) = run(&graphs, &fused, true, 3, None);
        let (sl, ss) = run(&graphs, &serial, true, 3, None);
        assert_eq!(fl, sl, "per-step per-lane loss bits");
        for (lane, (a, b)) in fs.iter().zip(&ss).enumerate() {
            assert_lane_state_eq(a, b, &format!("lane {lane}"));
        }
    }

    /// The hand-fused model for the base arch, built from the same
    /// per-lane serial layers the planner path constructs.
    struct Chain {
        conv: Conv2d,
        act: LeakyRelu,
        fc: FusedLinear,
        b: usize,
    }

    impl Module for Chain {
        fn forward(&self, x: &Var) -> Var {
            let x = self.act.forward(&self.conv.forward(x));
            let dims = x.dims();
            let flat = x.reshape(&[dims[0], dims[1..].iter().product()]);
            array_to_conv(&self.fc.forward(&conv_to_array(&flat, self.b)))
        }

        fn parameters(&self) -> Vec<Parameter> {
            let mut p = self.conv.parameters();
            p.extend(self.fc.parameters());
            p
        }
    }

    #[test]
    fn homogeneous_plan_is_bit_identical_to_hand_fused_model() {
        let lanes = 3;
        let graphs: Vec<ModelGraph> = (0..lanes)
            .map(|l| ModelGraph::new(format!("m{l}"), INPUT.to_vec(), base_ops()))
            .collect();
        let plan = FusionPlan::plan(&graphs).unwrap();
        assert_eq!(plan.blocks.len(), 1, "homogeneous set is one fused block");
        assert_eq!(plan.fused_fraction(), 1.0);
        let (pl, ps) = run(&graphs, &plan, false, 3, None);

        // Hand-fused reference: identical per-lane layers from the same
        // (seed, op index) stream, fused with the same stacking rules.
        let mut convs = Vec::new();
        let mut fcs = Vec::new();
        for seed in seeds(lanes) {
            let mut rng = Rng::seed_from(seed);
            convs.push(Conv2d::new(
                Conv2dCfg::new(2, 3, 3).stride(1).padding(1).bias(false),
                &mut rng,
            ));
            fcs.push(Linear::new(LinearCfg::new(FEATURES, CLASSES), &mut rng));
        }
        let chain = Chain {
            conv: fuse_conv2d(&convs).unwrap(),
            act: LeakyRelu::new(0.2),
            fc: FusedLinear::from_models(&fcs).unwrap(),
            b: lanes,
        };
        let params = FusedParameter::of(&chain, lanes);
        let mut opt = crate::optim::FusedSgd::new(params.clone(), lrs(lanes), 0.9).unwrap();
        let (inputs, targets) = data(lanes, 2);
        for (step, expect) in pl.iter().enumerate().take(3) {
            let tape = Tape::new();
            let out = chain.forward(&tape.leaf(stack_conv(&inputs).unwrap()));
            let per_lane: Vec<Var> = (0..lanes)
                .map(|l| out.narrow(1, l * CLASSES, CLASSES))
                .collect();
            let (losses, total) = per_lane_ce(&per_lane, &targets);
            total.backward();
            opt.step();
            opt.zero_grad();
            let loss_bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(*expect, loss_bits, "step {step} loss bits");
        }
        for (lane, expect) in ps.iter().enumerate() {
            let reference = crate::surgery::extract_lane(&params, &opt, lane);
            assert_lane_state_eq(expect, &reference, &format!("lane {lane}"));
        }
    }

    #[test]
    fn quarantine_freezes_lane_and_leaves_others_bit_identical() {
        let graphs = mixed_graphs();
        let plan = FusionPlan::plan(&graphs).unwrap();
        // Lane 1 participates in fused prefix/suffix blocks and the
        // sub-width variant block.
        let initial = {
            let array = PlannedArray::build(&graphs, &plan, &seeds(graphs.len())).unwrap();
            let opt = PlannedOptimizer::sgd(&array, &lrs(graphs.len()), 0.9).unwrap();
            opt.extract_lane(&array, 1)
        };
        let (_, clean) = run(&graphs, &plan, false, 3, None);
        let (_, isolated) = run(&graphs, &plan, false, 3, Some(1));
        for lane in [0, 2, 3] {
            assert_lane_state_eq(
                &clean[lane],
                &isolated[lane],
                &format!("unquarantined lane {lane}"),
            );
        }
        for (pi, (frozen, init)) in isolated[1].params.iter().zip(&initial.params).enumerate() {
            assert_eq!(bits(frozen), bits(init), "quarantined lane param {pi}");
        }
    }

    #[test]
    fn build_rejects_unexecutable_ops_and_mismatched_plans() {
        let g = vec![ModelGraph::new(
            "pn",
            vec![3, 8],
            vec![OpSpec::conv1d(3, 4, 1, 1, 0), OpSpec::global_max_pool()],
        )];
        let plan = FusionPlan::plan(&g).unwrap();
        let Err(err) = PlannedArray::build(&g, &plan, &[1]) else {
            panic!("GlobalMaxPool must not execute");
        };
        assert!(
            matches!(err, FusionError::StructureMismatch { .. }),
            "{err}"
        );

        let graphs = mixed_graphs();
        let plan = FusionPlan::plan(&graphs).unwrap();
        // Wrong seed count.
        assert!(PlannedArray::build(&graphs, &plan, &[1, 2]).is_err());
        // Plan/graph disagreement.
        let other = FusionPlan::plan(&graphs[..2.min(graphs.len())]).unwrap();
        assert!(PlannedArray::build(&graphs, &other, &seeds(graphs.len())).is_err());

        let rejects = |plan: &FusionPlan, what: &str| {
            let built = PlannedArray::build(&graphs, plan, &seeds(graphs.len()));
            assert!(
                matches!(built, Err(FusionError::StructureMismatch { .. })),
                "{what}: {:?}",
                built.err()
            );
        };
        // A block op that is not the lanes' graph op.
        let mut wrong_op = plan.clone();
        wrong_op.blocks[0].ops[0] = OpSpec::conv2d(Conv2dCfg::new(2, 5, 3).padding(1));
        rejects(&wrong_op, "block op differs from the graph");
        let mut wrong_kind = plan.clone();
        wrong_kind.blocks[0].ops[0] = OpSpec::relu();
        rejects(&wrong_kind, "block op kind differs from the graph");
        // Every lane's first block listed last: out of program order.
        let mut reordered = plan.clone();
        reordered.blocks.rotate_left(1);
        rejects(&reordered, "blocks out of program order");
        // A block listed twice revisits its lanes' ops.
        let mut twice = plan.clone();
        twice.blocks.insert(1, plan.blocks[0].clone());
        rejects(&twice, "a block listed twice");
        // The last block missing leaves ops uncovered.
        let mut short = plan.clone();
        short.blocks.pop();
        rejects(&short, "ops left over");
    }

    #[test]
    fn extract_write_round_trip_through_mixed_blocks() {
        let graphs = mixed_graphs();
        let plan = FusionPlan::plan(&graphs).unwrap();
        let array = PlannedArray::build(&graphs, &plan, &seeds(graphs.len())).unwrap();
        let lr = lrs(graphs.len());
        let mut opt = PlannedOptimizer::sgd(&array, &lr, 0.9).unwrap();
        let (inputs, targets) = data(graphs.len(), 2);
        for _ in 0..2 {
            let (_tape, outs) = array.forward(&inputs).unwrap();
            let (_, total) = per_lane_ce(&outs, &targets);
            total.backward();
            opt.step();
            opt.zero_grad();
        }
        let before: Vec<LaneState> = (0..graphs.len())
            .map(|l| opt.extract_lane(&array, l))
            .collect();
        // Splicing every lane's own state back is a no-op, bitwise.
        opt.splice_lanes(&array, &before);
        for (lane, b) in before.iter().enumerate() {
            let after = opt.extract_lane(&array, lane);
            assert_lane_state_eq(b, &after, &format!("lane {lane} round trip"));
        }
        // Swapping the two base-arch lanes' states swaps their params.
        let mut swapped = before.clone();
        swapped.swap(0, 2);
        opt.splice_lanes(&array, &swapped);
        let lane0 = opt.extract_lane(&array, 0);
        assert_lane_state_eq(&lane0, &before[2], "lane 0 carries lane 2's state");
    }
}
