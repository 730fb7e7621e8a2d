//! `mixed_plan`: four discriminator variants that differ in the middle,
//! planned by `FusionPlan::plan` into width-4 grouped blocks beside
//! width-1 `groups = 1` blocks — one step uses the same `tensor`/`kernels`
//! layer both ways, so a grouped-conv win that costs plain convs shows. It
//! is also the only workload where `plan` and `core::planned` do the work.
//! The serial leg runs the same graphs under `FusionPlan::serial`, to which
//! the planned array must stay bit-identical.

use hfta_core::optim::PerModel;
use hfta_core::planned::{PlannedArray, PlannedOptimizer};
use hfta_core::surgery::LaneState;
use hfta_data::GanImages;
use hfta_models::graphs::discriminator_variant_graph;
use hfta_models::DcganCfg;
use hfta_nn::Var;
use hfta_plan::{FusionPlan, ModelGraph};
use hfta_tensor::{Rng, Tensor};

use super::train::{Contract, TrainLeg, TrainSpec};
use super::{lane_lr, mix};
use crate::replay::{lower_ops, ReplayItem};
use crate::trace::Recorder;

/// Refinement blocks per lane: two base lanes, one variant each of +1, +2.
const EXTRA: [usize; 4] = [0, 1, 0, 2];

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct MixedPlan {
    /// Workload seed.
    pub seed: u64,
    /// Discriminator configuration (latent unused).
    pub cfg: DcganCfg,
    /// Images per lane per step, half real and half noise.
    pub batch: usize,
}

impl MixedPlan {
    /// The benchmark's sizes.
    pub fn new(seed: u64) -> Self {
        MixedPlan {
            seed,
            cfg: DcganCfg {
                latent: 1,
                width: 8,
                image: 64,
            },
            batch: 2,
        }
    }

    fn graphs(&self) -> Vec<ModelGraph> {
        EXTRA
            .iter()
            .map(|&extra| discriminator_variant_graph(self.cfg, extra))
            .collect()
    }

    fn leg(
        &self,
        lanes: &[usize],
        plan: FusionPlan,
        graphs: &[ModelGraph],
        rec: &Recorder,
    ) -> PlanLeg {
        let seeds: Vec<u64> = lanes
            .iter()
            .map(|&l| mix(self.seed, 0x3000 + l as u64))
            .collect();
        let array = rec.time("models.build", || {
            PlannedArray::build(graphs, &plan, &seeds).expect("plan covers the graphs")
        });
        let lrs = PerModel::new(lanes.iter().map(|&l| lane_lr(0.01, l)).collect());
        let opt = PlannedOptimizer::sgd(&array, &lrs, 0.9).expect("one rate per lane");
        let half = self.batch / 2;
        let mut labels = vec![1.0f32; half];
        labels.resize(self.batch, 0.0);
        let mut leg = PlanLeg {
            spec: *self,
            lanes: lanes.to_vec(),
            init: Vec::new(),
            array,
            opt,
            streams: Vec::new(),
            labels: Tensor::from_vec(labels, [self.batch, 1]),
            tape_nodes: 0,
        };
        leg.init = (0..lanes.len()).map(|l| leg.extract(l)).collect();
        leg.rewind();
        leg
    }
}

struct PlanLeg {
    spec: MixedPlan,
    /// The sweep lanes this array covers.
    lanes: Vec<usize>,
    /// Every lane's state as built, for [`TrainLeg::rewind`].
    init: Vec<Vec<LaneState>>,
    array: PlannedArray,
    opt: PlannedOptimizer,
    /// Per lane: real images, and the noise that stands in for fakes.
    streams: Vec<(GanImages, Rng)>,
    labels: Tensor,
    tape_nodes: usize,
}

impl TrainLeg for PlanLeg {
    fn rewind(&mut self) {
        let init = std::mem::take(&mut self.init);
        self.splice(&init);
        self.init = init;
        let (seed, image) = (self.spec.seed, self.spec.cfg.image);
        self.streams = self
            .lanes
            .iter()
            .map(|&l| {
                (
                    GanImages::new(image, mix(seed, 0x1000 + l as u64)),
                    Rng::seed_from(mix(seed, 0x2000 + l as u64)),
                )
            })
            .collect();
    }

    fn step(&mut self, rec: &Recorder, losses: &mut Vec<f32>) {
        let _step = rec.span("step");
        let (half, s) = (self.spec.batch / 2, self.spec.cfg.image);
        let inputs: Vec<Tensor> = rec.time("data.batch", || {
            self.streams
                .iter_mut()
                .map(|(images, noise)| {
                    let real = images.batch(half);
                    let fake = noise.rand([self.labels.dim(0) - half, 3, s, s], -1.0, 1.0);
                    Tensor::concat(&[&real, &fake], 0)
                })
                .collect()
        });
        rec.time("core.zero_grad", || self.opt.zero_grad());
        let (tape, outs) = rec.time("nn.forward", || {
            self.array.forward(&inputs).expect("one input per lane")
        });
        let total = rec.time("core.loss", || {
            // Formulated per lane, identically under any plan: each lane's
            // loss backpropagates gradient 1.0, as a serial run's would.
            let mut total: Option<Var> = None;
            for out in &outs {
                let loss = out.bce_with_logits(&self.labels);
                losses.push(loss.item());
                total = Some(match total {
                    Some(acc) => acc.add(&loss),
                    None => loss,
                });
            }
            total.expect("at least one lane")
        });
        rec.time("nn.backward", || total.backward());
        rec.time("core.optim_step", || self.opt.step());
        self.tape_nodes = tape.len();
    }

    fn tape_nodes(&self) -> usize {
        self.tape_nodes
    }

    fn extract(&self, lane: usize) -> Vec<LaneState> {
        vec![self.opt.extract_lane(&self.array, lane)]
    }

    fn splice(&mut self, lanes: &[Vec<LaneState>]) {
        let column: Vec<LaneState> = lanes.iter().map(|l| l[0].clone()).collect();
        self.opt.splice_lanes(&self.array, &column);
    }
}

impl TrainSpec for MixedPlan {
    fn name(&self) -> &'static str {
        "mixed_plan"
    }

    fn lanes(&self) -> usize {
        EXTRA.len()
    }

    fn contract(&self) -> Contract {
        Contract::Bits
    }

    fn array(&self, rec: &Recorder) -> Box<dyn TrainLeg> {
        let graphs = self.graphs();
        let plan = rec.time("plan.plan", || {
            FusionPlan::plan(&graphs).expect("variants shape-check")
        });
        Box::new(self.leg(&[0, 1, 2, 3], plan, &graphs, rec))
    }

    fn serial(&self) -> Box<dyn TrainLeg> {
        let graphs = self.graphs();
        let plan = FusionPlan::serial(&graphs).expect("variants shape-check");
        Box::new(self.leg(&[0, 1, 2, 3], plan, &graphs, &Recorder::new()))
    }

    fn single(&self, lane: usize) -> Box<dyn TrainLeg> {
        let graphs = [self.graphs().swap_remove(lane)];
        let plan = FusionPlan::serial(&graphs).expect("variant shape-checks");
        Box::new(self.leg(&[lane], plan, &graphs, &Recorder::new()))
    }

    fn replay(&self) -> Vec<ReplayItem> {
        let graphs = self.graphs();
        let plan = FusionPlan::plan(&graphs).expect("variants shape-check");
        plan.blocks
            .iter()
            .flat_map(|block| {
                let lane = block.lanes[0];
                let entry = &graphs[lane].shapes().expect("variants shape-check")[block.starts[0]];
                lower_ops(&block.ops, entry, block.width(), self.batch, true, 1, 1)
            })
            .collect()
    }

    fn plan_shape(&self) -> Option<(f64, usize)> {
        let plan = FusionPlan::plan(&self.graphs()).expect("variants shape-check");
        Some((plan.fused_fraction(), plan.blocks.len()))
    }
}
