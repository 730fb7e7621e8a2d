//! `pointnet_overhead`: the paper's PointNet benchmark shrunk until every
//! op is tiny — dozens of k=1 convs and `baddbmm`s under the kernels'
//! inline fast path, batch norms, the STN, a max-pool and many small Adam
//! tensors. Time sits in tape bookkeeping, the memory pool, dispatch
//! decisions and the optimizer, not in the GEMM micro-kernel: a GEMM change
//! should read *no change* here, an optimizer or tape change reads here
//! first.
//!
//! The models run in evaluation mode, as the repo's own
//! `tests/equivalence.rs` runs them: PointNet's dropout draws one mask over
//! the fused tensor, so in training mode fused and serial lanes see
//! different masks and no loss contract could hold.

use hfta_core::array::copy_model_weights;
use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_nll_loss, Reduction};
use hfta_core::ops::{FusedModule, FusedParameter};
use hfta_core::optim::{FusedAdam, FusedOptimizer, PerModel};
use hfta_core::surgery::{extract_lane, splice_lanes, LaneState};
use hfta_data::PointClouds;
use hfta_models::graphs::pointnet_cls_graph;
use hfta_models::{FusedPointNetCls, PointNetCfg, PointNetCls};
use hfta_nn::{Adam, Module, Optimizer, Tape};
use hfta_tensor::{Rng, Tensor};

use super::train::{Contract, TrainLeg, TrainSpec};
use super::{lane_lr, mix};
use crate::replay::{lower_ops, ReplayItem, ReplayKind};
use crate::trace::Recorder;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct PointNetOverhead {
    /// Workload seed.
    pub seed: u64,
    /// Array width.
    pub lanes: usize,
    /// Model configuration.
    pub cfg: PointNetCfg,
    /// Points per cloud.
    pub points: usize,
    /// Clouds per model per step.
    pub batch: usize,
}

impl PointNetOverhead {
    /// The benchmark's sizes.
    pub fn new(seed: u64) -> Self {
        PointNetOverhead {
            seed,
            lanes: 8,
            cfg: PointNetCfg {
                width: 4,
                ..PointNetCfg::mini(16).stn(true)
            },
            points: 32,
            batch: 2,
        }
    }

    fn fused(&self, b: usize) -> FusedPointNetCls {
        let model = FusedPointNetCls::new(b, self.cfg, &mut Rng::seed_from(mix(self.seed, 0x9047)));
        model.set_training(false);
        model
    }

    fn stream(&self, lane: usize) -> PointClouds {
        PointClouds::new(self.points, mix(self.seed, 0x1000 + lane as u64))
    }

    fn array_of(&self, first: usize, b: usize, rec: &Recorder) -> FusedLeg {
        let model = rec.time("models.build", || self.fused(b));
        let params = model.fused_parameters();
        let lrs = PerModel::new((first..first + b).map(|l| lane_lr(1e-3, l)).collect());
        let mut leg = FusedLeg {
            spec: *self,
            first,
            init: Vec::new(),
            opt: FusedAdam::new(params.clone(), lrs).expect("widths match"),
            model,
            params,
            streams: Vec::new(),
            tape_nodes: 0,
        };
        leg.init = (0..b).map(|l| leg.extract(l)).collect();
        leg.rewind();
        leg
    }
}

struct FusedLeg {
    spec: PointNetOverhead,
    /// First lane of the sweep this array covers.
    first: usize,
    /// Every lane's state as built, for [`TrainLeg::rewind`].
    init: Vec<Vec<LaneState>>,
    model: FusedPointNetCls,
    params: Vec<FusedParameter>,
    opt: FusedAdam,
    streams: Vec<PointClouds>,
    tape_nodes: usize,
}

impl TrainLeg for FusedLeg {
    fn rewind(&mut self) {
        let init = std::mem::take(&mut self.init);
        self.splice(&init);
        self.init = init;
        self.streams = (self.first..self.first + self.init.len())
            .map(|l| self.spec.stream(l))
            .collect();
    }

    fn step(&mut self, rec: &Recorder, losses: &mut Vec<f32>) {
        let _step = rec.span("step");
        let n = self.spec.batch;
        let (clouds, labels): (Vec<_>, Vec<_>) = rec.time("data.batch", || {
            self.streams.iter_mut().map(|s| s.batch(n)).unzip()
        });
        let (x, targets) = rec.time("core.stack", || {
            (
                stack_conv(&clouds).expect("same-shape batches"),
                stack_targets(&labels).expect("same-length labels"),
            )
        });
        rec.time("core.zero_grad", || self.opt.zero_grad());
        let tape = Tape::new();
        let log_probs = rec.time("nn.forward", || self.model.forward(&tape.leaf(x)));
        let loss = rec.time("core.loss", || {
            // Per-lane mean NLL read straight off `[B, N, C]` log-probs.
            let lp = log_probs.value();
            let classes = lp.dim(2);
            let data = lp.as_slice();
            for (i, lane_labels) in labels.iter().enumerate() {
                let sum: f32 = lane_labels
                    .iter()
                    .enumerate()
                    .map(|(j, &y)| -data[(i * n + j) * classes + y])
                    .sum();
                losses.push(sum / n as f32);
            }
            fused_nll_loss(&log_probs, &targets, Reduction::Mean)
        });
        rec.time("nn.backward", || loss.backward());
        rec.time("core.optim_step", || self.opt.step());
        self.tape_nodes = tape.len();
    }

    fn tape_nodes(&self) -> usize {
        self.tape_nodes
    }

    fn extract(&self, lane: usize) -> Vec<LaneState> {
        vec![extract_lane(&self.params, &self.opt, lane)]
    }

    fn splice(&mut self, lanes: &[Vec<LaneState>]) {
        let column: Vec<LaneState> = lanes.iter().map(|l| l[0].clone()).collect();
        splice_lanes(&column, &self.params, &mut self.opt);
    }
}

struct SerialModel {
    model: PointNetCls,
    /// Initial parameter values.
    init: Vec<Tensor>,
    opt: Adam,
    stream: PointClouds,
}

struct SerialLeg {
    spec: PointNetOverhead,
    models: Vec<SerialModel>,
    tape_nodes: usize,
}

impl TrainLeg for SerialLeg {
    fn rewind(&mut self) {
        for (i, m) in self.models.iter_mut().enumerate() {
            for (param, value) in m.model.parameters().iter().zip(&m.init) {
                param.set_value(value.clone());
            }
            m.opt = Adam::new(m.model.parameters(), lane_lr(1e-3, i));
            m.stream = self.spec.stream(i);
        }
    }

    fn step(&mut self, rec: &Recorder, losses: &mut Vec<f32>) {
        let _step = rec.span("step");
        self.tape_nodes = 0;
        for SerialModel {
            model, opt, stream, ..
        } in &mut self.models
        {
            let (x, y) = stream.batch(self.spec.batch);
            opt.zero_grad();
            let tape = Tape::new();
            let loss = model.forward(&tape.leaf(x)).nll_loss(&y);
            losses.push(loss.item());
            loss.backward();
            opt.step();
            self.tape_nodes += tape.len();
        }
    }

    fn tape_nodes(&self) -> usize {
        self.tape_nodes
    }
}

impl TrainSpec for PointNetOverhead {
    fn name(&self) -> &'static str {
        "pointnet_overhead"
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn contract(&self) -> Contract {
        Contract::fused_serial()
    }

    fn array(&self, rec: &Recorder) -> Box<dyn TrainLeg> {
        Box::new(self.array_of(0, self.lanes, rec))
    }

    fn serial(&self) -> Box<dyn TrainLeg> {
        let fused = self.fused(self.lanes);
        let mut rng = Rng::seed_from(0);
        let models = (0..self.lanes)
            .map(|i| {
                let model = PointNetCls::new(self.cfg, &mut rng);
                model.set_training(false);
                copy_model_weights(&fused.fused_parameters(), i, &model.parameters());
                SerialModel {
                    init: model
                        .parameters()
                        .iter()
                        .map(|p| p.value_cloned())
                        .collect(),
                    opt: Adam::new(model.parameters(), lane_lr(1e-3, i)),
                    model,
                    stream: self.stream(i),
                }
            })
            .collect();
        Box::new(SerialLeg {
            spec: *self,
            models,
            tape_nodes: 0,
        })
    }

    fn single(&self, lane: usize) -> Box<dyn TrainLeg> {
        Box::new(self.array_of(lane, 1, &Recorder::new()))
    }

    fn replay(&self) -> Vec<ReplayItem> {
        // The classifier graph is the STN-free program; the STN in front of
        // it is the same trunk and head regressing a 3x3 matrix, applied to
        // the points by one batched product.
        let graph = pointnet_cls_graph(self.cfg, self.points);
        let mut stn = graph.ops.clone();
        stn.last_mut().expect("classifier head").c_out = 9;
        let (b, n) = (self.lanes, self.batch);
        let mut items = lower_ops(&stn, &graph.input, b, n, false, 1, 1);
        items.push(ReplayItem {
            kind: ReplayKind::Bmm {
                batch: b * n,
                m: self.points,
                k: 3,
                n: 3,
                bias: false,
            },
            fwd: 1,
            bwd: 1,
        });
        items.extend(lower_ops(&graph.ops, &graph.input, b, n, false, 1, 1));
        items
    }
}
