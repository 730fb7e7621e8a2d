//! `dcgan_compute`: the paper's DCGAN benchmark — a full adversarial
//! iteration (D on real + fake, then G) of a width-`B` fused
//! generator/discriminator pair against `B` unfused pairs.
//!
//! Grouped conv / conv-transpose GEMMs and im2col do most of the work here
//! and tape, optimizer and allocator little, so this is where `kernels` and
//! `tensor` changes must show.

use hfta_core::array::copy_model_weights;
use hfta_core::format::stack_conv;
use hfta_core::loss::{fused_bce_with_logits, Reduction};
use hfta_core::ops::{FusedModule, FusedParameter};
use hfta_core::optim::{FusedAdam, FusedOptimizer, PerModel};
use hfta_core::surgery::{extract_lane, splice_lanes, LaneState};
use hfta_data::GanImages;
use hfta_models::graphs::{discriminator_graph, generator_graph};
use hfta_models::{DcganCfg, Discriminator, FusedDiscriminator, FusedGenerator, Generator};
use hfta_nn::{Adam, Module, Optimizer, Tape};
use hfta_tensor::{Rng, Tensor};

use super::train::{Contract, TrainLeg, TrainSpec};
use super::{lane_lr, mix};
use crate::replay::{lower_ops, ReplayItem};
use crate::trace::Recorder;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct DcganCompute {
    /// Workload seed.
    pub seed: u64,
    /// Array width.
    pub lanes: usize,
    /// Model configuration.
    pub cfg: DcganCfg,
    /// Batch per model.
    pub batch: usize,
}

impl DcganCompute {
    /// The benchmark's sizes.
    pub fn new(seed: u64) -> Self {
        DcganCompute {
            seed,
            lanes: 6,
            cfg: DcganCfg {
                latent: 32,
                width: 12,
                image: 64,
            },
            batch: 2,
        }
    }

    fn fused(&self, b: usize) -> (FusedGenerator, FusedDiscriminator) {
        let mut rng = Rng::seed_from(mix(self.seed, 0xdc6a));
        let gen = FusedGenerator::new(b, self.cfg, &mut rng);
        let disc = FusedDiscriminator::new(b, self.cfg, &mut rng);
        (gen, disc)
    }

    fn streams(&self, lane: usize) -> Streams {
        Streams {
            images: GanImages::new(self.cfg.image, mix(self.seed, 0x1000 + lane as u64)),
            noise: Rng::seed_from(mix(self.seed, 0x2000 + lane as u64)),
        }
    }

    /// A fused array over lanes `first..first + b` of the sweep. Only the
    /// full-width array is ever compared against the serial leg; narrower
    /// ones (the width-1 memory baseline) keep their own initial weights.
    fn array_of(&self, first: usize, b: usize, rec: &Recorder) -> FusedLeg {
        let (gen, disc) = rec.time("models.build", || self.fused(b));
        let lrs = PerModel::new((first..first + b).map(|l| lane_lr(2e-4, l)).collect());
        let gen_params = gen.fused_parameters();
        let disc_params = disc.fused_parameters();
        let mut leg = FusedLeg {
            spec: *self,
            first,
            init: Vec::new(),
            opt_g: FusedAdam::new(gen_params.clone(), lrs.clone()).expect("widths match"),
            opt_d: FusedAdam::new(disc_params.clone(), lrs).expect("widths match"),
            gen,
            disc,
            gen_params,
            disc_params,
            streams: Vec::new(),
            tape_nodes: 0,
        };
        leg.init = (0..b).map(|l| leg.extract(l)).collect();
        leg.rewind();
        leg
    }
}

struct Streams {
    images: GanImages,
    noise: Rng,
}

/// Mean binary cross-entropy with logits of column `col` of `logits [n, b]`
/// against the constant `target`.
fn bce_column(logits: &Tensor, col: usize, target: f32) -> f32 {
    let (n, b) = (logits.dim(0), logits.dim(1));
    let data = logits.as_slice();
    let sum: f32 = (0..n)
        .map(|i| {
            let x = data[i * b + col];
            x.max(0.0) - x * target + (-x.abs()).exp().ln_1p()
        })
        .sum();
    sum / n as f32
}

struct FusedLeg {
    spec: DcganCompute,
    /// First lane of the sweep this array covers.
    first: usize,
    /// Every lane's state as built, for [`TrainLeg::rewind`].
    init: Vec<Vec<LaneState>>,
    gen: FusedGenerator,
    disc: FusedDiscriminator,
    gen_params: Vec<FusedParameter>,
    disc_params: Vec<FusedParameter>,
    opt_g: FusedAdam,
    opt_d: FusedAdam,
    streams: Vec<Streams>,
    tape_nodes: usize,
}

impl TrainLeg for FusedLeg {
    fn rewind(&mut self) {
        let init = std::mem::take(&mut self.init);
        self.splice(&init);
        self.init = init;
        self.streams = (self.first..self.first + self.init.len())
            .map(|l| self.spec.streams(l))
            .collect();
    }

    fn step(&mut self, rec: &Recorder, losses: &mut Vec<f32>) {
        let _step = rec.span("step");
        let (n, b, latent) = (self.spec.batch, self.streams.len(), self.spec.cfg.latent);
        let (reals, z_d, z_g) = rec.time("data.batch", || {
            let mut out = (Vec::new(), Vec::new(), Vec::new());
            for s in &mut self.streams {
                out.0.push(s.images.batch(n));
                out.1.push(s.noise.randn([n, latent, 1, 1]));
                out.2.push(s.noise.randn([n, latent, 1, 1]));
            }
            out
        });
        let (real, z_d, z_g) = rec.time("core.stack", || {
            (
                stack_conv(&reals).expect("same-shape batches"),
                stack_conv(&z_d).expect("same-shape batches"),
                stack_conv(&z_g).expect("same-shape batches"),
            )
        });

        // Discriminator step: real batch up, detached fake batch down.
        rec.time("core.zero_grad", || self.opt_d.zero_grad());
        let tape = Tape::new();
        let (d_real, d_fake) = rec.time("nn.forward", || {
            let d_real = self.disc.forward(&tape.leaf(real));
            let fake = self.gen.forward(&tape.leaf(z_d)).value();
            (d_real, self.disc.forward(&tape.leaf(fake)))
        });
        let (d_loss, d_lanes) = rec.time("core.loss", || {
            let up = fused_bce_with_logits(&d_real, &Tensor::ones([n, b]), b, Reduction::Mean);
            let down = fused_bce_with_logits(&d_fake, &Tensor::zeros([n, b]), b, Reduction::Mean);
            let (vr, vf) = (d_real.value(), d_fake.value());
            let lanes: Vec<f32> = (0..b)
                .map(|i| bce_column(&vr, i, 1.0) + bce_column(&vf, i, 0.0))
                .collect();
            (up.add(&down), lanes)
        });
        rec.time("nn.backward", || d_loss.backward());
        rec.time("core.optim_step", || self.opt_d.step());
        self.tape_nodes = tape.len();

        // Generator step: fool the updated discriminator.
        rec.time("core.zero_grad", || self.opt_g.zero_grad());
        let tape = Tape::new();
        let d_out = rec.time("nn.forward", || {
            self.disc.forward(&self.gen.forward(&tape.leaf(z_g)))
        });
        let (g_loss, g_lanes) = rec.time("core.loss", || {
            let loss = fused_bce_with_logits(&d_out, &Tensor::ones([n, b]), b, Reduction::Mean);
            let v = d_out.value();
            (
                loss,
                (0..b).map(|i| bce_column(&v, i, 1.0)).collect::<Vec<f32>>(),
            )
        });
        rec.time("nn.backward", || g_loss.backward());
        rec.time("core.optim_step", || self.opt_g.step());
        self.tape_nodes += tape.len();

        for (d, g) in d_lanes.into_iter().zip(g_lanes) {
            losses.extend([d, g]);
        }
    }

    fn tape_nodes(&self) -> usize {
        self.tape_nodes
    }

    fn extract(&self, lane: usize) -> Vec<LaneState> {
        vec![
            extract_lane(&self.gen_params, &self.opt_g, lane),
            extract_lane(&self.disc_params, &self.opt_d, lane),
        ]
    }

    fn splice(&mut self, lanes: &[Vec<LaneState>]) {
        let column = |g: usize| lanes.iter().map(|l| l[g].clone()).collect::<Vec<_>>();
        splice_lanes(&column(0), &self.gen_params, &mut self.opt_g);
        splice_lanes(&column(1), &self.disc_params, &mut self.opt_d);
    }
}

struct SerialPair {
    gen: Generator,
    disc: Discriminator,
    /// Initial values of the generator's then the discriminator's parameters.
    init: Vec<Tensor>,
    opt_g: Adam,
    opt_d: Adam,
    streams: Streams,
}

struct SerialLeg {
    spec: DcganCompute,
    pairs: Vec<SerialPair>,
    tape_nodes: usize,
}

impl TrainLeg for SerialLeg {
    fn rewind(&mut self) {
        for (i, p) in self.pairs.iter_mut().enumerate() {
            let params = p.gen.parameters().into_iter().chain(p.disc.parameters());
            for (param, value) in params.zip(&p.init) {
                param.set_value(value.clone());
            }
            let lr = lane_lr(2e-4, i);
            p.opt_g = Adam::new(p.gen.parameters(), lr);
            p.opt_d = Adam::new(p.disc.parameters(), lr);
            p.streams = self.spec.streams(i);
        }
    }

    fn step(&mut self, rec: &Recorder, losses: &mut Vec<f32>) {
        let _step = rec.span("step");
        let (n, latent) = (self.spec.batch, self.spec.cfg.latent);
        self.tape_nodes = 0;
        // Round-robin: every model takes its step before any takes the next.
        for p in &mut self.pairs {
            let real = p.streams.images.batch(n);
            let z_d = p.streams.noise.randn([n, latent, 1, 1]);
            let z_g = p.streams.noise.randn([n, latent, 1, 1]);

            p.opt_d.zero_grad();
            let tape = Tape::new();
            let up = p
                .disc
                .forward(&tape.leaf(real))
                .bce_with_logits(&Tensor::ones([n, 1]));
            let fake = p.gen.forward(&tape.leaf(z_d)).value();
            let down = p
                .disc
                .forward(&tape.leaf(fake))
                .bce_with_logits(&Tensor::zeros([n, 1]));
            let d_loss = up.add(&down);
            losses.push(d_loss.item());
            d_loss.backward();
            p.opt_d.step();
            self.tape_nodes += tape.len();

            p.opt_g.zero_grad();
            let tape = Tape::new();
            let g_loss = p
                .disc
                .forward(&p.gen.forward(&tape.leaf(z_g)))
                .bce_with_logits(&Tensor::ones([n, 1]));
            losses.push(g_loss.item());
            g_loss.backward();
            p.opt_g.step();
            self.tape_nodes += tape.len();
        }
    }

    fn tape_nodes(&self) -> usize {
        self.tape_nodes
    }
}

impl TrainSpec for DcganCompute {
    fn name(&self) -> &'static str {
        "dcgan_compute"
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn losses_per_lane(&self) -> usize {
        2
    }

    fn contract(&self) -> Contract {
        Contract::fused_serial()
    }

    fn array(&self, rec: &Recorder) -> Box<dyn TrainLeg> {
        Box::new(self.array_of(0, self.lanes, rec))
    }

    fn serial(&self) -> Box<dyn TrainLeg> {
        let (fused_g, fused_d) = self.fused(self.lanes);
        let mut rng = Rng::seed_from(0);
        let pairs = (0..self.lanes)
            .map(|i| {
                let gen = Generator::new(self.cfg, &mut rng);
                let disc = Discriminator::new(self.cfg, &mut rng);
                copy_model_weights(&fused_g.fused_parameters(), i, &gen.parameters());
                copy_model_weights(&fused_d.fused_parameters(), i, &disc.parameters());
                let lr = lane_lr(2e-4, i);
                SerialPair {
                    init: gen
                        .parameters()
                        .iter()
                        .chain(&disc.parameters())
                        .map(|p| p.value_cloned())
                        .collect(),
                    opt_g: Adam::new(gen.parameters(), lr),
                    opt_d: Adam::new(disc.parameters(), lr),
                    gen,
                    disc,
                    streams: self.streams(i),
                }
            })
            .collect();
        Box::new(SerialLeg {
            spec: *self,
            pairs,
            tape_nodes: 0,
        })
    }

    fn single(&self, lane: usize) -> Box<dyn TrainLeg> {
        Box::new(self.array_of(lane, 1, &Recorder::new()))
    }

    fn replay(&self) -> Vec<ReplayItem> {
        // One iteration runs D forward three times (real, fake, G's step)
        // and backward three times; G forward twice, backward once.
        let d = discriminator_graph(self.cfg);
        let g = generator_graph(self.cfg);
        let mut items = lower_ops(&d.ops, &d.input, self.lanes, self.batch, true, 3, 3);
        items.extend(lower_ops(
            &g.ops, &g.input, self.lanes, self.batch, true, 2, 1,
        ));
        items
    }
}
