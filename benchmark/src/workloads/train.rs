//! The three training workloads share one measuring harness: a
//! [`TrainSpec`] says how to build the array, the serial baseline and a
//! single lane; [`TrainBench`] drives them through the runner.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hfta_core::snapshot::{load_lane, save_lane};
use hfta_core::surgery::LaneState;
use hfta_tensor::Rng;

use crate::host::HostRecord;
use crate::oracle::{LossDigest, Oracle, FUSED_SERIAL_REL_TOL};
use crate::replay::{replay_step, ReplayCost, ReplayItem};
use crate::runner::{Bench, LayerCtx, Leg, Window, PEAK_MEM_UNITS, WARMUP_UNITS};
use crate::stats::median;
use crate::trace::{coverage, ledger, tail, Recorder};

/// Timed array steps whose losses make up `core.loss_digest`. Fixed, so the
/// digest does not depend on how many steps a host fits into a run.
const DIGEST_STEPS: usize = 6;
/// Steps behind each exact per-step count (allocations, pool dispatches).
const COUNT_STEPS: usize = 4;
/// Steps a leg may train before it is returned to its initial state. Well
/// short of where step cost starts to drift: on `pointnet_overhead` Adam
/// moments of dead units reach the denormal range after ~600 steps and a
/// step gets up to 2x slower.
const REWIND_AFTER: usize = 128;

/// What the array leg's losses must agree with the serial leg's to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Contract {
    /// Bit for bit, final parameters included (planned vs serial plan).
    Bits,
    /// Within this relative tolerance (fused vs unfused models).
    Rel(f32),
}

impl Contract {
    /// The repo's fused-vs-serial tolerance.
    pub fn fused_serial() -> Contract {
        Contract::Rel(FUSED_SERIAL_REL_TOL)
    }
}

/// One trainable replica: a fused array, a planned array, or `B` serial
/// models, each owning its data streams.
pub trait TrainLeg {
    /// Advances every lane one optimizer step on its next batch and
    /// appends the per-lane losses to `losses`.
    fn step(&mut self, rec: &Recorder, losses: &mut Vec<f32>);

    /// Returns the leg to its freshly built state: initial parameters,
    /// empty optimizer state, data streams at their start.
    fn rewind(&mut self);

    /// Tape nodes the last step recorded.
    fn tape_nodes(&self) -> usize;

    /// Lane `lane`'s complete training state, one entry per optimizer.
    /// Legs without lane surgery (plain serial models) return nothing.
    fn extract(&self, _lane: usize) -> Vec<LaneState> {
        Vec::new()
    }

    /// Writes `lanes[lane][optimizer]` back into the array.
    fn splice(&mut self, _lanes: &[Vec<LaneState>]) {
        unreachable!("leg has no lane surgery");
    }
}

/// A training workload.
pub trait TrainSpec {
    /// Workload name.
    fn name(&self) -> &'static str;
    /// Lanes (models) in the array.
    fn lanes(&self) -> usize;
    /// Loss values each lane reports per step.
    fn losses_per_lane(&self) -> usize {
        1
    }
    /// Contract between the array leg and the serial leg.
    fn contract(&self) -> Contract;
    /// Builds the array leg: models, plan, optimizer.
    fn array(&self, rec: &Recorder) -> Box<dyn TrainLeg>;
    /// Builds the serial leg: the same lanes, unfused, one after another.
    fn serial(&self) -> Box<dyn TrainLeg>;
    /// Builds lane `lane` alone at width 1 (memory baseline).
    fn single(&self, lane: usize) -> Box<dyn TrainLeg>;
    /// The op list of one array step, for the shape replay.
    fn replay(&self) -> Vec<ReplayItem>;
    /// `(fused_fraction, blocks)` when a `FusionPlan` drives the array.
    fn plan_shape(&self) -> Option<(f64, usize)> {
        None
    }
}

/// Runs a [`TrainSpec`] through the runner.
pub struct TrainBench<S: TrainSpec> {
    spec: S,
    /// Where recovery keeps its snapshot files.
    snapshot_dir: PathBuf,
    legs: BTreeMap<Leg, Box<dyn TrainLeg>>,
    /// This round's losses per leg, cleared by [`Bench::end_round`].
    round: BTreeMap<Leg, Vec<f32>>,
    digest: LossDigest,
    digested_steps: usize,
    /// Steps the fastest-advancing leg took since the last rewind.
    since_rewind: usize,
}

impl<S: TrainSpec> TrainBench<S> {
    /// Wraps `spec`, keeping snapshot files under `out_dir`.
    pub fn new(spec: S, out_dir: &Path) -> Self {
        TrainBench {
            snapshot_dir: out_dir.join("tmp").join(format!(
                "{}-{}",
                spec.name(),
                std::process::id()
            )),
            spec,
            legs: BTreeMap::new(),
            round: BTreeMap::new(),
            digest: LossDigest::default(),
            digested_steps: 0,
            since_rewind: 0,
        }
    }

    fn steps(&mut self, leg: Leg, n: usize, rec: &Recorder) -> Vec<f32> {
        let mut losses = Vec::new();
        let l = self.legs.get_mut(&replica(leg)).expect("leg was prepared");
        for _ in 0..n {
            rec.next_step();
            l.step(rec, &mut losses);
        }
        losses
    }

    fn lane_steps(&self, losses: &[f32]) -> u64 {
        (losses.len() / self.spec.losses_per_lane()) as u64
    }
}

/// Traced and profiled windows share one replica.
fn replica(leg: Leg) -> Leg {
    match leg {
        Leg::Profiled => Leg::Traced,
        other => other,
    }
}

fn peak_over(leg: &mut dyn TrainLeg, rec: &Recorder, steps: usize) -> u64 {
    hfta_mem::trim();
    hfta_mem::reset_stats();
    let mut sink = Vec::new();
    for _ in 0..steps {
        leg.step(rec, &mut sink);
    }
    hfta_mem::stats().peak_footprint_bytes
}

impl<S: TrainSpec> Bench for TrainBench<S> {
    fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn setup(&mut self, rec: &Recorder, keep: bool) {
        if keep {
            // Drop the previous array first: a set-up starts from nothing.
            self.legs.remove(&Leg::Array);
        }
        let _span = rec.span("setup");
        let mut array = self.spec.array(rec);
        let mut sink = Vec::new();
        for _ in 0..WARMUP_UNITS {
            array.step(rec, &mut sink);
        }
        if keep {
            self.legs.insert(Leg::Array, array);
        }
    }

    fn peak_mem_bytes(&mut self, rec: &Recorder) -> u64 {
        let array = self.legs.get_mut(&Leg::Array).expect("set up");
        peak_over(array.as_mut(), rec, PEAK_MEM_UNITS)
    }

    fn prepare(&mut self, legs: &[Leg], host: &HostRecord, rec: &Recorder) -> BTreeMap<Leg, f64> {
        let warm = WARMUP_UNITS + PEAK_MEM_UNITS;
        let mut unit_secs = BTreeMap::new();
        for &leg in legs {
            if replica(leg) != leg {
                continue;
            }
            if leg != Leg::Array {
                let built = match leg {
                    Leg::Serial => self.spec.serial(),
                    _ => self.spec.array(rec),
                };
                self.legs.insert(leg, built);
                // Bring the new leg level with the array leg, on the
                // thread count it will be timed at.
                hfta_kernels::set_num_threads(if leg == Leg::ArrayMt {
                    host.threads_mt
                } else {
                    1
                });
                self.steps(leg, warm, rec);
                hfta_kernels::set_num_threads(1);
            }
        }
        // One more unit on every leg, timed, to size the windows; all
        // legs take it, so they stay in lockstep.
        for &leg in legs {
            if replica(leg) != leg {
                continue;
            }
            let t = Instant::now();
            self.steps(leg, 1, rec);
            unit_secs.insert(leg, t.elapsed().as_secs_f64());
        }
        for &leg in legs {
            if let Some(&secs) = unit_secs.get(&replica(leg)) {
                unit_secs.insert(leg, secs);
            }
        }
        unit_secs
    }

    fn begin_round(&mut self, units: usize) {
        // The traced replica takes two windows a round.
        if self.since_rewind + 2 * units > REWIND_AFTER {
            for leg in self.legs.values_mut() {
                leg.rewind();
            }
            self.since_rewind = 0;
        }
        self.since_rewind += 2 * units;
    }

    fn window(&mut self, leg: Leg, units: usize, rec: &Recorder, oracle: &mut Oracle) -> Window {
        let t = Instant::now();
        let losses = self.steps(leg, units, rec);
        let secs = t.elapsed().as_secs_f64();
        let per_lane = self.spec.losses_per_lane();
        oracle.check_finite(self.spec.name(), &losses, per_lane);
        if leg == Leg::Array && self.digested_steps < DIGEST_STEPS {
            let per_step = self.spec.lanes() * per_lane;
            let take = (DIGEST_STEPS - self.digested_steps).min(units);
            self.digest.update(&losses[..take * per_step]);
            self.digested_steps += take;
        }
        let lane_steps = self.lane_steps(&losses);
        // The traced and profiled windows advance their shared replica
        // twice per round; only lockstep legs are compared.
        if replica(leg) == leg && leg != Leg::Traced {
            self.round.insert(leg, losses);
        }
        Window { lane_steps, secs }
    }

    fn end_round(&mut self, oracle: &mut Oracle) {
        let per_lane = self.spec.losses_per_lane();
        let round = std::mem::take(&mut self.round);
        let array = &round[&Leg::Array];
        if let Some(mt) = round.get(&Leg::ArrayMt) {
            oracle.check_bits("array@1T vs array@mt", array, mt, per_lane);
        }
        let serial = &round[&Leg::Serial];
        match self.spec.contract() {
            Contract::Bits => oracle.check_bits("array vs serial plan", array, serial, per_lane),
            Contract::Rel(tol) => oracle.check_rel("array vs serial", array, serial, per_lane, tol),
        }
    }

    fn recover_ms(&mut self, _oracle: &mut Oracle) -> f64 {
        // The array-scope analogue of `ServeEngine::recover`: every lane's
        // snapshot file read, decoded and spliced back into the array. The
        // snapshots are taken (off the clock) right before, so the splice
        // leaves the array, and the lockstep, unchanged.
        let dir = &self.snapshot_dir;
        std::fs::create_dir_all(dir).expect("creating the snapshot directory");
        let lanes = self.spec.lanes();
        let array = self.legs.get_mut(&Leg::Array).expect("set up");
        let mut paths = Vec::new();
        for lane in 0..lanes {
            let mut lane_paths = Vec::new();
            for (g, state) in array.extract(lane).iter().enumerate() {
                let path = dir.join(format!("lane{lane}.opt{g}.snap"));
                std::fs::write(&path, save_lane(state)).expect("writing a lane snapshot");
                lane_paths.push(path);
            }
            paths.push(lane_paths);
        }
        let t = Instant::now();
        let states: Vec<Vec<LaneState>> = paths
            .iter()
            .map(|lane_paths| {
                lane_paths
                    .iter()
                    .map(|p| {
                        let bytes = std::fs::read(p).expect("reading a lane snapshot");
                        load_lane(&bytes).expect("snapshot written by this run decodes")
                    })
                    .collect()
            })
            .collect();
        array.splice(&states);
        t.elapsed().as_secs_f64() * 1e3
    }

    fn finish(&mut self, oracle: &mut Oracle) {
        let _ = std::fs::remove_dir_all(&self.snapshot_dir);
        if self.spec.contract() != Contract::Bits {
            return;
        }
        let bits = |leg: &dyn TrainLeg, lane: usize| -> Vec<u32> {
            leg.extract(lane)
                .iter()
                .flat_map(|s| s.params.iter())
                .flat_map(|t| t.to_vec().into_iter().map(f32::to_bits))
                .collect()
        };
        for lane in 0..self.spec.lanes() {
            let a = bits(self.legs[&Leg::Array].as_ref(), lane);
            let s = bits(self.legs[&Leg::Serial].as_ref(), lane);
            oracle.check(!a.is_empty() && a == s, || {
                format!("lane {lane}: final parameters differ from the serial plan's")
            });
        }
    }

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        let lanes = self.spec.lanes();
        let mt = ctx.series.contains_key(&Leg::ArrayMt);

        // Rows read off the traced windows' spans.
        let all = ctx.rec.spans();
        let spans = tail(&all, ctx.loop_start);
        let rows = ledger(&spans);
        let steps = rows.get("step").map_or(0, |r| r.count).max(1) as f64;
        let per_step = |name: &str| {
            rows.get(name)
                .map_or(0.0, |r| r.total_ns as f64 / 1e6 / steps)
        };
        let forward = per_step("nn.forward");
        let backward = per_step("nn.backward");
        ctx.set("nn.forward_ms_per_step", forward);
        ctx.set("nn.backward_ms_per_step", backward);
        ctx.set("core.optim_ms_per_step", per_step("core.optim_step"));
        ctx.set("core.zero_grad_ms_per_step", per_step("core.zero_grad"));
        ctx.set("core.loss_ms_per_step", per_step("core.loss"));
        ctx.set("core.stack_ms_per_step", per_step("core.stack"));
        ctx.set("data.batch_ms_per_step", per_step("data.batch"));
        ctx.set("trace.ledger_coverage", coverage(&spans, "step"));
        ctx.set("trace.steps", steps);
        // Build and planning happen in the set-ups, one span per set-up.
        let median_ms = |name: &str| {
            let ms: Vec<f64> = all[..ctx.loop_start]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            if ms.is_empty() {
                0.0
            } else {
                median(&ms)
            }
        };
        let (build_ms, plan_ms) = (median_ms("models.build"), median_ms("plan.plan"));
        ctx.set("models.build_ms", build_ms);
        ctx.set("plan.plan_ms", plan_ms);
        if let Some((fraction, blocks)) = self.spec.plan_shape() {
            ctx.set("plan.fused_fraction", fraction);
            ctx.set("plan.blocks", blocks as f64);
        }

        // Rows below the tape: shape replay, median of three passes.
        ctx.rec.set_enabled(true);
        let items = self.spec.replay();
        let mut rng = Rng::seed_from(ctx.cfg.seed);
        let passes: Vec<ReplayCost> = (0..3)
            .map(|_| {
                ctx.rec.next_step();
                replay_step(&items, ctx.rec, &mut rng)
            })
            .collect();
        ctx.rec.set_enabled(false);
        let med = |f: fn(&ReplayCost) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let gemm_ms = med(ReplayCost::gemm_ms);
        ctx.set("kernels.gemm_ms_per_step", gemm_ms);
        if gemm_ms > 0.0 {
            ctx.set("kernels.gemm_gflops", passes[0].gemm_flops / gemm_ms / 1e6);
        }
        let conv_ms = med(|c| c.conv_ms);
        ctx.set("tensor.conv_ms_per_step", conv_ms);
        ctx.set(
            "tensor.im2col_ms_per_step",
            (conv_ms - med(|c| c.conv_gemm_ms)).max(0.0),
        );
        ctx.set("tensor.bmm_ms_per_step", med(|c| c.bmm_ms));
        ctx.set("tensor.norm_ms_per_step", med(|c| c.norm_ms));
        ctx.set("tensor.elementwise_ms_per_step", med(|c| c.elementwise_ms));
        ctx.set(
            "nn.tape_overhead_ms_per_step",
            forward + backward - med(ReplayCost::tensor_ms),
        );

        // Exact counts over a steady stretch of the traced replica.
        hfta_mem::reset_stats();
        self.steps(Leg::Traced, COUNT_STEPS, ctx.rec);
        let mem = hfta_mem::stats();
        ctx.set(
            "mem.fresh_allocs_per_step",
            mem.fresh_allocs() as f64 / COUNT_STEPS as f64,
        );
        ctx.set(
            "mem.pool_reuses_per_step",
            mem.pool_reuses as f64 / COUNT_STEPS as f64,
        );
        ctx.set(
            "nn.tape_nodes_per_step",
            self.legs[&Leg::Traced].tape_nodes() as f64,
        );
        if mt {
            hfta_kernels::set_num_threads(ctx.host.threads_mt);
            let before = hfta_kernels::pool_dispatches();
            self.steps(Leg::Traced, COUNT_STEPS, ctx.rec);
            ctx.set(
                "kernels.pool_dispatches_per_step",
                (hfta_kernels::pool_dispatches() - before) as f64 / COUNT_STEPS as f64,
            );
            ctx.set(
                "kernels.parallel_for_us",
                parallel_for_us(ctx.host.threads_mt),
            );
            hfta_kernels::set_num_threads(1);
            ctx.set("kernels.lane_steps_per_s_mt", ctx.throughput(Leg::ArrayMt));
            ctx.set(
                "kernels.mt_scaling",
                ctx.throughput(Leg::ArrayMt) / ctx.throughput(Leg::Array),
            );
        }

        // Lane surgery and snapshots, called directly on the array.
        let traced = self.legs.get_mut(&Leg::Traced).expect("traced leg");
        let time_us = |f: &mut dyn FnMut()| {
            let us: Vec<f64> = (0..9)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&us)
        };
        ctx.set(
            "core.surgery_extract_us",
            time_us(&mut || {
                std::hint::black_box(traced.extract(0));
            }),
        );
        let all: Vec<Vec<LaneState>> = (0..lanes).map(|l| traced.extract(l)).collect();
        ctx.set(
            "core.surgery_splice_us",
            time_us(&mut || traced.splice(&all)) / lanes as f64,
        );
        ctx.set(
            "core.snapshot_save_us",
            time_us(&mut || {
                std::hint::black_box(all[0].iter().map(save_lane).collect::<Vec<_>>());
            }),
        );
        let bytes: Vec<Vec<u8>> = all[0].iter().map(save_lane).collect();
        ctx.set(
            "core.snapshot_load_us",
            time_us(&mut || {
                for b in &bytes {
                    std::hint::black_box(load_lane(b).expect("own snapshot decodes"));
                }
            }),
        );

        // Memory: what fusion saves over B separate width-1 runs.
        let singles: u64 = (0..lanes)
            .map(|lane| {
                let mut single = self.spec.single(lane);
                let mut sink = Vec::new();
                for _ in 0..WARMUP_UNITS {
                    single.step(ctx.rec, &mut sink);
                }
                peak_over(single.as_mut(), ctx.rec, PEAK_MEM_UNITS)
            })
            .sum();
        ctx.set(
            "mem.peak_bytes_per_lane",
            ctx.peak_mem_bytes as f64 / lanes as f64,
        );
        ctx.set(
            "mem.fusion_mem_savings",
            singles as f64 / ctx.peak_mem_bytes as f64,
        );

        ctx.set(
            "core.fusion_speedup",
            ctx.throughput(Leg::Array) / ctx.throughput(Leg::Serial),
        );
        ctx.set("core.loss_digest", self.digest.value() as f64);
        ctx.set(
            "telemetry.profiler_overhead_pct",
            ctx.overhead_pct(Leg::Profiled),
        );
        ctx.set("trace.overhead_pct", ctx.overhead_pct(Leg::Traced));
        ctx.set("trace.spans", ctx.rec.spans().len() as f64);
    }
}

/// Round trip of an empty two-chunk dispatch through the worker pool.
pub fn parallel_for_us(threads: usize) -> f64 {
    const CALLS: usize = 2000;
    let t = Instant::now();
    for _ in 0..CALLS {
        hfta_kernels::parallel_for_work(threads, 1, hfta_kernels::pool::MIN_POOL_WORK, |r| {
            std::hint::black_box(r);
        });
    }
    t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
}
