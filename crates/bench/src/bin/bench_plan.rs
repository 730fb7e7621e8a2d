//! Mixed-architecture auto-fusion bench: planner-driven partial fusion
//! vs all-serial execution of the same heterogeneous sweep.
//!
//! ```text
//! bench_plan [--steps <n>] [--quick] [--bench-json <path>] [--trace <dir>]
//! ```
//!
//! The sweep is four DCGAN-D-style classifiers sharing a stem and a
//! classifier head but differing in the middle: two lanes are the base
//! architecture, one inserts one shape-preserving refinement conv, one
//! inserts two. `FusionPlan::plan` fuses the common prefix and suffix at
//! width 4 and leaves each variant's middle as a width-1 serial block —
//! the partial-fusion shape hand-fused HFTA arrays cannot express.
//!
//! Both legs train the identical sweep (same seeds, same data, same
//! hyper-parameters): the **serial** leg runs the trivial no-fusion plan
//! (`FusionPlan::serial`, one width-1 block per lane), the
//! **partial-fusion** leg runs the planner's plan. The binary gates
//!
//! * **bit-identity** — every per-step per-lane loss and every final
//!   parameter must match the serial leg bit-for-bit (the planner may
//!   never change the math, only the schedule);
//! * **partiality** — the plan must actually mix fused and serial blocks
//!   (`0 < fused_fraction < 1`);
//! * **speedup** — the planned schedule must beat the serial baseline on
//!   the paper's device model (`hfta_models::planned_step_time_s` on a
//!   V100: fused blocks pay the per-kernel dispatch gap once per fused
//!   kernel and share one host pipeline). This is the same simulated
//!   currency every other scheduling claim in the repo gates on; it is
//!   deterministic, so it gates in `--quick` CI runs too. Host wall-clock
//!   per leg is reported for reference but not gated — on a 1-core CPU
//!   backend fused and serial execution do the same arithmetic.
//!
//! `--trace` additionally writes `plan.json` (the serialized
//! [`FusionPlan`]) into the trace dir for `hfta_report plan`, and records
//! each leg's per-lane loss streams under the `serial` / `partial-fusion`
//! experiment scopes — `hfta_report diff` gates those against
//! `ci/golden/plan.report.json`. `--bench-json` writes the per-plan
//! timing records that `hfta_report diff` gates across PRs.

use std::process::ExitCode;
use std::time::Instant;

use hfta_bench::cli::{write_json, CommonArgs};
use hfta_bench::record::{PlanFile, PlanRecord};
use hfta_core::optim::PerModel;
use hfta_core::planned::{per_lane_ce, PlannedArray, PlannedOptimizer};
use hfta_models::{planned_step_time_s, serial_step_time_s, PlanSimCfg};
use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_plan::{FusionPlan, ModelGraph, OpSpec};
use hfta_sim::{DeviceSpec, GpuSim};
use hfta_tensor::{Rng, Tensor};

/// Input image side; two stride-2 convs take it to `SIDE / 4`.
const SIDE: usize = 16;
/// Classifier head width.
const CLASSES: usize = 4;
/// Per-lane parameter seeds (arbitrary but fixed: the bit-identity gate
/// and the committed golden both depend on them).
const SEEDS: [u64; 4] = [201, 202, 203, 204];
/// Data-stream seed.
const DATA_SEED: u64 = 7;

const USAGE: &str = "bench_plan [--steps <n>] [--quick] [--bench-json <path>] [--trace <dir>]";

struct Args {
    steps: usize,
    width: usize,
    batch: usize,
    common: CommonArgs,
}

fn parse_args() -> Args {
    let mut common = CommonArgs::parse(USAGE);
    let steps = common.take(USAGE, "--steps", "a positive integer", |v: &usize| *v > 0);
    common.expect_no_rest(USAGE);
    Args {
        steps: steps.unwrap_or(if common.quick { 3 } else { 60 }),
        width: 8,
        batch: if common.quick { 2 } else { 4 },
        common,
    }
}

/// DCGAN-D-style classifier with `refine` shape-preserving middle convs:
/// stem and head are shared across the sweep, the middle is per-variant.
fn classifier_graph(width: usize, refine: usize) -> ModelGraph {
    let mut ops = vec![
        OpSpec::conv2d(Conv2dCfg::new(3, width, 4).stride(2).padding(1).bias(false)),
        OpSpec::leaky_relu(0.2),
        OpSpec::conv2d(
            Conv2dCfg::new(width, 2 * width, 4)
                .stride(2)
                .padding(1)
                .bias(false),
        ),
        OpSpec::batch_norm(2 * width),
        OpSpec::leaky_relu(0.2),
    ];
    for _ in 0..refine {
        ops.push(OpSpec::conv2d(
            Conv2dCfg::new(2 * width, 2 * width, 3)
                .stride(1)
                .padding(1)
                .bias(false),
        ));
        ops.push(OpSpec::relu());
    }
    ops.push(OpSpec::flatten());
    let spatial = SIDE / 4;
    ops.push(OpSpec::linear(LinearCfg::new(
        2 * width * spatial * spatial,
        CLASSES,
    )));
    ModelGraph::new(format!("dcgan-d-cls+{refine}"), vec![3, SIDE, SIDE], ops)
}

/// The mixed sweep: two base lanes plus two distinct refinement variants,
/// so the plan has width-4 fused prefix/suffix and width-1 serial middles.
fn sweep(width: usize) -> Vec<ModelGraph> {
    vec![
        classifier_graph(width, 0),
        classifier_graph(width, 1),
        classifier_graph(width, 0),
        classifier_graph(width, 2),
    ]
}

fn data(lanes: usize, batch: usize) -> (Vec<Tensor>, Vec<Vec<usize>>) {
    let mut rng = Rng::seed_from(DATA_SEED);
    let inputs = (0..lanes)
        .map(|_| rng.randn([batch, 3, SIDE, SIDE]))
        .collect();
    let targets = (0..lanes)
        .map(|_| (0..batch).map(|_| rng.below(CLASSES)).collect())
        .collect();
    (inputs, targets)
}

struct Leg {
    wall_ms: f64,
    /// Per-step per-lane loss bits (the bit-identity gate's evidence).
    loss_bits: Vec<Vec<u32>>,
    /// Per-lane final parameter bits.
    param_bits: Vec<Vec<u32>>,
}

/// Trains the sweep under `plan` for `steps` timed steps (plus one
/// untimed warm-up step shared by both legs, so allocator warm-up does
/// not bias whichever leg runs first).
fn run_leg(
    scope: &str,
    graphs: &[ModelGraph],
    plan: &FusionPlan,
    steps: usize,
    batch: usize,
) -> Leg {
    let profiler = hfta_telemetry::Profiler::current();
    let _exp = profiler.as_ref().map(|p| p.experiment(scope));
    let array = PlannedArray::build(graphs, plan, &SEEDS).expect("plan executes");
    let lr = PerModel::new(vec![0.01; graphs.len()]);
    let mut opt = PlannedOptimizer::sgd(&array, &lr, 0.9).expect("optimizer");
    let (inputs, targets) = data(graphs.len(), batch);
    let mut loss_bits = Vec::with_capacity(steps + 1);
    let mut wall_ms = 0.0;
    for step in 0..steps + 1 {
        let timer = (step > 0).then(Instant::now);
        let (_tape, outs) = array.forward(&inputs).expect("forward");
        let (losses, total) = per_lane_ce(&outs, &targets);
        total.backward();
        opt.step();
        opt.zero_grad();
        if let Some(t) = timer {
            wall_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        if let Some(p) = &profiler {
            for (lane, l) in losses.iter().enumerate() {
                p.scalar(lane as u64, "loss", step as u64, *l as f64);
            }
        }
        loss_bits.push(losses.iter().map(|l| l.to_bits()).collect());
    }
    let param_bits = (0..graphs.len())
        .map(|lane| {
            let state = opt.extract_lane(&array, lane);
            state
                .params
                .iter()
                .flat_map(|t| t.to_vec().into_iter().map(f32::to_bits))
                .collect()
        })
        .collect();
    Leg {
        wall_ms,
        loss_bits,
        param_bits,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let session = args.common.trace_session("bench_plan");

    let graphs = sweep(args.width);
    let serial = FusionPlan::serial(&graphs).expect("sweep shape-checks");
    let fused = FusionPlan::plan(&graphs).expect("sweep plans");
    let fraction = fused.fused_fraction();
    println!("{}", hfta_plan::render_timeline(&fused));

    let serial_leg = run_leg("serial", &graphs, &serial, args.steps, args.batch);
    let fused_leg = run_leg("partial-fusion", &graphs, &fused, args.steps, args.batch);

    let bit_identical = serial_leg.loss_bits == fused_leg.loss_bits
        && serial_leg.param_bits == fused_leg.param_bits;

    // Price both schedules on the paper's device model (deterministic).
    let sim = GpuSim::new(DeviceSpec::v100(), false);
    let sim_cfg = PlanSimCfg {
        batch: args.batch,
        ..PlanSimCfg::default()
    };
    let sim_serial_us = serial_step_time_s(&sim, &graphs, &sim_cfg).expect("sweep lowers") * 1e6;
    let sim_fused_us =
        planned_step_time_s(&sim, &graphs, &fused, &sim_cfg).expect("plan lowers") * 1e6;
    let speedup = sim_serial_us / sim_fused_us;

    println!(
        "{:>16} {:>14} {:>10} {:>12}",
        "plan", "sim_step_us", "wall_ms", "steps_per_s"
    );
    let steps_per_s = |wall_ms: f64| args.steps as f64 / (wall_ms / 1e3);
    for (label, sim_us, leg) in [
        ("serial", sim_serial_us, &serial_leg),
        ("partial-fusion", sim_fused_us, &fused_leg),
    ] {
        println!(
            "{label:>16} {sim_us:>14.1} {:>10.2} {:>12.2}",
            leg.wall_ms,
            steps_per_s(leg.wall_ms)
        );
    }
    println!(
        "\npartial fusion vs serial on a simulated V100: {speedup:.2}x, \
         {:.1}% of lane-ops fused (max width {}); bit-identical: {bit_identical}",
        fraction * 100.0,
        fused.max_fused_width()
    );

    let mut failed = false;
    if !bit_identical {
        eprintln!("FAIL: partial-fusion losses/parameters differ from the serial run");
        failed = true;
    }
    if fraction <= 0.0 || fraction >= 1.0 {
        eprintln!("FAIL: plan is not partial (fused_fraction {fraction}), nothing to measure");
        failed = true;
    }
    if speedup <= 1.0 {
        eprintln!(
            "FAIL: planned schedule ({sim_fused_us:.1}us) not faster than the serial \
             baseline ({sim_serial_us:.1}us) on the device model"
        );
        failed = true;
    }

    if let Some(dir) = &args.common.trace {
        let path = dir.join("plan.json").display().to_string();
        if let Err(e) = write_json(&path, &fused) {
            eprintln!("FAIL: cannot write {path}: {e}");
            failed = true;
        }
    }

    if let Some(path) = &args.common.bench_json {
        let file = PlanFile {
            name: "bench_plan".into(),
            device: "V100".into(),
            lanes: graphs.len() as u64,
            steps: args.steps as u64,
            width: args.width as u64,
            batch: args.batch as u64,
            fused_fraction: fraction,
            max_fused_width: fused.max_fused_width() as u64,
            records: vec![
                PlanRecord {
                    plan: "serial".into(),
                    sim_step_us: sim_serial_us,
                },
                PlanRecord {
                    plan: "partial-fusion".into(),
                    sim_step_us: sim_fused_us,
                },
            ],
            partial_fusion_speedup: speedup,
            bit_identical,
        };
        if let Err(e) = write_json(path, &file) {
            eprintln!("FAIL: cannot write {path}: {e}");
            failed = true;
        } else {
            println!("wrote {path}");
        }
    }

    session.finish_or_exit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
