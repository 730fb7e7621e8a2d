//! A tiny deterministic fused sweep that exercises the whole hfta-scope
//! stack: per-model loss/grad-norm/param-norm/update-ratio streams, a
//! deliberately NaN-seeded model, the divergence sentinel that catches it,
//! and the quarantine that freezes it — all written to a `--trace` dir for
//! `hfta_report` to render and diff (CI diffs the report against
//! `ci/golden/scope_sweep.report.json`).
//!
//! ```text
//! scope_sweep [--steps <n>] [--trace <dir>]
//! ```
//!
//! Everything is seeded and thread-count independent, so the report's
//! losses, streams and sentinel events are bit-reproducible; only wall
//! times and throughput vary by machine (which `hfta_report diff` never
//! reads).

use hfta_bench::cli::CommonArgs;
use hfta_bench::scope_report::print_health;
use hfta_core::array::ModelArray;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedLinear;
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::scope::{per_model_ce_losses, poison_model_lane, ScopeMonitor, SentinelCfg};
use hfta_nn::layers::LinearCfg;
use hfta_telemetry::Profiler;
use hfta_tensor::{Rng, Tensor};

const B: usize = 4;
const N: usize = 6;
const F_IN: usize = 8;
const CLASSES: usize = 4;
/// The NaN-seeded lane (a sweep candidate whose training "blows up").
const VICTIM: usize = 3;
/// The victim's gradients go NaN after this step's backward pass.
const POISON_STEP: u64 = 1;

const USAGE: &str = "scope_sweep [--steps <n>] [--trace <dir>]";

fn main() {
    let mut args = CommonArgs::parse(USAGE);
    let session = args.trace_session("scope_sweep");
    // Without --trace, still install a local profiler so the health table
    // at the end has streams to render.
    let local = if session.is_active() {
        None
    } else {
        Some(Profiler::new("scope_sweep"))
    };
    let _local_guard = local.as_ref().map(Profiler::install);

    let steps = args
        .take(USAGE, "--steps", "a non-negative integer", |_: &u64| true)
        .unwrap_or(2);
    args.expect_no_rest(USAGE);

    let lrs = PerModel::new(vec![0.05, 0.1, 0.2, 0.5]);
    let mut rng = Rng::seed_from(0x5C09E);
    let array = ModelArray::new(FusedLinear::new(B, LinearCfg::new(F_IN, CLASSES), &mut rng));
    let params = array.fused_parameters();
    let mut opt = FusedSgd::new(params.clone(), lrs, 0.9).expect("matching widths");
    let mut monitor = ScopeMonitor::new(B, SentinelCfg::default());

    for step in 0..steps {
        let xs: Vec<Tensor> = (0..B).map(|_| rng.randn([N, F_IN])).collect();
        let targets: Vec<usize> = (0..B * N).map(|_| rng.below(CLASSES)).collect();
        opt.zero_grad();
        let (_tape, logits) = array.forward_array(&xs).expect("uniform shapes");
        let losses = per_model_ce_losses(&logits, &targets);
        array.record_step(step, &losses, 0.0);
        let loss = fused_cross_entropy(&logits, &targets, Reduction::Mean);
        loss.backward();
        if step == POISON_STEP {
            poison_model_lane(&params, VICTIM);
        }
        let newly = monitor.after_backward(step, &losses, &params, &mut opt);
        for m in newly {
            eprintln!("step {step}: quarantined model {m}");
        }
        opt.step();
        monitor.after_step(step, &params);
    }

    let profiler = Profiler::current().expect("profiler installed above");
    let report = profiler.report();
    for exp in &report.experiments {
        print_health(exp);
    }
    println!(
        "\nsweep done: {steps} steps, B = {B}, {} sentinel event(s)",
        monitor.events().len()
    );

    drop(_local_guard);
    session.finish_or_exit();
}
