//! Kernel-layer benchmark harness.
//!
//! Measures the `hfta-kernels` GEMM dispatch (`auto`, the only one: the
//! AVX2/FMA tile where the CPU has it, the portable `mul_add` tile
//! elsewhere) and the fused conv training step (forward + grad_input +
//! grad_weight, B = 6 fused DCGAN-style models), and prints every
//! measurement.
//!
//! Usage:
//!
//! ```text
//! bench_kernels [--quick] [--gate-scaling <ratio>]
//! ```
//!
//! Rows are measured at 1 thread and at `min(4, host_cpus)` threads; no row
//! is ever emitted with more threads than the host has CPUs, because two
//! threads time-slicing one core measure the scheduler, not the kernel.
//! Per shape, a `scaling efficiency` line reports GFLOP/s at the
//! multi-thread count over 1 thread (absent on a 1-CPU host).
//!
//! The binary exits 1 if hfta-scope's untraced cost exceeds
//! [`SCOPE_OVERHEAD_BUDGET_PCT`] of a fused training step.
//! `--gate-scaling <ratio>` turns the 4T/1T scaling ratio into a gate on
//! large shapes too (exit 1 below the ratio; skipped with a note on hosts
//! with fewer than 4 CPUs).

use std::cmp::Ordering;
use std::process::ExitCode;

use hfta_bench::cli::CommonArgs;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{Fused, FusedParameter, Ops};
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::scope::{per_model_ce_losses, ScopeMonitor, SentinelCfg};
use hfta_kernels::{set_num_threads, simd_available};
use hfta_nn::layers::{Conv2d, Conv2dCfg};
use hfta_nn::{Module, Tape};
use hfta_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, ConvCfg};
use hfta_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// One fused DCGAN-style training step (conv forward, fused CE loss,
/// backward, SGD); with `scope` set it also runs the full hfta-scope
/// per-step protocol (per-model losses, sentinel scan, health pass).
fn dcgan_step(
    conv: &Conv2d,
    opt: &mut FusedSgd,
    x: &Tensor,
    targets: &[usize],
    b: usize,
    scope: Option<(&mut ScopeMonitor, &[FusedParameter], u64)>,
) -> f32 {
    opt.zero_grad();
    let tape = Tape::new();
    let y = conv.forward(&tape.leaf(x.clone()));
    let dims = y.dims();
    let pooled = y
        .reshape(&[dims[0], dims[1], dims[2] * dims[3]])
        .mean_axis_keep(2);
    let classes = dims[1] / b;
    let logits = pooled.reshape(&[dims[0], b, classes]).permute(&[1, 0, 2]);
    let loss = fused_cross_entropy(&logits, targets, Reduction::Mean);
    let out = loss.item();
    match scope {
        Some((monitor, params, step)) => {
            let losses = per_model_ce_losses(&logits, targets);
            loss.backward();
            monitor.after_backward(step, &losses, params, opt);
            opt.step();
            monitor.after_step(step, params);
        }
        None => {
            loss.backward();
            opt.step();
        }
    }
    out
}

/// Times `f` (after one warm-up call): the best (minimum) mean ns/iter over
/// three back-to-back windows of `iters` calls. Taking the fastest window
/// filters scheduler preemption and frequency dips on shared hosts — the
/// shortest observation is the closest to the kernel's true cost, which is
/// what thread-scaling ratios should compare.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// The 4T/1T scaling ratio only gates on shapes at least this many FLOPs —
/// small GEMMs are latency- not throughput-bound.
const LARGE_SHAPE_FLOPS: f64 = (1u64 << 23) as f64;

/// Upper bound on hfta-scope's untraced cost, percent of a fused
/// training step.
const SCOPE_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// One timed (op, shape, threads) cell.
struct Row {
    op: &'static str,
    shape: String,
    threads: usize,
    /// Best mean nanoseconds per iteration.
    ns_per_iter: f64,
    /// FLOPs per iteration.
    flops: f64,
}

impl Row {
    fn gflops(&self) -> f64 {
        self.flops / self.ns_per_iter
    }
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

const USAGE: &str = "bench_kernels [--quick] [--gate-scaling <ratio>]";

fn main() -> ExitCode {
    let mut args = CommonArgs::from_env();
    let quick = args.take_switch("--quick");
    let gate_scaling = args.take(
        USAGE,
        "--gate-scaling",
        "a non-negative ratio",
        |r: &f64| *r >= 0.0,
    );
    args.expect_no_rest(USAGE);
    let iters = if quick { 1 } else { 10 };
    let prev_threads = hfta_kernels::num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if !simd_available() {
        println!("note: AVX2/FMA unavailable on this CPU; `auto` rows run the portable kernels");
    }

    // Thread counts measured: 1 and — never above the host's CPU count —
    // `mt`.
    let backend = hfta_kernels::gemm::backend().name();
    let mt = host_cpus.min(4);
    let mut thread_counts = vec![1];
    if mt > 1 {
        thread_counts.push(mt);
    } else {
        println!("note: 1-CPU host; multi-thread rows and scaling are not measurable here");
    }
    let mut records = Vec::new();
    let mut rng = Rng::seed_from(17);

    // --- Plain GEMM at paper workload shapes ------------------------------
    let gemm_shapes = [
        ("pointnet", 64usize, 64usize, 1024usize),
        ("dcgan_im2col", 96, 48, 256),
        // Short `k`: the regime where the copies around the tile cost most.
        ("dcgan_short_k", 192, 24, 256),
        ("square_large", 256, 256, 256),
    ];
    for (label, m, k, n) in gemm_shapes {
        let a = rng.randn([m, k]);
        let b = rng.randn([k, n]);
        let flops = 2.0 * (m * k * n) as f64;
        for &threads in &thread_counts {
            set_num_threads(threads);
            let mut out = vec![0.0f32; m * n];
            let ns = time_ns(iters, || {
                out.fill(0.0);
                hfta_kernels::gemm(
                    black_box(&mut out),
                    black_box(a.as_slice()),
                    black_box(b.as_slice()),
                    m,
                    k,
                    n,
                );
            });
            records.push(Row {
                op: "gemm",
                shape: format!("{label}:{m}x{k}x{n}"),
                threads,
                ns_per_iter: ns,
                flops,
            });
        }
    }

    // --- Fused conv training step, B = 6 (the acceptance gate) -----------
    let b = 6usize;
    let cfg = ConvCfg::square(2, 1, 1).fused(b);
    let x = rng.randn([4, 3 * b, 32, 32]);
    let w = rng.randn([16 * b, 3, 4, 4]);
    let bias = rng.randn([16 * b]);
    let y = conv2d(&x, &w, Some(&bias), cfg);
    let gy = rng.randn(y.dims().to_vec());
    let spatial = y.dim(2) * y.dim(3);
    let krows = 3 * 4 * 4;
    // fwd + grad_input + grad_weight are each one GEMM of this size.
    let step_flops = 3.0 * 2.0 * (4 * 16 * b * spatial * krows) as f64;
    for &threads in &thread_counts {
        set_num_threads(threads);
        let ns = time_ns(iters, || {
            let y = conv2d(black_box(&x), black_box(&w), Some(&bias), cfg);
            let gx = conv2d_grad_input(&w, black_box(&gy), (32, 32), 3 * b, cfg);
            let gw = conv2d_grad_weight(&x, &gy, (4, 4), cfg);
            black_box((y, gx, gw));
        });
        records.push(Row {
            op: "fused_conv_training_step",
            shape: format!("B={b}:x4x{}x32x32:w{}x3x4x4", 3 * b, 16 * b),
            threads,
            ns_per_iter: ns,
            flops: step_flops,
        });
    }
    // --- hfta-scope overhead on a fused DCGAN-style training step --------
    // No profiler is installed, so both sides run the identical disabled
    // fast path; the delta is exactly hfta-scope's untraced per-step compute
    // (one fused gradient reduction and the per-model losses). The
    // parameter pass of `after_step` feeds only a profiler's streams, so it
    // does nothing here and is priced only under one.
    set_num_threads(mt);
    let scope_iters = if quick { 5 } else { 30 };
    let sb = 6usize;
    let conv = Fused(sb).conv2d(Conv2dCfg::new(3, 16, 4), &mut Fused(sb).lanes(&mut rng));
    let params = FusedParameter::of(&conv, sb);
    let mut opt =
        FusedSgd::new(params.clone(), PerModel::new(vec![0.01; sb]), 0.9).expect("matching widths");
    let x = rng.randn([4, sb * 3, 32, 32]);
    let targets: Vec<usize> = (0..sb * 4).map(|_| rng.below(16)).collect();
    let mut bare_ns = f64::INFINITY;
    for _ in 0..3 {
        bare_ns = bare_ns.min(time_ns(scope_iters, || {
            black_box(dcgan_step(&conv, &mut opt, &x, &targets, sb, None));
        }));
    }
    // Time the scope work itself — exactly what `dcgan_step` adds when the
    // monitor is passed — rather than differencing two step timings, whose
    // run-to-run drift is larger than the cost being measured.
    let mut monitor = ScopeMonitor::new(sb, SentinelCfg::default());
    let mut step_idx = 0u64;
    opt.zero_grad();
    let tape = Tape::new();
    let y = conv.forward(&tape.leaf(x.clone()));
    let dims = y.dims();
    let pooled = y
        .reshape(&[dims[0], dims[1], dims[2] * dims[3]])
        .mean_axis_keep(2);
    let logits = pooled
        .reshape(&[dims[0], sb, dims[1] / sb])
        .permute(&[1, 0, 2]);
    fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
    let scope_ns = time_ns(scope_iters * 20, || {
        let losses = per_model_ce_losses(&logits, &targets);
        monitor.after_backward(step_idx, &losses, &params, &mut opt);
        monitor.after_step(step_idx, &params);
        step_idx += 1;
    });
    assert!(!monitor.any_fired(), "bench workload should stay healthy");
    let scope_overhead_pct = scope_ns / bare_ns * 100.0;

    set_num_threads(prev_threads);

    println!(
        "# hfta-kernels benchmark ({host_cpus} CPUs, {})",
        cpu_model()
    );
    println!(
        "{:<28} {:>24} {:>8} {:>8} {:>14} {:>9}",
        "op", "shape", "backend", "threads", "ns/iter", "GFLOP/s"
    );
    for r in &records {
        println!(
            "{:<28} {:>24} {backend:>8} {:>8} {:>14.0} {:>9.2}",
            r.op,
            r.shape,
            r.threads,
            r.ns_per_iter,
            r.gflops()
        );
    }
    // Thread scaling per shape: GFLOP/s at `mt` over 1T, with the 1T row.
    let rows = |threads: usize| records.iter().filter(move |r| r.threads == threads);
    let scaling: Vec<(&Row, f64)> = match mt {
        1 => Vec::new(),
        _ => rows(1)
            .zip(rows(mt))
            .map(|(r1, r_mt)| (r1, r_mt.gflops() / r1.gflops()))
            .collect(),
    };
    for (r, ratio) in &scaling {
        println!(
            "scaling efficiency (@{mt}T / @1T) {:<28} {:>24} {ratio:.2}x",
            r.op, r.shape
        );
    }
    println!(
        "hfta-scope overhead on a fused DCGAN step: {scope_overhead_pct:.2}% \
         (budget {SCOPE_OVERHEAD_BUDGET_PCT}%)"
    );

    // NaN must fail too, so "at most, comparably" is the pass condition.
    let mut failed = !matches!(
        scope_overhead_pct.partial_cmp(&SCOPE_OVERHEAD_BUDGET_PCT),
        Some(Ordering::Less | Ordering::Equal)
    );
    if failed {
        eprintln!(
            "FAIL: hfta-scope overhead {scope_overhead_pct:.2}% exceeds its \
             {SCOPE_OVERHEAD_BUDGET_PCT}% budget"
        );
    }
    // --- Thread-scaling gate ---------------------------------------------
    if let Some(min_ratio) = gate_scaling {
        if host_cpus < 4 {
            println!(
                "note: --gate-scaling skipped; host exposes {host_cpus} CPU(s), \
                 so 4-thread scaling is not measurable here"
            );
        } else {
            let mut passed = true;
            for (r, ratio) in &scaling {
                if r.flops >= LARGE_SHAPE_FLOPS && *ratio < min_ratio {
                    eprintln!(
                        "scaling gate FAILED: {}/{} @4T/@1T = {ratio:.2}x < {min_ratio:.2}x",
                        r.op, r.shape
                    );
                    passed = false;
                }
            }
            if passed {
                println!("scaling gate passed (@4T/@1T >= {min_ratio:.2}x on large shapes)");
            }
            failed |= !passed;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
