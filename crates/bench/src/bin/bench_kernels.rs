//! Kernel-layer benchmark harness with machine-readable output.
//!
//! Measures the `hfta-kernels` default GEMM dispatch (`auto`: the AVX2/FMA
//! tile where the CPU has it, the portable `mul_add` tile elsewhere) and
//! the fused conv training step (forward + grad_input + grad_weight, B = 6
//! fused DCGAN-style models) against the retained oracle (`naive` backend,
//! 1 thread), and writes every measurement to a JSON file.
//!
//! Usage:
//!
//! ```text
//! bench_kernels [--quick] [--bench-json <path>]   # default BENCH_kernels.json
//!               [--gate-scaling <ratio>]
//! ```
//!
//! Rows are measured at 1 thread and at `min(4, host_cpus)` threads; no row
//! is ever emitted with more threads than the host has CPUs, because two
//! threads time-slicing one core measure the scheduler, not the kernel.
//! The headline `fused_conv_speedup` entry is `auto` at the multi-thread
//! count vs `naive` at 1 thread on the same end-to-end training step. Per
//! shape, `scaling_efficiency` reports `auto` GFLOP/s at the multi-thread
//! count over 1 thread (absent on a 1-CPU host).
//!
//! `--gate-scaling <ratio>` turns the 4T/1T scaling ratio into a CI gate on
//! large shapes (exit 1 below the ratio; skipped with a note on hosts with
//! fewer than 4 CPUs).

use hfta_bench::cli::{write_json, CommonArgs};
use hfta_bench::record::{KernelRecord, KernelsFile, ScalingRecord};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{FusedConv2d, FusedModule, FusedParameter};
use hfta_core::optim::{FusedOptimizer, FusedSgd, PerModel};
use hfta_core::scope::{per_model_ce_losses, ScopeMonitor, SentinelCfg};
use hfta_kernels::{set_backend, set_num_threads, simd_available, GemmBackend};
use hfta_nn::layers::Conv2dCfg;
use hfta_nn::{Module, Tape};
use hfta_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, ConvCfg};
use hfta_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// One fused DCGAN-style training step (conv forward, fused CE loss,
/// backward, SGD); with `scope` set it also runs the full hfta-scope
/// per-step protocol (per-model losses, sentinel scan, health pass).
fn dcgan_step(
    conv: &FusedConv2d,
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
/// what backend-vs-backend ratios should compare.
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

const USAGE: &str = "bench_kernels [--quick] [--bench-json <path>] [--gate-scaling <ratio>]";

fn main() {
    let args = CommonArgs::parse(USAGE);
    args.expect_no_rest(USAGE);
    let quick = args.quick;
    let json_path = args
        .bench_json
        .clone()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let iters = if quick { 1 } else { 10 };
    let prev_threads = hfta_kernels::num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    let simd = simd_available();
    if !simd {
        println!("note: AVX2/FMA unavailable on this CPU; `auto` rows run the portable kernels");
    }

    // The (backend, threads) measurement matrix: the oracle at 1T, the
    // default dispatch at 1T and — never above the host's CPU count — at
    // `mt` threads. The first and last rows anchor `fused_conv_speedup`.
    let mt = host_cpus.min(4) as usize;
    let mut configs: Vec<(GemmBackend, usize)> =
        vec![(GemmBackend::Naive, 1), (GemmBackend::Auto, 1)];
    if mt > 1 {
        configs.push((GemmBackend::Auto, mt));
    } else {
        println!("note: 1-CPU host; multi-thread rows and scaling are not measurable here");
    }
    let mut records = Vec::new();
    let mut rng = Rng::seed_from(17);

    // --- Plain GEMM at paper workload shapes ------------------------------
    let gemm_shapes = [
        ("pointnet", 64usize, 64usize, 1024usize),
        ("dcgan_im2col", 96, 48, 256),
        ("square_large", 256, 256, 256),
    ];
    for (label, m, k, n) in gemm_shapes {
        let a = rng.randn([m, k]);
        let b = rng.randn([k, n]);
        let flops = 2.0 * (m * k * n) as f64;
        let bytes = 4.0 * (m * k + k * n + m * n) as f64;
        for &(backend, threads) in &configs {
            set_backend(backend);
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
            records.push(KernelRecord {
                op: "gemm".to_string(),
                shape: format!("{label}:{m}x{k}x{n}"),
                backend: backend.name().to_string(),
                threads: threads as u64,
                ns_per_iter: ns,
                gflops: flops / ns,
                bytes_per_iter: bytes,
            });
        }
    }

    // --- Fused conv training step, B = 6 (the acceptance gate) -----------
    let b = 6usize;
    let cfg = ConvCfg::square(2, 1, 1).fused(b);
    let x = rng.randn([4, 3 * b, 32, 32]);
    let w = rng.randn([16 * b, 3, 4, 4]);
    let bias = rng.randn([16 * b]);
    set_backend(GemmBackend::Auto);
    let y = conv2d(&x, &w, Some(&bias), cfg);
    let gy = rng.randn(y.dims().to_vec());
    let spatial = y.dim(2) * y.dim(3);
    let krows = 3 * 4 * 4;
    // fwd + grad_input + grad_weight are each one GEMM of this size.
    let step_flops = 3.0 * 2.0 * (4 * 16 * b * spatial * krows) as f64;
    // Each of the three GEMMs streams the activations, weights and the
    // output-sized gradient once — close enough for roofline placement.
    let step_bytes =
        3.0 * 4.0 * (x.as_slice().len() + w.as_slice().len() + y.as_slice().len()) as f64;
    let mut step_ns = vec![0.0f64; configs.len()];
    for (ci, &(backend, threads)) in configs.iter().enumerate() {
        set_backend(backend);
        set_num_threads(threads);
        let ns = time_ns(iters, || {
            let y = conv2d(black_box(&x), black_box(&w), Some(&bias), cfg);
            let gx = conv2d_grad_input(&w, black_box(&gy), (32, 32), 3 * b, cfg);
            let gw = conv2d_grad_weight(&x, &gy, (4, 4), cfg);
            black_box((y, gx, gw));
        });
        step_ns[ci] = ns;
        records.push(KernelRecord {
            op: "fused_conv_training_step".to_string(),
            shape: format!("B={b}:x4x{}x32x32:w{}x3x4x4", 3 * b, 16 * b),
            backend: backend.name().to_string(),
            threads: threads as u64,
            ns_per_iter: ns,
            gflops: step_flops / ns,
            bytes_per_iter: step_bytes,
        });
    }
    // --- hfta-scope overhead on a fused DCGAN-style training step --------
    // No profiler is installed, so both sides run the identical disabled
    // fast path; the delta is exactly hfta-scope's per-step compute (one
    // fused gradient reduction, per-model losses, one parameter pass).
    set_backend(GemmBackend::Auto);
    set_num_threads(mt);
    let scope_iters = if quick { 5 } else { 30 };
    let sb = 6usize;
    let conv = FusedConv2d::new(sb, Conv2dCfg::new(3, 16, 4), &mut rng);
    let params = conv.fused_parameters();
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

    set_backend(GemmBackend::Auto);
    set_num_threads(prev_threads);
    // The oracle (naive, 1 thread) vs the kernel layer at `mt` threads.
    let fused_conv_speedup = step_ns[0] / step_ns[configs.len() - 1];

    // Default-dispatch thread scaling per shape: GFLOP/s at `mt` over 1T.
    let auto_rows = |threads: usize| {
        records
            .iter()
            .filter(move |r| r.backend == "auto" && r.threads == threads as u64)
    };
    let mut scaling = Vec::new();
    if mt > 1 {
        for (r1, r_mt) in auto_rows(1).zip(auto_rows(mt)) {
            debug_assert!(r1.op == r_mt.op && r1.shape == r_mt.shape);
            scaling.push(ScalingRecord {
                op: r1.op.clone(),
                shape: r1.shape.clone(),
                threads: mt as u64,
                scaling_efficiency: r_mt.gflops / r1.gflops,
            });
        }
    }

    let report = KernelsFile {
        host_cpus,
        cpu_model: cpu_model(),
        simd_available: simd,
        records,
        scaling_efficiency: scaling,
        fused_conv_speedup,
        scope_overhead_pct,
    };
    write_json(&json_path, &report).unwrap_or_else(|e| {
        eprintln!("failed to write {json_path}: {e}");
        std::process::exit(1);
    });

    println!(
        "# hfta-kernels benchmark ({} CPUs, {})",
        report.host_cpus, report.cpu_model
    );
    println!(
        "{:<28} {:>24} {:>8} {:>8} {:>14} {:>9}",
        "op", "shape", "backend", "threads", "ns/iter", "GFLOP/s"
    );
    for r in &report.records {
        println!(
            "{:<28} {:>24} {:>8} {:>8} {:>14.0} {:>9.2}",
            r.op, r.shape, r.backend, r.threads, r.ns_per_iter, r.gflops
        );
    }
    for s in &report.scaling_efficiency {
        println!(
            "scaling efficiency (auto @{}T / @1T) {:<28} {:>24} {:.2}x",
            s.threads, s.op, s.shape, s.scaling_efficiency
        );
    }
    println!(
        "\nfused conv training step speedup (auto @{mt}T vs naive @1T): {fused_conv_speedup:.2}x"
    );
    println!("hfta-scope overhead on a fused DCGAN step: {scope_overhead_pct:.2}% (budget 5%)");
    println!("wrote {json_path}");

    // --- Thread-scaling gate ---------------------------------------------
    if let Some(min_ratio) = args.gate_scaling {
        if host_cpus < 4 {
            println!(
                "note: --gate-scaling skipped; host exposes {host_cpus} CPU(s), \
                 so 4-thread scaling is not measurable here"
            );
        } else {
            let mut failed = false;
            for s in &report.scaling_efficiency {
                let flops = report
                    .records
                    .iter()
                    .find(|r| {
                        r.op == s.op && r.shape == s.shape && r.backend == "auto" && r.threads == 1
                    })
                    .map(|r| r.gflops * r.ns_per_iter)
                    .unwrap_or(0.0);
                if flops < LARGE_SHAPE_FLOPS {
                    continue;
                }
                if s.scaling_efficiency < min_ratio {
                    eprintln!(
                        "scaling gate FAILED: {}/{} auto @4T/@1T = {:.2}x < {min_ratio:.2}x",
                        s.op, s.shape, s.scaling_efficiency
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!("scaling gate passed (auto @4T/@1T >= {min_ratio:.2}x on large shapes)");
        }
    }
}
