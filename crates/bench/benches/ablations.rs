//! Ablation benchmarks for the design choices DESIGN.md §5 calls out:
//!
//! 1. **Mechanism ablation** — how much of HFTA's simulated speedup comes
//!    from gap amortization vs bigger-kernel occupancy (run the V100
//!    PointNet sweep with each mechanism disabled).
//! 2. **Loss scaling ablation** — gradient magnitude with and without the
//!    §3.2 xB scale.
//! 3. **End-to-end training-step timing** — real CPU time per model of a
//!    serial step vs a fused step as B grows.
//! 4. **Optimizer fusion** — one `FusedAdam` step over the `dcgan_compute`
//!    array's parameters vs the six serial `Adam` steps it replaces.
//! 5. **Conv ops** — `conv2d` and its two gradients at the benchmark's four
//!    stride-2 DCGAN-D layers and its critic head, and `conv_transpose2d` and
//!    its two gradients at its five DCGAN-G layers, µs and GFLOP/s per op at
//!    one thread, and their total over one traced array step's calls; then
//!    the `mixed_plan` layers (its width-4 blocks and the 3x3 refinement
//!    conv at widths 1 and 2), each op beside the same `gemm_batched`
//!    product over dense operands, and their ratio.
//! 6. **Non-GEMM passes** — activations, batch norm, the global max pool,
//!    a last-axis sum and PointNet's pointwise conv with its bias gradient
//!    through the tape at the benchmark's shapes, µs forward and backward
//!    per op at one thread.
//! 7. **Small products** — `gemm_batched` on every batch a `pointnet_overhead`
//!    array step issues (B = 8, width 4, STN, 32 points, batch 2), with its
//!    exact axes: µs per call, GFLOP/s and the step's total, at one thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfta_core::format::stack_conv;
use hfta_core::loss::{fused_bce_with_logits, fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, FusedSgd, PerModel};
use hfta_kernels::{gemm_batched, Axis, Offsets, Out, PackA, PackB};
use hfta_models::{
    AlexNet, AlexNetCfg, DcganCfg, Discriminator, FusedAlexNet, FusedDiscriminator, FusedGenerator,
    Generator, Workload,
};
use hfta_nn::{Adam, Module, Optimizer, Sgd, Tape};
use hfta_sim::{DeviceSpec, GpuSim, SharingPolicy};
use hfta_telemetry::Profiler;
use hfta_tensor::conv::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, conv_transpose2d, conv_transpose2d_grad_input,
    conv_transpose2d_grad_weight, ConvCfg,
};
use hfta_tensor::{Rng, Tensor};
use std::hint::black_box;

/// Mechanism ablation: report (and time) HFTA-over-serial with each
/// simulator mechanism switched off. Printed once so `cargo bench` output
/// records the ablation table.
fn ablation_mechanisms(c: &mut Criterion) {
    let w = Workload::pointnet_cls();
    let b = 8;
    type JobPair = (hfta_sim::TrainingJob, hfta_sim::TrainingJob);
    #[allow(clippy::type_complexity)]
    let variants: [(&str, Box<dyn Fn() -> JobPair>); 3] = [
        (
            "full-model",
            Box::new(move || (w_cls().serial_job(), w_cls().fused_job(b))),
        ),
        (
            "no-gap-amortization",
            Box::new(move || {
                // Gaps removed from both: isolates pure kernel-shape gains.
                let mut s = w_cls().serial_job();
                let mut f = w_cls().fused_job(b);
                s.sync_us_per_kernel = 0.0;
                f.sync_us_per_kernel = 0.0;
                s.host_us = 0.0;
                f.host_us = 0.0;
                (s, f)
            }),
        ),
        (
            "no-kernel-growth",
            Box::new(move || {
                // Fused kernels keep per-model tile counts: isolates pure
                // gap amortization.
                let s = w_cls().serial_job();
                let mut f = w_cls().fused_job(b);
                for (kf, ks) in f.kernels.iter_mut().zip(&s.kernels) {
                    kf.tiles = ks.tiles;
                }
                (s, f)
            }),
        ),
    ];
    fn w_cls() -> Workload {
        Workload::pointnet_cls()
    }
    println!("\n## Ablation: where does HFTA's simulated speedup come from? (V100, B = {b})");
    let sim = GpuSim::new(DeviceSpec::v100(), false);
    for (name, build) in &variants {
        let (serial, fused) = build();
        let s = sim.simulate(SharingPolicy::Serial, &serial, 1);
        let h = sim.simulate(SharingPolicy::Hfta, &fused, 1);
        println!(
            "  {name:<22} HFTA/serial = {:.2}",
            h.throughput_eps / s.throughput_eps
        );
    }
    let _ = &w;
    c.bench_function("ablation_mechanisms_sweep", |bch| {
        bch.iter(|| {
            for (_, build) in &variants {
                let (serial, fused) = build();
                black_box(sim.simulate(SharingPolicy::Serial, &serial, 1));
                black_box(sim.simulate(SharingPolicy::Hfta, &fused, 1));
            }
        })
    });
}

/// Loss-scaling ablation: the unscaled fused loss shrinks every gradient
/// by 1/B (silently dividing all learning rates by B).
fn ablation_loss_scaling(c: &mut Criterion) {
    let b = 4;
    let mut rng = Rng::seed_from(0);
    let w = hfta_nn::Parameter::new(rng.randn([b, 6, 3]), "w");
    let x = rng.randn([b, 5, 6]);
    let t: Vec<usize> = (0..b * 5).map(|_| rng.below(3)).collect();
    let grad_norm = |scaled: bool| -> f32 {
        w.zero_grad();
        let tape = Tape::new();
        let logits = tape.leaf(x.clone()).bmm(&tape.param(&w));
        if scaled {
            fused_cross_entropy(&logits, &t, Reduction::Mean).backward();
        } else {
            logits.reshape(&[b * 5, 3]).cross_entropy(&t).backward();
        }
        w.grad_cloned().abs().max_value()
    };
    let with = grad_norm(true);
    let without = grad_norm(false);
    println!("\n## Ablation: fused-loss scaling (paper §3.2)");
    println!("  max |grad| with xB scale:    {with:.5}");
    println!("  max |grad| without:          {without:.5}");
    println!("  ratio (must be B = {b}):     {:.2}", with / without);
    c.bench_function("ablation_loss_scaling", |bch| {
        bch.iter(|| black_box(grad_norm(true)))
    });
}

/// Real CPU wall time per training step: serial loop over B models vs one
/// fused step, at growing array widths.
fn ablation_step_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step_serial_vs_fused");
    let cfg = AlexNetCfg::mini(4);
    for b in [2usize, 4] {
        let mut rng = Rng::seed_from(5);
        let serial: Vec<AlexNet> = (0..b)
            .map(|_| {
                let m = AlexNet::new(cfg, &mut rng.split());
                m.set_training(false);
                m
            })
            .collect();
        let fused = FusedAlexNet::new(b, cfg, &mut rng);
        fused.set_training(false);
        let mut opts: Vec<Sgd> = serial
            .iter()
            .map(|m| Sgd::new(m.parameters(), 0.01, 0.9))
            .collect();
        let mut fopt =
            FusedSgd::new(fused.fused_parameters(), PerModel::uniform(b, 0.01), 0.9).unwrap();
        let x = rng.randn([4, 3, 16, 16]);
        let y: Vec<usize> = (0..4).map(|i| i % 4).collect();
        group.bench_with_input(BenchmarkId::new("serial", b), &b, |bench, _| {
            bench.iter(|| {
                for (m, opt) in serial.iter().zip(&mut opts) {
                    opt.zero_grad();
                    let tape = Tape::new();
                    let loss = m.forward(&tape.leaf(x.clone())).cross_entropy(&y);
                    loss.backward();
                    opt.step();
                }
            })
        });
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let fx = stack_conv(&copies).unwrap();
        let ty: Vec<usize> = (0..b).flat_map(|_| y.iter().copied()).collect();
        group.bench_with_input(BenchmarkId::new("hfta", b), &b, |bench, _| {
            bench.iter(|| {
                fopt.zero_grad();
                let tape = Tape::new();
                let logits = fused.forward(&tape.leaf(fx.clone()));
                fused_cross_entropy(&logits, &ty, Reduction::Mean).backward();
                fopt.step();
            })
        });
    }
    group.finish();
}

/// Median wall time of `samples` runs of `step`, in seconds.
fn median_secs(samples: usize, mut step: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let started = std::time::Instant::now();
            step();
            started.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Optimizer fusion (paper §3.1, Fig 1): `FusedAdam` at B = 6 over the
/// `dcgan_compute` workload's G + D parameters against the six serial
/// `Adam`s it replaces. Both run the same one-pass slice kernel, so the
/// ratio should sit near 1 (it read 2.07 while the fused step was eleven
/// tensor-level passes per parameter).
fn ablation_optimizer(c: &mut Criterion) {
    let b = 6;
    let cfg = DcganCfg {
        latent: 32,
        width: 12,
        image: 64,
    };
    let mut rng = Rng::seed_from(9);
    let mut fparams = FusedGenerator::new(b, cfg, &mut rng).fused_parameters();
    fparams.extend(FusedDiscriminator::new(b, cfg, &mut rng).fused_parameters());
    let serial: Vec<_> = (0..b)
        .map(|_| {
            let mut params = Generator::new(cfg, &mut rng).parameters();
            params.extend(Discriminator::new(cfg, &mut rng).parameters());
            params
        })
        .collect();
    let numel: usize = fparams.iter().map(|p| p.param.numel()).sum();
    for p in fparams
        .iter()
        .map(|p| &p.param)
        .chain(serial.iter().flatten())
    {
        p.update_grad(|g| g.as_mut_slice().fill(0.01));
    }
    let mut fused = FusedAdam::new(fparams, PerModel::uniform(b, 2e-4)).unwrap();
    let mut adams: Vec<Adam> = serial.into_iter().map(|p| Adam::new(p, 2e-4)).collect();
    let fused_ms = median_secs(21, || fused.step()) * 1e3;
    let serial_ms = median_secs(21, || adams.iter_mut().for_each(Adam::step)) * 1e3;
    println!("\n## Ablation: optimizer fusion (Adam, B = {b}, {numel} elements)");
    println!("  one FusedAdam step:          {fused_ms:.3} ms");
    println!("  {b} serial Adam steps:         {serial_ms:.3} ms");
    println!("  fused / serial:              {:.2}", fused_ms / serial_ms);
    let mut group = c.benchmark_group("optimizer");
    group.bench_function("fused_adam_b6", |bench| bench.iter(|| fused.step()));
    group.bench_function("six_serial_adams", |bench| {
        bench.iter(|| adams.iter_mut().for_each(Adam::step))
    });
    group.finish();
}

/// The three conv ops of every DCGAN layer of the benchmark
/// (`dcgan_compute`: width 12, latent 32, 64x64, B = 6 fused as groups,
/// batch 2) on one thread: `conv2d` and its two gradients at the four
/// stride-2 discriminator layers and the critic head (96 -> 1, 4x4 valid),
/// and `conv_transpose2d` (the scatter sink) and its two gradients at the
/// five generator layers — the per-op before/after of a conv-kernel change
/// on both sides of the adjoint, independent of the benchmark's replay
/// ledger. The per-step total weights each row by how often one traced
/// array step runs it ([`dcgan_step_passes`]).
fn ablation_conv(c: &mut Criterion) {
    let (b, batch) = (6usize, 2usize);
    let cfg = DcganCfg {
        latent: 32,
        width: 12,
        image: 64,
    };
    let passes = dcgan_step_passes(b, batch, cfg);
    let threads = hfta_kernels::num_threads();
    hfta_kernels::set_num_threads(1);
    let mut rng = Rng::seed_from(18);
    type ConvOp<'a> = (&'a str, Box<dyn Fn() -> Tensor + 'a>);
    println!(
        "\n## Ablation: conv ops at the DCGAN layers (B = {b} as groups, N = {batch}, 1 thread)"
    );
    let mut group = c.benchmark_group("conv");
    // Per layer: its three ops' µs, timed and printed.
    let mut time = |layer: String, flops: f64, ops: [ConvOp<'_>; 3], totals: &mut [f64; 3]| {
        let mut us = [0.0f64; 3];
        for (((name, op), total), us) in ops.iter().zip(totals).zip(&mut us) {
            *us = median_secs(41, || drop(black_box(op()))) * 1e6;
            *total += *us;
            println!(
                "  {layer:<10} {name:<29} {:>8.1} us  {:>6.2} GFLOP/s",
                *us,
                flops / *us / 1e3
            );
            let id = format!("{name}/{layer}");
            group.bench_function(id, |bench| bench.iter(|| black_box(op())));
        }
        us
    };
    let mut layer_us = Vec::new();
    let mut d_totals = [0.0f64; 3];
    for (cin, cout, h, stride, padding) in [
        (3usize, 12usize, 64usize, 2usize, 1usize),
        (12, 24, 32, 2, 1),
        (24, 48, 16, 2, 1),
        (48, 96, 8, 2, 1),
        (96, 1, 4, 1, 0),
    ] {
        let cfg = ConvCfg::square(stride, padding, b);
        let (ho, wo) = cfg.out_hw((h, h), (4, 4));
        let x = rng.randn([batch, b * cin, h, h]);
        let w = rng.randn([b * cout, cin, 4, 4]);
        let gy = rng.randn([batch, b * cout, ho, wo]);
        let flops = (2 * batch * b * cout * cin * 16 * ho * wo) as f64;
        let ops: [ConvOp<'_>; 3] = [
            ("conv2d", Box::new(|| conv2d(&x, &w, None, cfg))),
            (
                "conv2d_grad_input",
                Box::new(|| conv2d_grad_input(&w, &gy, (h, h), b * cin, cfg)),
            ),
            (
                "conv2d_grad_weight",
                Box::new(|| conv2d_grad_weight(&x, &gy, (4, 4), cfg)),
            ),
        ];
        layer_us.push(time(format!("{cin}x{cout}x{h}"), flops, ops, &mut d_totals));
    }
    let mut g_totals = [0.0f64; 3];
    for (cin, cout, h, stride, padding) in [
        (32usize, 96usize, 1usize, 1usize, 0usize),
        (96, 48, 4, 2, 1),
        (48, 24, 8, 2, 1),
        (24, 12, 16, 2, 1),
        (12, 3, 32, 2, 1),
    ] {
        let cfg = ConvCfg::square(stride, padding, b);
        let x = rng.randn([batch, b * cin, h, h]);
        let w = rng.randn([b * cin, cout, 4, 4]);
        let (ho, wo) = cfg.transpose_out_hw((h, h), (4, 4));
        let gy = rng.randn([batch, b * cout, ho, wo]);
        let flops = (2 * batch * b * cin * cout * 16 * h * h) as f64;
        let ops: [ConvOp<'_>; 3] = [
            (
                "conv_transpose2d",
                Box::new(|| conv_transpose2d(&x, &w, None, cfg)),
            ),
            (
                "conv_transpose2d_grad_input",
                Box::new(|| conv_transpose2d_grad_input(&w, &gy, cfg)),
            ),
            (
                "conv_transpose2d_grad_weight",
                Box::new(|| conv_transpose2d_grad_weight(&x, &gy, (4, 4), cfg)),
            ),
        ];
        layer_us.push(time(
            format!("G{cin}x{cout}x{h}"),
            flops,
            ops,
            &mut g_totals,
        ));
    }
    group.finish();
    let ms = |us: f64| us / 1e3;
    println!(
        "  totals: conv2d {:.2} ms, grad_input {:.2} ms, grad_weight {:.2} ms",
        ms(d_totals[0]),
        ms(d_totals[1]),
        ms(d_totals[2])
    );
    println!(
        "  totals: conv_transpose2d {:.2} ms, grad_input {:.2} ms, grad_weight {:.2} ms",
        ms(g_totals[0]),
        ms(g_totals[1]),
        ms(g_totals[2])
    );
    // Layers D1-D5 then G1-G5, as timed above and as the step's spans list them.
    let mut step_us = 0.0;
    for (us, (fwd, input, weight)) in layer_us.iter().zip(&passes) {
        step_us += fwd * us[0] + input * us[1] + weight * us[2];
    }
    let calls: Vec<String> = passes
        .iter()
        .map(|(f, i, w)| format!("{f:.0}/{i:.0}/{w:.0}"))
        .collect();
    println!(
        "  per dcgan_compute step: {:.2} ms (forward calls / input / weight gradient passes, \
         D1-D5 then G1-G5: {})",
        ms(step_us),
        calls.join(" ")
    );
    mixed_plan_conv_ledger(&mut rng);
    hfta_kernels::set_num_threads(threads);
}

/// The per-layer ledger of the conv ops at the `mixed_plan` layer shapes
/// (batch 2, one thread): each op's µs beside the same `gemm_batched`
/// product over dense `A` and `B` (its operand materialised, the batch axes
/// the op passes, the product written), and `conv / dense`. Each figure is
/// the least of three medians of 41 calls.
fn mixed_plan_conv_ledger(rng: &mut Rng) {
    let n = 2usize;
    println!(
        "\n## Ablation: conv ops at the mixed_plan layers (N = {n}, 1 thread): conv / dense us"
    );
    let time = |f: &mut dyn FnMut()| {
        (0..3)
            .map(|_| median_secs(41, &mut *f) * 1e6)
            .fold(f64::MAX, f64::min)
    };
    // (name, groups, cing, coutg, plane, kernel, stride, padding)
    for (name, g, cing, coutg, h, k, s, p) in [
        (
            "D1 3->8", 4usize, 3usize, 8usize, 64usize, 4usize, 2usize, 1usize,
        ),
        ("refine 8->8 x1", 1, 8, 8, 32, 3, 1, 1),
        ("refine 8->8 x2", 2, 8, 8, 32, 3, 1, 1),
        ("D2 8->16", 4, 8, 16, 32, 4, 2, 1),
        ("D3 16->32", 4, 16, 32, 16, 4, 2, 1),
        ("D4 32->64", 4, 32, 64, 8, 4, 2, 1),
    ] {
        let cfg = ConvCfg::square(s, p, g);
        let (ho, wo) = cfg.out_hw((h, h), (k, k));
        let (krows, spatial) = (cing * k * k, ho * wo);
        let x = rng.randn([n, g * cing, h, h]);
        let w = rng.randn([g * coutg, cing, k, k]);
        let gy = rng.randn([n, g * coutg, ho, wo]);
        // Each (sample, group) block's columns, and their transposes.
        let cols = rng.randn([n * g * krows * spatial]);
        // Each product's exact output: a write sink zeroes what it leaves.
        let (mut y, mut product) = (vec![0.0f32; gy.numel()], vec![0.0f32; cols.numel()]);
        let mut gw = vec![0.0f32; w.numel()];
        let axis = |count, a, b, out| Axis { count, a, b, out };
        let (fwd, input, weight) = (
            [
                axis(n, 0, g * krows * spatial, g * coutg * spatial),
                axis(g, coutg * krows, krows * spatial, coutg * spatial),
            ],
            [
                axis(n, 0, g * coutg * spatial, g * krows * spatial),
                axis(g, coutg * krows, coutg * spatial, krows * spatial),
            ],
            [
                axis(g, coutg * spatial, spatial * krows, coutg * krows),
                axis(n, g * coutg * spatial, g * spatial * krows, 0),
            ],
        );
        let (wt, gyt, colst) = (w.as_slice(), gy.as_slice(), cols.as_slice());
        let rows = [
            (
                "conv2d",
                time(&mut || drop(black_box(conv2d(&x, &w, None, cfg)))),
                time(&mut || {
                    gemm_batched(
                        Out::Write(&mut y),
                        PackA::N(wt),
                        PackB::N(colst),
                        (coutg, krows, spatial),
                        fwd,
                    )
                }),
            ),
            (
                "conv2d_grad_input",
                time(&mut || drop(black_box(conv2d_grad_input(&w, &gy, (h, h), g * cing, cfg)))),
                time(&mut || {
                    gemm_batched(
                        Out::Write(&mut product),
                        PackA::T(wt),
                        PackB::N(gyt),
                        (krows, coutg, spatial),
                        input,
                    )
                }),
            ),
            (
                "conv2d_grad_weight",
                time(&mut || drop(black_box(conv2d_grad_weight(&x, &gy, (k, k), cfg)))),
                time(&mut || {
                    gemm_batched(
                        Out::Write(&mut gw),
                        PackA::N(gyt),
                        PackB::N(colst),
                        (coutg, spatial, krows),
                        weight,
                    )
                }),
            ),
        ];
        for (op, conv, dense) in rows {
            println!(
                "  {name:<15} {op:<19} {conv:>8.1} / {dense:>8.1} = {:.2}x",
                conv / dense
            );
        }
    }
}

/// How often one `dcgan_compute` array step (B = `b`, batch `batch`) runs
/// each conv layer, read from the `nn` spans of a traced step: per layer,
/// D1-D5 then G1-G5, its forward calls, input gradients and weight
/// gradients. The step is the benchmark's fused leg — the discriminator on
/// a real and a detached fake batch, then the generator through it, each
/// with its `FusedAdam` — traced after one untraced step, so the generator
/// step's waiting discriminator gradients drop as they do in steady state.
/// A layer's forward spans carry its `(flops, bytes)`; a backward span
/// names the gradients it ran (`input` / `weight`: `now`) and carries `k`
/// times the forward cost for the `k` it ran, which finds its layer, and a
/// waiting product forced later opens its own.
fn dcgan_step_passes(b: usize, batch: usize, cfg: DcganCfg) -> Vec<(f64, f64, f64)> {
    let mut rng = Rng::seed_from(41);
    let gen = FusedGenerator::new(b, cfg, &mut rng);
    let disc = FusedDiscriminator::new(b, cfg, &mut rng);
    let lrs = PerModel::uniform(b, 2e-4);
    let mut opt_g = FusedAdam::new(gen.fused_parameters(), lrs.clone()).unwrap();
    let mut opt_d = FusedAdam::new(disc.fused_parameters(), lrs).unwrap();
    let mut step = |rng: &mut Rng| {
        let (ones, zeros) = (Tensor::ones([batch, b]), Tensor::zeros([batch, b]));
        let z = |rng: &mut Rng| rng.randn([batch, b * cfg.latent, 1, 1]);
        let real = rng.randn([batch, b * 3, cfg.image, cfg.image]);
        opt_d.zero_grad();
        let tape = Tape::new();
        let d_real = disc.forward(&tape.leaf(real));
        let fake = gen.forward(&tape.leaf(z(rng))).value();
        let d_fake = disc.forward(&tape.leaf(fake));
        let up = fused_bce_with_logits(&d_real, &ones, b, Reduction::Mean);
        let down = fused_bce_with_logits(&d_fake, &zeros, b, Reduction::Mean);
        up.add(&down).backward();
        opt_d.step();
        opt_g.zero_grad();
        let tape = Tape::new();
        let d_out = disc.forward(&gen.forward(&tape.leaf(z(rng))));
        fused_bce_with_logits(&d_out, &ones, b, Reduction::Mean).backward();
        opt_g.step();
    };
    step(&mut rng);
    let profiler = Profiler::new("dcgan-step");
    {
        let _traced = profiler.install();
        step(&mut rng);
    }
    let trace: serde::Value = serde_json::from_str(&profiler.trace_json()).unwrap();
    let Some(serde::Value::Array(events)) = trace.get("traceEvents") else {
        panic!("a trace without events");
    };
    let num = |e: &serde::Value, key: &str| match e.get("args").and_then(|a| a.get(key)) {
        Some(&serde::Value::F64(v)) => v,
        Some(&serde::Value::U64(v)) => v as f64,
        _ => 0.0,
    };
    let ran = |e: &serde::Value, key: &str| {
        let arg = e.get("args").and_then(|a| a.get(key));
        f64::from(matches!(arg, Some(serde::Value::Str(v)) if v == "now"))
    };
    // Each layer as its op, forward `(flops, bytes)` and counts, D then G,
    // each in first-seen order (a forward runs its layers in order).
    let mut layers: Vec<(&str, f64, f64, [f64; 3])> = Vec::new();
    let mut backward = Vec::new();
    for e in events {
        let (Some(serde::Value::Str(name)), Some(serde::Value::Str(ph))) =
            (e.get("name"), e.get("ph"))
        else {
            continue;
        };
        let (op, cost) = (
            name.trim_start_matches("bwd:"),
            (num(e, "flops"), num(e, "bytes")),
        );
        if ph != "E" || !matches!(op, "conv2d" | "conv_transpose2d") {
            continue;
        }
        if op != name {
            backward.push((op, cost, [ran(e, "input"), ran(e, "weight")]));
            continue;
        }
        match layers
            .iter_mut()
            .find(|l| (l.0, l.1, l.2) == (op, cost.0, cost.1))
        {
            Some(layer) => layer.3[0] += 1.0,
            None => layers.push((op, cost.0, cost.1, [1.0, 0.0, 0.0])),
        }
    }
    // A span that ran nothing (its weight gradient waiting) costs nothing.
    for (op, (flops, bytes), [input, weight]) in backward {
        let k = input + weight;
        if k == 0.0 {
            continue;
        }
        let layer = (layers.iter_mut())
            .find(|l| l.0 == op && flops == k * l.1 && bytes == k * l.2)
            .expect("a backward span matches a layer's forward");
        layer.3[1] += input;
        layer.3[2] += weight;
    }
    layers.sort_by_key(|l| l.0 != "conv2d");
    assert_eq!(layers.len(), 10, "a DCGAN step runs ten conv layers");
    layers.iter().map(|l| (l.3[0], l.3[1], l.3[2])).collect()
}

/// The non-GEMM passes of a fused step at the `dcgan_compute` (B = 6,
/// width 12, batch 2) and `pointnet_overhead` (B = 8) shapes, through the
/// tape on one thread: each op's forward, and its backward net of the
/// parameter-gradient accumulation a bare leaf's backward also pays.
fn ablation_passes(c: &mut Criterion) {
    let threads = hfta_kernels::num_threads();
    hfta_kernels::set_num_threads(1);
    let mut rng = Rng::seed_from(25);
    type Op = fn(&hfta_nn::Var, &[hfta_nn::Var]) -> hfta_nn::Var;
    let leaky: Op = |x, _| x.leaky_relu(0.2);
    let relu: Op = |x, _| x.relu();
    let tanh: Op = |x, _| x.tanh();
    let bn_train: Op = |x, gb| x.batch_norm(&gb[0], &gb[1], 1e-5, None).0;
    let bn_eval: Op = |x, gb| {
        let c = x.dim(1);
        let (rm, rv) = (vec![0.1f32; c], vec![0.9f32; c]);
        x.batch_norm(&gb[0], &gb[1], 1e-5, Some((&rm, &rv))).0
    };
    let max_axis: Op = |x, _| x.max_axis(2);
    let sum_axis: Op = |x, _| x.sum_axis_keep(2);
    // PointNet's fused 8 -> 64 pointwise conv at B = 8: 64 -> 512 channels
    // in 8 groups, with bias.
    let conv1d: Op = |x, wb| x.conv1d(&wb[0], Some(&wb[1]), 1, 0, 8);
    let (d1, d2, g5) = ([2usize, 72, 32, 32], [2, 144, 16, 16], [2, 18, 64, 64]);
    let pointnet = [2usize, 512, 32];
    let mut rows: Vec<(&str, &[usize], Op)> = Vec::new();
    for (name, op) in [("leaky_relu", leaky), ("relu", relu), ("tanh", tanh)] {
        for dims in [&d1[..], &d2, &g5] {
            rows.push((name, dims, op));
        }
    }
    rows.push(("bn_train", &d1, bn_train));
    rows.push(("bn_train", &[2, 576, 4, 4], bn_train));
    rows.push(("bn_eval", &pointnet, bn_eval));
    // One-element rows: PointNet's fused linear-layer batch norms at B = 8
    // (the `[8, 2, 32]` array format is this work), and shorter rows.
    rows.push(("bn_eval", &[2, 256], bn_eval));
    rows.push(("bn_train", &[2, 256], bn_train));
    rows.push(("bn_eval", &[2, 64, 32], bn_eval));
    rows.push(("max_axis", &pointnet, max_axis));
    rows.push(("sum_axis", &pointnet, sum_axis));
    rows.push(("bn_train", &pointnet, bn_train));
    rows.push(("conv1d", &[2, 64, 32], conv1d));
    println!("\n## Ablation: non-GEMM passes through the tape (1 thread, median of 41)");
    println!(
        "  {:<10} {:<16} {:>9} {:>9} {:>9}",
        "op", "shape", "fwd us", "bwd us", "total"
    );
    let mut group = c.benchmark_group("passes");
    for (name, dims, op) in rows {
        let x = hfta_nn::Parameter::new(rng.randn(dims.to_vec()), "x");
        // (gamma, beta) of a batch norm, or (weight, bias) of the conv.
        let ch = dims[1];
        let (p0, p1) = match name {
            "conv1d" => (vec![512, ch / 8, 1], vec![512]),
            _ => (vec![ch], vec![ch]),
        };
        let gb = [
            hfta_nn::Parameter::new(rng.rand(p0, 0.5, 1.5), "gamma"),
            hfta_nn::Parameter::new(rng.randn(p1), "beta"),
        ];
        let out_dims = {
            let tape = Tape::new();
            let gbv: Vec<_> = gb.iter().map(|p| tape.param(p)).collect();
            op(&tape.param(&x), &gbv).dims()
        };
        let seed = rng.randn(out_dims);
        let x_seed = rng.randn(dims.to_vec());
        // (forward, backward) seconds of one op; the bare-leaf run prices
        // the leaf's own gradient accumulation, which is subtracted.
        let run = |bare: bool| -> (f64, f64) {
            let tape = Tape::new();
            let xv = tape.param(&x);
            let gbv: Vec<_> = gb.iter().map(|p| tape.param(p)).collect();
            let started = std::time::Instant::now();
            let (y, s) = if bare {
                (xv, x_seed.clone())
            } else {
                (op(&xv, &gbv), seed.clone())
            };
            let fwd = started.elapsed().as_secs_f64();
            let started = std::time::Instant::now();
            y.backward_with(s);
            (fwd, started.elapsed().as_secs_f64())
        };
        let median = |bare: bool| -> (f64, f64) {
            let mut samples: Vec<(f64, f64)> = (0..41).map(|_| run(bare)).collect();
            let mut pick = |f: fn(&(f64, f64)) -> f64| {
                samples.sort_by(|a, b| f(a).total_cmp(&f(b)));
                f(&samples[samples.len() / 2])
            };
            (pick(|s| s.0), pick(|s| s.1))
        };
        let (fwd, bwd) = median(false);
        let (_, bare_bwd) = median(true);
        let (fwd_us, bwd_us) = (fwd * 1e6, (bwd - bare_bwd).max(0.0) * 1e6);
        let shape = format!("{dims:?}");
        println!(
            "  {name:<10} {shape:<16} {fwd_us:>9.1} {bwd_us:>9.1} {:>9.1}",
            fwd_us + bwd_us
        );
        group.bench_function(format!("{name}/{shape}"), |bench| {
            bench.iter(|| black_box(run(false)))
        });
    }
    group.finish();
    hfta_kernels::set_num_threads(threads);
}

/// Every `gemm_batched` call of a `pointnet_overhead` array step (fused
/// B = 8, width 4, STN, 32 points, batch 2), with the axes the conv and
/// `bmm` ops pass: the pointwise convs' forward (`N·N`, samples sharing the
/// weights), weight gradient (`N·T`, the sample axis reducing) and input
/// gradient (`T·N` scattered through the tables), the fused Linears' `bmm`s
/// and `transform_points`. Min of 9 rounds of 1000 calls on one thread, and
/// the step's total over the calls it makes of each.
fn ablation_small_products(c: &mut Criterion) {
    let threads = hfta_kernels::num_threads();
    hfta_kernels::set_num_threads(1);
    let ax = |count, a, b, out| Axis { count, a, b, out };
    let one = Axis::ONE;
    // (op, layout, (m, k, n), outer axis, inner axis, calls per step)
    let shapes = [
        (
            "conv1 fwd",
            "N·N",
            (4, 3, 32),
            ax(2, 0, 768, 1024),
            ax(8, 12, 96, 128),
            2,
        ),
        (
            "conv2 fwd",
            "N·N",
            (8, 4, 32),
            ax(2, 0, 1024, 2048),
            ax(8, 32, 128, 256),
            2,
        ),
        (
            "conv3 fwd",
            "N·N",
            (64, 8, 32),
            ax(2, 0, 2048, 16384),
            ax(8, 512, 256, 2048),
            2,
        ),
        (
            "conv1 wgrad",
            "N·T",
            (4, 32, 3),
            ax(8, 128, 96, 12),
            ax(2, 1024, 768, 0),
            2,
        ),
        (
            "conv2 wgrad",
            "N·T",
            (8, 32, 4),
            ax(8, 256, 128, 32),
            ax(2, 2048, 1024, 0),
            2,
        ),
        (
            "conv3 wgrad",
            "N·T",
            (64, 32, 8),
            ax(8, 2048, 256, 512),
            ax(2, 16384, 2048, 0),
            2,
        ),
        (
            "conv1 igrad",
            "scatter",
            (3, 4, 32),
            ax(2, 0, 1024, 768),
            ax(8, 12, 128, 96),
            1,
        ),
        (
            "conv2 igrad",
            "scatter",
            (4, 8, 32),
            ax(2, 0, 2048, 1024),
            ax(8, 32, 256, 128),
            2,
        ),
        (
            "conv3 igrad",
            "scatter",
            (8, 64, 32),
            ax(2, 0, 16384, 2048),
            ax(8, 512, 2048, 256),
            2,
        ),
        ("fc1 fwd", "N·N", (2, 64, 32), ax(8, 128, 2048, 64), one, 2),
        ("fc2 fwd", "N·N", (2, 32, 16), ax(8, 64, 512, 32), one, 2),
        ("fc3 fwd", "N·N", (2, 16, 16), ax(8, 32, 256, 32), one, 1),
        ("stn fc3 fwd", "N·N", (2, 16, 9), ax(8, 32, 144, 18), one, 1),
        (
            "fc1 igrad",
            "N·T",
            (2, 32, 64),
            ax(8, 64, 2048, 128),
            one,
            2,
        ),
        ("fc2 igrad", "N·T", (2, 16, 32), ax(8, 32, 512, 64), one, 2),
        ("fc3 igrad", "N·T", (2, 16, 16), ax(8, 32, 256, 32), one, 1),
        (
            "stn fc3 igrad",
            "N·T",
            (2, 9, 16),
            ax(8, 18, 144, 32),
            one,
            1,
        ),
        (
            "fc1 wgrad",
            "T·N",
            (64, 2, 32),
            ax(8, 128, 64, 2048),
            one,
            2,
        ),
        ("fc2 wgrad", "T·N", (32, 2, 16), ax(8, 64, 32, 512), one, 2),
        ("fc3 wgrad", "T·N", (16, 2, 16), ax(8, 32, 32, 256), one, 1),
        (
            "stn fc3 wgrad",
            "T·N",
            (16, 2, 9),
            ax(8, 32, 18, 144),
            one,
            1,
        ),
        ("tp fwd", "N·N", (32, 3, 3), ax(16, 96, 9, 96), one, 1),
        ("tp igrad", "N·T", (32, 3, 3), ax(16, 96, 9, 96), one, 1),
        ("tp wgrad", "T·N", (3, 32, 3), ax(16, 96, 96, 9), one, 1),
    ];
    println!(
        "\n## Ablation: small products of a PointNet array step (1 thread, min of 9x1000 calls)"
    );
    let mut group = c.benchmark_group("small_products");
    let mut step_us = 0.0;
    for (op, layout, (m, k, n), outer, inner, calls) in shapes {
        let span = |f: fn(&Axis) -> usize, len: usize| {
            (outer.count - 1) * f(&outer) + (inner.count - 1) * f(&inner) + len
        };
        let mut rng = Rng::seed_from(33);
        let a = rng.randn([span(|x| x.a, m * k)]);
        let b = rng.randn([span(|x| x.b, k * n)]);
        let mut out = vec![0.0f32; span(|x| x.out, m * n)];
        // A pointwise conv's input-gradient tables: channel rows `n` apart.
        let (row, col): (Vec<usize>, Vec<usize>) =
            ((0..m).map(|r| r * n).collect(), (0..n).collect());
        let mut call = || {
            let (a, b) = (a.as_slice(), b.as_slice());
            let (pa, pb) = match layout {
                "N·N" => (PackA::N(a), PackB::N(b)),
                "N·T" => (PackA::N(a), PackB::T(b)),
                _ => (PackA::T(a), PackB::N(b)),
            };
            let sink = match layout {
                "scatter" => Out::Scatter(&mut out, Offsets::new(&row, &col)),
                _ => Out::Add(&mut out),
            };
            gemm_batched(sink, pa, pb, (m, k, n), [outer, inner]);
        };
        let us = (0..9)
            .map(|_| {
                let started = std::time::Instant::now();
                for _ in 0..1000 {
                    call();
                }
                started.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        let flops = (2 * m * k * n * outer.count * inner.count) as f64;
        step_us += us * calls as f64;
        println!(
            "  {op:<14} {layout:<8} ({m},{k},{n}) x{:<3} {us:>7.2} us  {:>6.2} GFLOP/s",
            outer.count * inner.count,
            flops / us / 1e3
        );
        group.bench_function(format!("{op}/({m},{k},{n})"), |bench| bench.iter(&mut call));
    }
    group.finish();
    println!("  total per array step: {step_us:.1} us");
    hfta_kernels::set_num_threads(threads);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = ablation_mechanisms, ablation_loss_scaling, ablation_step_time, ablation_optimizer, ablation_conv, ablation_passes, ablation_small_products
}
criterion_main!(benches);
