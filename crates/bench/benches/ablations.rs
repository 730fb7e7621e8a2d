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
//!    stride-2 DCGAN-D layers, µs and GFLOP/s per op at one thread.
//! 6. **Non-GEMM passes** — activations, batch norm and the global max
//!    pool through the tape at the benchmark's shapes, µs forward and
//!    backward per op at one thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfta_core::format::stack_conv;
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, FusedOptimizer, FusedSgd, PerModel};
use hfta_models::{
    AlexNet, AlexNetCfg, DcganCfg, Discriminator, FusedAlexNet, FusedDiscriminator, FusedGenerator,
    Generator, Workload,
};
use hfta_nn::{Adam, Module, Optimizer, Sgd, Tape};
use hfta_sim::{DeviceSpec, GpuSim, SharingPolicy};
use hfta_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, ConvCfg};
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

/// The three conv ops at the four stride-2 DCGAN-D layers of the benchmark
/// (`dcgan_compute`: width 12, 64x64, B = 6 fused as groups, batch 2) on
/// one thread — the per-op before/after of a conv-kernel change,
/// independent of the benchmark's replay ledger.
fn ablation_conv(c: &mut Criterion) {
    let (b, batch) = (6usize, 2usize);
    let threads = hfta_kernels::num_threads();
    hfta_kernels::set_num_threads(1);
    let cfg = ConvCfg::square(2, 1, b);
    let mut rng = Rng::seed_from(18);
    type ConvOp<'a> = (&'a str, Box<dyn Fn() -> Tensor + 'a>);
    println!(
        "\n## Ablation: conv ops at the DCGAN-D layers (B = {b} as groups, N = {batch}, 1 thread)"
    );
    let mut totals = [0.0f64; 3];
    let mut group = c.benchmark_group("conv");
    for (cin, cout, h) in [
        (3usize, 12usize, 64usize),
        (12, 24, 32),
        (24, 48, 16),
        (48, 96, 8),
    ] {
        let x = rng.randn([batch, b * cin, h, h]);
        let w = rng.randn([b * cout, cin, 4, 4]);
        let gy = rng.randn([batch, b * cout, h / 2, h / 2]);
        let flops = (2 * batch * b * cout * cin * 16 * (h / 2) * (h / 2)) as f64;
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
        for ((name, op), total) in ops.iter().zip(&mut totals) {
            let us = median_secs(41, || drop(black_box(op()))) * 1e6;
            *total += us;
            println!(
                "  {cin:>2}x{cout:<2} @ {h:<2} {name:<19} {us:>8.1} us  {:>6.2} GFLOP/s",
                flops / us / 1e3
            );
            let id = format!("{name}/{cin}x{cout}x{h}");
            group.bench_function(id, |bench| bench.iter(|| black_box(op())));
        }
    }
    group.finish();
    println!(
        "  totals: conv2d {:.2} ms, grad_input {:.2} ms, grad_weight {:.2} ms",
        totals[0] / 1e3,
        totals[1] / 1e3,
        totals[2] / 1e3
    );
    hfta_kernels::set_num_threads(threads);
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
    let (d1, d2, g5) = ([2usize, 72, 32, 32], [2, 144, 16, 16], [2, 18, 64, 64]);
    let mut rows: Vec<(&str, &[usize], Op)> = Vec::new();
    for (name, op) in [("leaky_relu", leaky), ("relu", relu), ("tanh", tanh)] {
        for dims in [&d1[..], &d2, &g5] {
            rows.push((name, dims, op));
        }
    }
    rows.push(("bn_train", &d1, bn_train));
    rows.push(("bn_train", &[2, 576, 4, 4], bn_train));
    rows.push(("bn_eval", &[2, 512, 32], bn_eval));
    rows.push(("max_axis", &[2, 512, 32], max_axis));
    println!("\n## Ablation: non-GEMM passes through the tape (1 thread, median of 41)");
    println!(
        "  {:<10} {:<16} {:>9} {:>9} {:>9}",
        "op", "shape", "fwd us", "bwd us", "total"
    );
    let mut group = c.benchmark_group("passes");
    for (name, dims, op) in rows {
        let x = hfta_nn::Parameter::new(rng.randn(dims.to_vec()), "x");
        let ch = dims[1];
        let gb = [
            hfta_nn::Parameter::new(rng.rand([ch], 0.5, 1.5), "gamma"),
            hfta_nn::Parameter::new(rng.randn([ch]), "beta"),
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = ablation_mechanisms, ablation_loss_scaling, ablation_step_time, ablation_optimizer, ablation_conv, ablation_passes
}
criterion_main!(benches);
