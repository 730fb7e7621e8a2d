//! Proves the disabled-telemetry fast path is free: a fused-conv training
//! step with no profiler installed must cost the same as the seed code
//! did before instrumentation existed. The only residue the tracepoints
//! leave on the disabled path is one cached `Option` check per recorded
//! op (`Tape::record_op` returns before even computing the op's cost
//! model), so `train_step/disabled` must sit within criterion noise —
//! well under 1% — of what the uninstrumented loop measures, while
//! `train_step/enabled` shows the real price of recording spans.

use criterion::{criterion_group, criterion_main, Criterion};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::{Fused, FusedParameter, Ops};
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::scope::{ScopeMonitor, SentinelCfg};
use hfta_nn::layers::{Conv2d, Conv2dCfg};
use hfta_nn::{Module, Tape};
use hfta_telemetry::{FlightKind, FlightRecorder, MetricsRegistry, Profiler, SchedStats};
use hfta_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

const B: usize = 4;

struct Setup {
    conv: Conv2d,
    opt: FusedSgd,
    x: Tensor,
    targets: Vec<usize>,
}

fn setup() -> Setup {
    let mut rng = Rng::seed_from(7);
    let conv = Fused(B).conv2d(Conv2dCfg::new(3, 4, 3), &mut Fused(B).lanes(&mut rng));
    let opt = FusedSgd::new(
        FusedParameter::of(&conv, B),
        PerModel::new(vec![0.01; B]),
        0.9,
    )
    .expect("matching widths");
    // One fused batch [N, B*C, H, W]; targets over the 4 output channels
    // after pooling the spatial dims away via mean.
    let x = rng.randn([2, B * 3, 8, 8]);
    let targets = vec![0usize; B * 2];
    Setup {
        conv,
        opt,
        x,
        targets,
    }
}

/// One full fused training step: forward conv, fused loss, backward, SGD.
fn train_step(s: &mut Setup) -> f32 {
    s.opt.zero_grad();
    let tape = Tape::new();
    let y = s.conv.forward(&tape.leaf(s.x.clone()));
    // [N, B*4, H', W'] -> per-model logits [B, N, 4] via spatial mean.
    let dims = y.dims();
    let pooled = y
        .reshape(&[dims[0], dims[1], dims[2] * dims[3]])
        .mean_axis_keep(2);
    let logits = pooled.reshape(&[dims[0], B, 4]).permute(&[1, 0, 2]);
    let loss = fused_cross_entropy(&logits, &s.targets, Reduction::Mean);
    let out = loss.item();
    loss.backward();
    s.opt.step();
    out
}

/// Mean ns per `incr` on a registry pre-seeded with `names` counters,
/// cycling through all of them.
fn registry_incr_ns(names: usize, iters: usize) -> f64 {
    let labels: Vec<String> = (0..names).map(|i| format!("counter.{i:04}")).collect();
    let mut reg = MetricsRegistry::new();
    for l in &labels {
        reg.incr(l, 1.0);
    }
    let t0 = Instant::now();
    for i in 0..iters {
        reg.incr(black_box(&labels[i % names]), 1.0);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_overhead(c: &mut Criterion) {
    // Small ops must never wake the worker pool: with 4 threads configured,
    // a loop of sub-threshold kernels (a 16^3 GEMM is ~8K FLOPs, under the
    // pool's minimum-work bar) has to run inline — zero dispatch delta —
    // or per-op latency would be dominated by pool handoff instead of
    // compute. The inline decision is a pure function of the work hint, so
    // this assertion is deterministic.
    {
        let prev_threads = hfta_kernels::num_threads();
        hfta_kernels::set_num_threads(4);
        let mut rng = Rng::seed_from(11);
        let a = rng.randn([16, 16]);
        let b = rng.randn([16, 16]);
        let before = hfta_kernels::pool_dispatches();
        for _ in 0..100 {
            black_box(a.matmul(&b));
            black_box(a.add(&b));
        }
        let delta = hfta_kernels::pool_dispatches() - before;
        assert_eq!(
            delta, 0,
            "sub-threshold ops dispatched to the worker pool {delta} times"
        );
        hfta_kernels::set_num_threads(prev_threads);
    }

    // Registry name lookup must be O(1): with the pre-PR linear scan,
    // 1024 live names cost ~128x what 8 names do; with the hash index the
    // ratio stays near 1. Assert a generous 8x bound so the check survives
    // machine noise while still catching any return to O(n).
    let small = registry_incr_ns(8, 200_000);
    let large = registry_incr_ns(1024, 200_000);
    assert!(
        large < small * 8.0,
        "registry incr is not O(1): {large:.1} ns at 1024 names vs {small:.1} ns at 8"
    );

    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("registry_incr/8names", |bench| {
        bench.iter(|| black_box(registry_incr_ns(8, 10_000)))
    });
    group.bench_function("registry_incr/1024names", |bench| {
        bench.iter(|| black_box(registry_incr_ns(1024, 10_000)))
    });
    // Scheduler counters obey the same budget: `SchedStats` caches the
    // profiler handle at construction, so the disabled path is one branch
    // on a cached `None` per event — no thread-local lookup, no lock.
    assert!(Profiler::current().is_none());
    let stats = SchedStats::new();
    assert!(!stats.enabled());
    group.bench_function("sched_stats/disabled", |bench| {
        bench.iter(|| {
            stats.arrival();
            stats.dispatch(black_box(8), black_box(6));
            stats.repack(black_box(3));
            stats.evict(black_box(false));
            stats.finish();
        })
    });
    // hfta-flight's disabled path is the same cached-`None` branch; the
    // `record_with` detail closure must never run without a profiler.
    let flight = FlightRecorder::new();
    assert!(!flight.enabled());
    group.bench_function("flight_record/disabled", |bench| {
        bench.iter(|| {
            flight.record(
                black_box(7),
                black_box(1_000),
                FlightKind::RungEnd,
                Some(0),
                Some(3),
                Some(1),
            );
            flight.record_with(
                black_box(7),
                black_box(1_000),
                FlightKind::Promote,
                None,
                None,
                None,
                || unreachable!("detail closure ran on the disabled path"),
            );
        })
    });
    let mut s = setup();
    // The path that must be free: tracepoints compiled in, no profiler.
    assert!(Profiler::current().is_none());
    group.bench_function("train_step/disabled", |bench| {
        bench.iter(|| black_box(train_step(&mut s)))
    });
    // The hfta-scope path: the full per-step monitor protocol (fused
    // gradient reduction, sentinel checks, norm/update-ratio pass) on top
    // of the plain step, still without a profiler.
    let mut s = setup();
    let params = FusedParameter::of(&s.conv, B);
    let mut monitor = ScopeMonitor::new(B, SentinelCfg::default());
    let mut step = 0u64;
    group.bench_function("train_step/scoped", |bench| {
        bench.iter(|| {
            s.opt.zero_grad();
            let tape = Tape::new();
            let y = s.conv.forward(&tape.leaf(s.x.clone()));
            let dims = y.dims();
            let pooled = y
                .reshape(&[dims[0], dims[1], dims[2] * dims[3]])
                .mean_axis_keep(2);
            let logits = pooled.reshape(&[dims[0], B, 4]).permute(&[1, 0, 2]);
            let losses = hfta_core::scope::per_model_ce_losses(&logits, &s.targets);
            let loss = fused_cross_entropy(&logits, &s.targets, Reduction::Mean);
            loss.backward();
            monitor.after_backward(step, &losses, &params, &mut s.opt);
            s.opt.step();
            monitor.after_step(step, &params);
            step += 1;
            black_box(loss.item())
        })
    });
    // The priced path: every op records a span with a cost model.
    let profiler = Profiler::new("overhead-bench");
    let _guard = profiler.install();
    let mut s = setup();
    group.bench_function("train_step/enabled", |bench| {
        bench.iter(|| black_box(train_step(&mut s)))
    });
    // Same event mix as sched_stats/disabled, now priced into the registry.
    let stats = SchedStats::new();
    assert!(stats.enabled());
    group.bench_function("sched_stats/enabled", |bench| {
        bench.iter(|| {
            stats.arrival();
            stats.dispatch(black_box(8), black_box(6));
            stats.repack(black_box(3));
            stats.evict(black_box(false));
            stats.finish();
        })
    });
    // hfta-probe budget: folding an op sample is one indexed hash-map
    // update, so even at this bench's deliberately tiny shapes (every op
    // is microseconds) the per-step sample-recording bill must stay under
    // 1% of the step itself.
    let sample_iters = 200_000usize;
    let t0 = Instant::now();
    for _ in 0..sample_iters {
        profiler.record_op_sample(black_box("probe.budget"), 2.0e6, 1.0e6, 1.0e3);
    }
    let sample_ns = t0.elapsed().as_nanos() as f64 / sample_iters as f64;
    let ops_per_step = {
        let _exp = profiler.experiment("probe-count");
        black_box(train_step(&mut s));
        let report = profiler.report();
        let exp = report
            .experiments
            .iter()
            .find(|e| e.name == "probe-count")
            .expect("experiment scope recorded");
        exp.ops.iter().map(|o| o.calls).sum::<u64>()
    };
    assert!(ops_per_step > 0, "the step must record op samples");
    let step_iters = 20usize;
    let t0 = Instant::now();
    for _ in 0..step_iters {
        black_box(train_step(&mut s));
    }
    let step_ns = t0.elapsed().as_nanos() as f64 / step_iters as f64;
    let probe_pct = ops_per_step as f64 * sample_ns / step_ns * 100.0;
    assert!(
        probe_pct < 1.0,
        "probe op sampling costs {probe_pct:.3}% of a training step \
         ({ops_per_step} ops x {sample_ns:.1} ns vs {step_ns:.0} ns step)"
    );
    group.bench_function("probe_op_sample/enabled", |bench| {
        bench.iter(|| profiler.record_op_sample(black_box("probe.budget"), 2.0e6, 1.0e6, 1.0e3))
    });
    // hfta-flight budget: one lifecycle event is a bounded-ring push (the
    // ring drains its oldest half on overflow, so the amortized price
    // includes that). A scheduled trial step emits at most ~8 events
    // (submit, enqueue, dispatch, rung start/end, promote, surgery pair),
    // and that bill must stay under 1% of the fused step.
    let flight = FlightRecorder::new();
    assert!(flight.enabled());
    let flight_iters = 200_000usize;
    let t0 = Instant::now();
    for i in 0..flight_iters {
        flight.record(
            black_box(9),
            black_box(i as u64),
            FlightKind::RungEnd,
            Some(0),
            Some(3),
            Some(1),
        );
    }
    let flight_ns = t0.elapsed().as_nanos() as f64 / flight_iters as f64;
    const FLIGHT_EVENTS_PER_STEP: f64 = 8.0;
    let flight_pct = FLIGHT_EVENTS_PER_STEP * flight_ns / step_ns * 100.0;
    assert!(
        flight_pct < 1.0,
        "flight recording costs {flight_pct:.3}% of a training step \
         ({FLIGHT_EVENTS_PER_STEP} events x {flight_ns:.1} ns vs {step_ns:.0} ns step)"
    );
    group.bench_function("flight_record/enabled", |bench| {
        let mut t = 0u64;
        bench.iter(|| {
            t += 1;
            flight.record(
                black_box(9),
                t,
                FlightKind::RungEnd,
                Some(0),
                Some(3),
                Some(1),
            );
        })
    });
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
