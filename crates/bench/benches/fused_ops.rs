//! Criterion micro-benchmarks of *real CPU execution*: B separate
//! operators vs one horizontally fused operator. Even on CPU, fusion
//! amortizes per-operator dispatch and improves cache behaviour for
//! small per-model shapes — the same mechanism the paper exploits on
//! accelerators (at much larger scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfta_tensor::conv::{conv1d, conv2d, ConvCfg};
use hfta_tensor::{Rng, Tensor};
use std::hint::black_box;

fn bench_conv2d_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_serial_vs_fused");
    let mut rng = Rng::seed_from(0);
    for b in [2usize, 4, 8] {
        let cfg = ConvCfg::square(1, 1, 1);
        let xs: Vec<Tensor> = (0..b).map(|_| rng.randn([4, 4, 12, 12])).collect();
        let ws: Vec<Tensor> = (0..b).map(|_| rng.randn([8, 4, 3, 3])).collect();
        let xf = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 1);
        let wf = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0);
        group.bench_with_input(BenchmarkId::new("serial", b), &b, |bench, _| {
            bench.iter(|| {
                for i in 0..b {
                    black_box(conv2d(&xs[i], &ws[i], None, cfg));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("hfta", b), &b, |bench, _| {
            bench.iter(|| black_box(conv2d(&xf, &wf, None, cfg.fused(b))))
        });
    }
    group.finish();
}

fn bench_conv1d_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv1d_pointnet_style");
    let mut rng = Rng::seed_from(1);
    for b in [2usize, 8] {
        let xs: Vec<Tensor> = (0..b).map(|_| rng.randn([4, 3, 256])).collect();
        let ws: Vec<Tensor> = (0..b).map(|_| rng.randn([16, 3, 1])).collect();
        let xf = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 1);
        let wf = Tensor::concat(&ws.iter().collect::<Vec<_>>(), 0);
        group.bench_with_input(BenchmarkId::new("serial", b), &b, |bench, _| {
            bench.iter(|| {
                for i in 0..b {
                    black_box(conv1d(&xs[i], &ws[i], None, 1, 0, 1));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("hfta", b), &b, |bench, _| {
            bench.iter(|| black_box(conv1d(&xf, &wf, None, 1, 0, b)))
        });
    }
    group.finish();
}

fn bench_linear_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_vs_baddbmm");
    let mut rng = Rng::seed_from(2);
    for b in [2usize, 8] {
        let xs: Vec<Tensor> = (0..b).map(|_| rng.randn([16, 64])).collect();
        let ws: Vec<Tensor> = (0..b).map(|_| rng.randn([64, 32])).collect();
        let bias: Vec<Tensor> = (0..b).map(|_| rng.randn([32])).collect();
        let xf = {
            let u: Vec<Tensor> = xs.iter().map(|t| t.unsqueeze(0)).collect();
            Tensor::concat(&u.iter().collect::<Vec<_>>(), 0)
        };
        let wf = {
            let u: Vec<Tensor> = ws.iter().map(|t| t.unsqueeze(0)).collect();
            Tensor::concat(&u.iter().collect::<Vec<_>>(), 0)
        };
        let bf = Tensor::concat(&bias.iter().collect::<Vec<_>>(), 0).reshape(&[b, 1, 32]);
        group.bench_with_input(BenchmarkId::new("serial", b), &b, |bench, _| {
            bench.iter(|| {
                for i in 0..b {
                    black_box(xs[i].matmul(&ws[i]).add(&bias[i]));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("hfta", b), &b, |bench, _| {
            // The fused `Linear`: one bmm, then the bias (`Var::baddbmm`).
            bench.iter(|| black_box(xf.bmm(&wf).add(&bf)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_conv2d_fusion, bench_conv1d_fusion, bench_linear_fusion
}
criterion_main!(benches);
