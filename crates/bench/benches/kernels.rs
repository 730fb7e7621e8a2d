//! Criterion micro-benchmarks of the `hfta-kernels` compute layer at the
//! paper's workload shapes: PointNet-style per-point GEMMs, DCGAN-style
//! fused grouped convolutions (forward + both backward passes) and the
//! fused linear layer (`bmm` + broadcast bias add, as `Var::baddbmm` runs it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfta_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, ConvCfg};
use hfta_tensor::Rng;
use std::hint::black_box;

fn bench_gemm_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = Rng::seed_from(7);
    // (label, m, k, n): PointNet per-point MLP and DCGAN im2col shapes.
    let shapes = [
        ("pointnet_64x64x1024", 64usize, 64usize, 1024usize),
        ("dcgan_96x48x256", 96, 48, 256),
    ];
    for (label, m, k, n) in shapes {
        let a = rng.randn([m, k]);
        let b = rng.randn([k, n]);
        group.bench_with_input(BenchmarkId::new("auto", label), &label, |bench, _| {
            let mut out = vec![0.0f32; m * n];
            bench.iter(|| {
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
        });
    }
    group.finish();
}

fn bench_fused_conv_training_step(c: &mut Criterion) {
    // One fused DCGAN-ish training step (forward + grad_input +
    // grad_weight) at B = 6 fused models — the end-to-end path the kernel
    // layer is meant to accelerate.
    let mut group = c.benchmark_group("fused_conv_training_step");
    let mut rng = Rng::seed_from(11);
    let b = 6usize;
    let cfg = ConvCfg::square(2, 1, 1).fused(b);
    let x = rng.randn([4, 3 * b, 32, 32]);
    let w = rng.randn([16 * b, 3, 4, 4]);
    let bias = rng.randn([16 * b]);
    let y = conv2d(&x, &w, Some(&bias), cfg);
    let gy = rng.randn(y.dims().to_vec());
    group.bench_with_input(BenchmarkId::new("auto", b), &b, |bench, _| {
        bench.iter(|| {
            let y = conv2d(black_box(&x), black_box(&w), Some(&bias), cfg);
            let gx = conv2d_grad_input(&w, black_box(&gy), (32, 32), 3 * b, cfg);
            let gw = conv2d_grad_weight(&x, &gy, (4, 4), cfg);
            black_box((y, gx, gw));
        });
    });
    group.finish();
}

fn bench_fused_linear(c: &mut Criterion) {
    // The fused-linear path: B models as one bmm, then the bias.
    let mut group = c.benchmark_group("fused_linear_bmm_add");
    let mut rng = Rng::seed_from(13);
    for b in [2usize, 6] {
        let x = rng.randn([b, 64, 128]);
        let w = rng.randn([b, 128, 64]);
        let bias = rng.randn([b, 1, 64]);
        group.bench_with_input(BenchmarkId::new("auto", b), &b, |bench, _| {
            bench.iter(|| black_box(x.bmm(&w).add(&bias)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_shapes,
    bench_fused_conv_training_step,
    bench_fused_linear
);
criterion_main!(benches);
