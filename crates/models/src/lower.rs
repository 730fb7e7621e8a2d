//! Lowering shaped operators to simulator kernels — the one lowering,
//! shared by the paper workloads' traces ([`crate::traces`]) and the
//! planner's graphs ([`crate::lower_plan`]).
//!
//! Each forward [`ShapedOp`] becomes one GPU kernel whose FLOPs, bytes
//! and GEMM view are the op's own (`hfta_plan::ir` is the only home of
//! those formulas); stateful GEMM ops add two backward kernels
//! (data-gradient and weight-gradient GEMMs, the standard 3x-forward-cost
//! rule of thumb), other ops add one. One optimizer kernel per
//! parameter-holding op closes the iteration. The lowering adds what is
//! the device's, not the op's: the tile decomposition and the TPU
//! annotations (GEMM dims for systolic padding, channel widths for XLA
//! layout padding).

use hfta_plan::{OpKind, ShapedOp};
use hfta_sim::{GemmDims, JobMemory, Kernel, TrainingJob};

/// Flat-tile granularity of elementwise kernels.
const ELT_TILE_ELEMS: u64 = 16 * 1024;

/// Lowers one forward op to a kernel.
pub fn forward_kernel(op: &ShapedOp) -> Kernel {
    let kind = op.op().kind;
    let gemm = op
        .gemm()
        .map(|[m, n, k, batch]| GemmDims { m, n, k, batch });
    let tiles = match gemm {
        // 128x128 output tiles, roughly cuBLAS/cuDNN tiling granularity.
        Some(g) => g.m.div_ceil(128) * g.n.div_ceil(128) * g.batch,
        None => (op.out_elems() as u64).div_ceil(ELT_TILE_ELEMS),
    };
    // The channel-like axis XLA pads on TPUs: a GEMM's output columns,
    // a norm's or pool's channels.
    let channels = matches!(kind, OpKind::BatchNorm | OpKind::MaxPool2d);
    Kernel {
        flops: op.flops(),
        bytes: op.bytes(),
        tiles: tiles.max(1),
        gemm,
        pad_dim: gemm
            .map(|g| g.n)
            .or_else(|| channels.then(|| op.entry()[0] as u64)),
        // cuDNN of the paper's era lacked tensor-core kernels for
        // transposed convolutions (the paper's §5.1 DCGAN AMP anomaly).
        tc_eligible: kind != OpKind::ConvTranspose2d,
    }
}

/// Lowers a forward trace into the full iteration kernel stream
/// (forward + backward + optimizer).
pub fn iteration_kernels(trace: &[ShapedOp]) -> Vec<Kernel> {
    let mut kernels: Vec<Kernel> = trace.iter().map(forward_kernel).collect();
    // Backward, in reverse order: data-grad and weight-grad GEMMs for a
    // GEMM op, one kernel otherwise.
    for i in (0..trace.len()).rev() {
        let fwd = kernels[i];
        kernels.extend(std::iter::repeat_n(fwd, if fwd.is_gemm() { 2 } else { 1 }));
    }
    // Optimizer: one elementwise kernel per parameter-holding op.
    let params: usize = trace.iter().map(|s| s.param_count()).sum();
    if params > 0 {
        let holders = trace.iter().filter(|s| s.param_count() > 0).count() as u64;
        let per = (params as u64 / holders.max(1)).max(1);
        for _ in 0..holders {
            // Adam reads/writes weight, grad, m, v: ~8 values per param.
            kernels.push(Kernel {
                flops: 8 * per,
                bytes: 32 * per,
                tiles: per.div_ceil(ELT_TILE_ELEMS).max(1),
                gemm: None,
                pad_dim: None,
                tc_eligible: false,
            });
        }
    }
    kernels
}

/// Device memory model for one job running `trace` (per model, GiB):
/// weights + Adam state, saved activations + their gradients, and a
/// cuDNN-style workspace.
pub fn job_memory(trace: &[ShapedOp]) -> JobMemory {
    let params: usize = trace.iter().map(|s| s.param_count()).sum();
    // Only outputs that must be *saved* for the backward pass count:
    // stateful ops and pooling. Activation-function and dropout outputs
    // are recomputed-from/folded-into their producer in practice.
    let activations: usize = trace
        .iter()
        .filter(|s| s.param_count() > 0 || s.op().kind == OpKind::MaxPool2d)
        .map(|s| s.out_elems())
        .sum();
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    JobMemory {
        // value + grad + Adam m + v = 4 copies.
        weights_gib: (params * 4 * 4) as f64 / GIB,
        // saved forward activations (gradient buffers are transient).
        activations_gib: (activations * 4) as f64 / GIB,
        workspace_gib: 0.15,
    }
}

/// Builds a complete simulator job from a forward trace.
///
/// `models` is 1 for serial jobs or `B` for a fused trace (i.e. a trace
/// already mapped through [`ShapedOp::fused`]); `examples` is the per-model
/// minibatch size, `host_us` the per-iteration host data-pipeline time and
/// `sync_us` the per-kernel framework gap (see
/// [`TrainingJob::sync_us_per_kernel`]).
pub fn build_job(
    name: impl Into<String>,
    trace: &[ShapedOp],
    models: usize,
    examples: usize,
    host_us: f64,
    sync_us: f64,
    cpu_gap_fraction: f64,
) -> TrainingJob {
    TrainingJob {
        name: name.into(),
        kernels: iteration_kernels(trace),
        host_us,
        sync_us_per_kernel: sync_us,
        cpu_gap_fraction,
        memory: job_memory(trace),
        models_per_job: models,
        examples_per_iteration: examples,
    }
}

/// Maps a per-model trace through the Table 6 fusion transform.
pub fn fused_trace(trace: &[ShapedOp], b: usize) -> Vec<ShapedOp> {
    trace.iter().map(|s| s.fused(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces;
    use hfta_nn::layers::Conv2dCfg;
    use hfta_plan::OpSpec;

    /// A 3x3 same-padded conv over `n` images of side `side`.
    fn conv(c_in: usize, c_out: usize, side: usize, n: usize) -> ShapedOp {
        OpSpec::conv2d(Conv2dCfg::new(c_in, c_out, 3).padding(1))
            .at(&[c_in, side, side], n)
            .unwrap()
    }

    #[test]
    fn forward_kernel_carries_gemm_info() {
        let k = forward_kernel(&conv(3, 64, 32, 8));
        assert!(k.is_gemm());
        assert_eq!(k.gemm.unwrap().n, 64);
        assert_eq!(k.pad_dim, Some(64));
        assert!(k.tiles > 1);
    }

    #[test]
    fn fused_tiles_grow_with_b() {
        // The core utilization claim: one fused kernel exposes ~B times the
        // parallelism of one per-model kernel.
        let s = conv(16, 128, 14, 8);
        assert_eq!(
            forward_kernel(&s.fused(8)).tiles,
            8 * forward_kernel(&s).tiles
        );
        // A conv narrower than the 128-column output tile fills its
        // partial tile first: 8 x 32 channels are two tile columns.
        let narrow = conv(16, 32, 14, 8);
        assert_eq!(
            forward_kernel(&narrow.fused(8)).tiles,
            2 * forward_kernel(&narrow).tiles
        );
    }

    #[test]
    fn backward_roughly_doubles_kernels() {
        let trace = traces::pointnet_cls();
        let kernels = iteration_kernels(&trace);
        assert!(kernels.len() > 2 * trace.len());
        // GEMM flops in one iteration are ~3x forward GEMM flops.
        let fwd_gemm: u64 = trace
            .iter()
            .filter(|s| s.is_gemm())
            .map(|s| s.flops())
            .sum();
        let all_gemm: u64 = kernels
            .iter()
            .filter(|k| k.is_gemm())
            .map(|k| k.flops)
            .sum();
        assert_eq!(all_gemm, 3 * fwd_gemm);
    }

    #[test]
    fn fused_trace_multiplies_work_linearly() {
        let trace = traces::dcgan_iteration();
        let fused = fused_trace(&trace, 4);
        let f1: u64 = trace.iter().map(|s| s.flops()).sum();
        let f4: u64 = fused.iter().map(|s| s.flops()).sum();
        assert_eq!(f4, 4 * f1);
        // Same kernel count — that is the whole point of fusion.
        assert_eq!(fused.len(), trace.len());
    }

    #[test]
    fn memory_grows_with_fusion_width() {
        let trace = traces::pointnet_cls();
        let m1 = job_memory(&trace);
        let m4 = job_memory(&fused_trace(&trace, 4));
        assert!(m4.weights_gib > 3.9 * m1.weights_gib);
        assert!(m4.activations_gib > 3.9 * m1.activations_gib);
        // Workspace is shared, not duplicated.
        assert_eq!(m4.workspace_gib, m1.workspace_gib);
    }

    #[test]
    fn pointnet_memory_magnitude_is_plausible() {
        // The paper fits ~5-9 PointNet-cls models on a 16 GiB V100; the
        // per-model footprint must land in the ~0.5-2.5 GiB range.
        let m = job_memory(&traces::pointnet_cls());
        let total = m.total_gib();
        assert!((0.3..3.0).contains(&total), "footprint {total} GiB");
    }

    #[test]
    fn build_job_wires_fields() {
        let trace = traces::resnet18();
        let job = build_job(
            "resnet18",
            &trace,
            1,
            traces::RESNET_BATCH,
            5_000.0,
            100.0,
            0.3,
        );
        assert_eq!(job.models_per_job, 1);
        assert_eq!(job.examples_per_iteration, 1000);
        assert!(job.kernel_count() > 40);
    }
}
