//! Full-size operator traces of the paper's benchmark models.
//!
//! These are [`ShapedOp`] sequences at the *paper's* batch sizes and
//! resolutions (kept the same as the original publications, per §4 of
//! the paper). They drive the `hfta-sim` cost model through
//! [`crate::lower`]; the fused counterpart of a trace is obtained by
//! mapping [`ShapedOp::fused`] over it, which is exactly the Table 6
//! transform.
//!
//! The DCGAN trace is *derived*: it is [`crate::graphs`]' generator and
//! discriminator graphs — the ones pinned bit for bit to the executable
//! models — at [`DcganCfg::paper`]. PointNet and ResNet-18 are
//! hand-listed because they price what those single-path graphs leave
//! out: the STN side branch, the skip-path downsample convs, dropout, and
//! the log-softmax / broadcast / concat / pooling passes the IR has no
//! kind for. A [`Trace`] still propagates every shape through
//! [`OpSpec::out_shape`]; only channel widths are written down.

use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_plan::{OpSpec, ShapedOp};

use crate::dcgan::DcganCfg;
use crate::graphs::{discriminator_graph, generator_graph};
use crate::lower_plan::lower_graph;

/// PointNet classification batch size (reference implementation default).
pub const POINTNET_BATCH: usize = 32;
/// Points per cloud (reference implementation default).
pub const POINTNET_POINTS: usize = 2500;
/// ShapeNet categories.
pub const POINTNET_CLASSES: usize = 16;
/// DCGAN batch size (PyTorch example default).
pub const DCGAN_BATCH: usize = 64;
/// ResNet-18 batch size used in the paper's Figures 3 and 5.
pub const RESNET_BATCH: usize = 1000;

/// A hand-listed trace under construction: the ops so far plus the
/// activation shape the next one enters at.
struct Trace {
    ops: Vec<ShapedOp>,
    n: usize,
    shape: Vec<usize>,
}

impl Trace {
    fn new(n: usize, input: &[usize]) -> Trace {
        Trace {
            ops: Vec::new(),
            n,
            shape: input.to_vec(),
        }
    }

    /// Appends `op` at the current shape and moves on to its output.
    fn push(&mut self, op: OpSpec) {
        let op = op
            .at(&self.shape, self.n)
            .expect("paper-scale trace shapes propagate");
        self.shape = op.out_shape();
        self.ops.push(op);
    }

    /// One elementwise kernel priced at `passes` ReLU passes over the
    /// current activation, which it leaves as it is: the stand-in for an
    /// op the IR has no kind for (dropout, log-softmax, a reduce or copy).
    fn elementwise(&mut self, passes: usize) {
        let entry = [&[passes], &self.shape[..]].concat();
        let op = OpSpec::relu().at(&entry, self.n);
        self.ops.push(op.expect("ReLU takes any shape"));
    }

    fn conv1d_bn_relu(&mut self, c_out: usize) {
        self.push(OpSpec::conv1d(self.shape[0], c_out, 1, 1, 0));
        self.push(OpSpec::batch_norm(c_out));
        self.push(OpSpec::relu());
    }

    fn linear(&mut self, f_out: usize) {
        self.push(OpSpec::linear(LinearCfg::new(self.shape[0], f_out)));
    }

    fn linear_bn_relu(&mut self, f_out: usize) {
        self.linear(f_out);
        self.push(OpSpec::batch_norm(f_out));
        self.push(OpSpec::relu());
    }

    fn conv2d_bn(&mut self, c_out: usize, kernel: usize, stride: usize) {
        let cfg = Conv2dCfg::new(self.shape[0], c_out, kernel);
        self.push(OpSpec::conv2d(cfg.stride(stride).padding(kernel / 2)));
        self.push(OpSpec::batch_norm(c_out));
    }
}

/// The STN3d spatial transformer of the reference implementation: a side
/// branch off the `[3, p]` cloud that regresses a 3x3 transform and
/// applies it, leaving the main path where it found it.
fn stn(t: &mut Trace) {
    let cloud = t.shape.clone();
    let (k, p) = (cloud[0], cloud[1]);
    t.conv1d_bn_relu(64);
    t.conv1d_bn_relu(128);
    t.conv1d_bn_relu(1024);
    t.push(OpSpec::global_max_pool());
    t.linear_bn_relu(512);
    t.linear_bn_relu(256);
    t.linear(k * k);
    // Applying the transform is a batched [n, p, k] x [n, k, k] matmul,
    // priced as a Linear over n * p rows (as a Conv1d over p points it
    // would price the same serially but not fused).
    let apply = OpSpec::linear(LinearCfg::new(k, k)).at(&[k], t.n * p);
    t.ops.push(apply.expect("k features enter a k x k Linear"));
    t.shape = cloud;
}

/// Shared PointNet feature trunk over `[3, p]` clouds, input transformer
/// included; returns with the `[1024]` global feature computed.
fn pointnet_feat(n: usize, p: usize) -> Trace {
    let mut t = Trace::new(n, &[3, p]);
    stn(&mut t);
    t.conv1d_bn_relu(64);
    t.conv1d_bn_relu(128);
    t.push(OpSpec::conv1d(128, 1024, 1, 1, 0));
    t.push(OpSpec::batch_norm(1024));
    t.push(OpSpec::global_max_pool());
    t
}

/// PointNet classification forward trace (reference architecture with
/// STN3d, 16 ShapeNet categories).
pub fn pointnet_cls() -> Vec<ShapedOp> {
    let mut t = pointnet_feat(POINTNET_BATCH, POINTNET_POINTS);
    t.linear_bn_relu(512);
    t.linear(256);
    t.elementwise(1); // dropout
    t.push(OpSpec::batch_norm(256));
    t.push(OpSpec::relu());
    t.linear(POINTNET_CLASSES);
    t.elementwise(1); // log-softmax
    t.ops
}

/// PointNet segmentation forward trace (per-point part prediction; the
/// variant the paper notes is rich in non-GEMM operators — the layout
/// shuffles around the local/global concat appear as elementwise ops).
pub fn pointnet_seg(part_classes: usize) -> Vec<ShapedOp> {
    let p = POINTNET_POINTS;
    let mut t = pointnet_feat(POINTNET_BATCH, p);
    // Broadcast the global feature over the points, then concat it with
    // the 64-d local features (copy-heavy, non-GEMM).
    t.shape = vec![1024, p];
    t.elementwise(1);
    t.shape = vec![1024 + 64, p];
    t.elementwise(1);
    t.conv1d_bn_relu(512);
    t.conv1d_bn_relu(256);
    t.conv1d_bn_relu(128);
    t.push(OpSpec::conv1d(128, part_classes, 1, 1, 0));
    // Per-point transpose + log-softmax (layout + elementwise).
    t.elementwise(2);
    t.ops
}

/// One DCGAN training iteration (`nz = 100`, `ngf = ndf = 64`, 64x64
/// images): the generator forward plus two discriminator passes (real and
/// fake batches), matching the standard alternating recipe. Backward
/// costs are added by the lowering.
pub fn dcgan_iteration() -> Vec<ShapedOp> {
    let cfg = DcganCfg::paper();
    let lower = |graph| lower_graph(&graph, DCGAN_BATCH).expect("DCGAN graphs shape-check");
    let d = lower(discriminator_graph(cfg));
    [lower(generator_graph(cfg)), d.clone(), d].concat()
}

/// A ResNet basic block; the 1x1 downsample projection of a stride-2 or
/// widening block runs on the skip path, from the block's entry shape.
fn res_block(t: &mut Trace, c_out: usize, stride: usize) {
    let entry = t.shape.clone();
    t.conv2d_bn(c_out, 3, stride);
    t.push(OpSpec::relu());
    t.conv2d_bn(c_out, 3, 1);
    if stride != 1 || entry[0] != c_out {
        t.shape = entry;
        t.conv2d_bn(c_out, 1, stride);
    }
    // Skip add + relu.
    t.elementwise(2);
}

/// ResNet-18 (CIFAR-10 stem) forward trace at the paper's batch size 1000.
pub fn resnet18() -> Vec<ShapedOp> {
    let mut t = Trace::new(RESNET_BATCH, &[3, 32, 32]);
    t.conv2d_bn(64, 3, 1);
    t.push(OpSpec::relu());
    for stage in 0..4 {
        let c_out = 64 << stage;
        res_block(&mut t, c_out, if stage == 0 { 1 } else { 2 });
        res_block(&mut t, c_out, 1);
    }
    // Global average pool + FC.
    t.elementwise(1);
    t.shape.truncate(1);
    t.linear(10);
    t.ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_core::rules::fuse;
    use hfta_plan::OpKind;

    #[test]
    fn traces_are_nonempty_and_fusable() {
        for trace in [
            pointnet_cls(),
            pointnet_seg(4),
            dcgan_iteration(),
            resnet18(),
        ] {
            assert!(trace.len() > 10);
            for op in &trace {
                // Every op must fuse with copies of itself (Table 6 check).
                let fused = fuse(&[op.clone(), op.clone(), op.clone()]).unwrap();
                assert_eq!(fused, op.fused(3));
            }
        }
    }

    #[test]
    fn pointnet_cls_flops_scale() {
        let total: u64 = pointnet_cls().iter().map(|o| o.flops()).sum();
        // Rough magnitude check: hundreds of MFLOPs up to tens of GFLOPs
        // per iteration at batch 32 x 2500 points.
        assert!(total > 100_000_000, "total {total}");
        assert!(total < 2_000_000_000_000, "total {total}");
    }

    #[test]
    fn dcgan_is_compute_heavy_relative_to_pointnet() {
        // The paper classifies DCGAN as compute-bound and PointNet as
        // memory-bound: flop/byte ratio must be clearly higher for DCGAN.
        let intensity = |trace: &[ShapedOp]| {
            let f: u64 = trace.iter().map(|o| o.flops()).sum();
            let b: u64 = trace.iter().map(|o| o.bytes()).sum();
            f as f64 / b as f64
        };
        assert!(intensity(&dcgan_iteration()) > 2.0 * intensity(&pointnet_cls()));
    }

    #[test]
    fn seg_has_more_non_gemm_traffic_than_cls() {
        // The paper attributes PointNet-seg's weak TPU result to its many
        // non-GEMM operators; those are memory-traffic-bound, so compare
        // byte shares.
        let non_gemm_bytes = |trace: &[ShapedOp]| -> u64 {
            trace
                .iter()
                .filter(|o| !o.is_gemm())
                .map(|o| o.bytes())
                .sum()
        };
        assert!(non_gemm_bytes(&pointnet_seg(4)) > non_gemm_bytes(&pointnet_cls()));
    }

    #[test]
    fn dcgan_generator_ends_at_64px() {
        // Generator (5 deconvs, tanh last), then the discriminator twice.
        let trace = dcgan_iteration();
        let tanh = trace
            .iter()
            .position(|o| o.op().kind == OpKind::Tanh)
            .unwrap();
        assert_eq!(tanh, 13);
        assert_eq!(trace[tanh].entry(), [3, 64, 64]);
        assert_eq!(trace[tanh - 1].op().kind, OpKind::ConvTranspose2d);
        let d = &trace[tanh + 1..];
        assert_eq!(d.len(), 2 * 12);
        assert_eq!(d[..12], d[12..]);
        assert_eq!(d[11].out_shape(), [1, 1, 1]);
    }

    #[test]
    fn resnet_has_eight_blocks_worth_of_convs() {
        let trace = resnet18();
        let convs = trace
            .iter()
            .filter(|o| o.op().kind == OpKind::Conv2d)
            .count();
        // 1 stem + 16 block convs + 3 downsample convs.
        assert_eq!(convs, 20);
        // Stride-2 stages halve 32 -> 4; the classifier reads 512 features.
        assert_eq!(trace[trace.len() - 2].entry(), [1, 512, 4, 4]);
        assert_eq!(trace[trace.len() - 1].entry(), [512]);
    }
}
