//! The horizontal operator fusion rules of HFTA — **Table 6** of the paper
//! as typed, checkable data.
//!
//! The operator descriptor is `hfta-plan`'s: an [`OpSpec`](hfta_plan::OpSpec)
//! at an entry shape, the [`ShapedOp`]. This module holds what is Table 6
//! itself, the two key observations of the paper:
//!
//! 1. *same type + same shape*: [`fuse`] verifies a batch of shaped ops is
//!    fusable and rejects mismatches with a precise [`FusionError`];
//! 2. *mathematical equivalence*: [`ShapedOp::fused`] produces the
//!    already-well-optimized operator that realizes the fusion (grouped
//!    convolution, `baddbmm`, widened batch-norm, ...), and
//!    [`rule_table`] renders the twelve rules as the paper prints them.
//!
//! The shaped ops carry the FLOP/byte accounting the `hfta-sim` cost
//! model is fed, so the fusion rules and the performance model cannot
//! drift apart.

use hfta_plan::ShapedOp;

use crate::error::{FusionError, Result};

/// Verifies that `ops` (one operator per job) are horizontally fusable —
/// the paper's "same types, same shapes" condition — and returns the fused
/// operator.
///
/// # Errors
///
/// [`FusionError::Empty`] on an empty slice; [`FusionError::KindMismatch`]
/// or [`FusionError::ShapeMismatch`] when the condition fails.
///
/// # Example
///
/// ```
/// use hfta_core::rules::fuse;
/// use hfta_nn::layers::Conv2dCfg;
/// use hfta_plan::OpSpec;
/// let conv = OpSpec::conv2d(Conv2dCfg::new(3, 64, 3).padding(1))
///     .at(&[3, 32, 32], 32)
///     .unwrap();
/// let fused = fuse(&[conv.clone(), conv.clone(), conv.clone()]).unwrap();
/// assert_eq!(fused, conv.fused(3));
/// ```
pub fn fuse(ops: &[ShapedOp]) -> Result<ShapedOp> {
    let first = ops.first().ok_or(FusionError::Empty)?;
    let kind = |s: &ShapedOp| format!("{:?}", s.op().kind);
    for (i, s) in ops.iter().enumerate().skip(1) {
        if s.op().kind != first.op().kind {
            return Err(FusionError::KindMismatch {
                expected: kind(first),
                found: kind(s),
                index: i,
            });
        }
        if s != first {
            return Err(FusionError::ShapeMismatch {
                kind: kind(first),
                index: i,
                detail: format!("{s:?} vs {first:?}"),
            });
        }
    }
    Ok(first.fused(ops.len()))
}

/// One row of Table 6, rendered for documentation and the `table6` harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionRule {
    /// Left column: the original operator's symbolic signature, opening
    /// with its PyTorch name.
    pub original: &'static str,
    /// Right column: the fused operator's symbolic signature.
    pub fused: &'static str,
    /// How the fused operator is realized.
    pub mechanism: &'static str,
}

/// The complete rule table (paper Table 6).
pub fn rule_table() -> Vec<FusionRule> {
    vec![
        FusionRule {
            original: "Conv2d(x: [N, Cx, Hx, Wx], w: [Cy, Cx/G, Hw, Ww], b: [Cy], G = g)",
            fused: "Conv2d(x: [N, B*Cx, Hx, Wx], w: [B*Cy, Cx/G, Hw, Ww], b: [B*Cy], G = B*g)",
            mechanism: "grouped Conv2d with G = B x g",
        },
        FusionRule {
            original: "Conv1d(x: [N, Cx, Lx], w: [Cy, Cx/G, Lw], b: [Cy], G = g)",
            fused: "Conv1d(x: [N, B*Cx, Lx], w: [B*Cy, Cx/G, Lw], b: [B*Cy], G = B*g)",
            mechanism: "grouped Conv1d with G = B x g",
        },
        FusionRule {
            original: "ConvT2d(x: [N, Cx, Hx, Wx], w: [Cx, Cy/G, Hw, Ww], b: [Cy], G = g)",
            fused: "ConvT2d(x: [N, B*Cx, Hx, Wx], w: [B*Cx, Cy/G, Hw, Ww], b: [B*Cy], G = B*g)",
            mechanism: "grouped ConvTranspose2d with G = B x g",
        },
        FusionRule {
            original: "Linear(x: [N, Fx], w: [Fx, Fy], b: [Fy])",
            fused: "baddbmm(b: [B, 1, Fy], x: [B, N, Fx], w: [B, Fx, Fy])",
            mechanism: "baddbmm over [B, N, F] operands",
        },
        FusionRule {
            original: "BatchNorm1d(x: [N, Cx] or [N, Cx, Lx], w: [Cx], b: [Cx])",
            fused: "BatchNorm1d(x: [B*N, Cx] or [N, B*Cx, Lx], w: [B*Cx], b: [B*Cx])",
            mechanism: "BatchNorm1d widened to B x C channels",
        },
        FusionRule {
            original: "BatchNorm2d(x: [N, Cx, Hx, Wx], w: [Cx], b: [Cx])",
            fused: "BatchNorm2d(x: [N, B*Cx, Hx, Wx], w: [B*Cx], b: [B*Cx])",
            mechanism: "BatchNorm2d widened to B x C channels",
        },
        FusionRule {
            original: "MaxPool2d(x: [N, Cx, Hx, Wx])",
            fused: "MaxPool2d(x: [N, B*Cx, Hx, Wx])",
            mechanism: "MaxPool2d over B x C channels (stateless)",
        },
        FusionRule {
            original: "Dropout2d(x: [N, Cx, Hx, Wx])",
            fused: "Dropout2d(x: [N, B*Cx, Hx, Wx])",
            mechanism: "Dropout2d over B x C channels (stateless)",
        },
        FusionRule {
            original: "Dropout(x: [*])",
            fused: "Dropout(x: [*, B, *])",
            mechanism: "Dropout over the widened tensor (stateless)",
        },
        FusionRule {
            original: "LeakyReLU(x: [*])",
            fused: "LeakyReLU(x: [*, B, *])",
            mechanism: "LeakyReLU over the widened tensor (stateless)",
        },
        FusionRule {
            original: "ReLU(x: [*])",
            fused: "ReLU(x: [*, B, *])",
            mechanism: "ReLU over the widened tensor (stateless)",
        },
        FusionRule {
            original: "Tanh(x: [*])",
            fused: "Tanh(x: [*, B, *])",
            mechanism: "Tanh over the widened tensor (stateless)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::layers::{Conv2dCfg, LinearCfg};
    use hfta_plan::OpSpec;

    fn conv_k(kernel: usize) -> ShapedOp {
        OpSpec::conv2d(Conv2dCfg::new(16, 32, kernel).padding(kernel / 2))
            .at(&[16, 14, 14], 8)
            .unwrap()
    }

    fn conv() -> ShapedOp {
        conv_k(3)
    }

    fn linear(f_in: usize, f_out: usize, n: usize) -> ShapedOp {
        OpSpec::linear(LinearCfg::new(f_in, f_out))
            .at(&[f_in], n)
            .unwrap()
    }

    fn relu(numel: usize) -> ShapedOp {
        OpSpec::relu().at(&[numel], 1).unwrap()
    }

    #[test]
    fn fuse_accepts_identical_specs() {
        let fused = fuse(&vec![conv(); 4]).unwrap();
        let op = fused.op();
        assert_eq!(op.kind, hfta_plan::OpKind::Conv2d);
        assert_eq!((op.c_in, op.c_out, op.groups), (64, 128, 4));
        assert_eq!(fused.entry(), [64, 14, 14]);
        assert_eq!(fused.out_shape(), [128, 14, 14]);
    }

    #[test]
    fn fuse_rejects_kind_mismatch() {
        let err = fuse(&[conv(), linear(16, 32, 8)]).unwrap_err();
        assert!(matches!(err, FusionError::KindMismatch { index: 1, .. }));
    }

    #[test]
    fn fuse_rejects_shape_mismatch() {
        let err = fuse(&[conv(), conv_k(5)]).unwrap_err();
        assert!(matches!(err, FusionError::ShapeMismatch { index: 1, .. }));
    }

    #[test]
    fn fuse_rejects_empty() {
        assert_eq!(fuse(&[]).unwrap_err(), FusionError::Empty);
    }

    #[test]
    fn fused_flops_scale_linearly_for_convs() {
        // Grouped fusion multiplies work by exactly B (the mathematical
        // equivalence does not add FLOPs).
        let s = conv();
        for b in [1, 2, 4, 9] {
            assert_eq!(s.fused(b).flops(), s.flops() * b as u64);
        }
    }

    #[test]
    fn fused_flops_scale_linearly_for_all_kinds() {
        let ops = [
            conv(),
            OpSpec::conv1d(3, 8, 3, 1, 1).at(&[3, 100], 4).unwrap(),
            OpSpec::conv_transpose2d(Conv2dCfg::new(8, 4, 4).stride(2).padding(1))
                .at(&[8, 4, 4], 2)
                .unwrap(),
            linear(128, 64, 32),
            OpSpec::batch_norm(8).at(&[8, 7, 7], 4).unwrap(),
            OpSpec::max_pool2d(2).at(&[8, 8, 8], 4).unwrap(),
            relu(1000),
            OpSpec::tanh().at(&[1000], 1).unwrap(),
            OpSpec::global_max_pool().at(&[8, 50], 4).unwrap(),
        ];
        for s in ops {
            let fused = s.fused(3);
            assert_eq!(fused.flops(), 3 * s.flops(), "{s:?}");
            assert_eq!(fused.out_elems(), 3 * s.out_elems(), "{s:?}");
            assert_eq!(fused.param_count(), 3 * s.param_count(), "{s:?}");
            // The fused operator is itself a well-formed operator.
            assert!(fused.op().at(fused.entry(), 1).is_ok(), "{fused:?}");
        }
    }

    #[test]
    fn gemm_classification() {
        assert!(conv().is_gemm());
        assert!(linear(2, 3, 1).is_gemm());
        assert!(!relu(10).is_gemm());
        assert!(!OpSpec::max_pool2d(2).at(&[1, 4, 4], 1).unwrap().is_gemm());
        // A fused conv is one wider GEMM; fused linears are B batched ones.
        assert_eq!(conv().gemm(), Some([8 * 14 * 14, 32, 16 * 9, 1]));
        assert_eq!(conv().fused(4).gemm(), Some([8 * 14 * 14, 128, 16 * 9, 1]));
        assert_eq!(linear(2, 3, 5).fused(4).gemm(), Some([5, 3, 2, 4]));
    }

    #[test]
    fn rule_table_covers_all_kinds_once() {
        let table = rule_table();
        assert_eq!(table.len(), 12);
        let name = |r: &FusionRule| r.original.split('(').next().unwrap();
        for rule in &table {
            assert_eq!(
                table.iter().filter(|r| name(r) == name(rule)).count(),
                1,
                "{} duplicated",
                name(rule)
            );
            // Every fused form mentions B.
            assert!(rule.fused.contains('B'), "{}", name(rule));
        }
    }

    #[test]
    fn param_counts() {
        assert_eq!(linear(10, 5, 1).param_count(), 55);
        assert_eq!(conv().param_count(), 32 * 16 * 9 + 32);
        assert_eq!(relu(100).param_count(), 0);
    }
}
