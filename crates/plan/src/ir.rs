//! The operator IR: the one op descriptor of the workspace.
//!
//! A [`ModelGraph`] is one lane's program: an input shape plus a
//! topologically ordered list of [`OpSpec`] nodes. Edges are implicit —
//! each op consumes its predecessor's activation — except for the
//! explicit skip links carried by [`OpKind::ResidualAdd`] markers, which
//! is all the structure the paper's benchmark architectures (DCGAN,
//! PointNet, ResNet-ish) need.
//!
//! Every op records its full geometry (channels, kernel, stride, padding,
//! groups, bias), so *node equality is the isomorphism test*: two ops
//! fuse horizontally exactly when their specs are equal **and** their
//! activation entry shapes (propagated from the graph input by
//! [`ModelGraph::shapes`]) are equal. An op at its entry shape is a
//! [`ShapedOp`] — one instance of a row of the paper's Table 6 — and it
//! is what everything downstream consumes: the planner matches on
//! [`ModelGraph::shaped`] sequences, which makes shape-unsafe fusions
//! unrepresentable by construction; `hfta_core::rules::fuse` is the
//! same-type-same-shape check over them; and `hfta-models` lowers them to
//! simulator kernels through the geometry and cost methods here
//! ([`ShapedOp::fused`], [`ShapedOp::flops`], [`ShapedOp::bytes`],
//! [`ShapedOp::param_count`], [`ShapedOp::out_elems`], [`ShapedOp::gemm`]),
//! each written once over [`OpSpec::out_shape`].
//!
//! # Pricing rules
//!
//! The cost methods feed the device simulator, whose published figures
//! are pinned byte for byte, so these conventions are part of the
//! contract (`hfta-models/tests/sim_inputs.rs` holds them):
//!
//! * `param_count` charges every conv / linear a bias of `c_out`
//!   whatever [`OpSpec::bias`] says;
//! * batch norm is the 1-D or 2-D operator by the rank of its entry; the
//!   price is the same formula over the entry's element count;
//! * a `Linear`'s [`OpSpec::groups`] counts the weight arrays of the
//!   `baddbmm` it runs as (`0`, what [`OpSpec::linear`] sets, reads as
//!   one): the fused form of `B` linears is the block-diagonal
//!   `[B*F_in] -> [B*F_out]` layer with `groups = B`, and its GEMM view
//!   is `B` batched `[n, F_in] x [F_in, F_out]` products, whereas a
//!   grouped conv's GEMM view spans all groups' output channels at once;
//! * `GlobalMaxPool` and `ResidualAdd` are one elementwise pass over
//!   their entry — ReLU's price — and `GlobalMaxPool::out_elems` is
//!   therefore its *entry's* element count;
//! * there is no dropout kind: a dropout is priced as a ReLU;
//! * `Flatten` is a view: zero FLOPs, zero bytes, no kernel.

use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use serde::{Deserialize, Serialize};

/// Operator kind discriminator. Geometry lives in the flat [`OpSpec`]
/// record (the vendored serde derives only handle unit enums).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// 2-D convolution (`[C,H,W] -> [C',H',W']`).
    Conv2d,
    /// 2-D transposed convolution.
    ConvTranspose2d,
    /// 1-D convolution (`[C,L] -> [C',L']`).
    Conv1d,
    /// Batch normalization over the leading channel axis.
    BatchNorm,
    /// Rectified linear unit.
    Relu,
    /// Leaky rectified linear unit (slope in [`OpSpec::slope_bits`]).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// 2-D max pooling with stride = kernel.
    MaxPool2d,
    /// Collapse all activation axes into one feature axis.
    Flatten,
    /// Fully connected layer (`[F] -> [F']`).
    Linear,
    /// Global max over the trailing (point/sequence) axis
    /// (`[C,P] -> [C]`, PointNet's symmetric function). Plannable but
    /// not executable by `PlannedArray`.
    GlobalMaxPool,
    /// Residual skip marker: adds the activation from [`OpSpec::skip`]
    /// ops earlier. Plannable but not executable by `PlannedArray`.
    ResidualAdd,
}

/// One operator node: kind plus flat geometry. Unused fields are zeroed
/// by the constructors so derived equality/hashing is well defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpSpec {
    /// Operator kind.
    pub kind: OpKind,
    /// Input channels / features (also BatchNorm's channel count).
    pub c_in: usize,
    /// Output channels / features.
    pub c_out: usize,
    /// Square kernel size (convs, max pool).
    pub kernel: usize,
    /// Stride (convs).
    pub stride: usize,
    /// Padding (convs).
    pub padding: usize,
    /// Convolution groups.
    pub groups: usize,
    /// Whether the op carries a bias parameter.
    pub bias: bool,
    /// LeakyRelu negative slope as `f32::to_bits` (exact equality).
    pub slope_bits: u32,
    /// `ResidualAdd` skip distance in ops.
    pub skip: usize,
}

impl OpSpec {
    fn blank(kind: OpKind) -> OpSpec {
        OpSpec {
            kind,
            c_in: 0,
            c_out: 0,
            kernel: 0,
            stride: 0,
            padding: 0,
            groups: 0,
            bias: false,
            slope_bits: 0,
            skip: 0,
        }
    }

    /// 2-D convolution from an `hfta-nn` layer config.
    pub fn conv2d(cfg: Conv2dCfg) -> OpSpec {
        OpSpec {
            c_in: cfg.in_channels,
            c_out: cfg.out_channels,
            kernel: cfg.kernel,
            stride: cfg.stride,
            padding: cfg.padding,
            groups: cfg.groups,
            bias: cfg.bias,
            ..OpSpec::blank(OpKind::Conv2d)
        }
    }

    /// 2-D transposed convolution from an `hfta-nn` layer config.
    pub fn conv_transpose2d(cfg: Conv2dCfg) -> OpSpec {
        OpSpec {
            kind: OpKind::ConvTranspose2d,
            ..OpSpec::conv2d(cfg)
        }
    }

    /// 1-D convolution.
    pub fn conv1d(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> OpSpec {
        OpSpec {
            c_in,
            c_out,
            kernel,
            stride,
            padding,
            groups: 1,
            bias: true,
            ..OpSpec::blank(OpKind::Conv1d)
        }
    }

    /// Batch normalization over `channels`.
    pub fn batch_norm(channels: usize) -> OpSpec {
        OpSpec {
            c_in: channels,
            c_out: channels,
            ..OpSpec::blank(OpKind::BatchNorm)
        }
    }

    /// ReLU activation.
    pub fn relu() -> OpSpec {
        OpSpec::blank(OpKind::Relu)
    }

    /// LeakyReLU activation with the given negative slope.
    pub fn leaky_relu(slope: f32) -> OpSpec {
        OpSpec {
            slope_bits: slope.to_bits(),
            ..OpSpec::blank(OpKind::LeakyRelu)
        }
    }

    /// Tanh activation.
    pub fn tanh() -> OpSpec {
        OpSpec::blank(OpKind::Tanh)
    }

    /// 2-D max pooling (stride = kernel).
    pub fn max_pool2d(kernel: usize) -> OpSpec {
        OpSpec {
            kernel,
            ..OpSpec::blank(OpKind::MaxPool2d)
        }
    }

    /// Flatten to a single feature axis.
    pub fn flatten() -> OpSpec {
        OpSpec::blank(OpKind::Flatten)
    }

    /// Fully connected layer from an `hfta-nn` layer config.
    pub fn linear(cfg: LinearCfg) -> OpSpec {
        OpSpec {
            c_in: cfg.in_features,
            c_out: cfg.out_features,
            bias: cfg.bias,
            ..OpSpec::blank(OpKind::Linear)
        }
    }

    /// Global max over the trailing axis (PointNet's symmetric function).
    pub fn global_max_pool() -> OpSpec {
        OpSpec::blank(OpKind::GlobalMaxPool)
    }

    /// Residual skip marker adding the activation from `skip` ops back.
    pub fn residual_add(skip: usize) -> OpSpec {
        OpSpec {
            skip,
            ..OpSpec::blank(OpKind::ResidualAdd)
        }
    }

    /// LeakyReLU negative slope.
    pub fn slope(&self) -> f32 {
        f32::from_bits(self.slope_bits)
    }

    /// Short human label for timelines and legends.
    pub fn label(&self) -> String {
        match self.kind {
            OpKind::Conv2d => format!(
                "conv{k}x{k} {}->{} s{}",
                self.c_in,
                self.c_out,
                self.stride,
                k = self.kernel
            ),
            OpKind::ConvTranspose2d => format!(
                "convT{k}x{k} {}->{} s{}",
                self.c_in,
                self.c_out,
                self.stride,
                k = self.kernel
            ),
            OpKind::Conv1d => format!("conv1d {}->{}", self.c_in, self.c_out),
            OpKind::BatchNorm => format!("bn{}", self.c_in),
            OpKind::Relu => "relu".into(),
            OpKind::LeakyRelu => format!("lrelu{:.2}", self.slope()),
            OpKind::Tanh => "tanh".into(),
            OpKind::MaxPool2d => format!("pool{}", self.kernel),
            OpKind::Flatten => "flat".into(),
            OpKind::Linear => format!("fc {}->{}", self.c_in, self.c_out),
            OpKind::GlobalMaxPool => "gmax".into(),
            OpKind::ResidualAdd => format!("res+{}", self.skip),
        }
    }

    /// Propagates an activation shape (without the batch axis) through
    /// this op, rejecting geometry no layer can run: a zero-length axis,
    /// a zero stride / kernel / pool window, conv groups that are zero or
    /// do not divide both channel counts. `ResidualAdd` is identity here;
    /// its skip-shape agreement is checked by [`ModelGraph::shapes`],
    /// which sees the history.
    pub fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, String> {
        if input.contains(&0) {
            return Err(format!("zero-length axis in activation {input:?}"));
        }
        let conv_axis = |len: usize| -> Result<usize, String> {
            let padded = len + 2 * self.padding;
            if padded < self.kernel {
                return Err(format!(
                    "axis {len} too small for kernel {} padding {}",
                    self.kernel, self.padding
                ));
            }
            Ok((padded - self.kernel) / self.stride + 1)
        };
        let out = match self.kind {
            OpKind::Conv2d => {
                let [c, h, w] = *shape3(input, "Conv2d")?;
                self.check_conv(c, "Conv2d")?;
                vec![self.c_out, conv_axis(h)?, conv_axis(w)?]
            }
            OpKind::ConvTranspose2d => {
                let [c, h, w] = *shape3(input, "ConvTranspose2d")?;
                self.check_conv(c, "ConvTranspose2d")?;
                let up = |len: usize| -> Result<usize, String> {
                    ((len - 1) * self.stride + self.kernel)
                        .checked_sub(2 * self.padding)
                        .ok_or_else(|| format!("ConvTranspose2d collapses axis {len}"))
                };
                vec![self.c_out, up(h)?, up(w)?]
            }
            OpKind::Conv1d => {
                let [c, l] = *shape2(input, "Conv1d")?;
                self.check_conv(c, "Conv1d")?;
                vec![self.c_out, conv_axis(l)?]
            }
            OpKind::BatchNorm => {
                check_channels(
                    *input.first().ok_or("BatchNorm on scalar activation")?,
                    self.c_in,
                    "BatchNorm",
                )?;
                input.to_vec()
            }
            OpKind::Relu | OpKind::LeakyRelu | OpKind::Tanh | OpKind::ResidualAdd => input.to_vec(),
            OpKind::MaxPool2d => {
                let [c, h, w] = *shape3(input, "MaxPool2d")?;
                if self.kernel == 0 || h < self.kernel || w < self.kernel {
                    return Err(format!("MaxPool2d window {} on {h}x{w}", self.kernel));
                }
                vec![c, h / self.kernel, w / self.kernel]
            }
            OpKind::Flatten => vec![input.iter().product()],
            OpKind::Linear => {
                let [f] = *shape1(input, "Linear")?;
                check_channels(f, self.c_in, "Linear")?;
                vec![self.c_out]
            }
            OpKind::GlobalMaxPool => {
                let [c, _p] = *shape2(input, "GlobalMaxPool")?;
                vec![c]
            }
        };
        if out.contains(&0) {
            return Err(format!(
                "{:?} produces a zero-length axis: {out:?}",
                self.kind
            ));
        }
        Ok(out)
    }

    /// The checks the three convolutions share: channel agreement, a
    /// positive kernel and stride, groups dividing both channel counts.
    fn check_conv(&self, channels: usize, op: &str) -> Result<(), String> {
        check_channels(channels, self.c_in, op)?;
        if self.kernel == 0 || self.stride == 0 {
            return Err(format!(
                "{op} kernel {} stride {} must be positive",
                self.kernel, self.stride
            ));
        }
        let g = self.groups;
        if g == 0 || !self.c_in.is_multiple_of(g) || !self.c_out.is_multiple_of(g) {
            return Err(format!(
                "{op} groups {g} must divide channels {} -> {}",
                self.c_in, self.c_out
            ));
        }
        Ok(())
    }

    /// This op entered at activation shape `entry` (batch axis excluded)
    /// over `n` rows.
    ///
    /// # Errors
    ///
    /// The [`Self::out_shape`] failure when `entry` does not fit the op.
    pub fn at(&self, entry: &[usize], n: usize) -> Result<ShapedOp, String> {
        self.out_shape(entry)?;
        Ok(ShapedOp {
            op: self.clone(),
            entry: entry.to_vec(),
            n,
        })
    }
}

fn shape1<'a>(s: &'a [usize], op: &str) -> Result<&'a [usize; 1], String> {
    s.try_into()
        .map_err(|_| format!("{op} expects a 1-D activation, got {s:?}"))
}

fn shape2<'a>(s: &'a [usize], op: &str) -> Result<&'a [usize; 2], String> {
    s.try_into()
        .map_err(|_| format!("{op} expects a 2-D activation, got {s:?}"))
}

fn shape3<'a>(s: &'a [usize], op: &str) -> Result<&'a [usize; 3], String> {
    s.try_into()
        .map_err(|_| format!("{op} expects a 3-D activation, got {s:?}"))
}

fn check_channels(found: usize, want: usize, op: &str) -> Result<(), String> {
    if found == want {
        Ok(())
    } else {
        Err(format!("{op} expects {want} input channels, got {found}"))
    }
}

/// Planner errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No graphs were supplied.
    Empty,
    /// Shape propagation failed at op `op` of graph `graph`.
    Shape {
        /// Graph name.
        graph: String,
        /// Op index within the graph.
        op: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "cannot plan an empty model set"),
            PlanError::Shape { graph, op, detail } => {
                write!(f, "graph {graph:?} op {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// One operator at concrete shapes — an instance of a Table 6 row: the
/// op, the activation shape entering it and the row count. Built only by
/// [`OpSpec::at`] and [`ModelGraph::shaped`], so it always shape-checks;
/// two lanes' ops fuse exactly when their shaped ops are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapedOp {
    op: OpSpec,
    entry: Vec<usize>,
    n: usize,
}

impl ShapedOp {
    /// The op.
    pub fn op(&self) -> &OpSpec {
        &self.op
    }

    /// Activation shape (batch axis excluded) entering the op.
    pub fn entry(&self) -> &[usize] {
        &self.entry
    }

    /// Activation shape (batch axis excluded) leaving the op.
    pub fn out_shape(&self) -> Vec<usize> {
        self.op
            .out_shape(&self.entry)
            .expect("shape-checked at construction")
    }

    /// The Table 6 transform: the single operator that computes `b`
    /// horizontally fused copies of this one. Every op widens its leading
    /// (channel / feature) axis by `b`; convs and batch norms widen their
    /// channel counts with it, convs multiply their groups, and a
    /// `Linear` becomes `b` weight arrays (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn fused(&self, b: usize) -> ShapedOp {
        assert!(b > 0, "fusion width must be positive");
        let mut fused = self.clone();
        match fused.entry.first_mut() {
            Some(lead) => *lead *= b,
            None => fused.entry.push(b),
        }
        let op = &mut fused.op;
        if self.is_gemm() || op.kind == OpKind::BatchNorm {
            op.c_in *= b;
            op.c_out *= b;
        }
        if self.is_gemm() {
            op.groups = b * self.groups();
        }
        fused
    }

    /// Whether the op maps to a GEMM (tensor-core eligible under AMP,
    /// systolic-array friendly on TPUs).
    pub fn is_gemm(&self) -> bool {
        matches!(
            self.op.kind,
            OpKind::Conv2d | OpKind::Conv1d | OpKind::ConvTranspose2d | OpKind::Linear
        )
    }

    /// GEMM view `[m, n, k, batch]` of a matrix-multiply-backed op.
    pub fn gemm(&self) -> Option<[u64; 4]> {
        let (op, g) = (&self.op, self.groups());
        let dims = match op.kind {
            OpKind::Conv2d | OpKind::Conv1d | OpKind::ConvTranspose2d => [
                self.out_elems() / op.c_out,
                op.c_out,
                (op.c_in / g) * self.taps(),
                1,
            ],
            OpKind::Linear => [self.n, op.c_out / g, op.c_in / g, g],
            _ => return None,
        };
        Some(dims.map(|d| d as u64))
    }

    /// Forward-pass floating point operations (multiply-accumulate = 2).
    pub fn flops(&self) -> u64 {
        let (op, g) = (&self.op, self.groups());
        let flops = match op.kind {
            OpKind::Conv2d | OpKind::Conv1d | OpKind::Linear => {
                2 * self.out_elems() * (op.c_in / g) * self.taps()
            }
            OpKind::ConvTranspose2d => 2 * self.in_elems() * (op.c_out / g) * self.taps(),
            OpKind::BatchNorm => 8 * self.in_elems(),
            OpKind::MaxPool2d => self.out_elems() * op.kernel * op.kernel,
            OpKind::Tanh => 4 * self.in_elems(),
            OpKind::Relu | OpKind::LeakyRelu | OpKind::GlobalMaxPool | OpKind::ResidualAdd => {
                self.in_elems()
            }
            OpKind::Flatten => 0,
        };
        flops as u64
    }

    /// Forward-pass bytes moved (input + output + weights, fp32; a batch
    /// norm's four per-channel vectors count as its weights).
    pub fn bytes(&self) -> u64 {
        let state = match self.op.kind {
            OpKind::Flatten => return 0,
            OpKind::BatchNorm => 4 * self.op.c_in,
            _ => self.weight_elems(),
        };
        4 * (self.in_elems() + self.out_elems() + state) as u64
    }

    /// Trainable parameter count (0 for stateless ops).
    pub fn param_count(&self) -> usize {
        match self.op.kind {
            OpKind::BatchNorm => 2 * self.op.c_in,
            _ if self.is_gemm() => self.weight_elems() + self.op.c_out,
            _ => 0,
        }
    }

    /// Output activation element count over all rows (the memory model's
    /// saved activation, an elementwise kernel's tile count).
    pub fn out_elems(&self) -> usize {
        match self.op.kind {
            // Priced as a pass over its entry (see the module docs).
            OpKind::GlobalMaxPool => self.in_elems(),
            _ => self.n * self.out_shape().iter().product::<usize>(),
        }
    }

    fn in_elems(&self) -> usize {
        self.n * self.entry.iter().product::<usize>()
    }

    fn groups(&self) -> usize {
        self.op.groups.max(1)
    }

    /// Kernel taps per input channel per output element.
    fn taps(&self) -> usize {
        match self.op.kind {
            OpKind::Conv2d | OpKind::ConvTranspose2d => self.op.kernel * self.op.kernel,
            OpKind::Conv1d => self.op.kernel,
            _ => 1,
        }
    }

    /// Weight tensor element count, bias excluded.
    fn weight_elems(&self) -> usize {
        let (op, g) = (&self.op, self.groups());
        match op.kind {
            OpKind::Conv2d | OpKind::Conv1d | OpKind::Linear => {
                op.c_out * (op.c_in / g) * self.taps()
            }
            OpKind::ConvTranspose2d => op.c_in * (op.c_out / g) * self.taps(),
            _ => 0,
        }
    }
}

/// One lane's program: a named op chain plus its input shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelGraph {
    /// Architecture name (reports and error messages).
    pub name: String,
    /// Input activation shape, batch axis excluded (e.g. `[3, 16, 16]`).
    pub input: Vec<usize>,
    /// Ops in topological order.
    pub ops: Vec<OpSpec>,
}

impl ModelGraph {
    /// Builds a graph, without validating shapes (call [`Self::shapes`]).
    pub fn new(name: impl Into<String>, input: Vec<usize>, ops: Vec<OpSpec>) -> ModelGraph {
        ModelGraph {
            name: name.into(),
            input,
            ops,
        }
    }

    /// Activation shapes at every op boundary: `shapes()[i]` enters op
    /// `i`, `shapes()[ops.len()]` is the output. Validates channel
    /// agreement, axis arithmetic, and residual skip-shape agreement.
    pub fn shapes(&self) -> Result<Vec<Vec<usize>>, PlanError> {
        let mut shapes = vec![self.input.clone()];
        for (i, op) in self.ops.iter().enumerate() {
            let err = |detail: String| PlanError::Shape {
                graph: self.name.clone(),
                op: i,
                detail,
            };
            if op.kind == OpKind::ResidualAdd {
                let from = i
                    .checked_sub(op.skip)
                    .ok_or_else(|| err(format!("residual skip {} exits the graph", op.skip)))?;
                if shapes[from] != shapes[i] {
                    return Err(err(format!(
                        "residual shapes disagree: {:?} vs {:?}",
                        shapes[from], shapes[i]
                    )));
                }
            }
            let next = op.out_shape(&shapes[i]).map_err(err)?;
            shapes.push(next);
        }
        Ok(shapes)
    }

    /// The program at `n` rows: one [`ShapedOp`] per op. At `n = 1` these
    /// are the planner's matching tokens.
    pub fn shaped(&self, n: usize) -> Result<Vec<ShapedOp>, PlanError> {
        let shapes = self.shapes()?;
        Ok(self
            .ops
            .iter()
            .zip(shapes)
            .map(|(op, entry)| ShapedOp {
                op: op.clone(),
                entry,
                n,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> ModelGraph {
        ModelGraph::new(
            "toy",
            vec![3, 8, 8],
            vec![
                OpSpec::conv2d(Conv2dCfg::new(3, 4, 4).stride(2).padding(1).bias(false)),
                OpSpec::leaky_relu(0.2),
                OpSpec::flatten(),
                OpSpec::linear(LinearCfg::new(4 * 4 * 4, 2)),
            ],
        )
    }

    #[test]
    fn shapes_propagate_through_conv_flatten_linear() {
        let shapes = chain().shapes().unwrap();
        assert_eq!(
            shapes,
            vec![
                vec![3, 8, 8],
                vec![4, 4, 4],
                vec![4, 4, 4],
                vec![64],
                vec![2]
            ]
        );
    }

    #[test]
    fn channel_mismatch_is_reported_with_op_index() {
        let mut g = chain();
        g.ops[0] = OpSpec::conv2d(Conv2dCfg::new(5, 4, 4).stride(2).padding(1));
        match g.shapes() {
            Err(PlanError::Shape { op: 0, detail, .. }) => {
                assert!(detail.contains("5"), "{detail}")
            }
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn linear_feature_mismatch_rejected() {
        let mut g = chain();
        g.ops[3] = OpSpec::linear(LinearCfg::new(63, 2));
        assert!(matches!(g.shapes(), Err(PlanError::Shape { op: 3, .. })));
    }

    #[test]
    fn residual_checks_skip_shape_agreement() {
        let g = ModelGraph::new(
            "res",
            vec![4, 8, 8],
            vec![
                OpSpec::conv2d(Conv2dCfg::new(4, 4, 3).stride(1).padding(1)),
                OpSpec::relu(),
                OpSpec::residual_add(2),
            ],
        );
        assert!(g.shapes().is_ok());
        let bad = ModelGraph::new(
            "res-bad",
            vec![4, 8, 8],
            vec![
                OpSpec::conv2d(Conv2dCfg::new(4, 8, 3).stride(1).padding(1)),
                OpSpec::residual_add(1),
            ],
        );
        assert!(matches!(bad.shapes(), Err(PlanError::Shape { op: 1, .. })));
    }

    #[test]
    fn shaped_ops_carry_entry_shapes_and_rows() {
        let g = chain();
        let toks = g.shaped(16).unwrap();
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[2].entry(), [4, 4, 4]);
        assert_eq!(toks[2].out_shape(), [64]);
        assert_eq!(toks[3].gemm(), Some([16, 2, 64, 1]));
        assert_eq!(toks[0], g.ops[0].at(&[3, 8, 8], 16).unwrap());
        assert_ne!(toks, g.shaped(1).unwrap());
    }

    #[test]
    fn malformed_geometry_is_a_shape_error_not_a_panic() {
        let conv = |cfg: Conv2dCfg| OpSpec::conv2d(cfg);
        let cases = [
            (conv(Conv2dCfg::new(3, 4, 3).stride(0)), vec![3, 8, 8]),
            (conv(Conv2dCfg::new(3, 4, 0)), vec![3, 8, 8]),
            (conv(Conv2dCfg::new(3, 4, 3).groups(2)), vec![3, 8, 8]),
            (conv(Conv2dCfg::new(4, 4, 3).groups(0)), vec![4, 8, 8]),
            (conv(Conv2dCfg::new(4, 0, 3)), vec![4, 8, 8]),
            (
                OpSpec::conv_transpose2d(Conv2dCfg::new(3, 4, 4).stride(2).padding(1)),
                vec![3, 0, 0],
            ),
            (OpSpec::conv1d(3, 4, 1, 0, 0), vec![3, 8]),
            (OpSpec::max_pool2d(0), vec![3, 8, 8]),
            (OpSpec::relu(), vec![3, 0]),
        ];
        for (op, input) in cases {
            let g = ModelGraph::new("bad", input.clone(), vec![op.clone()]);
            assert!(
                matches!(g.shapes(), Err(PlanError::Shape { op: 0, .. })),
                "{op:?} at {input:?}: {:?}",
                g.shapes()
            );
            assert!(op.at(&input, 1).is_err());
        }
    }

    #[test]
    fn pointnet_style_ops_propagate() {
        let g = ModelGraph::new(
            "pn",
            vec![3, 32],
            vec![
                OpSpec::conv1d(3, 16, 1, 1, 0),
                OpSpec::batch_norm(16),
                OpSpec::relu(),
                OpSpec::global_max_pool(),
                OpSpec::linear(LinearCfg::new(16, 4)),
            ],
        );
        let shapes = g.shapes().unwrap();
        assert_eq!(shapes.last().unwrap(), &vec![4]);
        assert_eq!(shapes[4], vec![16]);
    }
}
