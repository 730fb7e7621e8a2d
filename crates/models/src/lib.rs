//! # hfta-models
//!
//! The HFTA paper's benchmark models in two forms:
//!
//! 1. **Executable models, one definition and two instantiations each**
//!    (PointNet classification and segmentation, DCGAN, ResNet-18,
//!    AlexNet, at CPU-tractable mini scales). Every architecture is
//!    written once, generic over an operator family
//!    ([`hfta_core::ops::Ops`], the paper's Figure 2 recipe):
//!    instantiated at `Serial` it is the per-job model on `hfta-nn` —
//!    the reference of the convergence-equivalence experiments (paper
//!    §3.3 / Figure 3) — and at `Fused` it is the horizontally fused
//!    array on `hfta-core`. The public names (`Discriminator`,
//!    `FusedDiscriminator`, …) are type aliases of those instantiations;
//! 2. **Full-size operator traces** at the paper's batch sizes
//!    ([`traces`]: `hfta_plan::ShapedOp` sequences, DCGAN's derived from
//!    its [`graphs`], PointNet's and ResNet-18's hand-listed), lowered to
//!    `hfta-sim` kernels by the one lowering ([`lower`]; [`lower_plan`]
//!    prices whole fusion plans with it) for the throughput experiments
//!    (Figures 4–8).

#![warn(missing_docs)]

/// Gives the two instantiations of a model `$model<O: Ops>` (with a
/// `build(ops, cfg, init)` constructor and an `ops` field) the constructor
/// signatures of the serial model and of the fused array, and makes the
/// fused one a `FusedModule`. The fused one splits its `b` lane generators
/// off the caller's generator first.
macro_rules! instantiate {
    ($model:ident, $cfg:ty) => {
        impl $model<hfta_core::ops::Serial> {
            /// Builds one serial model.
            pub fn new(cfg: $cfg, rng: &mut hfta_tensor::Rng) -> Self {
                Self::build(hfta_core::ops::Serial, cfg, rng)
            }
        }

        impl $model<hfta_core::ops::Fused> {
            /// Builds a `b`-wide fused array, lane `i` from the `i`-th of
            /// `b` generators split off `rng`.
            pub fn new(b: usize, cfg: $cfg, rng: &mut hfta_tensor::Rng) -> Self {
                let ops = hfta_core::ops::Fused(b);
                Self::build(ops, cfg, &mut ops.lanes(rng))
            }
        }

        impl hfta_core::ops::FusedModule for $model<hfta_core::ops::Fused> {
            fn b(&self) -> usize {
                hfta_core::ops::Ops::b(&self.ops)
            }
        }
    };
}

pub mod alexnet;
pub mod dcgan;
pub mod graphs;
pub mod lower;
pub mod lower_plan;
pub mod pointnet;
pub mod resnet;
pub mod traces;
pub mod workloads;

pub use alexnet::{AlexNet, AlexNetCfg, AlexNetOn, FusedAlexNet};
pub use dcgan::{
    DcganCfg, DcganD, DcganG, Discriminator, FusedDiscriminator, FusedGenerator, Generator,
};
pub use graphs::{
    discriminator_graph, discriminator_variant_graph, generator_graph, pointnet_cls_graph,
    resnet_graph,
};
pub use lower_plan::{lower_graph, planned_step_time_s, serial_step_time_s, PlanSimCfg};
pub use pointnet::{
    FusedPointNetCls, FusedPointNetSeg, FusedStn3d, PointNetCfg, PointNetClassifier, PointNetCls,
    PointNetSeg, PointNetSegmenter, PointNetStn, Stn3d,
};
pub use resnet::{FusedResNet, ResNet, ResNetCfg, ResNetOn};
pub use workloads::Workload;
