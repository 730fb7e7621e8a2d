//! `hfta-plan` graph extraction for the paper's benchmark models.
//!
//! Each function mirrors the corresponding model definition layer for
//! layer, so a [`hfta_plan::FusionPlan`] computed over these graphs
//! describes exactly the programs `Discriminator::new` & co. execute. The
//! DCGAN graphs are fully executable by `hfta_core::planned::PlannedArray`
//! (and tested to build and run bit-identically to the models);
//! the PointNet and ResNet graphs contain planner-only markers
//! (`GlobalMaxPool`, `ResidualAdd`) and support planning/packing decisions
//! but not planned execution.

use hfta_nn::layers::{Conv2dCfg, LinearCfg};
use hfta_plan::{ModelGraph, OpSpec};

use crate::dcgan::DcganCfg;
use crate::pointnet::PointNetCfg;
use crate::resnet::ResNetCfg;

/// Graph of [`crate::dcgan::Discriminator`]: image `[3, S, S]` →
/// logit, with the trailing reshape modeled as `Flatten`.
pub fn discriminator_graph(cfg: DcganCfg) -> ModelGraph {
    let s = cfg.stages();
    let mut ops = vec![
        OpSpec::conv2d(
            Conv2dCfg::new(3, cfg.width, 4)
                .stride(2)
                .padding(1)
                .bias(false),
        ),
        OpSpec::leaky_relu(0.2),
    ];
    let mut c = cfg.width;
    for _ in 0..s - 1 {
        ops.push(OpSpec::conv2d(
            Conv2dCfg::new(c, c * 2, 4).stride(2).padding(1).bias(false),
        ));
        ops.push(OpSpec::batch_norm(c * 2));
        ops.push(OpSpec::leaky_relu(0.2));
        c *= 2;
    }
    ops.push(OpSpec::conv2d(
        Conv2dCfg::new(c, 1, 4).stride(1).padding(0).bias(false),
    ));
    ops.push(OpSpec::flatten());
    ModelGraph::new("dcgan-d", vec![3, cfg.image, cfg.image], ops)
}

/// A discriminator variant with `extra` shape-preserving refinement
/// blocks (3x3 conv + LeakyReLU at constant width) spliced in after the
/// first downsampling stage. Lanes running the variant share a fusible
/// prefix and suffix with the base [`discriminator_graph`], leaving the
/// refinement blocks to sub-width or serial plan blocks — the mixed-arch
/// sweep `bench_plan` measures.
pub fn discriminator_variant_graph(cfg: DcganCfg, extra: usize) -> ModelGraph {
    let base = discriminator_graph(cfg);
    let mut ops = base.ops;
    for i in 0..extra {
        ops.insert(
            2 + 2 * i,
            OpSpec::conv2d(
                Conv2dCfg::new(cfg.width, cfg.width, 3)
                    .stride(1)
                    .padding(1)
                    .bias(false),
            ),
        );
        ops.insert(3 + 2 * i, OpSpec::leaky_relu(0.2));
    }
    ModelGraph::new(
        format!("dcgan-d+{extra}"),
        vec![3, cfg.image, cfg.image],
        ops,
    )
}

/// Graph of [`crate::dcgan::Generator`]: latent `[nz, 1, 1]` → image
/// `[3, S, S]`.
pub fn generator_graph(cfg: DcganCfg) -> ModelGraph {
    let s = cfg.stages();
    let mut c = cfg.width << (s - 1);
    let mut ops = vec![
        OpSpec::conv_transpose2d(
            Conv2dCfg::new(cfg.latent, c, 4)
                .stride(1)
                .padding(0)
                .bias(false),
        ),
        OpSpec::batch_norm(c),
        OpSpec::relu(),
    ];
    for _ in 0..s - 1 {
        ops.push(OpSpec::conv_transpose2d(
            Conv2dCfg::new(c, c / 2, 4).stride(2).padding(1).bias(false),
        ));
        ops.push(OpSpec::batch_norm(c / 2));
        ops.push(OpSpec::relu());
        c /= 2;
    }
    ops.push(OpSpec::conv_transpose2d(
        Conv2dCfg::new(c, 3, 4).stride(2).padding(1).bias(false),
    ));
    ops.push(OpSpec::tanh());
    ModelGraph::new("dcgan-g", vec![cfg.latent, 1, 1], ops)
}

/// Graph of [`crate::pointnet::PointNetCls`] (STN-free form) over
/// `points` input points: the three `Conv1d`+BN+ReLU trunk stages, the
/// global max-pool, and the FC classifier head. The dropout between
/// `fc2` and `fc3` is stochastic and carries no parameters, so it is not
/// part of the planning IR. Planner-only: `GlobalMaxPool` does not
/// execute in a `PlannedArray`.
pub fn pointnet_cls_graph(cfg: PointNetCfg, points: usize) -> ModelGraph {
    let (c1, c2, c3) = (cfg.width, 2 * cfg.width, 16 * cfg.width);
    let (f1, f2) = (8 * cfg.width, 4 * cfg.width);
    let mut ops = Vec::new();
    for (cin, cout) in [(3, c1), (c1, c2), (c2, c3)] {
        ops.push(OpSpec::conv1d(cin, cout, 1, 1, 0));
        ops.push(OpSpec::batch_norm(cout));
        ops.push(OpSpec::relu());
    }
    ops.push(OpSpec::global_max_pool());
    ops.push(OpSpec::linear(LinearCfg::new(c3, f1)));
    ops.push(OpSpec::batch_norm(f1));
    ops.push(OpSpec::relu());
    ops.push(OpSpec::linear(LinearCfg::new(f1, f2)));
    ops.push(OpSpec::batch_norm(f2));
    ops.push(OpSpec::relu());
    ops.push(OpSpec::linear(LinearCfg::new(f2, cfg.classes)));
    ModelGraph::new("pointnet-cls", vec![3, points], ops)
}

/// Graph of the [`crate::resnet::ResNet`] main path: stem, basic blocks,
/// global flatten, classifier. Identity-skip blocks carry a
/// `ResidualAdd` marker spanning back to the block entry; stride-2
/// blocks' downsample projections live on the skip path, outside this
/// linear IR, so those blocks appear as their main path only (a planning
/// approximation — the planner still sees matching structure across
/// lanes of the same depth). Planner-only: `ResidualAdd` does not
/// execute in a `PlannedArray`.
pub fn resnet_graph(cfg: ResNetCfg, side: usize) -> ModelGraph {
    let conv3 = |cin: usize, cout: usize, s: usize| {
        OpSpec::conv2d(
            Conv2dCfg::new(cin, cout, 3)
                .stride(s)
                .padding(1)
                .bias(false),
        )
    };
    let w = cfg.width;
    let mut ops = vec![conv3(3, w, 1), OpSpec::batch_norm(w), OpSpec::relu()];
    let mut cin = w;
    let mut spatial = side;
    for stage in 0..cfg.stages {
        let cout = w << stage;
        let stride = if stage == 0 { 1 } else { 2 };
        for block in 0..2 {
            let (s, ci) = if block == 0 { (stride, cin) } else { (1, cout) };
            let identity_skip = ci == cout && s == 1;
            ops.push(conv3(ci, cout, s));
            ops.push(OpSpec::batch_norm(cout));
            ops.push(OpSpec::relu());
            ops.push(conv3(cout, cout, 1));
            ops.push(OpSpec::batch_norm(cout));
            if identity_skip {
                // Back across both conv+bn pairs and the mid relu.
                ops.push(OpSpec::residual_add(5));
            }
            ops.push(OpSpec::relu());
            if s == 2 {
                spatial /= 2;
            }
        }
        cin = cout;
    }
    ops.push(OpSpec::flatten());
    ops.push(OpSpec::linear(LinearCfg::new(
        cin * spatial * spatial,
        cfg.classes,
    )));
    ModelGraph::new("resnet", vec![3, side, side], ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcgan::{Discriminator, Generator};
    use hfta_core::planned::PlannedArray;
    use hfta_nn::{Module, Tape};
    use hfta_plan::FusionPlan;
    use hfta_tensor::{Rng, Tensor};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A width-1 planned array built from `graph` must be `model`: same
    /// parameters from the same seed, same forward, bit for bit.
    fn assert_mirrors(graph: ModelGraph, model: &impl Module, seed: u64, x: Tensor) {
        let plan = FusionPlan::serial(std::slice::from_ref(&graph)).unwrap();
        let planned = PlannedArray::build(&[graph], &plan, &[seed]).unwrap();
        let (got, want) = (planned.fused_parameters(), model.parameters());
        assert_eq!(got.len(), want.len(), "parameter count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.param.value().dims(), w.value().dims(), "parameter {i}");
            assert_eq!(bits(&g.param.value()), bits(&w.value()), "parameter {i}");
        }
        let (_tape, outs) = planned.forward(std::slice::from_ref(&x)).unwrap();
        let y = model.forward(&Tape::new().leaf(x)).value();
        assert_eq!(outs[0].dims(), y.dims());
        assert_eq!(bits(&outs[0].value()), bits(&y));
    }

    #[test]
    fn dcgan_graphs_build_and_run_as_the_models_they_mirror() {
        let at_64 = DcganCfg {
            latent: 8,
            width: 4,
            image: 64,
        };
        for (cfg, seed) in [(DcganCfg::mini(), 11), (at_64, 12)] {
            let mut rng = Rng::seed_from(seed ^ 0xda7a);
            let image = rng.randn([2, 3, cfg.image, cfg.image]);
            let latent = rng.randn([2, cfg.latent, 1, 1]);
            let d = Discriminator::new(cfg, &mut Rng::seed_from(seed));
            assert_mirrors(discriminator_graph(cfg), &d, seed, image);
            let g = Generator::new(cfg, &mut Rng::seed_from(seed));
            assert_mirrors(generator_graph(cfg), &g, seed, latent);
        }
    }

    #[test]
    fn dcgan_graphs_shape_check() {
        let cfg = DcganCfg::mini();
        let d = discriminator_graph(cfg);
        let shapes = d.shapes().unwrap();
        assert_eq!(shapes.last().unwrap(), &vec![1], "logit output");
        let g = generator_graph(cfg);
        let shapes = g.shapes().unwrap();
        assert_eq!(
            shapes.last().unwrap(),
            &vec![3, cfg.image, cfg.image],
            "image output"
        );
    }

    #[test]
    fn variant_shares_prefix_and_suffix_with_base() {
        let cfg = DcganCfg::mini();
        let graphs = vec![
            discriminator_graph(cfg),
            discriminator_variant_graph(cfg, 1),
            discriminator_graph(cfg),
            discriminator_variant_graph(cfg, 1),
        ];
        for g in &graphs {
            g.shapes().unwrap();
        }
        let plan = FusionPlan::plan(&graphs).unwrap();
        assert!(
            plan.fused_fraction() > 0.5,
            "prefix+suffix dominate: {plan:?}"
        );
        assert_eq!(plan.max_fused_width(), 4);
    }

    #[test]
    fn pointnet_and_resnet_graphs_shape_check_and_plan() {
        let pn = pointnet_cls_graph(PointNetCfg::mini(4), 32);
        let shapes = pn.shapes().unwrap();
        assert_eq!(shapes.last().unwrap(), &vec![4], "class logits");

        let rn = resnet_graph(ResNetCfg::mini(10), 8);
        let shapes = rn.shapes().unwrap();
        assert_eq!(shapes.last().unwrap(), &vec![10], "class logits");

        // Homogeneous sets of either arch fuse fully.
        for graphs in [vec![pn.clone(), pn], vec![rn.clone(), rn]] {
            let plan = FusionPlan::plan(&graphs).unwrap();
            assert_eq!(plan.fused_fraction(), 1.0);
        }
    }
}
