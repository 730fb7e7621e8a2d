//! Attribution of the backward sweep's work: only ops that can reach a
//! parameter run a backward. A profiled planned step over the benchmark's
//! four discriminator variants (`mixed_plan`: extra blocks 0, 1, 0, 2;
//! 64x64, width 8, batch 2) differentiates neither its stacked input nor,
//! in the first fused convolution, toward that input; PointNet's fused
//! `transform_points` runs no backward on the points it reshapes and
//! permutes ahead of its `bmm`.

use hfta_core::ops::{Fused, Ops};
use hfta_core::planned::PlannedArray;
use hfta_models::graphs::discriminator_variant_graph;
use hfta_models::{DcganCfg, FusedStn3d, PointNetCfg};
use hfta_nn::{Parameter, Tape};
use hfta_plan::FusionPlan;
use hfta_telemetry::{ExperimentReport, Profiler};
use hfta_tensor::{Rng, Tensor};

/// `(calls, flops)` of op row `name`, zero when it never ran.
fn row(ops: &ExperimentReport, name: &str) -> (u64, f64) {
    ops.op(name).map_or((0, 0.0), |o| (o.calls, o.flops))
}

#[test]
fn a_planned_step_computes_no_gradient_toward_its_stacked_input() {
    let cfg = DcganCfg {
        latent: 1,
        width: 8,
        image: 64,
    };
    let graphs: Vec<_> = [0, 1, 0, 2]
        .into_iter()
        .map(|extra| discriminator_variant_graph(cfg, extra))
        .collect();
    let plan = FusionPlan::plan(&graphs).unwrap();
    assert_eq!(
        plan.blocks[0].width(),
        4,
        "the first block fuses every lane"
    );
    let array = PlannedArray::build(&graphs, &plan, &[1, 2, 3, 4]).unwrap();
    let mut rng = Rng::seed_from(7);
    let inputs: Vec<Tensor> = (0..4).map(|_| rng.randn([2, 3, 64, 64])).collect();

    let p = Profiler::new("mixed_plan");
    let _g = p.install();
    let (tape, outs) = array.forward(&inputs).unwrap();
    let nodes = tape.len();
    let loss = (outs.iter())
        .map(|o| o.bce_with_logits(&Tensor::ones(o.dims())))
        .reduce(|a, b| a.add(&b))
        .unwrap();
    loss.backward();
    assert_eq!(
        tape.len(),
        nodes + 2 * outs.len() - 1,
        "the loss's nodes only"
    );

    let report = p.report();
    let ops = &report.experiments[0];
    // The lanes' inputs are stacked by the one concat over constants.
    let (concats, _) = row(ops, "concat");
    let (bwd_concats, _) = row(ops, "bwd:concat");
    assert_eq!(
        bwd_concats,
        concats - 1,
        "a bwd:concat ran for the input stack"
    );
    // Every convolution returns its input and weight gradients (2x its
    // forward) but the first, which returns its weight gradient only. It
    // maps [2, 4*3, 64, 64] to [2, 4*8, 32, 32] through 3x4x4 taps per
    // output; no discriminator convolution has a bias.
    let first = 2.0 * (2 * 32 * 32 * 32 * 3 * 4 * 4) as f64;
    let (_, conv) = row(ops, "conv2d");
    let (_, bwd_conv) = row(ops, "bwd:conv2d");
    assert_eq!(bwd_conv, 2.0 * conv - first);
}

#[test]
fn fused_transform_points_runs_no_backward_on_the_points_path() {
    let (b, n, points) = (4, 2, 16);
    let mut rng = Rng::seed_from(3);
    let mats = Parameter::new(rng.randn([b, n, 9]), "mats");
    let x = rng.randn([n, b * 3, points]);

    let p = Profiler::new("transform_points");
    let _g = p.install();
    let tape = Tape::new();
    let y = Fused(b).transform_points(&tape.leaf(x.clone()), &tape.param(&mats));
    y.sum().backward();
    let report = p.report();
    let ops = &report.experiments[0];
    // Points: reshape, permute, reshape; matrices: reshape; out: bmm,
    // reshape, permute, reshape.
    assert_eq!((row(ops, "permute").0, row(ops, "bwd:permute").0), (2, 1));
    assert_eq!((row(ops, "reshape").0, row(ops, "bwd:reshape").0), (5, 3));
    // The product returns the matrices' gradient only.
    assert_eq!(row(ops, "bwd:bmm").1, row(ops, "bmm").1);

    // The same holds inside the spatial transformer that calls it.
    drop(_g);
    let stn = FusedStn3d::new(b, PointNetCfg::mini(4), &mut rng);
    let p = Profiler::new("stn");
    let _g = p.install();
    let tape = Tape::new();
    stn.transform(&tape.leaf(x)).sum().backward();
    let report = p.report();
    let ops = &report.experiments[0];
    assert_eq!(row(ops, "bwd:permute").0, row(ops, "permute").0 - 1);
    assert_eq!(row(ops, "bwd:reshape").0, row(ops, "reshape").0 - 2);
}
