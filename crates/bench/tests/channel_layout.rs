//! Channel ops read the layout their operands arrive in. A profiled fused
//! PointNet step in `pointnet_overhead`'s configuration (B = 8, width 4,
//! STN, 32 points, batch 2, evaluation mode) normalises its four
//! linear-layer batch norms over the array format `[B, N, F]` directly,
//! with no permute or reshape around them; its conv1ds record no reshape.
//! A serial step records the same nodes either way.

use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_nll_loss, Reduction};
use hfta_models::{FusedPointNetCls, PointNetCfg, PointNetCls};
use hfta_nn::{Module, Tape};
use hfta_telemetry::{ExperimentReport, Profiler};
use hfta_tensor::Rng;

const LANES: usize = 8;

fn cfg() -> PointNetCfg {
    PointNetCfg {
        width: 4,
        ..PointNetCfg::mini(16).stn(true)
    }
}

/// Calls of op row `name`, zero when it never ran.
fn calls(ops: &ExperimentReport, name: &str) -> u64 {
    ops.op(name).map_or(0, |o| o.calls)
}

#[test]
fn a_fused_pointnet_step_normalises_linear_outputs_in_place() {
    let mut rng = Rng::seed_from(41);
    let model = FusedPointNetCls::new(LANES, cfg(), &mut rng);
    model.set_training(false);
    let clouds: Vec<_> = (0..LANES).map(|_| rng.randn([2, 3, 32])).collect();
    let labels: Vec<Vec<usize>> = (0..LANES).map(|l| vec![l % 16, (l + 3) % 16]).collect();
    let (x, targets) = (
        stack_conv(&clouds).unwrap(),
        stack_targets(&labels).unwrap(),
    );

    let p = Profiler::new("pointnet");
    let _g = p.install();
    let tape = Tape::new();
    let log_probs = model.forward(&tape.leaf(x));
    fused_nll_loss(&log_probs, &targets, Reduction::Mean).backward();
    let report = p.report();
    let ops = &report.experiments[0];
    // 115 nodes with a permute and a reshape on each side of each of the
    // four batch norms.
    assert_eq!(tape.len(), 99, "tape nodes of a fused step");
    assert_eq!(calls(ops, "batch_norm"), 10);
    // `to_linear` twice and `transform_points` twice; 12 with the
    // batch norms' sandwiches.
    assert_eq!(calls(ops, "permute"), 4);
    assert_eq!(calls(ops, "reshape"), 8, "16 with the sandwiches");
}

#[test]
fn a_serial_pointnet_step_keeps_its_nodes() {
    let mut rng = Rng::seed_from(41);
    let model = PointNetCls::new(cfg(), &mut rng);
    model.set_training(false);
    let tape = Tape::new();
    let loss = model
        .forward(&tape.leaf(rng.randn([2, 3, 32])))
        .nll_loss(&[1, 5]);
    loss.backward();
    assert_eq!(tape.len(), 89, "tape nodes of a serial step");
}
