//! End-to-end tuner integration: a mixed hyper-parameter + architecture
//! sweep is partitioned into fusable groups (same-shape models only, the
//! paper's Observation 1), each group packed into fused arrays, trained,
//! and ranked.

use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::tuner::{partition_fusable, random_search, sweep, Trial};
use hfta_data::LabeledImages;
use hfta_models::{AlexNetCfg, FusedAlexNet};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

/// One candidate of an architecture + hyper-parameter search.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    width: usize,
    lr: f32,
}

fn train_width_group(width: usize, chunk: &[Candidate], seed: u64) -> Vec<f32> {
    let b = chunk.len();
    let cfg = AlexNetCfg {
        width,
        classes: 4,
        image: 16,
    };
    let mut rng = Rng::seed_from(seed);
    let model = FusedAlexNet::new(b, cfg, &mut rng);
    model.set_training(false);
    let lrs: Vec<f32> = chunk.iter().map(|c| c.lr).collect();
    let mut opt =
        FusedSgd::new(model.fused_parameters(), PerModel::new(lrs), 0.9).expect("widths match");
    let mut data = LabeledImages::new(16, 4, 7);
    for _ in 0..6 {
        let (x, y) = data.batch(8);
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let logits = model.forward(&tape.leaf(stack_conv(&copies).unwrap()));
        let targets = stack_targets(&vec![y.clone(); b]).unwrap();
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
    }
    let (x, y) = LabeledImages::new(16, 4, 99).batch(16);
    let tape = Tape::new();
    let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
    let logits = model.forward(&tape.leaf(stack_conv(&copies).unwrap()));
    (0..b)
        .map(|i| {
            -logits
                .narrow(0, i, 1)
                .reshape(&[16, 4])
                .cross_entropy(&y)
                .item()
        })
        .collect()
}

#[test]
fn architecture_search_partitions_then_fuses() {
    // 8 candidates across two widths — widths cannot fuse together.
    let lrs = random_search(&[("lr", 1e-3, 1e-1)], 8, 5);
    let candidates: Vec<Candidate> = lrs
        .iter()
        .enumerate()
        .map(|(i, cfg)| Candidate {
            width: if i % 2 == 0 { 4 } else { 8 },
            lr: cfg[0].1,
        })
        .collect();

    let groups = partition_fusable(candidates, |c| c.width);
    assert_eq!(groups.len(), 2, "two architectures, two groups");

    let mut all_trials: Vec<Trial<Candidate>> = Vec::new();
    let mut arrays = 0;
    for group in groups {
        let width = group[0].width;
        assert!(group.iter().all(|c| c.width == width), "group is fusable");
        let report = sweep(group, 4, |chunk| {
            train_width_group(width, chunk, 100 + width as u64)
        })
        .expect("sweep runs");
        arrays += report.arrays_trained;
        all_trials.extend(report.trials);
    }
    all_trials.sort_by(|a, b| b.score.total_cmp(&a.score));

    assert_eq!(all_trials.len(), 8);
    // 8 serial jobs collapsed into 2 fused arrays.
    assert_eq!(arrays, 2);
    // Every score is a finite negative loss.
    for t in &all_trials {
        assert!(t.score.is_finite() && t.score < 0.0, "score {}", t.score);
    }
    // The ranking is consistent.
    assert!(all_trials.windows(2).all(|w| w[0].score >= w[1].score));
}
