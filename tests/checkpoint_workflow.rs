//! The full array-member checkpoint workflow: train a fused array, extract
//! one model's weights, checkpoint them, and restore into a standalone
//! serial model that behaves identically — what a researcher needs to ship
//! the winning configuration of a fused sweep.

use hfta_core::array::copy_model_weights;
use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_cross_entropy, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedSgd, PerModel};
use hfta_core::snapshot::{load_params, save_params};
use hfta_data::LabeledImages;
use hfta_models::{AlexNet, AlexNetCfg, FusedAlexNet};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

#[test]
fn train_fused_checkpoint_winner_restore_serial() {
    let b = 3;
    let cfg = AlexNetCfg::mini(4);
    let mut rng = Rng::seed_from(11);
    let array = FusedAlexNet::new(b, cfg, &mut rng);
    array.set_training(false);
    let mut opt = FusedSgd::new(
        array.fused_parameters(),
        PerModel::new(vec![0.05, 0.01, 0.002]),
        0.9,
    )
    .unwrap();

    // Train the array briefly.
    let mut data = LabeledImages::new(16, 4, 12);
    for _ in 0..5 {
        let (x, y) = data.batch(8);
        opt.zero_grad();
        let tape = Tape::new();
        let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
        let logits = array.forward(&tape.leaf(stack_conv(&copies).unwrap()));
        let targets = stack_targets(&vec![y.clone(); b]).unwrap();
        fused_cross_entropy(&logits, &targets, Reduction::Mean).backward();
        opt.step();
    }

    // Extract the "winning" model (say index 1) into a scratch serial
    // model and checkpoint it.
    let scratch = AlexNet::new(cfg, &mut rng);
    scratch.set_training(false);
    copy_model_weights(&array.fused_parameters(), 1, &scratch.parameters());
    let bytes = save_params(&scratch.parameters());
    assert!(!bytes.is_empty());

    // A fresh model restored from the checkpoint must match the array's
    // model 1 output exactly.
    let restored = AlexNet::new(cfg, &mut rng);
    restored.set_training(false);
    load_params(&bytes, &restored.parameters()).unwrap();

    let x = rng.randn([2, 3, 16, 16]);
    let tape = Tape::new();
    let copies: Vec<Tensor> = (0..b).map(|_| x.clone()).collect();
    let fused_out = array
        .forward(&tape.leaf(stack_conv(&copies).unwrap()))
        .value();
    let model1 = fused_out.narrow(0, 1, 1).reshape(&[2, 4]);

    let tape = Tape::new();
    let serial_out = restored.forward(&tape.leaf(x)).value();
    assert!(
        serial_out.allclose(&model1, 1e-4),
        "restored model diverges by {}",
        serial_out.max_abs_diff(&model1)
    );
}

#[test]
fn checkpoints_are_stable_across_processes() {
    // Byte-for-byte determinism: the same parameters always serialize to
    // the same checkpoint (no hash maps, no pointers).
    let mut rng = Rng::seed_from(3);
    let model = AlexNet::new(AlexNetCfg::mini(4), &mut rng);
    let a = save_params(&model.parameters());
    let b = save_params(&model.parameters());
    assert_eq!(a, b);
}
