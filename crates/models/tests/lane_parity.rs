//! The one init rule, family by family: lane `i` of `build(Fused(b),
//! lanes)` is `build(Serial, lanes[i])` bit for bit, and every lane's
//! generator ends where the solo build leaves it, at widths 1 to 3.

use hfta_core::ops::{Fused, FusedParameter, LaneInit, Ops, Serial};
use hfta_models::{
    AlexNetCfg, AlexNetOn, DcganCfg, DcganD, DcganG, PointNetCfg, PointNetClassifier,
    PointNetSegmenter, ResNetCfg, ResNetOn,
};
use hfta_nn::layers::LinearCfg;
use hfta_nn::{Module, Parameter};
use hfta_tensor::Rng;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Where `rng` stands: its next words.
fn position(rng: &Rng) -> Vec<u32> {
    bits(&rng.clone().randn([8]).to_vec())
}

fn assert_lanes_are_serial_builds<S: Module, F: Module>(
    family: &str,
    serial: impl Fn(&mut Rng) -> S,
    fused: impl Fn(Fused, &mut [LaneInit]) -> F,
) {
    for b in 1..=3 {
        let seeds: Vec<Rng> = (0..b).map(|i| Rng::seed_from(40 + 7 * i as u64)).collect();
        let mut lanes: Vec<LaneInit> = seeds.iter().cloned().map(LaneInit::Draw).collect();
        let array = fused(Fused(b), &mut lanes);
        let params = FusedParameter::of(&array, b);
        for (i, seed) in seeds.iter().enumerate() {
            let mut rng = seed.clone();
            let solo: Vec<Parameter> = serial(&mut rng).parameters();
            assert_eq!(params.len(), solo.len(), "{family} b={b}: parameter count");
            for (k, (fp, p)) in params.iter().zip(&solo).enumerate() {
                assert_eq!(
                    bits(&fp.model_slice(i).to_vec()),
                    bits(&p.value_cloned().to_vec()),
                    "{family} b={b}: lane {i} parameter {k}"
                );
            }
            let LaneInit::Draw(lane) = &lanes[i] else {
                unreachable!("every lane draws")
            };
            assert_eq!(
                position(lane),
                position(&rng),
                "{family} b={b}: lane {i}'s generator"
            );
        }
    }
}

#[test]
fn linear_lanes_are_serial_builds() {
    let cfg = LinearCfg::new(6, 3);
    assert_lanes_are_serial_builds(
        "linear",
        |rng| Serial.linear(cfg, rng),
        |ops, lanes| ops.linear(cfg, lanes),
    );
}

#[test]
fn alexnet_lanes_are_serial_builds() {
    let cfg = AlexNetCfg::mini(4);
    assert_lanes_are_serial_builds(
        "alexnet",
        |rng| AlexNetOn::build(Serial, cfg, rng),
        |ops, lanes| AlexNetOn::build(ops, cfg, lanes),
    );
}

#[test]
fn dcgan_lanes_are_serial_builds() {
    let cfg = DcganCfg::mini();
    assert_lanes_are_serial_builds(
        "generator",
        |rng| DcganG::build(Serial, cfg, rng),
        |ops, lanes| DcganG::build(ops, cfg, lanes),
    );
    assert_lanes_are_serial_builds(
        "discriminator",
        |rng| DcganD::build(Serial, cfg, rng),
        |ops, lanes| DcganD::build(ops, cfg, lanes),
    );
}

#[test]
fn pointnet_lanes_are_serial_builds() {
    let cls = PointNetCfg::mini(4).stn(true);
    assert_lanes_are_serial_builds(
        "pointnet cls with stn",
        |rng| PointNetClassifier::build(Serial, cls, rng),
        |ops, lanes| PointNetClassifier::build(ops, cls, lanes),
    );
    let seg = PointNetCfg::mini(4);
    assert_lanes_are_serial_builds(
        "pointnet seg",
        |rng| PointNetSegmenter::build(Serial, seg, rng),
        |ops, lanes| PointNetSegmenter::build(ops, seg, lanes),
    );
}

#[test]
fn resnet_lanes_are_serial_builds() {
    let cfg = ResNetCfg::mini(4);
    assert_lanes_are_serial_builds(
        "resnet",
        |rng| ResNetOn::build(Serial, cfg, rng),
        |ops, lanes| ResNetOn::build(ops, cfg, lanes),
    );
}
