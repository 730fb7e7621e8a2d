//! Attribution of the work a GAN step skips. In the generator step the
//! discriminator's optimizer has already stepped (read its gradient
//! slots), so the discriminator's convolution weight gradients wait in
//! those slots unevaluated: the step's `bwd:conv2d` rows price the
//! discriminator's input gradients only (1x forward). If the next
//! discriminator step zeroes first they are dropped and no span appears,
//! even after a lane splice or a write of one lane's values over another
//! (writes of values, not reads of gradients); reading them instead forces them,
//! each under its own `bwd:conv2d` span, and those spans make up the FLOP
//! difference to the eager 2x forward.

use hfta_core::loss::{fused_bce_with_logits, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_core::surgery::{extract_lane, splice_lanes};
use hfta_models::{DcganCfg, FusedDiscriminator, FusedGenerator};
use hfta_nn::{Module, Tape};
use hfta_telemetry::{ExperimentReport, Profiler};
use hfta_tensor::{Rng, Tensor};

const LANES: usize = 2;

/// What runs on D's parameters between the generator step and the next
/// `opt_d.zero_grad()`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Between {
    /// Splice every lane back in reverse order.
    Splice,
    /// Write lane 1's values over lane 0's.
    WriteLane,
    /// Read every gradient slot.
    Read,
}

/// `(calls, flops)` of op row `name`, zero when it never ran.
fn row(ops: &ExperimentReport, name: &str) -> (u64, f64) {
    ops.op(name).map_or((0, 0.0), |o| (o.calls, o.flops))
}

/// Runs `f` under a fresh profiler and returns its one experiment's rows.
fn profiled(f: impl FnOnce()) -> ExperimentReport {
    let p = Profiler::new("gan");
    let guard = p.install();
    f();
    drop(guard);
    p.report().experiments.remove(0)
}

#[test]
fn a_generator_step_prices_only_the_discriminator_input_gradients() {
    let (n, cfg) = (2, DcganCfg::mini());
    let mut rng = Rng::seed_from(39);
    let gen = FusedGenerator::new(LANES, cfg, &mut rng);
    let disc = FusedDiscriminator::new(LANES, cfg, &mut rng);
    let lr = || PerModel::new(vec![2e-4; LANES]);
    let mut opt_g = FusedAdam::new(gen.fused_parameters(), lr()).unwrap();
    let mut opt_d = FusedAdam::new(disc.fused_parameters(), lr()).unwrap();
    let ones = Tensor::ones([n, LANES]);
    let s = cfg.image;

    for between in [Between::Splice, Between::WriteLane, Between::Read] {
        // Discriminator step: its slots are read by its optimizer.
        opt_d.zero_grad();
        let tape = Tape::new();
        let real = disc.forward(&tape.leaf(rng.rand([n, LANES * 3, s, s], -1.0, 1.0)));
        fused_bce_with_logits(&real, &ones, LANES, Reduction::Mean).backward();
        opt_d.step();

        let g_step = profiled(|| {
            opt_g.zero_grad();
            let tape = Tape::new();
            let z = tape.leaf(rng.randn([n, LANES * cfg.latent, 1, 1]));
            let d_out = disc.forward(&gen.forward(&z));
            fused_bce_with_logits(&d_out, &ones, LANES, Reduction::Mean).backward();
            opt_g.step();
        });
        let (convs, conv_flops) = row(&g_step, "conv2d");
        assert!(convs > 0, "the discriminator runs convolutions");
        assert_eq!(
            row(&g_step, "bwd:conv2d"),
            (convs, conv_flops),
            "input gradients only"
        );

        let next = profiled(|| {
            let params = disc.fused_parameters();
            match between {
                Between::Splice => {
                    let lanes: Vec<_> = (0..LANES)
                        .map(|l| extract_lane(&params, &opt_d, LANES - 1 - l))
                        .collect();
                    splice_lanes(&lanes, &params, &mut opt_d);
                }
                Between::WriteLane => {
                    for fp in &params {
                        fp.param.update_value(|v| {
                            let lane = v.numel() / LANES;
                            v.as_mut_slice().copy_within(lane..2 * lane, 0);
                        });
                    }
                }
                Between::Read => disc.parameters().iter().for_each(|p| drop(p.grad())),
            }
            opt_d.zero_grad();
        });
        if between == Between::Read {
            // The forced weight gradients, one span each: the eager sweep's 2x.
            assert_eq!(row(&next, "bwd:conv2d"), (convs, conv_flops));
        } else {
            assert_eq!(
                row(&next, "bwd:conv2d"),
                (0, 0.0),
                "{between:?}: dropped unevaluated"
            );
        }
    }
}
