//! Memory-footprint benchmark: fused training-session peak bytes vs the
//! B× serial baseline — the CPU analogue of the paper's Table 8/9
//! (per-model memory footprint under fusion vs separate processes).
//!
//! For each (model, B) the harness trims the recycling pool, resets the
//! byte accounting, then builds the fused array *and* its optimizer and
//! trains it entirely inside the measurement window — parameters,
//! optimizer state, activations, tape gradient buffers and GEMM packing
//! scratch all count toward the session peak, the same
//! way `nvidia-smi` attributes a whole training process. The serial
//! baseline for width B is B × the measured B = 1 peak: B independent
//! runs each pay their own workspace arenas and pool slack, while the
//! fused run shares one set across all lanes.
//!
//! The same records double as the steady-state allocation gate: after the
//! warm-up steps every measured step must be served entirely from
//! recycled buffers (`steady_fresh_allocs == 0`).

use hfta_core::format::{stack_conv, stack_targets};
use hfta_core::loss::{fused_bce_with_logits, fused_nll_loss, Reduction};
use hfta_core::ops::FusedModule;
use hfta_core::optim::{FusedAdam, PerModel};
use hfta_data::PointClouds;
use hfta_models::{DcganCfg, FusedDiscriminator, FusedPointNetCls, PointNetCfg};
use hfta_nn::{Module, Tape};
use hfta_tensor::{Rng, Tensor};

use crate::record::{MemRecord, MemReport};

/// Counters extracted from one measured training session.
#[derive(Clone, Copy)]
struct Session {
    peak_bytes: u64,
    steady_fresh_allocs: u64,
    steady_pool_reuses: u64,
}

/// Runs `warm` then `measured` steps, snapshotting the accounting between
/// the two windows. Must be called with the pool freshly trimmed/reset.
fn drive(mut step: impl FnMut(), warm: usize, measured: usize) -> Session {
    for _ in 0..warm {
        step();
    }
    let s1 = hfta_mem::stats();
    for _ in 0..measured {
        step();
    }
    let s2 = hfta_mem::stats();
    Session {
        peak_bytes: s2.peak_footprint_bytes,
        steady_fresh_allocs: s2.fresh_allocs() - s1.fresh_allocs(),
        steady_pool_reuses: s2.pool_reuses - s1.pool_reuses,
    }
}

/// One fused DCGAN discriminator training session (mirrors the
/// `gan_equivalence` drivers: real batch, BCE-with-logits, Adam).
fn dcgan_session(b: usize, warm: usize, measured: usize) -> Session {
    hfta_mem::trim();
    hfta_mem::reset_stats();
    let mut rng = Rng::seed_from(61);
    let disc = FusedDiscriminator::new(b, DcganCfg::mini(), &mut rng);
    disc.set_training(false);
    let mut opt =
        FusedAdam::new(disc.fused_parameters(), PerModel::uniform(b, 2e-3)).expect("widths match");
    let real = rng.rand([4, 3, 16, 16], -1.0, 1.0);
    let labels = Tensor::ones([4, b]);
    drive(
        || {
            opt.zero_grad();
            let tape = Tape::new();
            let copies: Vec<Tensor> = vec![real.clone(); b];
            let d = disc.forward(&tape.leaf(stack_conv(&copies).expect("stackable")));
            fused_bce_with_logits(&d, &labels, b, Reduction::Mean).backward();
            opt.step();
        },
        warm,
        measured,
    )
}

/// One fused PointNet classifier training session (mirrors the
/// `equivalence` driver: point-cloud batch, NLL loss, Adam).
fn pointnet_session(b: usize, warm: usize, measured: usize) -> Session {
    hfta_mem::trim();
    hfta_mem::reset_stats();
    let cfg = PointNetCfg::mini(6);
    let mut rng = Rng::seed_from(62);
    let net = FusedPointNetCls::new(b, cfg, &mut rng);
    net.set_training(false);
    let mut opt =
        FusedAdam::new(net.fused_parameters(), PerModel::uniform(b, 1e-3)).expect("widths match");
    let mut data = PointClouds::new(32, 8);
    let (x, y) = data.batch(6);
    let targets = stack_targets(&vec![y.clone(); b]).expect("stackable");
    drive(
        || {
            opt.zero_grad();
            let tape = Tape::new();
            let copies: Vec<Tensor> = vec![x.clone(); b];
            let lp = net.forward(&tape.leaf(stack_conv(&copies).expect("stackable")));
            fused_nll_loss(&lp, &targets, Reduction::Mean).backward();
            opt.step();
        },
        warm,
        measured,
    )
}

/// Measures every `(model, B)` pair and derives the serial baselines.
///
/// The B = 1 session of each model is measured once and reused both as a
/// record (when `widths` contains 1) and as the per-process unit of the
/// serial baseline.
pub fn run(widths: &[usize], warm: usize, measured: usize) -> MemReport {
    type SessionFn = fn(usize, usize, usize) -> Session;
    let sessions: [(&str, SessionFn); 2] = [
        ("dcgan_d", dcgan_session),
        ("pointnet_cls", pointnet_session),
    ];
    let mut records = Vec::new();
    for (model, session) in sessions {
        let base = session(1, warm, measured);
        for &b in widths {
            let s = if b == 1 {
                base
            } else {
                session(b, warm, measured)
            };
            let serial_peak_bytes = b as u64 * base.peak_bytes;
            records.push(MemRecord {
                model: model.to_string(),
                b: b as u64,
                warm_steps: warm as u64,
                measured_steps: measured as u64,
                peak_bytes: s.peak_bytes,
                serial_peak_bytes,
                savings_ratio: serial_peak_bytes as f64 / s.peak_bytes as f64,
                steady_fresh_allocs: s.steady_fresh_allocs,
                steady_pool_reuses: s.steady_pool_reuses,
            });
        }
    }
    MemReport { records }
}

/// Gate failures for a [`MemReport`]: every fused width must beat the
/// serial baseline and steady-state steps must not allocate.
pub fn violations(report: &MemReport) -> Vec<String> {
    let mut out = Vec::new();
    for r in &report.records {
        if r.b > 1 && r.savings_ratio <= 1.0 {
            out.push(format!(
                "{}/B={}: savings_ratio {:.4} <= 1 (fused {} B vs serial {} B)",
                r.model, r.b, r.savings_ratio, r.peak_bytes, r.serial_peak_bytes
            ));
        }
        if r.steady_fresh_allocs != 0 {
            out.push(format!(
                "{}/B={}: {} fresh allocations after {} warm-up steps",
                r.model, r.b, r.steady_fresh_allocs, r.warm_steps
            ));
        }
        if r.steady_pool_reuses == 0 {
            out.push(format!(
                "{}/B={}: pool recorded zero reuses — recycling inactive",
                r.model, r.b
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_flags_bad_records() {
        let bad = MemReport {
            records: vec![MemRecord {
                model: "toy".into(),
                b: 4,
                warm_steps: 1,
                measured_steps: 1,
                peak_bytes: 100,
                serial_peak_bytes: 80,
                savings_ratio: 0.8,
                steady_fresh_allocs: 3,
                steady_pool_reuses: 0,
            }],
        };
        assert_eq!(violations(&bad).len(), 3);
    }
}
