//! The four workloads. Each exists because it puts its time in a different
//! layer; `README.md` has the table of which metric should move where.

pub mod asha;
pub mod dcgan;
pub mod mixed;
pub mod pointnet;
pub mod train;

use std::path::Path;

use crate::runner::Bench;
use train::TrainBench;

/// SplitMix64-style mix of the workload seed with a stream tag, so every
/// model init and data stream gets its own well-separated seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lane `lane`'s learning rate in a sweep around `base`: the array is a
/// hyper-parameter sweep, as in the paper, not `B` copies of one job.
pub fn lane_lr(base: f32, lane: usize) -> f32 {
    base * (1.0 + 0.25 * lane as f32)
}

/// Builds workload `name` for `seed`, keeping its scratch files under
/// `out_dir`; `None` for an unknown name.
pub fn build(name: &str, seed: u64, out_dir: &Path) -> Option<Box<dyn Bench>> {
    Some(match name {
        "dcgan_compute" => Box::new(TrainBench::new(dcgan::DcganCompute::new(seed), out_dir)),
        "pointnet_overhead" => Box::new(TrainBench::new(
            pointnet::PointNetOverhead::new(seed),
            out_dir,
        )),
        "mixed_plan" => Box::new(TrainBench::new(mixed::MixedPlan::new(seed), out_dir)),
        "asha_service" => Box::new(asha::AshaService::new(seed, out_dir)),
        _ => return None,
    })
}
