//! A fixed piece of work of the benchmark's own, timed on both sides of
//! every sample, that tells how fast the host is running at that moment.
//!
//! The reference box is a 2-vCPU guest on a shared host. Whenever a
//! neighbour is busy on the same physical core, throughput-bound code on it
//! runs 1.4-1.7x slower, with no steal time reported; the state flips every
//! few hundred milliseconds, and the share of a run spent disturbed swings
//! between almost none and almost all, hour by hour. No order statistic of
//! raw sample times survives that: median, decile and best each follow
//! whichever state holds their rank in that run. The probe is code the
//! program under test has no part in, so its time moves with the host
//! alone. A sample's time is scaled by `REFERENCE_SECS / probe time beside
//! it` — its cost on a host that runs the probe in the reference time —
//! and the host's state cancels out.
//!
//! The probe is part throughput-bound (small matrix products, which the
//! neighbour slows 1.75x) and part latency-bound (one dependent chain, which
//! it barely touches), mixed so that the whole slows ~1.5x: what the
//! workloads' steps and passes do (1.4-1.7x).

use std::hint::black_box;
use std::time::Instant;

/// Side of the probe's square matrices: all three sit in L1.
const N: usize = 64;
/// Matrix products per probe (~0.75 ms undisturbed).
const PRODUCTS: usize = 24;
/// Links of the dependent multiply-add chain (~0.37 ms, disturbed or not).
const CHAIN: usize = 150_000;

/// What the probe takes on the reference box when nothing disturbs it, in
/// seconds. A constant, not a per-run measurement (a run may never see the
/// host undisturbed): normalized timings are "on a host that runs the probe
/// in this time", the same on every run and every commit.
pub const REFERENCE_SECS: f64 = 0.0011;

/// The probe's buffers.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// Allocates and fills the buffers, and runs the probe a few times so
    /// the first timed one finds its code and data warm.
    pub fn new() -> Self {
        let fill = |scale: f32| {
            (0..N * N)
                .map(|i| ((i * 7 + 3) % 17) as f32 * scale)
                .collect()
        };
        let mut probe = Probe {
            a: fill(0.01),
            b: fill(0.02),
            c: vec![0.0; N * N],
        };
        for _ in 0..16 {
            probe.run();
        }
        probe
    }

    /// Runs the probe once; seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..PRODUCTS {
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let a = self.a[i * N + k];
                    let b = &self.b[k * N..(k + 1) * N];
                    for (c, b) in row.iter_mut().zip(b) {
                        *c += a * b;
                    }
                }
            }
            // Keeps the values bounded over many probes.
            for c in self.c.iter_mut() {
                *c *= 0.5;
            }
            black_box(&mut self.c);
        }
        let mut x = black_box(1.000_000_1f64);
        for _ in 0..CHAIN {
            x = x * 0.999_999_9 + 1e-9;
        }
        black_box(x);
        t.elapsed().as_secs_f64()
    }
}
