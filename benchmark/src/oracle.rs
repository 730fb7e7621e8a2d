//! The correctness oracle. Operations are counted in lane-steps (one model
//! advanced one optimizer step); a lane-step whose loss breaks one of the
//! repo's own contracts counts as failed.

/// Relative tolerance of the fused-vs-serial contract — the tolerance the
/// repo's `tests/equivalence.rs` and `tests/gan_equivalence.rs` hold.
pub const FUSED_SERIAL_REL_TOL: f32 = 1e-3;

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Oracle {
    /// Lane-steps (or trial outcomes) checked.
    pub attempted: u64,
    /// Lane-steps (or trial outcomes) that broke a contract.
    pub failed: u64,
    /// The first few violations, for the run record.
    pub notes: Vec<String>,
}

impl Oracle {
    /// Counts `n` operations as attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Counts `losses.len() / per_lane` lane-steps as attempted; each one
    /// with a non-finite loss fails.
    pub fn check_finite(&mut self, what: &str, losses: &[f32], per_lane: usize) {
        for (i, lane) in losses.chunks(per_lane).enumerate() {
            self.attempted += 1;
            if lane.iter().any(|l| !l.is_finite()) {
                self.fail(|| format!("{what}: lane-step {i} has a non-finite loss {lane:?}"));
            }
        }
    }

    /// Bit-identity contract: every lane-step of `a` must equal `b` bit for
    /// bit (thread-count invariance; planned == serial plan). Mismatching
    /// lengths fail every lane-step of the longer side.
    pub fn check_bits(&mut self, what: &str, a: &[f32], b: &[f32], per_lane: usize) {
        self.check_pairs(what, a, b, per_lane, |x, y| x.to_bits() == y.to_bits());
    }

    /// Tolerance contract: every loss of `a` within `rel` of `b`.
    pub fn check_rel(&mut self, what: &str, a: &[f32], b: &[f32], per_lane: usize, rel: f32) {
        self.check_pairs(what, a, b, per_lane, |x, y| {
            (x - y).abs() <= rel * x.abs().max(y.abs()).max(1.0)
        });
    }

    fn check_pairs(
        &mut self,
        what: &str,
        a: &[f32],
        b: &[f32],
        per_lane: usize,
        ok: impl Fn(f32, f32) -> bool,
    ) {
        let n = a.len().max(b.len()).div_ceil(per_lane);
        for i in 0..n {
            let (lo, hi) = (i * per_lane, (i + 1) * per_lane);
            let same = match (a.get(lo..hi), b.get(lo..hi)) {
                (Some(x), Some(y)) => x.iter().zip(y).all(|(p, q)| ok(*p, *q)),
                _ => false,
            };
            if !same {
                self.fail(|| {
                    format!(
                        "{what}: lane-step {i}: {:?} vs {:?}",
                        a.get(lo..hi),
                        b.get(lo..hi)
                    )
                });
            }
        }
    }

    /// Counts one attempted operation that passes when `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(note);
        }
    }
}

/// FNV-1a over loss bit patterns: equal digests mean equal losses, bit for
/// bit, in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossDigest(u64);

impl Default for LossDigest {
    fn default() -> Self {
        LossDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl LossDigest {
    /// Folds `losses` in.
    pub fn update(&mut self, losses: &[f32]) {
        for l in losses {
            for byte in l.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The digest, folded to 48 bits so it survives a trip through an f64.
    pub fn value(&self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & 0xffff_ffff_ffff
    }
}
