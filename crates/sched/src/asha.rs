//! Successive-halving rungs (the asynchronous variant, ASHA).
//!
//! Trials train in step *segments* bounded by rungs: rung `k` is evaluated
//! after `base_steps · eta^k` cumulative steps. The decision rule is
//! asynchronous — a trial reaching a rung is judged against the scores
//! recorded *at that rung so far*, promoting iff it ranks in the top
//! `ceil(n / eta)` of them — so no rung ever waits for stragglers and the
//! schedule stays event-driven.

/// The rung geometry: how many rungs, and how many steps each costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungPolicy {
    /// Cumulative steps at rung 0.
    pub base_steps: u64,
    /// Promotion divisor and per-rung budget multiplier (≥ 2 typical).
    pub eta: usize,
    /// Number of rungs; a trial surviving to rung `rungs − 1` finishes.
    pub rungs: usize,
}

impl RungPolicy {
    /// Cumulative steps a trial has taken once rung `rung` is evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `rung >= self.rungs`.
    pub fn total_steps_at(&self, rung: usize) -> u64 {
        assert!(rung < self.rungs, "rung {rung} out of range");
        self.base_steps * (self.eta as u64).pow(rung as u32)
    }

    /// Steps in the segment leading up to rung `rung` (from the previous
    /// rung, or from step 0 for rung 0).
    pub fn segment_steps(&self, rung: usize) -> u64 {
        if rung == 0 {
            self.total_steps_at(0)
        } else {
            self.total_steps_at(rung) - self.total_steps_at(rung - 1)
        }
    }

    /// The last rung's index.
    pub fn final_rung(&self) -> usize {
        self.rungs - 1
    }

    /// Validates the geometry (positive steps, `eta ≥ 2`, at least one
    /// rung).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate policy.
    pub fn validate(&self) {
        assert!(self.base_steps > 0, "base_steps must be positive");
        assert!(self.eta >= 2, "eta must be at least 2");
        assert!(self.rungs >= 1, "need at least one rung");
    }
}

/// The scores every trial reported at every rung, in arrival order — the
/// state behind the asynchronous promotion rule.
#[derive(Debug, Clone, Default)]
pub struct RungLedger {
    scores: Vec<Vec<f32>>,
}

impl RungLedger {
    /// An empty ledger for `rungs` rungs.
    pub fn new(rungs: usize) -> Self {
        RungLedger {
            scores: vec![Vec::new(); rungs],
        }
    }

    /// Records `score` at `rung` and decides promotion: `true` iff the
    /// score ranks in the top `ceil(n / eta)` of the `n` scores recorded
    /// at this rung so far (itself included). The first trial at a rung
    /// always promotes; rank counts strictly greater scores, so ties
    /// favor promotion deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `rung` is out of range or `score` is NaN (divergence is
    /// the sentinels' job, not the ledger's).
    pub fn record_and_decide(&mut self, rung: usize, score: f32, eta: usize) -> bool {
        assert!(!score.is_nan(), "NaN scores must be quarantined upstream");
        let at = &mut self.scores[rung];
        at.push(score);
        let keep = at.len().div_ceil(eta);
        let rank = at.iter().filter(|&&s| s > score).count();
        rank < keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_geometry() {
        let p = RungPolicy {
            base_steps: 2,
            eta: 3,
            rungs: 3,
        };
        p.validate();
        assert_eq!(p.total_steps_at(0), 2);
        assert_eq!(p.total_steps_at(2), 18);
        assert_eq!(p.segment_steps(0), 2);
        assert_eq!(p.segment_steps(1), 4);
        assert_eq!(p.segment_steps(2), 12);
        assert_eq!(p.final_rung(), 2);
    }

    #[test]
    fn first_arrival_always_promotes() {
        let mut ledger = RungLedger::new(1);
        assert!(ledger.record_and_decide(0, -10.0, 2));
    }

    #[test]
    fn promotes_top_fraction_asynchronously() {
        let mut ledger = RungLedger::new(1);
        // Scores arrive one by one; each decision uses only what's seen.
        assert!(ledger.record_and_decide(0, 1.0, 2)); // n=1, keep 1
        assert!(!ledger.record_and_decide(0, 0.5, 2)); // n=2, keep 1, rank 1
        assert!(ledger.record_and_decide(0, 2.0, 2)); // n=3, keep 2, rank 0
        assert!(!ledger.record_and_decide(0, 0.1, 2)); // n=4, keep 2, rank 3
    }

    #[test]
    fn ties_promote() {
        let mut ledger = RungLedger::new(1);
        assert!(ledger.record_and_decide(0, 1.0, 2));
        assert!(ledger.record_and_decide(0, 1.0, 2)); // rank 0 (strict >)
    }
}
