//! A hyper-parameter tuning driver built on HFTA arrays — the paper's
//! stated integration target ("integrating HFTA into existing
//! hyper-parameter tuning and model architecture search frameworks", §6).
//!
//! The tuner owns the part such frameworks usually leave to the cluster
//! scheduler: it takes the candidate configurations of a sweep, partitions
//! them into *fusable groups* (only same-architecture candidates fuse —
//! the paper's Observation 1), packs each group into arrays of at most
//! `array_width` models, and hands each array to a user-supplied trainer.

use crate::error::{FusionError, Result};
use crate::scope::{ScopeMonitor, SentinelCfg};
use hfta_telemetry::Profiler;
use hfta_tensor::Rng;

/// One evaluated trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial<C> {
    /// The candidate configuration.
    pub config: C,
    /// The score the trainer reported (higher is better).
    pub score: f32,
}

/// Outcome of a sweep: every trial, plus bookkeeping on how the work was
/// packed.
#[derive(Debug, Clone)]
pub struct SweepReport<C> {
    /// All trials, sorted best-first.
    pub trials: Vec<Trial<C>>,
    /// Number of fused arrays that were trained.
    pub arrays_trained: usize,
    /// Number of accelerator "slots" a serial launcher would have used
    /// (one per candidate) — `candidates / arrays_trained` is the device
    /// saving.
    pub serial_jobs_replaced: usize,
}

impl<C> SweepReport<C> {
    /// The winning trial.
    ///
    /// # Panics
    ///
    /// Panics if the sweep was empty.
    pub fn best(&self) -> &Trial<C> {
        self.trials.first().expect("non-empty sweep")
    }
}

/// What one trained array reports back to the shared sweep driver: a
/// score per lane, plus which lanes a sentinel killed (empty = none).
struct ChunkOutcome {
    scores: Vec<f32>,
    killed: Vec<bool>,
}

/// The chunk/train/metrics loop shared by [`sweep`] and
/// [`sweep_monitored`]: validates the inputs, packs candidates into
/// arrays of at most `array_width`, wraps each `run_chunk` call in a
/// profiler span with the tuner counters, validates the returned score
/// vector, and ranks trials healthy-best-first with killed trials last.
fn drive_sweep<C: Clone>(
    candidates: Vec<C>,
    array_width: usize,
    mut run_chunk: impl FnMut(&[C]) -> ChunkOutcome,
) -> Result<MonitoredSweepReport<C>> {
    if array_width == 0 {
        return Err(FusionError::InvalidWidth);
    }
    if candidates.is_empty() {
        return Err(FusionError::Empty);
    }
    let profiler = Profiler::current();
    let lane = profiler.as_ref().map(|p| p.lane("tuner", "arrays"));
    let mut trials = Vec::with_capacity(candidates.len());
    let mut arrays = 0;
    let mut killed = 0;
    let total = candidates.len();
    for chunk in candidates.chunks(array_width) {
        let outcome = {
            let _span = profiler
                .as_ref()
                .map(|p| p.span(lane.unwrap(), format!("array[B={}]", chunk.len())));
            run_chunk(chunk)
        };
        if outcome.scores.len() != chunk.len() {
            return Err(FusionError::HyperParamLength {
                expected: chunk.len(),
                found: outcome.scores.len(),
            });
        }
        arrays += 1;
        if let Some(p) = &profiler {
            p.incr("tuner.arrays", 1.0);
            p.incr("tuner.trials", chunk.len() as f64);
            p.set_gauge("tuner.fused_width", chunk.len() as f64);
        }
        for (i, (config, score)) in chunk.iter().cloned().zip(outcome.scores).enumerate() {
            let dead = outcome.killed[i];
            if dead {
                killed += 1;
                if let Some(p) = &profiler {
                    p.incr("tuner.killed", 1.0);
                }
            } else if let Some(p) = &profiler {
                p.observe("tuner.score", score as f64);
            }
            trials.push(MonitoredTrial {
                config,
                score,
                killed: dead,
            });
        }
    }
    // Healthy trials best-first; killed trials sink to the bottom.
    trials.sort_by(|a, b| {
        a.killed
            .cmp(&b.killed)
            .then_with(|| b.score.total_cmp(&a.score))
    });
    Ok(MonitoredSweepReport {
        trials,
        arrays_trained: arrays,
        serial_jobs_replaced: total,
        killed,
    })
}

/// Runs a sweep: packs `candidates` into arrays of at most `array_width`
/// and calls `train_array` once per array. The trainer receives the
/// configs of one array and must return one score per config (higher is
/// better) — typically negative validation loss.
///
/// # Errors
///
/// Returns [`FusionError`] if `array_width == 0`, `candidates` is empty,
/// or the trainer returns the wrong number of scores.
pub fn sweep<C: Clone>(
    candidates: Vec<C>,
    array_width: usize,
    mut train_array: impl FnMut(&[C]) -> Vec<f32>,
) -> Result<SweepReport<C>> {
    let report = drive_sweep(candidates, array_width, |chunk| ChunkOutcome {
        scores: train_array(chunk),
        killed: vec![false; chunk.len()],
    })?;
    Ok(SweepReport {
        trials: report
            .trials
            .into_iter()
            .map(|t| Trial {
                config: t.config,
                score: t.score,
            })
            .collect(),
        arrays_trained: report.arrays_trained,
        serial_jobs_replaced: report.serial_jobs_replaced,
    })
}

/// One evaluated trial of a monitored sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoredTrial<C> {
    /// The candidate configuration.
    pub config: C,
    /// The score the trainer reported (higher is better).
    pub score: f32,
    /// Whether a divergence sentinel killed this trial — its model was
    /// quarantined (or flagged) mid-training and its score is not
    /// comparable to the healthy trials'.
    pub killed: bool,
}

/// Outcome of a monitored sweep.
#[derive(Debug, Clone)]
pub struct MonitoredSweepReport<C> {
    /// All trials: healthy ones sorted best-first, killed ones after.
    pub trials: Vec<MonitoredTrial<C>>,
    /// Number of fused arrays that were trained.
    pub arrays_trained: usize,
    /// Serial accelerator slots replaced (one per candidate).
    pub serial_jobs_replaced: usize,
    /// Number of trials a sentinel killed.
    pub killed: usize,
}

impl<C> MonitoredSweepReport<C> {
    /// The winning healthy trial, if any survived.
    pub fn best(&self) -> Option<&MonitoredTrial<C>> {
        self.trials.iter().find(|t| !t.killed)
    }
}

/// [`sweep`] with hfta-scope divergence monitoring: the tuner hands each
/// array's trainer a [`ScopeMonitor`] (width = the array's `B`, configured
/// with `cfg`); the trainer drives it per step
/// ([`ScopeMonitor::after_backward`] / [`ScopeMonitor::after_step`]),
/// which quarantines diverging models in place — the early-kill the
/// paper's tuning integration (§6) needs, without aborting the other
/// `B − 1` jobs in the fused array. Trials whose model fired a sentinel
/// come back marked `killed` and rank below every healthy trial.
///
/// # Errors
///
/// Returns [`FusionError`] on the same conditions as [`sweep`].
pub fn sweep_monitored<C: Clone>(
    candidates: Vec<C>,
    array_width: usize,
    cfg: SentinelCfg,
    mut train_array: impl FnMut(&[C], &mut ScopeMonitor) -> Vec<f32>,
) -> Result<MonitoredSweepReport<C>> {
    drive_sweep(candidates, array_width, |chunk| {
        let mut monitor = ScopeMonitor::new(chunk.len(), cfg);
        let scores = train_array(chunk, &mut monitor);
        ChunkOutcome {
            scores,
            killed: monitor.fired_models().to_vec(),
        }
    })
}

/// Partitions candidates into fusable groups by an architecture key: two
/// candidates fuse only if their models have the same operator types and
/// shapes (paper Observation 1), which the caller encodes in `shape_key`
/// (e.g. the layer-width choice of an architecture search).
pub fn partition_fusable<C, K: Eq + std::hash::Hash>(
    candidates: Vec<C>,
    mut shape_key: impl FnMut(&C) -> K,
) -> Vec<Vec<C>> {
    let mut groups: Vec<(K, Vec<C>)> = Vec::new();
    for c in candidates {
        let k = shape_key(&c);
        match groups.iter_mut().find(|(gk, _)| *gk == k) {
            Some((_, g)) => g.push(c),
            None => groups.push((k, vec![c])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Samples `n` random configurations by drawing each axis log-uniformly
/// from its `(low, high)` range — the random-search baseline of
/// Bergstra & Bengio (2012), which the paper cites as the standard tuning
/// practice.
///
/// # Panics
///
/// Panics if any range is empty or non-positive (log-uniform domain).
pub fn random_search(axes: &[(&str, f32, f32)], n: usize, seed: u64) -> Vec<Vec<(String, f32)>> {
    let mut rng = Rng::seed_from(seed);
    for (name, lo, hi) in axes {
        assert!(
            *lo > 0.0 && hi > lo,
            "axis {name} needs a positive, non-empty range for log-uniform sampling"
        );
    }
    (0..n)
        .map(|_| {
            axes.iter()
                .map(|(name, lo, hi)| {
                    let u = rng.uniform(lo.ln(), hi.ln());
                    (name.to_string(), u.exp())
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_packs_and_ranks() {
        // Score = -(lr - 0.3)^2: the candidate nearest 0.3 must win.
        let lrs = vec![0.1f32, 0.2, 0.31, 0.5, 0.9];
        let report = sweep(lrs.clone(), 2, |chunk| {
            chunk.iter().map(|lr| -(lr - 0.3) * (lr - 0.3)).collect()
        })
        .unwrap();
        assert_eq!(report.trials.len(), 5);
        assert_eq!(report.arrays_trained, 3); // ceil(5 / 2)
        assert_eq!(report.serial_jobs_replaced, 5);
        assert!((report.best().config - 0.31).abs() < 1e-6);
        // Sorted best-first.
        assert!(report.trials.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn sweep_validates_inputs() {
        assert!(matches!(
            sweep(Vec::<f32>::new(), 2, |_| vec![]),
            Err(FusionError::Empty)
        ));
        assert!(matches!(
            sweep(vec![1.0f32], 0, |_| vec![0.0]),
            Err(FusionError::InvalidWidth)
        ));
        assert!(matches!(
            sweep(vec![1.0f32, 2.0], 4, |_| vec![0.0]),
            Err(FusionError::HyperParamLength { .. })
        ));
    }

    #[test]
    fn sweep_records_tuner_metrics_when_profiled() {
        let p = Profiler::new("tuner-test");
        let _g = p.install();
        let report = sweep(vec![0.1f32, 0.2, 0.3], 2, |chunk| {
            chunk.iter().map(|x| -x).collect()
        })
        .unwrap();
        assert_eq!(report.arrays_trained, 2);
        let r = p.report();
        let exp = &r.experiments[0];
        let counter = |name: &str| exp.counters.iter().find(|c| c.name == name).unwrap().value;
        assert_eq!(counter("tuner.arrays"), 2.0);
        assert_eq!(counter("tuner.trials"), 3.0);
        assert_eq!(exp.histograms[0].count, 3);
        // One B/E span pair per array.
        assert_eq!(p.event_count(), 4);
    }

    #[test]
    fn monitored_sweep_kills_poisoned_trials() {
        use crate::ops::FusedParameter;
        use crate::optim::{FusedSgd, PerModel};
        use crate::scope::poison_model_lane;
        use hfta_nn::Parameter;
        use hfta_tensor::Tensor;

        // Five LR candidates, arrays of width 2. The trainer runs a toy
        // quadratic descent; any candidate with lr > 1 is poisoned at step
        // 1 to simulate divergence.
        let lrs = vec![0.1f32, 0.2, 5.0, 0.3, 0.05];
        let report = sweep_monitored(lrs, 2, SentinelCfg::default(), |chunk, monitor| {
            let b = chunk.len();
            let fused = FusedParameter {
                param: Parameter::new(Tensor::ones([b]), "w"),
                b,
            };
            let params = vec![fused.clone()];
            let mut opt =
                FusedSgd::new(params.clone(), PerModel::new(chunk.to_vec()), 0.0).unwrap();
            for step in 0..3u64 {
                opt.zero_grad();
                // grad of 0.5 w^2 is w.
                fused.param.accumulate_grad(&fused.param.value_cloned());
                if step == 1 {
                    for (i, &lr) in chunk.iter().enumerate() {
                        if lr > 1.0 {
                            poison_model_lane(&params, i);
                        }
                    }
                }
                let losses: Vec<f32> = (0..b)
                    .map(|i| {
                        let w = fused.param.value_cloned().to_vec()[i];
                        0.5 * w * w
                    })
                    .collect();
                monitor.after_backward(step, &losses, &params, &mut opt);
                opt.step();
                monitor.after_step(step, &params);
            }
            // Score = -final loss.
            fused
                .param
                .value_cloned()
                .to_vec()
                .iter()
                .map(|w| -0.5 * w * w)
                .collect()
        })
        .unwrap();
        assert_eq!(report.trials.len(), 5);
        assert_eq!(report.arrays_trained, 3);
        assert_eq!(report.killed, 1);
        let dead: Vec<f32> = report
            .trials
            .iter()
            .filter(|t| t.killed)
            .map(|t| t.config)
            .collect();
        assert_eq!(dead, vec![5.0]);
        // Killed trials rank last; the best healthy trial is the largest
        // surviving LR (fastest descent on the quadratic).
        assert!(report.trials.last().unwrap().killed);
        assert!((report.best().unwrap().config - 0.3).abs() < 1e-6);
    }

    #[test]
    fn partition_groups_same_architectures() {
        // (width, lr) candidates: only same-width models fuse.
        let cands = vec![
            (64, 0.1f32),
            (128, 0.1),
            (64, 0.01),
            (128, 0.01),
            (64, 0.001),
        ];
        let groups = partition_fusable(cands, |c| c.0);
        assert_eq!(groups.len(), 2);
        let g64 = groups.iter().find(|g| g[0].0 == 64).unwrap();
        assert_eq!(g64.len(), 3);
        let g128 = groups.iter().find(|g| g[0].0 == 128).unwrap();
        assert_eq!(g128.len(), 2);
    }

    #[test]
    fn random_search_respects_ranges_and_is_deterministic() {
        let axes = [("lr", 1e-4f32, 1e-1), ("wd", 1e-6f32, 1e-3)];
        let a = random_search(&axes, 16, 7);
        let b = random_search(&axes, 16, 7);
        assert_eq!(a, b);
        for cfg in &a {
            assert_eq!(cfg.len(), 2);
            let lr = cfg[0].1;
            assert!((1e-4..=1e-1).contains(&lr), "lr {lr}");
        }
        // Log-uniform: a decent share of samples lands below the geometric
        // midpoint (~3e-3), which linear sampling would almost never do.
        let low = a.iter().filter(|c| c[0].1 < 3.2e-3).count();
        assert!(low >= 4, "only {low} low samples");
    }

    #[test]
    #[should_panic(expected = "log-uniform")]
    fn random_search_rejects_bad_ranges() {
        let _ = random_search(&[("lr", 0.0, 1.0)], 1, 0);
    }
}
