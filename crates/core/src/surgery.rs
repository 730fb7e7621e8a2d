//! Lane surgery: moving individual models between fused arrays,
//! bit-identically.
//!
//! [`LaneState`] is one model's complete training state — its parameter
//! lanes, every optimizer-state lane (velocity, Adam moments, …) and the
//! optimizer's shared step counter — as [`FusedOptimizer::extract`] copies
//! it out of an array and [`FusedOptimizer::splice`] writes it into the
//! lanes of another. Because every fused op computes each lane
//! independently of `B` and of lane position (the bit-identity the
//! quarantine tests prove), a moved model continues training **bit for
//! bit** as if it had never moved: what lets an elastic scheduler
//! (`hfta-sched`) evict early-stopped lanes and re-pack survivors into
//! full-width arrays. Spliced lanes must agree on the step count (Adam's
//! bias correction depends on it); the target array is freshly built, and
//! every lane is replaced. Gradients are not moved: the training loop
//! zeroes them every step. The functions here are the hand-fused entry
//! points, plus hfta-flight tracing.

use hfta_tensor::Tensor;

use crate::ops::FusedParameter;
use crate::optim::{FusedOptimizer, Update};
use hfta_telemetry::{FlightKind, Profiler, TraceCtx};

/// One model's complete training state, extracted from a fused array.
#[derive(Debug, Clone)]
pub struct LaneState {
    /// Per-parameter lane values, in the array's parameter order. Each
    /// keeps the fused per-lane shape (axis 0 = `dim0 / B`).
    pub params: Vec<Tensor>,
    /// `opt_state[pi][slot]`: the optimizer-state lanes of parameter
    /// `pi`, one tensor per [`Update::SLOTS`] slot.
    pub opt_state: Vec<Vec<Tensor>>,
    /// The optimizer's shared step counter at extraction time (Adam's
    /// `t`; 0 for rules that do not count steps).
    pub step_count: u64,
    /// hfta-flight correlation context: which trial this state belongs to
    /// and the array/lane it was extracted from. `None` when extracted via
    /// the untraced [`extract_lane`]; carries no training state, so it
    /// never affects the bit-identity of surgery.
    pub ctx: Option<TraceCtx>,
}

impl LaneState {
    /// Total number of scalar elements across the parameter lanes.
    pub fn numel(&self) -> usize {
        self.params.iter().map(|t| t.numel()).sum()
    }
}

/// Asserts `params` are the parameters `opt` steps, in order.
fn assert_steps<U: Update>(params: &[FusedParameter], opt: &FusedOptimizer<U>) {
    assert!(
        params.len() == opt.params().len()
            && (params.iter().zip(opt.params())).all(|(a, b)| a.param.same_slot(&b.param)),
        "the optimizer does not step these parameters"
    );
}

/// [`FusedOptimizer::extract`] of model `lane` from the array whose
/// parameters `opt` steps. Panics if it does not step `params`.
pub fn extract_lane<U: Update>(
    params: &[FusedParameter],
    opt: &FusedOptimizer<U>,
    lane: usize,
) -> LaneState {
    assert_steps(params, opt);
    opt.extract(lane)
}

/// [`extract_lane`] plus hfta-flight correlation: stamps the trial id and
/// source placement into [`LaneState::ctx`] and records an `Extract`
/// event. The timestamp, device, and source array come from the ambient
/// flight cursor the scheduler sets around surgery calls; with no
/// profiler installed this is exactly [`extract_lane`] plus one branch.
pub fn extract_lane_traced<U: Update>(
    params: &[FusedParameter],
    opt: &FusedOptimizer<U>,
    lane: usize,
    trial: u64,
) -> LaneState {
    let mut state = extract_lane(params, opt, lane);
    if let Some(p) = Profiler::current() {
        let cursor = p.flight_cursor();
        p.flight_event(
            trial,
            cursor.t_ns,
            FlightKind::Extract,
            cursor.device,
            cursor.array,
            Some(lane as u64),
            format!(
                "from array {} lane {lane}",
                cursor.array.map_or("?".to_string(), |a| a.to_string())
            ),
        );
        state.ctx = Some(TraceCtx {
            trial,
            array: cursor.array.unwrap_or(0),
            lane: lane as u64,
        });
    }
    state
}

/// [`FusedOptimizer::splice`] of `lanes` into the array whose parameters
/// `opt` steps. Panics if it does not step `params`.
pub fn splice_lanes<U: Update>(
    lanes: &[LaneState],
    params: &[FusedParameter],
    opt: &mut FusedOptimizer<U>,
) {
    assert_steps(params, opt);
    opt.splice(lanes);
}

/// [`FusedOptimizer::splice_state`] of `lanes` into the array whose
/// parameters — built from the lanes' own — `opt` steps, plus hfta-flight
/// correlation: records one `Splice` event per lane carrying a
/// [`TraceCtx`] (source array/lane → the destination array named by the
/// ambient flight cursor). Lanes without a ctx (untraced extraction) are
/// spliced silently. Panics if `opt` does not step `params`.
pub fn splice_state_traced<U: Update>(
    lanes: &[LaneState],
    params: &[FusedParameter],
    opt: &mut FusedOptimizer<U>,
) {
    assert_steps(params, opt);
    opt.splice_state(lanes);
    if let Some(p) = Profiler::current() {
        let cursor = p.flight_cursor();
        for (i, lane) in lanes.iter().enumerate() {
            let Some(ctx) = lane.ctx else { continue };
            p.flight_event(
                ctx.trial,
                cursor.t_ns,
                FlightKind::Splice,
                cursor.device,
                cursor.array,
                Some(i as u64),
                format!("from array {} lane {} to lane {i}", ctx.array, ctx.lane),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{FusedLinear, FusedModule};
    use crate::optim::{FusedAdam, FusedSgd, PerModel};
    use hfta_nn::layers::LinearCfg;
    use hfta_tensor::Rng;

    fn grad_step(params: &[FusedParameter], rng: &mut Rng) {
        for p in params {
            let dims = p.param.value().dims().to_vec();
            p.param.zero_grad();
            p.param.accumulate_grad(&rng.randn(dims));
        }
    }

    fn array_params(b: usize, seed: u64) -> Vec<FusedParameter> {
        let mut rng = Rng::seed_from(seed);
        FusedLinear::new(b, LinearCfg::new(3, 2), &mut rng).fused_parameters()
    }

    #[test]
    fn extract_copies_param_and_state_lanes() {
        let params = array_params(3, 7);
        let mut opt = FusedSgd::new(params.clone(), PerModel::uniform(3, 0.1), 0.9).unwrap();
        // Give the velocity a recognizable value via one step.
        let mut rng = Rng::seed_from(8);
        grad_step(&params, &mut rng);
        opt.step();
        let lane = extract_lane(&params, &opt, 1);
        assert_eq!(lane.params.len(), params.len());
        assert_eq!(lane.opt_state[0].len(), 1);
        assert_eq!(lane.step_count, 0);
        for (pi, p) in params.iter().enumerate() {
            let v = p.param.value();
            let chunk = v.dim(0) / 3;
            assert_eq!(
                lane.params[pi].to_vec(),
                v.narrow(0, chunk, chunk).to_vec(),
                "parameter {pi} lane values"
            );
            let state = opt.state(pi, 0);
            assert_eq!(
                lane.opt_state[pi][0].to_vec(),
                state.narrow(0, chunk, chunk).to_vec(),
                "parameter {pi} velocity lane"
            );
        }
    }

    #[test]
    fn splice_round_trips_every_lane_bitwise() {
        // Extract all three lanes of a trained source array, splice them
        // (permuted) into a fresh target, and verify storage bitwise.
        let src_params = array_params(3, 11);
        let mut src_opt = FusedAdam::new(src_params.clone(), PerModel::uniform(3, 0.01)).unwrap();
        let mut rng = Rng::seed_from(12);
        for _ in 0..3 {
            grad_step(&src_params, &mut rng);
            src_opt.step();
        }
        let perm = [2usize, 0, 1];
        let lanes: Vec<LaneState> = perm
            .iter()
            .map(|&i| extract_lane(&src_params, &src_opt, i))
            .collect();

        let dst_params = array_params(3, 99); // different init, fully overwritten
        let mut dst_opt = FusedAdam::new(dst_params.clone(), PerModel::uniform(3, 0.01)).unwrap();
        splice_lanes(&lanes, &dst_params, &mut dst_opt);
        assert_eq!(dst_opt.step_count(), 3);
        for (pi, (sp, dp)) in src_params.iter().zip(&dst_params).enumerate() {
            let sv = sp.param.value();
            let dv = dp.param.value();
            let chunk = sv.dim(0) / 3;
            for (dst_lane, &src_lane) in perm.iter().enumerate() {
                assert_eq!(
                    dv.narrow(0, dst_lane * chunk, chunk).to_vec(),
                    sv.narrow(0, src_lane * chunk, chunk).to_vec(),
                    "parameter {pi} lane {src_lane} -> {dst_lane}"
                );
                for slot in 0..2 {
                    let ss = src_opt.state(pi, slot);
                    let ds = dst_opt.state(pi, slot);
                    assert_eq!(
                        ds.narrow(0, dst_lane * chunk, chunk).to_vec(),
                        ss.narrow(0, src_lane * chunk, chunk).to_vec(),
                        "parameter {pi} slot {slot} lane {src_lane} -> {dst_lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_surgery_records_extract_and_splice_with_ctx() {
        use hfta_telemetry::FlightCursor;
        let p = Profiler::new("surgery");
        let _g = p.install();
        p.set_flight_cursor(FlightCursor {
            t_ns: 500,
            device: Some(1),
            array: Some(7),
        });
        let params = array_params(2, 1);
        let opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        let lanes = vec![
            extract_lane_traced(&params, &opt, 0, 40),
            extract_lane_traced(&params, &opt, 1, 41),
        ];
        assert_eq!(
            lanes[0].ctx,
            Some(TraceCtx {
                trial: 40,
                array: 7,
                lane: 0
            })
        );
        let dst = array_params(2, 2);
        let mut dst_opt = FusedSgd::new(dst.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        p.set_flight_cursor(FlightCursor {
            t_ns: 900,
            device: Some(0),
            array: Some(9),
        });
        splice_state_traced(&lanes, &dst, &mut dst_opt);
        let events = p.flight_events();
        assert_eq!(events.len(), 4);
        assert!(events[..2]
            .iter()
            .all(|e| e.kind == FlightKind::Extract && e.array == Some(7) && e.t_ns == 500));
        assert!(events[2..]
            .iter()
            .all(|e| e.kind == FlightKind::Splice && e.array == Some(9) && e.t_ns == 900));
        assert_eq!(events[2].trial, 40);
        assert!(events[2].detail.contains("from array 7 lane 0"));
    }

    #[test]
    #[should_panic(expected = "disagree on the optimizer step count")]
    fn splice_rejects_mismatched_step_counts() {
        let params = array_params(2, 1);
        let opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        let mut lanes = vec![
            extract_lane(&params, &opt, 0),
            extract_lane(&params, &opt, 1),
        ];
        lanes[1].step_count = 5;
        let dst = array_params(2, 2);
        let mut dst_opt = FusedSgd::new(dst.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        splice_lanes(&lanes, &dst, &mut dst_opt);
    }

    #[test]
    #[should_panic(expected = "one lane state per target lane")]
    fn splice_rejects_wrong_width() {
        let params = array_params(2, 1);
        let opt = FusedSgd::new(params.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        let lanes = vec![extract_lane(&params, &opt, 0)];
        let dst = array_params(2, 2);
        let mut dst_opt = FusedSgd::new(dst.clone(), PerModel::uniform(2, 0.1), 0.0).unwrap();
        splice_lanes(&lanes, &dst, &mut dst_opt);
    }
}
