//! The [`ModelArray`] convenience wrapper, step metrics, and per-model
//! weight transfer into and out of an array's lanes.

use hfta_nn::{Parameter, Tape, Var};
use hfta_telemetry::{Profiler, StepMetric};
use hfta_tensor::Tensor;

use crate::error::Result;
use crate::format::{stack_array, stack_conv};
use crate::ops::{FusedModule, FusedParameter};

/// Ties a fused module to its array width and input-stacking conventions —
/// the user-facing entry point for "train these `B` jobs together".
///
/// # Example
///
/// ```
/// use hfta_core::{array::ModelArray, ops::{FusedLinear, FusedModule}};
/// use hfta_nn::layers::LinearCfg;
/// use hfta_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(0);
/// let array = ModelArray::new(FusedLinear::new(3, LinearCfg::new(4, 2), &mut rng));
/// let inputs: Vec<Tensor> = (0..3).map(|_| rng.randn([8, 4])).collect();
/// let (tape, out) = array.forward_array(&inputs).unwrap();
/// assert_eq!(out.dims(), vec![3, 8, 2]);
/// # let _ = tape;
/// ```
#[derive(Debug)]
pub struct ModelArray<M> {
    module: M,
}

impl<M: FusedModule> ModelArray<M> {
    /// Wraps a fused module.
    pub fn new(module: M) -> Self {
        ModelArray { module }
    }

    /// The array width.
    pub fn b(&self) -> usize {
        self.module.b()
    }

    /// The wrapped fused module.
    pub fn module(&self) -> &M {
        &self.module
    }

    /// Consumes the wrapper, returning the module.
    pub fn into_module(self) -> M {
        self.module
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Parameter> {
        self.module.parameters()
    }

    /// Parameters with fusion metadata, ready for a fused optimizer.
    pub fn fused_parameters(&self) -> Vec<FusedParameter> {
        self.module.fused_parameters()
    }

    /// Switches training/eval mode.
    pub fn set_training(&self, training: bool) {
        self.module.set_training(training);
    }

    /// Stacks per-model conv-format inputs `[N, C, ...]` and runs the
    /// fused forward pass; returns the tape for a subsequent backward.
    ///
    /// # Errors
    ///
    /// Returns a fusion error if input shapes differ across models.
    pub fn forward_conv(&self, inputs: &[Tensor]) -> Result<(Tape, Var)> {
        let fused = stack_conv(inputs)?;
        let tape = Tape::new();
        let x = tape.leaf(fused);
        let y = self.module.forward(&x);
        Ok((tape, y))
    }

    /// Stacks per-model array-format inputs `[N, F]` and runs the fused
    /// forward pass.
    ///
    /// # Errors
    ///
    /// Returns a fusion error if input shapes differ across models.
    pub fn forward_array(&self, inputs: &[Tensor]) -> Result<(Tape, Var)> {
        let fused = stack_array(inputs)?;
        let tape = Tape::new();
        let x = tape.leaf(fused);
        let y = self.module.forward(&x);
        Ok((tape, y))
    }

    /// Runs the fused forward on an already-stacked input.
    pub fn forward(&self, x: &Var) -> Var {
        self.module.forward(x)
    }

    /// Records one training step's per-model losses (and aggregate
    /// samples/s) into the installed profiler, tagged with this array's
    /// fused width `B`. A single branch when no profiler is installed.
    pub fn record_step(&self, step: u64, losses: &[f32], samples_per_s: f64) {
        record_step_metrics(step, losses, samples_per_s, self.b() as u64);
    }
}

/// Free-function form of [`ModelArray::record_step`] for training loops
/// that do not go through the wrapper (e.g. serial baselines, where
/// `fused_width` is 1).
///
/// Each model's loss lands both in the step-metric table and in its
/// hfta-scope `loss` scalar stream, so `scope_report` can render per-model
/// loss curves from any instrumented training loop. Alongside the losses,
/// the hfta-mem accounting snapshot lands as `mem.*` gauges plus a
/// per-lane `mem_bytes` scalar stream (the fused footprint split evenly
/// across the `B` lanes — exact, since every lane of a fused operator does
/// identical-shape work; see [`hfta_sim::attribution`]).
pub fn record_step_metrics(step: u64, losses: &[f32], samples_per_s: f64, fused_width: u64) {
    let Some(profiler) = Profiler::current() else {
        return;
    };
    for (model, &loss) in losses.iter().enumerate() {
        profiler.step(StepMetric {
            step,
            model: model as u64,
            loss: loss as f64,
            samples_per_s,
            fused_width,
        });
        profiler.scalar(model as u64, "loss", step, loss as f64);
    }
    record_mem_metrics(step, losses.len());
}

/// Snapshots [`hfta_mem::stats`] into the installed profiler: pool-wide
/// `mem.*` gauges, per-size-class live/peak gauges for classes with
/// traffic, and a per-lane `mem_bytes` scalar stream attributing the
/// current footprint across `b` fused lanes.
pub fn record_mem_metrics(step: u64, b: usize) {
    let Some(profiler) = Profiler::current() else {
        return;
    };
    let mem = hfta_mem::stats();
    profiler.set_gauge("mem.live_bytes", mem.live_bytes as f64);
    profiler.set_gauge("mem.peak_live_bytes", mem.peak_live_bytes as f64);
    profiler.set_gauge("mem.pooled_free_bytes", mem.pooled_free_bytes as f64);
    profiler.set_gauge("mem.scratch_owned_bytes", mem.scratch_owned_bytes as f64);
    profiler.set_gauge("mem.footprint_bytes", mem.footprint_bytes as f64);
    profiler.set_gauge("mem.peak_footprint_bytes", mem.peak_footprint_bytes as f64);
    profiler.set_gauge("mem.pool_fresh_allocs", mem.pool_fresh_allocs as f64);
    profiler.set_gauge("mem.pool_reuses", mem.pool_reuses as f64);
    profiler.set_gauge("mem.scratch_fresh_allocs", mem.scratch_fresh_allocs as f64);
    for class in &mem.classes {
        if class.fresh_allocs == 0 && class.reuses == 0 {
            continue;
        }
        let label = if class.elems == 0 {
            "oversize".to_string()
        } else {
            class.elems.to_string()
        };
        profiler.set_gauge(
            &format!("mem.class.{label}.live_bytes"),
            class.live_bytes as f64,
        );
        profiler.set_gauge(
            &format!("mem.class.{label}.peak_live_bytes"),
            class.peak_live_bytes as f64,
        );
    }
    if b > 0 {
        for (model, share) in hfta_sim::attribution::split_even(mem.footprint_bytes, b)
            .into_iter()
            .enumerate()
        {
            profiler.scalar(model as u64, "mem_bytes", step, share as f64);
        }
    }
}

/// Copies model `index`'s weights out of a fused parameter set into a
/// per-model parameter set (matching order and per-model shapes) — the
/// glue for checkpointing one array member or for initializing a serial
/// replica that must match a fused array bit-for-bit (the §3.3
/// convergence-equivalence experiments).
///
/// # Panics
///
/// Panics if the parameter counts differ, `index` is out of range, or a
/// slice's element count differs from its destination.
pub fn copy_model_weights(fused: &[FusedParameter], index: usize, dest: &[Parameter]) {
    assert_eq!(
        fused.len(),
        dest.len(),
        "fused/serial parameter count mismatch"
    );
    for (fp, d) in fused.iter().zip(dest) {
        let slice = fp.model_slice(index);
        let dest_dims = d.value().dims().to_vec();
        assert_eq!(
            slice.numel(),
            dest_dims.iter().product::<usize>(),
            "parameter {} size mismatch",
            d.name()
        );
        d.set_value(slice.reshape(&dest_dims));
    }
}

/// Writes a per-model parameter set into model `index`'s lane of a fused
/// parameter set — the inverse of [`copy_model_weights`], used to restore
/// one array member from a checkpoint or to seed a lane from a serial
/// replica; it reads no gradient slot. Round-tripping through both is
/// bit-exact (storage is copied, never recomputed).
///
/// # Panics
///
/// Panics if the parameter counts differ, `index` is out of range, or a
/// source's element count differs from its lane.
pub fn write_model_weights(fused: &[FusedParameter], index: usize, src: &[Parameter]) {
    assert_eq!(
        fused.len(),
        src.len(),
        "fused/serial parameter count mismatch"
    );
    for (fp, s) in fused.iter().zip(src) {
        let sv = s.value();
        fp.param.update_value(|value| {
            let (lo, hi) = crate::scope::lane_bounds(value.numel(), fp.b, index);
            assert_eq!(sv.numel(), hi - lo, "parameter {} size mismatch", s.name());
            value.as_mut_slice()[lo..hi].copy_from_slice(sv.as_slice());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FusedLinear;
    use hfta_nn::layers::LinearCfg;
    use hfta_tensor::Rng;

    #[test]
    fn model_array_forward_and_params() {
        let mut rng = Rng::seed_from(0);
        let array = ModelArray::new(FusedLinear::new(2, LinearCfg::new(3, 4), &mut rng));
        assert_eq!(array.b(), 2);
        assert_eq!(array.parameters().len(), 2);
        assert_eq!(array.fused_parameters()[0].b, 2);
        let inputs: Vec<Tensor> = (0..2).map(|_| rng.randn([5, 3])).collect();
        let (_tape, y) = array.forward_array(&inputs).unwrap();
        assert_eq!(y.dims(), vec![2, 5, 4]);
    }

    #[test]
    fn forward_array_rejects_mismatched_inputs() {
        let mut rng = Rng::seed_from(1);
        let array = ModelArray::new(FusedLinear::new(2, LinearCfg::new(3, 4), &mut rng));
        let bad = vec![rng.randn([5, 3]), rng.randn([4, 3])];
        assert!(array.forward_array(&bad).is_err());
    }

    #[test]
    fn record_step_feeds_installed_profiler() {
        let mut rng = Rng::seed_from(2);
        let array = ModelArray::new(FusedLinear::new(2, LinearCfg::new(3, 4), &mut rng));
        array.record_step(0, &[1.0, 2.0], 0.0); // no profiler: no-op
        let p = Profiler::new("array-test");
        let _g = p.install();
        array.record_step(1, &[0.5, 0.25], 128.0);
        let report = p.report();
        let exp = &report.experiments[0];
        let steps = &exp.steps;
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].fused_width, 2);
        assert_eq!(steps[1].model, 1);
        assert_eq!(steps[1].loss, 0.25);
        // The same losses feed the per-model scalar streams.
        assert_eq!(exp.scalar_models(), vec![0, 1]);
        assert_eq!(exp.scalar_stream(1, "loss").unwrap().last(), Some(0.25));
        // The step also snapshots the hfta-mem accounting as gauges and a
        // per-lane footprint attribution stream.
        let gauge = |name: &str| {
            exp.gauges
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.value)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        assert!(gauge("mem.footprint_bytes") > 0.0);
        assert!(gauge("mem.peak_footprint_bytes") >= gauge("mem.footprint_bytes"));
        let lane0 = exp.scalar_stream(0, "mem_bytes").unwrap().last().unwrap();
        let lane1 = exp.scalar_stream(1, "mem_bytes").unwrap().last().unwrap();
        // Even split across the two lanes, conserving the total.
        assert!((lane0 + lane1 - gauge("mem.footprint_bytes")).abs() <= 1.0);
        assert!((lane0 - lane1).abs() <= 1.0);
    }

    #[test]
    fn copy_then_write_model_weights_round_trips_bitwise() {
        let mut rng = Rng::seed_from(3);
        let array = ModelArray::new(FusedLinear::new(3, LinearCfg::new(4, 2), &mut rng));
        let fused = array.fused_parameters();
        let before: Vec<Vec<f32>> = fused
            .iter()
            .map(|p| p.param.value_cloned().to_vec())
            .collect();

        // Copy lane 1 out into per-model parameters...
        let dest: Vec<Parameter> = fused
            .iter()
            .map(|p| {
                let dims: Vec<usize> = {
                    let v = p.param.value();
                    let mut d = v.dims().to_vec();
                    d[0] /= p.b;
                    d
                };
                Parameter::new(Tensor::zeros(dims), "dest")
            })
            .collect();
        copy_model_weights(&fused, 1, &dest);

        // ...scribble over the lane, then write the copies back.
        for p in &fused {
            p.param.update(|v, _| {
                let n = v.numel();
                v.as_mut_slice()[n / 3..2 * n / 3].fill(f32::NAN);
            });
        }
        write_model_weights(&fused, 1, &dest);
        for (p, orig) in fused.iter().zip(&before) {
            assert_eq!(
                &p.param.value_cloned().to_vec(),
                orig,
                "round trip not bit-exact"
            );
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn write_model_weights_rejects_wrong_shapes() {
        let mut rng = Rng::seed_from(4);
        let array = ModelArray::new(FusedLinear::new(2, LinearCfg::new(3, 2), &mut rng));
        let fused = array.fused_parameters();
        let bad: Vec<Parameter> = fused
            .iter()
            .map(|_| Parameter::new(Tensor::zeros([1]), "bad"))
            .collect();
        write_model_weights(&fused, 0, &bad);
    }
}
