//! Step metrics, and copying one model's weights out of an array's lane.

use hfta_nn::Parameter;
use hfta_telemetry::{Profiler, StepMetric};

use crate::ops::FusedParameter;

/// Records one training step's per-model losses (and aggregate
/// samples/s) into the installed profiler, tagged with the fused width
/// (1 for a serial baseline). A single branch when no profiler is
/// installed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FusedLinear;
    use hfta_nn::layers::LinearCfg;
    use hfta_tensor::Rng;

    #[test]
    fn record_step_feeds_installed_profiler() {
        // A live 2-wide array gives the memory snapshot a footprint.
        let mut rng = Rng::seed_from(2);
        let _model = FusedLinear::new(2, LinearCfg::new(3, 4), &mut rng);
        record_step_metrics(0, &[1.0, 2.0], 0.0, 2); // no profiler: no-op
        let p = Profiler::new("array-test");
        let _g = p.install();
        record_step_metrics(1, &[0.5, 0.25], 128.0, 2);
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
}
