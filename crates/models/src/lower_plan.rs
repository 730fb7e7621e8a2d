//! Pricing `hfta-plan` graphs and fusion plans on the device model.
//!
//! A [`ModelGraph`] at a batch size *is* a trace — its
//! [`ModelGraph::shaped`] ops, minus the zero-cost ones — so
//! [`lower_graph`] is all it takes to hand a planner-facing graph to
//! [`crate::lower`]; this module adds the block-by-block pricing of a
//! whole [`FusionPlan`], so a partially fused schedule can be priced on
//! the device model the paper's evaluation uses.
//!
//! The cost of a planned step is the sum of its blocks run back-to-back
//! on one device: a fused block of width `k` is one `k`-wide HFTA job
//! (per-kernel dispatch gap paid once per *fused* kernel), a serial block
//! is a width-1 job. The host data pipeline is shared across the array
//! (the hyper-parameter-tuning use case), so the planned step charges
//! `host_us` once — while the serial baseline pays it per lane, one full
//! per-model job after another.
//!
//! A block is widened at kernel level by [`hfta_sim::fuse_job`], not by
//! [`ShapedOp::fused`]: the two transforms price a fused GEMM's tiles and
//! padding differently and each is pinned by its own goldens.

use hfta_plan::{FusionPlan, ModelGraph, OpKind, PlanError, ShapedOp};
use hfta_sim::{fuse_job, GpuSim, SharingPolicy, TrainingJob};

use crate::lower::build_job;

/// Simulation parameters for pricing a plan: per-model minibatch plus the
/// host/framework constants of [`crate::Workload`] (the defaults are the
/// DCGAN-style tuning workload: modest host pipeline, eager-mode
/// per-kernel gap that fusion amortizes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSimCfg {
    /// Per-model minibatch size.
    pub batch: usize,
    /// Host-side per-iteration time, µs (charged once per planned step —
    /// the array shares one input pipeline — and once per lane serially).
    pub host_us: f64,
    /// Per-kernel framework/driver gap, µs (see
    /// [`TrainingJob::sync_us_per_kernel`]).
    pub sync_us: f64,
    /// Fraction of the gap that is per-process CPU work (see
    /// [`TrainingJob::cpu_gap_fraction`]).
    pub cpu_gap: f64,
}

impl Default for PlanSimCfg {
    fn default() -> Self {
        PlanSimCfg {
            batch: 64,
            host_us: 2_000.0,
            sync_us: 250.0,
            cpu_gap: 0.5,
        }
    }
}

/// The ops of `ops` that lower to a kernel: all but `Flatten`, a view.
fn kernel_ops(ops: &[ShapedOp]) -> Vec<ShapedOp> {
    ops.iter()
        .filter(|s| s.op().kind != OpKind::Flatten)
        .cloned()
        .collect()
}

/// Lowers a graph's whole program to a per-model simulator trace.
///
/// # Errors
///
/// Propagates the graph's shape-check failure.
pub fn lower_graph(graph: &ModelGraph, batch: usize) -> Result<Vec<ShapedOp>, PlanError> {
    Ok(kernel_ops(&graph.shaped(batch)?))
}

/// Simulated seconds for one step of the all-serial baseline: each lane's
/// full per-model job, one after another on `sim`'s device, each paying
/// its own host pipeline.
///
/// # Errors
///
/// Propagates a lane's shape-check failure.
pub fn serial_step_time_s(
    sim: &GpuSim,
    graphs: &[ModelGraph],
    cfg: &PlanSimCfg,
) -> Result<f64, PlanError> {
    let mut total_us = 0.0;
    for g in graphs {
        let job = lane_job(g, cfg)?;
        total_us += sim.simulate(SharingPolicy::Serial, &job, 1).round_us;
    }
    Ok(total_us * 1e-6)
}

/// Simulated seconds for one step of `plan` over `graphs`: blocks run
/// back-to-back, fused blocks as width-`k` HFTA jobs, plus one shared
/// host-pipeline charge.
///
/// # Errors
///
/// Propagates a lane's shape-check failure.
pub fn planned_step_time_s(
    sim: &GpuSim,
    graphs: &[ModelGraph],
    plan: &FusionPlan,
    cfg: &PlanSimCfg,
) -> Result<f64, PlanError> {
    let lanes = graphs
        .iter()
        .map(|g| g.shaped(cfg.batch))
        .collect::<Result<Vec<_>, _>>()?;
    let mut total_us = cfg.host_us;
    for (bi, block) in plan.blocks.iter().enumerate() {
        let start = block.starts[0];
        let trace = kernel_ops(&lanes[block.lanes[0]][start..start + block.ops.len()]);
        if trace.is_empty() {
            continue;
        }
        let job = build_job(
            format!("block{bi}"),
            &trace,
            1,
            cfg.batch,
            0.0,
            cfg.sync_us,
            cfg.cpu_gap,
        );
        let fused = fuse_job(&job, block.width());
        total_us += sim.simulate(SharingPolicy::Hfta, &fused, 1).round_us;
    }
    Ok(total_us * 1e-6)
}

pub(crate) fn lane_job(graph: &ModelGraph, cfg: &PlanSimCfg) -> Result<TrainingJob, PlanError> {
    Ok(build_job(
        graph.name.clone(),
        &lower_graph(graph, cfg.batch)?,
        1,
        cfg.batch,
        cfg.host_us,
        cfg.sync_us,
        cfg.cpu_gap,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{discriminator_graph, discriminator_variant_graph};
    use crate::DcganCfg;
    use hfta_sim::DeviceSpec;

    fn sweep() -> Vec<ModelGraph> {
        let cfg = DcganCfg::mini();
        vec![
            discriminator_graph(cfg),
            discriminator_variant_graph(cfg, 1),
            discriminator_graph(cfg),
            discriminator_variant_graph(cfg, 2),
        ]
    }

    #[test]
    fn lowering_skips_flatten_and_keeps_gemm_shapes() {
        let g = discriminator_graph(DcganCfg::mini());
        let trace = lower_graph(&g, 16).unwrap();
        let flat_ops = g.ops.iter().filter(|o| o.kind == OpKind::Flatten).count();
        assert_eq!(trace.len(), g.ops.len() - flat_ops);
        assert!(trace.iter().all(|t| t.op().kind != OpKind::Flatten));
        let stride2 = trace.iter().find(|t| t.op().stride == 2).unwrap();
        assert_eq!(stride2.gemm(), Some([16 * 8 * 8, 8, 3 * 16, 1]));
    }

    #[test]
    fn partial_fusion_beats_the_serial_baseline_on_the_device_model() {
        let graphs = sweep();
        let plan = FusionPlan::plan(&graphs).unwrap();
        assert!(plan.fused_fraction() > 0.0 && plan.fused_fraction() < 1.0);
        let sim = GpuSim::new(DeviceSpec::v100(), false);
        let cfg = PlanSimCfg::default();
        let serial = serial_step_time_s(&sim, &graphs, &cfg).unwrap();
        let planned = planned_step_time_s(&sim, &graphs, &plan, &cfg).unwrap();
        assert!(
            planned < serial,
            "planned {planned}s not below serial {serial}s"
        );
        // And the all-serial plan prices above the planner's plan: fusing
        // is what saves, not the block decomposition itself.
        let trivial = FusionPlan::serial(&graphs).unwrap();
        let trivial_t = planned_step_time_s(&sim, &graphs, &trivial, &cfg).unwrap();
        assert!(planned < trivial_t);
    }

    #[test]
    fn pricing_is_deterministic() {
        let graphs = sweep();
        let plan = FusionPlan::plan(&graphs).unwrap();
        let sim = GpuSim::new(DeviceSpec::v100(), false);
        let cfg = PlanSimCfg::default();
        let a = planned_step_time_s(&sim, &graphs, &plan, &cfg).unwrap();
        let b = planned_step_time_s(&sim, &graphs, &plan, &cfg).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
