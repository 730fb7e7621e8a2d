//! Pins every number the device simulator is fed: an FNV-1a digest over
//! each field of each lowered kernel and the bit patterns of the memory
//! model, for the paper workloads (serial and fused) and the planner
//! graphs, plus the bit patterns of the two plan-pricing entry points.
//!
//! The constants were taken once, before the operator IRs were merged;
//! a changed cost formula, tile rule or fusion transform shows up here
//! as a changed digest rather than only in the CI goldens.

use hfta_models::graphs::{
    discriminator_graph, discriminator_variant_graph, generator_graph, pointnet_cls_graph,
    resnet_graph,
};
use hfta_models::lower::iteration_kernels;
use hfta_models::{
    lower_graph, planned_step_time_s, serial_step_time_s, DcganCfg, PlanSimCfg, PointNetCfg,
    ResNetCfg, Workload,
};
use hfta_plan::{FusionPlan, ModelGraph};
use hfta_sim::{DeviceSpec, GpuSim, Kernel, TrainingJob};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        self.u64(v.is_some() as u64);
        self.u64(v.unwrap_or(0));
    }

    fn kernels(&mut self, kernels: &[Kernel]) {
        self.u64(kernels.len() as u64);
        for k in kernels {
            self.u64(k.flops);
            self.u64(k.bytes);
            self.u64(k.tiles);
            self.u64(k.gemm.is_some() as u64);
            for dim in k.gemm.map_or([0; 4], |g| [g.m, g.n, g.k, g.batch]) {
                self.u64(dim);
            }
            self.opt(k.pad_dim);
            self.u64(k.tc_eligible as u64);
        }
    }
}

fn job_digest(job: &TrainingJob) -> u64 {
    let mut h = Fnv::new();
    h.kernels(&job.kernels);
    h.u64(job.memory.weights_gib.to_bits());
    h.u64(job.memory.activations_gib.to_bits());
    h.u64(job.memory.workspace_gib.to_bits());
    h.u64(job.models_per_job as u64);
    h.u64(job.examples_per_iteration as u64);
    h.0
}

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn workload_jobs_are_pinned() {
    // Per workload: serial_job(), then fused_job(b) for b in WIDTHS.
    let workloads = [
        Workload::pointnet_cls(),
        Workload::pointnet_seg(),
        Workload::dcgan(),
        Workload::resnet18(),
    ];
    let got = workloads.map(|w| {
        let mut row = [job_digest(&w.serial_job()); 5];
        for (slot, b) in row[1..].iter_mut().zip(WIDTHS) {
            *slot = job_digest(&w.fused_job(b));
        }
        row
    });
    let want: [[u64; 5]; 4] = [
        [
            0xeed320783470dcf2,
            0xeed320783470dcf2,
            0x255524c38d84fdfe,
            0x8a6405cfba8cf4ec,
            0x1a1340784cd5b349,
        ],
        [
            0x9d49bef3d5fd8e62,
            0x9d49bef3d5fd8e62,
            0x0310c708ab9c4e3b,
            0xfc1169b0ca4a2c4e,
            0xb4329f98e1668605,
        ],
        [
            0x3aac42c1d133e327,
            0x3aac42c1d133e327,
            0x344717da1dffb71e,
            0xb08426c6defe6bc6,
            0x3f81026c0b72b9ec,
        ],
        [
            0x5789609bbb75bc96,
            0x5789609bbb75bc96,
            0x49121e41eeae82c3,
            0x6635c8036aebcbec,
            0x8f2d13f7a3da9d47,
        ],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn lowered_graphs_are_pinned() {
    let cfg = DcganCfg::mini();
    let graphs = [
        discriminator_graph(cfg),
        discriminator_variant_graph(cfg, 2),
        generator_graph(cfg),
        pointnet_cls_graph(PointNetCfg::mini(4), 32),
        resnet_graph(ResNetCfg::mini(10), 8),
    ];
    let got = graphs.map(|graph: ModelGraph| {
        let mut h = Fnv::new();
        h.kernels(&iteration_kernels(&lower_graph(&graph, 16).unwrap()));
        h.0
    });
    let want: [u64; 5] = [
        0x098190548c22160a,
        0x0c87abfe14402336,
        0x07d9bd82952345fd,
        0x5fc049e46c04f22d,
        0xfb18b19505160e41,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn plan_pricing_is_pinned() {
    let cfg = DcganCfg::mini();
    let graphs = vec![
        discriminator_graph(cfg),
        discriminator_variant_graph(cfg, 1),
        discriminator_graph(cfg),
        discriminator_variant_graph(cfg, 2),
    ];
    let sim = GpuSim::new(DeviceSpec::v100(), false);
    let sim_cfg = PlanSimCfg::default();
    let plan = FusionPlan::plan(&graphs).unwrap();
    let trivial = FusionPlan::serial(&graphs).unwrap();
    let got = [
        serial_step_time_s(&sim, &graphs, &sim_cfg).unwrap(),
        planned_step_time_s(&sim, &graphs, &plan, &sim_cfg).unwrap(),
        planned_step_time_s(&sim, &graphs, &trivial, &sim_cfg).unwrap(),
    ]
    .map(f64::to_bits);
    let want: [u64; 3] = [0x3fa2a05e729c926f, 0x3f8975fbc13bd009, 0x3f9f1bdfb61e8520];
    assert_eq!(got, want, "{got:#018x?}");
}
