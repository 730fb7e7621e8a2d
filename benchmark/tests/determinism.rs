//! `--seed` is the only source of variation: the same seed gives the same
//! loss digest and the same exact counts, another seed another digest.
//!
//! One test function, so nothing else in this process touches the
//! program's global counters (memory pool, worker pool) while it runs.

use std::collections::BTreeMap;

use hfta_benchmark::host::HostRecord;
use hfta_benchmark::runner::{run, RunCfg};
use hfta_benchmark::workloads;

/// Per-layer metrics that are counts or bit patterns, not times.
const EXACT: [&str; 15] = [
    "core.loss_digest",
    "nn.tape_nodes_per_step",
    "mem.fresh_allocs_per_step",
    "mem.pool_reuses_per_step",
    "mem.peak_bytes_per_lane",
    "kernels.pool_dispatches_per_step",
    "plan.fused_fraction",
    "plan.blocks",
    "sched.repacks",
    "sched.lanes_moved",
    "serve.preemptions",
    "serve.checkpoints",
    "serve.restores",
    "serve.queue_wait_p99_us",
    "serve.sim_makespan_s",
];

fn traced(workload: &str, seed: u64) -> BTreeMap<&'static str, f64> {
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}", std::process::id()));
    let cfg = RunCfg {
        seed,
        seconds: 0.5,
        trace: true,
        quick: true,
        out_dir: out_dir.clone(),
    };
    let host = HostRecord::probe().expect("no HFTA_* knobs in the test environment");
    let mut bench = workloads::build(workload, seed, &out_dir).unwrap();
    let record = run(bench.as_mut(), &cfg, &host).unwrap();
    drop(bench);
    hfta_mem::trim();
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(record.failed, 0, "{workload}: {:?}", record.notes);
    assert!(record.attempted > 0);
    record.metrics.iter().map(|m| (m.name, m.value)).collect()
}

#[test]
fn seed_is_the_only_source_of_variation() {
    for workload in ["pointnet_overhead", "mixed_plan", "asha_service"] {
        let (a, b, other) = (
            traced(workload, 7),
            traced(workload, 7),
            traced(workload, 8),
        );
        for name in EXACT {
            assert_eq!(a[name], b[name], "{workload}: {name} differs for one seed");
        }
        assert_ne!(
            a["core.loss_digest"], other["core.loss_digest"],
            "{workload}: another seed must give another digest"
        );
        assert_ne!(a["core.loss_digest"], 0.0);
    }
}
