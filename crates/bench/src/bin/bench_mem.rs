//! Memory-footprint benchmark harness with machine-readable output.
//!
//! Reproduces the shape of the paper's Table 8/9: for each model family
//! and fused width B, the peak accounted bytes of one fused training
//! session vs the B× serial baseline, plus the steady-state allocation
//! gate (zero fresh mallocs per step after warm-up).
//!
//! Usage:
//!
//! ```text
//! bench_mem [--quick] [--bench-json <path>]   # default BENCH_mem.json
//! ```
//!
//! Exits non-zero if any fused width fails to beat the serial baseline or
//! any steady-state step allocates fresh memory — the acceptance gate for
//! the memory layer.

use hfta_bench::cli::CommonArgs;
use hfta_bench::mem;
use hfta_kernels::set_num_threads;

const USAGE: &str = "bench_mem [--quick] [--bench-json <path>]";

fn main() {
    let args = CommonArgs::parse(USAGE);
    args.expect_no_rest(USAGE);
    let quick = args.quick;
    let json_path = args
        .bench_json
        .unwrap_or_else(|| "BENCH_mem.json".to_string());

    // Pin the worker count so footprints are comparable across runs
    // (scratch arenas are per-worker, so it is part of the footprint).
    set_num_threads(4);

    let (widths, warm, measured): (&[usize], usize, usize) = if quick {
        (&[1, 4], 2, 2)
    } else {
        (&[1, 2, 4, 6], 3, 3)
    };
    let report = mem::run(widths, warm, measured);

    println!(
        "{:<14} {:>2} {:>14} {:>14} {:>8} {:>12} {:>10}",
        "model", "B", "fused_peak_B", "serial_peak_B", "savings", "fresh_steady", "reuses"
    );
    for r in &report.records {
        println!(
            "{:<14} {:>2} {:>14} {:>14} {:>7.3}x {:>12} {:>10}",
            r.model,
            r.b,
            r.peak_bytes,
            r.serial_peak_bytes,
            r.savings_ratio,
            r.steady_fresh_allocs,
            r.steady_pool_reuses
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&json_path, json + "\n").expect("write bench json");
    println!("wrote {json_path}");

    let violations = mem::violations(&report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("GATE FAILED: {v}");
        }
        std::process::exit(1);
    }
}
