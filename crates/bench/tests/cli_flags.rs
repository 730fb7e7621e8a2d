//! Every bench binary takes only the flags it reads: one it does not read
//! is a usage error (exit 2, with the usage line), never a flag accepted
//! and then ignored. Each case fails at parse time, so no workload runs.

use std::process::Command;

#[test]
fn each_binary_rejects_a_flag_it_does_not_read() {
    let cases: [(&str, &[&str]); 7] = [
        (env!("CARGO_BIN_EXE_bench_kernels"), &["--trace", "t"]),
        (env!("CARGO_BIN_EXE_bench_plan"), &["--gate-scaling", "2.5"]),
        (
            env!("CARGO_BIN_EXE_bench_serve"),
            &["--bench-json", "b.json"],
        ),
        (
            env!("CARGO_BIN_EXE_sched_sweep"),
            &["--gate-scaling", "2.5"],
        ),
        (env!("CARGO_BIN_EXE_sched_sweep"), &["--quick"]),
        (env!("CARGO_BIN_EXE_repro_all"), &["--quick"]),
        (
            env!("CARGO_BIN_EXE_hfta_report"),
            &["health", "--quick", "d"],
        ),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let named = stderr.contains(&format!("unknown argument: {flag}"));
        assert!(named, "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}
