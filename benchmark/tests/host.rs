//! The refusals that keep a run honest.

use hfta_benchmark::host::{check_threads, leaked_knobs, threads_mt};

#[test]
fn refuses_more_threads_than_cpus() {
    assert!(check_threads(2, 2).is_ok());
    assert!(check_threads(4, 2).is_err());
    assert!(check_threads(0, 2).is_err());
}

#[test]
fn a_one_cpu_host_gets_no_multithread_leg() {
    assert_eq!(threads_mt(1), None);
    assert_eq!(threads_mt(2), Some(2));
    assert_eq!(threads_mt(3), Some(3));
    assert_eq!(threads_mt(64), Some(4));
}

#[test]
fn leaked_knobs_are_named() {
    let vars = ["PATH", "HFTA_GEMM_BACKEND", "HOME", "HFTA_NUM_THREADS"];
    assert_eq!(
        leaked_knobs(vars.iter().map(|v| v.to_string())),
        vec!["HFTA_GEMM_BACKEND", "HFTA_NUM_THREADS"]
    );
    assert!(leaked_knobs(["PATH".to_string()].into_iter()).is_empty());
}
