//! The memory bench's own gates on a quick report. The zero-fresh-alloc
//! gate reads `hfta-mem`'s process-global pool counters, so this test must
//! own its process: it is the only test in this binary, where nothing else
//! allocates pooled buffers concurrently.

use hfta_bench::mem::{run, violations};

#[test]
fn quick_report_passes_its_own_gates() {
    hfta_mem::set_pool_enabled(true);
    let report = run(&[1, 2], 2, 2);
    assert_eq!(report.records.len(), 4);
    let v = violations(&report);
    assert!(v.is_empty(), "gate violations: {v:?}");
    for r in &report.records {
        assert!(r.peak_bytes > 0);
        if r.b == 1 {
            assert_eq!(r.peak_bytes, r.serial_peak_bytes);
        }
    }
}
