//! Each thread owns its pool, and `stats()` still reports the process:
//! two threads running the accounting sequence at once sum to exactly
//! twice one thread's counts, and a buffer dropped on another thread is
//! debited and filed there, once.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

mod common;

use std::sync::{Arc, Barrier};
use std::thread;

use common::sequence;
use hfta_mem::{MemStats, Storage};

/// Runs the sequence on `n` threads at once and returns what each left
/// live, once every thread has exited.
fn run_on_threads(n: usize) -> Vec<Storage> {
    let start = Arc::new(Barrier::new(n));
    let workers: Vec<_> = (0..n)
        .map(|_| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                sequence()
            })
        })
        .collect();
    let held = workers.into_iter().flat_map(|w| w.join().unwrap());
    held.collect()
}

fn counts(s: &MemStats) -> Vec<(u64, u64, u64)> {
    let classes = s.classes.iter();
    classes
        .map(|c| (c.fresh_allocs, c.reuses, c.live_bytes))
        .collect()
}

#[test]
fn two_threads_sum_to_twice_one() {
    hfta_mem::reset_stats();
    let one_held = run_on_threads(1);
    let one = hfta_mem::stats();
    drop(one_held);
    hfta_mem::trim();
    hfta_mem::reset_stats();

    let held = run_on_threads(2);
    let two = hfta_mem::stats();
    assert_eq!(two.pool_fresh_allocs, 2 * one.pool_fresh_allocs);
    assert_eq!(two.pool_reuses, 2 * one.pool_reuses);
    assert_eq!(two.live_bytes, 2 * one.live_bytes);
    let twice: Vec<_> = (counts(&one).iter())
        .map(|&(f, r, l)| (2 * f, 2 * r, 2 * l))
        .collect();
    assert_eq!(counts(&two), twice, "per-class counts");
    // The exited threads freed what they cached; a high-water mark is the
    // highest one thread reached.
    assert_eq!(two.pooled_free_bytes, 0);
    assert_eq!(two.peak_live_bytes, one.peak_live_bytes);
    assert_eq!(two.peak_footprint_bytes, one.peak_footprint_bytes);

    // Dropped here, the other threads' buffers are debited and filed here,
    // once: live goes to zero and this thread's free lists hold them.
    drop(held);
    let dropped = hfta_mem::stats();
    assert_eq!(dropped.live_bytes, 0);
    assert_eq!(dropped.pooled_free_bytes, two.live_bytes);
    assert_eq!(dropped.footprint_bytes, two.live_bytes);
    let reused = Storage::zeroed(1000);
    let after = hfta_mem::stats();
    assert_eq!(after.pool_fresh_allocs, two.pool_fresh_allocs);
    assert_eq!(after.pool_reuses, two.pool_reuses + 1);
    drop(reused);
    hfta_mem::trim();
    assert_eq!(hfta_mem::stats().footprint_bytes, 0);
}
