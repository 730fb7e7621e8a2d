//! The pool's accounting, pinned: one thread runs a fixed sequence over
//! every size class, an oversize buffer, `from_vec` adoption, `into_vec`,
//! `trim` and `reset_stats`, and every `MemStats` field must equal the
//! values the sequence has always produced.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

mod common;

use common::{class_digest, scalars, sequence};
use hfta_mem::Storage;

fn check(at: &str, scalars_want: [u64; 7], digest_want: u64) {
    let s = hfta_mem::stats();
    assert_eq!(scalars(&s), scalars_want, "{at}: scalar fields");
    assert_eq!(
        class_digest(&s),
        digest_want,
        "{at}: per-class fields {:?}",
        s.classes
    );
}

#[test]
fn fixed_sequence_reads_pinned_stats() {
    let held = sequence();
    check(
        "after the sequence",
        [39, 25, 1572928, 4296539828, 0, 1572928, 4296539828],
        4726616874136063751,
    );
    drop(held);
    check(
        "all dropped",
        [39, 25, 0, 4296539828, 1572928, 1572928, 4296539828],
        9384998689395850690,
    );
    hfta_mem::trim();
    check(
        "trimmed",
        [39, 25, 0, 4296539828, 0, 0, 4296539828],
        9384998689395850690,
    );
    hfta_mem::reset_stats();
    check("reset", [0; 7], 12732917108635202934);
    let after = [Storage::zeroed(1000), Storage::filled(10, 1.0)];
    drop(Storage::zeroed(900));
    // A reuse longer than its buffer's last length grows the footprint
    // with no fresh allocation, and raises its high-water mark.
    drop(Storage::zeroed(65));
    let longer = Storage::zeroed(128);
    drop(longer.into_vec());
    check(
        "after reset",
        [4, 1, 4040, 7640, 3600, 7640, 8152],
        13886487805552695353,
    );
    drop(after);
}
