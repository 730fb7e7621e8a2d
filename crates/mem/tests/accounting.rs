//! The pool's accounting, pinned: one thread runs a fixed sequence over
//! every size class, an oversize buffer, `from_vec` adoption, `into_vec`,
//! a scratch reservation and checkout, `trim` and `reset_stats`, and every
//! `MemStats` field must equal the values the sequence has always
//! produced.
//!
//! One test in its own binary: `hfta_mem::stats()` sums every thread's
//! counters, so no other test may allocate while it counts.

mod common;

use common::{class_digest, scalars, sequence};
use hfta_mem::{scratch, Storage};

fn check(at: &str, scalars_want: [u64; 10], digest_want: u64) {
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
    scratch::reserve("accounting", 300, 2);
    scratch::with(300, |b| b.fill(1.0));
    check(
        "after the sequence",
        [
            39, 25, 1572928, 4296539828, 0, 4096, 1, 2, 1577024, 4296539828,
        ],
        4726616874136063751,
    );
    drop(held);
    check(
        "all dropped",
        [
            39, 25, 0, 4296539828, 1572928, 4096, 1, 2, 1577024, 4296539828,
        ],
        9384998689395850690,
    );
    hfta_mem::trim();
    check(
        "trimmed",
        [39, 25, 0, 4296539828, 0, 0, 1, 2, 0, 4296539828],
        9384998689395850690,
    );
    hfta_mem::reset_stats();
    check("reset", [0; 10], 12732917108635202934);
    let after = [Storage::zeroed(1000), Storage::filled(10, 1.0)];
    drop(Storage::zeroed(900));
    scratch::with(5000, |b| b.fill(2.0));
    // A reuse longer than its buffer's last length grows the footprint
    // with no fresh allocation; the next reservation records it.
    drop(Storage::zeroed(65));
    let longer = Storage::zeroed(128);
    scratch::reserve("accounting", 5000, 1);
    drop(longer.into_vec());
    check(
        "after reset",
        [4, 1, 4040, 7640, 3600, 32768, 1, 1, 40408, 40920],
        13886487805552695353,
    );
    drop(after);
}
