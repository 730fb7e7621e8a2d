//! The fixed storage sequence the accounting tests run, and a compact
//! view of a [`MemStats`] snapshot to compare.

// Each test binary uses only part of this module.
#![allow(dead_code)]

use hfta_mem::pool::{MIN_CLASS_ELEMS, NUM_CLASSES};
use hfta_mem::{MemStats, Storage};

/// Classes below this are filled for real; above it every buffer is an
/// adopted `vec![0.0; n]` (zeroed by the allocator, its pages never
/// touched) so the sequence reaches the 4 GiB class without using 4 GiB.
const TOUCHED_CLASSES: usize = 12;

/// Every size class through each way into and out of the pool: a fresh
/// checkout or an adopted `Vec`, a reuse from the free list, a release
/// back to it and an `into_vec` that leaves the accounted world; then an
/// oversize buffer, which is accounted but never classed. Returns the
/// buffers it leaves live.
pub fn sequence() -> Vec<Storage> {
    let mut held = Vec::new();
    for c in 0..NUM_CLASSES {
        let elems = MIN_CLASS_ELEMS << c;
        if c < TOUCHED_CLASSES {
            drop(Storage::filled(elems - 1, 1.5));
            held.push(Storage::zeroed(elems / 2 + 1));
            held.push(Storage::copy_of(&vec![2.5; elems]));
        } else {
            drop(Storage::from_vec(vec![0.0; elems]));
            drop(Storage::unfilled(elems).into_vec());
        }
    }
    let oversize = MIN_CLASS_ELEMS << (NUM_CLASSES - 1);
    drop(Storage::from_vec(vec![0.0; oversize + 1]).into_vec());
    // An adopted `Vec` below its class capacity is topped up to it.
    held.push(Storage::from_vec(vec![3.0; 100]));
    held.push(Storage::unfilled(0));
    held
}

/// Every scalar field of `s`, in declaration order.
pub fn scalars(s: &MemStats) -> [u64; 10] {
    [
        s.pool_fresh_allocs,
        s.pool_reuses,
        s.live_bytes,
        s.peak_live_bytes,
        s.pooled_free_bytes,
        s.scratch_owned_bytes,
        s.scratch_checkouts,
        s.scratch_fresh_allocs,
        s.footprint_bytes,
        s.peak_footprint_bytes,
    ]
}

/// FNV-1a over every per-class field, oversize bucket included.
pub fn class_digest(s: &MemStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in &s.classes {
        for v in [
            c.elems as u64,
            c.fresh_allocs,
            c.reuses,
            c.live_bytes,
            c.peak_live_bytes,
        ] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}
