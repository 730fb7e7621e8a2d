//! The size-class recycling pool and its byte-accurate accounting.
//!
//! Buffers live in power-of-two element classes starting at
//! [`MIN_CLASS_ELEMS`]; a request of `len` elements is served from the
//! smallest class that fits, and every buffer the pool hands out has
//! capacity of at least its class size, so recycled buffers always satisfy
//! later requests of the same class without reallocating.
//!
//! Accounting is always on (a handful of relaxed atomics per allocation)
//! even when recycling is disabled, so the A/B toggle changes *where* bytes
//! come from but never *whether* they are measured:
//!
//! * `live_bytes` — bytes inside live [`crate::Storage`] values (requested
//!   lengths, not capacities — byte-accurate, no class-rounding slack).
//! * `pooled_free_bytes` — bytes parked in the free lists.
//! * `footprint_bytes` — live + pooled + scratch-owned: everything this
//!   layer holds from the system allocator. Its high-water mark
//!   (`peak_footprint_bytes`) is what `bench_mem` reports as the Table-8/9
//!   style peak footprint.
//!
//! All counters are deterministic for a fixed workload: tensor storage is
//! acquired and released on the thread that owns the tensor, and scratch
//! growth is serialized under the reservation lock (see [`crate::scratch`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Element count of the smallest size class (256 B of `f32`s). Requests
/// below this still occupy a class-0 buffer so tiny per-step tensors
/// (scalar losses, biases) recycle instead of hitting the allocator.
pub const MIN_CLASS_ELEMS: usize = 64;

/// Number of power-of-two size classes: class `c` holds buffers of
/// `MIN_CLASS_ELEMS << c` elements, up to 2^30 elements (4 GiB). Larger
/// requests bypass recycling but stay accounted (the "oversize" bucket).
pub const NUM_CLASSES: usize = 25;

/// Element capacity of class `c`.
pub(crate) fn class_elems(c: usize) -> usize {
    MIN_CLASS_ELEMS << c
}

/// Smallest class whose capacity is >= `len`, or `None` for zero-length
/// and oversize requests.
pub(crate) fn class_of(len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    if len <= MIN_CLASS_ELEMS {
        return Some(0);
    }
    let c = (usize::BITS - (len - 1).leading_zeros()) as usize
        - MIN_CLASS_ELEMS.trailing_zeros() as usize;
    (c < NUM_CLASSES).then_some(c)
}

/// Largest class whose capacity is <= `cap` — the class a returning buffer
/// of that capacity can safely serve. `None` if below the smallest class.
fn floor_class_of_capacity(cap: usize) -> Option<usize> {
    if cap < MIN_CLASS_ELEMS {
        return None;
    }
    let c = (usize::BITS as usize - 1 - cap.leading_zeros() as usize)
        - MIN_CLASS_ELEMS.trailing_zeros() as usize;
    Some(c.min(NUM_CLASSES - 1))
}

/// Accounting index for a request of `len` elements: its class, or the
/// oversize bucket (`NUM_CLASSES`).
fn account_idx(len: usize) -> usize {
    class_of(len).unwrap_or(NUM_CLASSES)
}

struct ClassCounters {
    fresh: AtomicU64,
    reuses: AtomicU64,
    live_bytes: AtomicU64,
    peak_live_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const CLASS_COUNTERS_INIT: ClassCounters = ClassCounters {
    fresh: AtomicU64::new(0),
    reuses: AtomicU64::new(0),
    live_bytes: AtomicU64::new(0),
    peak_live_bytes: AtomicU64::new(0),
};

static CLASSES: [ClassCounters; NUM_CLASSES + 1] = [CLASS_COUNTERS_INIT; NUM_CLASSES + 1];

#[allow(clippy::declare_interior_mutable_const)]
const FREE_LIST_INIT: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

static FREE: [Mutex<Vec<Vec<f32>>>; NUM_CLASSES] = [FREE_LIST_INIT; NUM_CLASSES];

static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static POOLED_FREE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_FOOTPRINT_BYTES: AtomicU64 = AtomicU64::new(0);

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether the recycling pool is on (free-list reuse): yes, until
/// [`set_pool_enabled`] says otherwise. Accounting runs either way.
pub fn pool_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the pool toggle process-wide (for in-process A/B tests).
pub fn set_pool_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Updates the footprint high-water mark after any owned-bytes increase.
pub(crate) fn bump_footprint() {
    let fp = LIVE_BYTES.load(Ordering::Relaxed)
        + POOLED_FREE_BYTES.load(Ordering::Relaxed)
        + crate::scratch::owned_bytes();
    PEAK_FOOTPRINT_BYTES.fetch_max(fp, Ordering::Relaxed);
}

fn account_live_add(len: usize) {
    let bytes = (len * 4) as u64;
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    let c = &CLASSES[account_idx(len)];
    let class_live = c.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
    c.peak_live_bytes.fetch_max(class_live, Ordering::Relaxed);
}

fn account_live_sub(len: usize) {
    let bytes = (len * 4) as u64;
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    CLASSES[account_idx(len)]
        .live_bytes
        .fetch_sub(bytes, Ordering::Relaxed);
}

/// Allocates (or recycles) a buffer of exactly `len` elements, every
/// element set to `fill` — bit-identical to `vec![fill; len]`.
pub(crate) fn acquire(len: usize, fill: f32) -> Vec<f32> {
    acquire_with(len, |buf| {
        buf.clear();
        buf.resize(len, fill);
    })
}

/// Allocates (or recycles) a buffer holding a copy of `src`.
pub(crate) fn acquire_copy(src: &[f32]) -> Vec<f32> {
    acquire_with(src.len(), |buf| {
        buf.clear();
        buf.extend_from_slice(src);
    })
}

/// Allocates (or recycles) a buffer of exactly `len` elements whose values
/// are unspecified: a recycled buffer keeps what its last owner wrote
/// (only a tail beyond its old length is zeroed), a fresh one is zeroed.
/// For a pass that writes every element before anything reads one — it
/// skips the fill that pass would overwrite.
pub(crate) fn acquire_unfilled(len: usize) -> Vec<f32> {
    acquire_with(len, |buf| {
        buf.truncate(len);
        buf.resize(len, 0.0);
    })
}

/// Serves `len` elements from the pool (or the allocator) and hands the
/// buffer to `init`, which must leave it at exactly `len` elements; a
/// recycled buffer arrives holding its previous contents.
fn acquire_with(len: usize, init: impl FnOnce(&mut Vec<f32>)) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let idx = account_idx(len);
    if pool_enabled() {
        if let Some(c) = class_of(len) {
            if let Some(mut buf) = FREE[c].lock().unwrap().pop() {
                POOLED_FREE_BYTES.fetch_sub((buf.len() * 4) as u64, Ordering::Relaxed);
                init(&mut buf);
                debug_assert_eq!(buf.len(), len);
                REUSES.fetch_add(1, Ordering::Relaxed);
                CLASSES[idx].reuses.fetch_add(1, Ordering::Relaxed);
                account_live_add(len);
                return buf;
            }
            // Miss: allocate at full class capacity so the buffer serves
            // any later request of its class once recycled.
            let mut buf = Vec::with_capacity(class_elems(c));
            init(&mut buf);
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            CLASSES[idx].fresh.fetch_add(1, Ordering::Relaxed);
            account_live_add(len);
            bump_footprint();
            return buf;
        }
    }
    // Pool disabled or oversize: plain allocation, still accounted.
    let mut buf = Vec::with_capacity(len);
    init(&mut buf);
    FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
    CLASSES[idx].fresh.fetch_add(1, Ordering::Relaxed);
    account_live_add(len);
    bump_footprint();
    buf
}

/// Accounts an externally allocated `Vec` entering [`crate::Storage`]
/// ownership, normalizing its capacity up to the class size (one
/// `reserve_exact`) so it recycles cleanly later.
pub(crate) fn adopt(buf: &mut Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    if pool_enabled() {
        if let Some(c) = class_of(len) {
            let want = class_elems(c);
            if buf.capacity() < want {
                buf.reserve_exact(want - len);
            }
        }
    }
    FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
    CLASSES[account_idx(len)]
        .fresh
        .fetch_add(1, Ordering::Relaxed);
    account_live_add(len);
    bump_footprint();
}

/// Removes a buffer from live accounting without recycling it (the `Vec`
/// leaves [`crate::Storage`] ownership via `into_vec`).
pub(crate) fn disown(len: usize) {
    if len == 0 {
        return;
    }
    account_live_sub(len);
}

/// Returns a buffer to the pool (or drops it when recycling is off or the
/// capacity is below the smallest class).
pub(crate) fn release(buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    account_live_sub(len);
    if !pool_enabled() {
        return;
    }
    let Some(c) = floor_class_of_capacity(buf.capacity()) else {
        return;
    };
    POOLED_FREE_BYTES.fetch_add((len * 4) as u64, Ordering::Relaxed);
    FREE[c].lock().unwrap().push(buf);
}

/// Per-size-class accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Element capacity of the class (`0` marks the oversize bucket).
    pub elems: usize,
    /// Fresh allocations served for this class.
    pub fresh_allocs: u64,
    /// Free-list reuses served for this class.
    pub reuses: u64,
    /// Bytes currently live in this class.
    pub live_bytes: u64,
    /// High-water live bytes in this class.
    pub peak_live_bytes: u64,
}

/// Snapshot of the pool + scratch accounting counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Fresh storage allocations (pool misses, adopted `Vec`s, unpooled).
    pub pool_fresh_allocs: u64,
    /// Storage allocations served from the free lists.
    pub pool_reuses: u64,
    /// Bytes inside live `Storage` values right now.
    pub live_bytes: u64,
    /// High-water `live_bytes`.
    pub peak_live_bytes: u64,
    /// Bytes parked in the storage free lists.
    pub pooled_free_bytes: u64,
    /// Bytes owned by the scratch arenas (free or checked out).
    pub scratch_owned_bytes: u64,
    /// Scratch buffer checkouts served.
    pub scratch_checkouts: u64,
    /// Scratch allocations that hit the system allocator (reserve growth
    /// plus hot-path misses).
    pub scratch_fresh_allocs: u64,
    /// Current live + pooled + scratch bytes.
    pub footprint_bytes: u64,
    /// High-water `footprint_bytes` — the Table-8/9 peak-usage analogue.
    pub peak_footprint_bytes: u64,
    /// Per-class breakdown (last entry is the oversize bucket).
    pub classes: Vec<ClassStats>,
}

impl MemStats {
    /// Total fresh heap allocations (storage + scratch) — the counter the
    /// steady-state "zero fresh mallocs" guard asserts on.
    pub fn fresh_allocs(&self) -> u64 {
        self.pool_fresh_allocs + self.scratch_fresh_allocs
    }
}

/// Snapshots every counter.
///
/// The high-water marks are clamped so a snapshot is always internally
/// consistent (`peak >= current`): the current values are assembled from
/// several independent atomics, so under concurrent allocation they can
/// transiently exceed a peak recorded a moment earlier.
pub fn stats() -> MemStats {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let pooled = POOLED_FREE_BYTES.load(Ordering::Relaxed);
    let scratch_owned = crate::scratch::owned_bytes();
    let footprint = live + pooled + scratch_owned;
    MemStats {
        pool_fresh_allocs: FRESH_ALLOCS.load(Ordering::Relaxed),
        pool_reuses: REUSES.load(Ordering::Relaxed),
        live_bytes: live,
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed).max(live),
        pooled_free_bytes: pooled,
        scratch_owned_bytes: scratch_owned,
        scratch_checkouts: crate::scratch::checkouts(),
        scratch_fresh_allocs: crate::scratch::fresh_allocs(),
        footprint_bytes: footprint,
        peak_footprint_bytes: PEAK_FOOTPRINT_BYTES.load(Ordering::Relaxed).max(footprint),
        classes: (0..=NUM_CLASSES)
            .map(|i| ClassStats {
                elems: if i < NUM_CLASSES { class_elems(i) } else { 0 },
                fresh_allocs: CLASSES[i].fresh.load(Ordering::Relaxed),
                reuses: CLASSES[i].reuses.load(Ordering::Relaxed),
                live_bytes: CLASSES[i].live_bytes.load(Ordering::Relaxed),
                peak_live_bytes: CLASSES[i].peak_live_bytes.load(Ordering::Relaxed),
            })
            .collect(),
    }
}

/// Zeroes the event counters and re-bases the high-water marks on the
/// current state (live buffers and pool contents are untouched).
pub fn reset_stats() {
    FRESH_ALLOCS.store(0, Ordering::Relaxed);
    REUSES.store(0, Ordering::Relaxed);
    crate::scratch::reset_counters();
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    let fp = LIVE_BYTES.load(Ordering::Relaxed)
        + POOLED_FREE_BYTES.load(Ordering::Relaxed)
        + crate::scratch::owned_bytes();
    PEAK_FOOTPRINT_BYTES.store(fp, Ordering::Relaxed);
    for c in &CLASSES {
        c.fresh.store(0, Ordering::Relaxed);
        c.reuses.store(0, Ordering::Relaxed);
        c.peak_live_bytes
            .store(c.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Releases every pooled free buffer and scratch buffer back to the system
/// allocator (live storages are untouched). Used by `bench_mem` to isolate
/// per-width footprint measurements.
pub fn trim() {
    for free in &FREE {
        for buf in free.lock().unwrap().drain(..) {
            POOLED_FREE_BYTES.fetch_sub((buf.len() * 4) as u64, Ordering::Relaxed);
        }
    }
    crate::scratch::trim_scratch();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_math_round_trips() {
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(64), Some(0));
        assert_eq!(class_of(65), Some(1));
        assert_eq!(class_of(128), Some(1));
        assert_eq!(class_of(129), Some(2));
        // Every classed length fits its class; the class below would not.
        for len in [1, 63, 64, 100, 1000, 1 << 20, (1 << 20) + 1] {
            let c = class_of(len).unwrap();
            assert!(class_elems(c) >= len, "len {len} class {c}");
            if c > 0 {
                assert!(class_elems(c - 1) < len, "len {len} class {c} too big");
            }
        }
        // Oversize requests have no class.
        assert_eq!(class_of(class_elems(NUM_CLASSES - 1) + 1), None);
    }

    #[test]
    fn floor_class_fits_capacity() {
        assert_eq!(floor_class_of_capacity(63), None);
        assert_eq!(floor_class_of_capacity(64), Some(0));
        assert_eq!(floor_class_of_capacity(127), Some(0));
        assert_eq!(floor_class_of_capacity(128), Some(1));
        for cap in [64, 65, 1000, 1 << 24] {
            let c = floor_class_of_capacity(cap).unwrap();
            assert!(class_elems(c) <= cap);
        }
    }
}
