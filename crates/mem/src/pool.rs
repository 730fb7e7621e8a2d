//! The size-class recycling pool and its byte-accurate accounting.
//!
//! Buffers live in power-of-two element classes starting at
//! [`MIN_CLASS_ELEMS`]; a request of `len` elements is served from the
//! smallest class that fits, and every buffer the pool hands out has
//! capacity of at least its class size, so recycled buffers always satisfy
//! later requests of the same class without reallocating.
//!
//! Each thread owns its pool — its free lists and a block of counters only
//! it writes (a plain load and store; atomics only so [`stats`] can read
//! them) — so a checkout or release takes no lock and no atomic
//! read-modify-write. A buffer is filed, and its bytes debited, on the
//! thread that drops it; a thread's cached buffers are freed when it exits,
//! and its counters fold into the registry's.
//!
//! Accounting is always on, for pooled and oversize buffers alike:
//!
//! * `live_bytes` — bytes inside live [`crate::Storage`] values (requested
//!   lengths, not capacities — byte-accurate, no class-rounding slack).
//! * `pooled_free_bytes` — bytes parked in the free lists.
//! * `footprint_bytes` — live + pooled: everything this layer holds from
//!   the system allocator. Its high-water mark (`peak_footprint_bytes`) is
//!   what `bench_mem` reports as the Table-8/9 style peak footprint.
//!
//! [`stats`] sums every thread's counters. A `peak_*` figure is the highest
//! any one thread's storage reached since the last [`reset_stats`], never
//! below the current total: with one thread allocating storage — a
//! training loop, whose caller checks out its kernels' workspace and whose
//! kernel workers check out nothing — the process high-water mark,
//! deterministic for a fixed workload; with several, a lower bound on it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

/// Element count of the smallest size class (256 B of `f32`s). Requests
/// below this still occupy a class-0 buffer so tiny per-step tensors
/// (scalar losses, biases) recycle instead of hitting the allocator.
pub const MIN_CLASS_ELEMS: usize = 64;

/// Number of power-of-two size classes: class `c` holds buffers of
/// `MIN_CLASS_ELEMS << c` elements, up to 2^30 elements (4 GiB). Larger
/// requests bypass recycling but stay accounted (the "oversize" bucket).
pub const NUM_CLASSES: usize = 25;

/// Element capacity of class `c`.
fn class_elems(c: usize) -> usize {
    MIN_CLASS_ELEMS << c
}

/// Smallest class whose capacity is >= `len`, or `None` for zero-length
/// and oversize requests.
fn class_of(len: usize) -> Option<usize> {
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

/// Adds `v` to a counter only one writer writes; returns the new value.
/// A thread that drops buffers another thread allocated runs its live
/// bytes below zero, so sums wrap and high-water marks compare signed.
fn add(a: &AtomicU64, v: u64) -> u64 {
    let n = a.load(Relaxed).wrapping_add(v);
    a.store(n, Relaxed);
    n
}

fn max_signed(a: u64, b: u64) -> u64 {
    (a as i64).max(b as i64) as u64
}

fn raise(peak: &AtomicU64, v: u64) {
    peak.store(max_signed(peak.load(Relaxed), v), Relaxed);
}

/// One size class's counters (or the oversize bucket's).
#[derive(Default)]
struct ClassCounters {
    fresh: AtomicU64,
    reuses: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
}

/// One thread's counters, written only by that thread. Event counts and
/// high-water marks count from `epoch`: a block [`reset_stats`] has passed
/// reads as reset, and restarts them at its next checkout.
#[derive(Default)]
struct Counters {
    epoch: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
    pooled: AtomicU64,
    peak_footprint: AtomicU64,
    classes: [ClassCounters; NUM_CLASSES + 1],
}

/// Advanced by every [`reset_stats`], under the registry lock.
static EPOCH: AtomicU64 = AtomicU64::new(0);

impl Counters {
    fn footprint(&self) -> u64 {
        self.live
            .load(Relaxed)
            .wrapping_add(self.pooled.load(Relaxed))
    }

    /// Restarts the event counts and high-water marks if a [`reset_stats`]
    /// came since they were last written.
    fn sync(&self) {
        let epoch = EPOCH.load(Relaxed);
        if self.epoch.load(Relaxed) != epoch {
            self.peak_live.store(self.live.load(Relaxed), Relaxed);
            self.peak_footprint.store(self.footprint(), Relaxed);
            for c in &self.classes {
                c.fresh.store(0, Relaxed);
                c.reuses.store(0, Relaxed);
                c.peak_live.store(c.live.load(Relaxed), Relaxed);
            }
            self.epoch.store(epoch, Relaxed);
        }
    }

    /// A checkout of `len` elements: fresh (pool miss or adoption), or a
    /// recycled buffer filed at `recycled` elements. Either grows the
    /// footprint unless the buffer was filed at least `len` long.
    fn checkout(&self, len: usize, recycled: Option<usize>) {
        self.sync();
        let bytes = (len * 4) as u64;
        let c = &self.classes[account_idx(len)];
        if let Some(old) = recycled {
            add(&self.pooled, ((old * 4) as u64).wrapping_neg());
            add(&c.reuses, 1);
        } else {
            add(&c.fresh, 1);
        }
        raise(&c.peak_live, add(&c.live, bytes));
        raise(&self.peak_live, add(&self.live, bytes));
        if recycled.is_none_or(|old| old < len) {
            raise(&self.peak_footprint, self.footprint());
        }
    }

    /// `len` elements leave live storage, into the free lists if `filed`.
    fn release(&self, len: usize, filed: bool) {
        let bytes = (len * 4) as u64;
        add(&self.live, bytes.wrapping_neg());
        add(&self.classes[account_idx(len)].live, bytes.wrapping_neg());
        if filed {
            add(&self.pooled, bytes);
        }
    }

    /// Adds this block into the totals `s` (an exiting thread's, into the
    /// registry's `exited`).
    fn add_to(&self, s: &mut MemStats) {
        // What the block counted since the last reset, or `stale` if the
        // reset came after its last checkout.
        let current = self.epoch.load(Relaxed) == EPOCH.load(Relaxed);
        let since = |a: &AtomicU64, stale: u64| if current { a.load(Relaxed) } else { stale };
        let live = self.live.load(Relaxed);
        s.live_bytes = s.live_bytes.wrapping_add(live);
        s.pooled_free_bytes += self.pooled.load(Relaxed);
        s.peak_live_bytes = max_signed(s.peak_live_bytes, since(&self.peak_live, live));
        let footprint = since(&self.peak_footprint, self.footprint());
        s.peak_footprint_bytes = max_signed(s.peak_footprint_bytes, footprint);
        for (t, c) in s.classes.iter_mut().zip(&self.classes) {
            let live = c.live.load(Relaxed);
            t.live_bytes = t.live_bytes.wrapping_add(live);
            t.peak_live_bytes = max_signed(t.peak_live_bytes, since(&c.peak_live, live));
            t.fresh_allocs += since(&c.fresh, 0);
            t.reuses += since(&c.reuses, 0);
        }
    }
}

/// Every live thread's counters, and `exited`: what exited threads counted,
/// plus the high-water marks [`reset_stats`] re-bases.
struct Registry {
    threads: Vec<Arc<Counters>>,
    exited: MemStats,
}

static REGISTRY: LazyLock<Mutex<Registry>> = LazyLock::new(|| {
    Mutex::new(Registry {
        threads: Vec::new(),
        exited: MemStats::empty(),
    })
});

/// The registry. A panic under its lock leaves every count a plain
/// number and the thread list whole, so a poisoned lock is taken as is.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

type FreeLists = RefCell<[Vec<Vec<f32>>; NUM_CLASSES]>;

/// One thread's pool.
struct Local {
    free: FreeLists,
    counters: Arc<Counters>,
}

thread_local! {
    static LOCAL: Local = {
        let counters = Arc::<Counters>::default();
        registry().threads.push(Arc::clone(&counters));
        Local {
            free: RefCell::new([const { Vec::new() }; NUM_CLASSES]),
            counters,
        }
    };
}

/// Frees every buffer in `free`, debiting `counters`.
fn drain(free: &FreeLists, counters: &Counters) {
    for buf in free.borrow_mut().iter_mut().flat_map(|list| list.drain(..)) {
        add(&counters.pooled, ((buf.len() * 4) as u64).wrapping_neg());
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        drain(&self.free, &self.counters);
        // Read under the lock, so no reset_stats falls between the read
        // and the fold.
        let mut reg = registry();
        self.counters.add_to(&mut reg.exited);
        reg.threads.retain(|c| !Arc::ptr_eq(c, &self.counters));
    }
}

/// Runs `f` on this thread's free lists and counters — or, on a thread
/// whose pool is already gone (a storage dropped by a later thread-local
/// destructor), on no free lists and counters folded into `exited`.
fn with_pool<R>(f: impl FnOnce(Option<&FreeLists>, &Counters) -> R) -> R {
    let mut f = Some(f);
    LOCAL
        .try_with(|l| f.take().expect("the pool runs f once")(Some(&l.free), &l.counters))
        .unwrap_or_else(|_| {
            let (mut reg, orphan) = (registry(), Counters::default());
            orphan.epoch.store(EPOCH.load(Relaxed), Relaxed);
            let r = f.take().expect("the pool runs f once")(None, &orphan);
            orphan.add_to(&mut reg.exited);
            r
        })
}

/// Whether the recycling pool is on: always `true`, there is no switch.
/// Kept, like `hfta_kernels::tune::enabled`, only because the
/// out-of-workspace `benchmark/` host record reads it.
pub fn pool_enabled() -> bool {
    true
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
    let class = class_of(len);
    let recycled = with_pool(|free, counters| {
        let buf = free
            .zip(class)
            .and_then(|(free, c)| free.borrow_mut()[c].pop());
        counters.checkout(len, buf.as_ref().map(Vec::len));
        buf
    });
    // Miss: allocate at full class capacity so the buffer serves any later
    // request of its class once recycled; an oversize request gets exactly
    // `len`, still accounted.
    let mut buf = recycled.unwrap_or_else(|| Vec::with_capacity(class.map_or(len, class_elems)));
    init(&mut buf);
    debug_assert_eq!(buf.len(), len);
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
    if let Some(c) = class_of(len) {
        let want = class_elems(c);
        if buf.capacity() < want {
            buf.reserve_exact(want - len);
        }
    }
    with_pool(|_, counters| counters.checkout(len, None));
}

/// Removes a buffer from live accounting without recycling it (the `Vec`
/// leaves [`crate::Storage`] ownership via `into_vec`).
pub(crate) fn disown(len: usize) {
    if len > 0 {
        with_pool(|_, counters| counters.release(len, false));
    }
}

/// Returns a buffer to this thread's pool (or drops it when its capacity
/// is below the smallest class).
pub(crate) fn release(buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    with_pool(|free, counters| {
        let class = floor_class_of_capacity(buf.capacity()).filter(|_| free.is_some());
        counters.release(len, class.is_some());
        if let (Some(free), Some(c)) = (free, class) {
            free.borrow_mut()[c].push(buf);
        }
    });
}

/// Per-size-class accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Snapshot of the pool's accounting counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Fresh storage allocations (pool misses, adopted `Vec`s, oversize).
    pub pool_fresh_allocs: u64,
    /// Storage allocations served from the free lists.
    pub pool_reuses: u64,
    /// Bytes inside live `Storage` values right now.
    pub live_bytes: u64,
    /// High-water `live_bytes`.
    pub peak_live_bytes: u64,
    /// Bytes parked in the storage free lists.
    pub pooled_free_bytes: u64,
    /// Current live + pooled bytes.
    pub footprint_bytes: u64,
    /// High-water `footprint_bytes` — the Table-8/9 peak-usage analogue.
    pub peak_footprint_bytes: u64,
    /// Per-class breakdown (last entry is the oversize bucket).
    pub classes: Vec<ClassStats>,
}

impl MemStats {
    /// Fresh heap allocations — `pool_fresh_allocs`, the counter the
    /// steady-state "zero fresh mallocs" guard asserts on. Kept because the
    /// out-of-workspace `benchmark/` reads it.
    pub fn fresh_allocs(&self) -> u64 {
        self.pool_fresh_allocs
    }

    fn empty() -> Self {
        let elems = |i| if i < NUM_CLASSES { class_elems(i) } else { 0 };
        MemStats {
            classes: (0..=NUM_CLASSES)
                .map(|i| ClassStats {
                    elems: elems(i),
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }
}

/// The process totals: every thread's block added to `exited`, each
/// high-water mark at least its current value.
fn totals(reg: &Registry) -> MemStats {
    let mut s = reg.exited.clone();
    for counters in &reg.threads {
        counters.add_to(&mut s);
    }
    s.pool_fresh_allocs = s.classes.iter().map(|c| c.fresh_allocs).sum();
    s.pool_reuses = s.classes.iter().map(|c| c.reuses).sum();
    s.footprint_bytes = s.live_bytes + s.pooled_free_bytes;
    s.peak_live_bytes = s.peak_live_bytes.max(s.live_bytes);
    s.peak_footprint_bytes = s.peak_footprint_bytes.max(s.footprint_bytes);
    for c in &mut s.classes {
        c.peak_live_bytes = c.peak_live_bytes.max(c.live_bytes);
    }
    s
}

/// Snapshots every counter, summed over all threads (see the module docs
/// for what the high-water marks mean when several threads allocate).
pub fn stats() -> MemStats {
    totals(&registry())
}

/// Zeroes the event counters and re-bases the high-water marks on the
/// current state (live buffers and pool contents are untouched).
pub fn reset_stats() {
    let mut reg = registry();
    let now = totals(&reg);
    let exited = &mut reg.exited;
    for (c, t) in exited.classes.iter_mut().zip(&now.classes) {
        (c.fresh_allocs, c.reuses, c.peak_live_bytes) = (0, 0, t.live_bytes);
    }
    exited.peak_live_bytes = now.live_bytes;
    exited.peak_footprint_bytes = now.footprint_bytes;
    add(&EPOCH, 1);
}

/// Frees the calling thread's pooled buffers (live storages are untouched;
/// other threads' pooled buffers are freed when those threads exit). Used
/// by `bench_mem` to isolate per-width footprint measurements.
pub fn trim() {
    with_pool(|free, counters| free.map(|free| drain(free, counters)));
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
