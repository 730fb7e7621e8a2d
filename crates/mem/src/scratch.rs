//! Step-scoped scratch arenas for kernel workspace.
//!
//! Kernels that need per-chunk working buffers (GEMM packing panels, the
//! scatter sink's row strip, the direct paths' dense copy of a
//! table-addressed operand) check them out with [`with`], which hands the
//! buffer over unfilled — every caller writes a cell before it reads it —
//! runs the closure, and parks the buffer again. The free lists are shared across
//! threads, so a handful of buffers serve the whole worker pool forever.
//!
//! # Deterministic zero-miss steady state
//!
//! Call sites declare their worst-case concurrent demand with [`reserve`]
//! *before* fanning out: `reserve(tag, len, count)` records a per-(class,
//! tag) target and grows the arena (under one lock, so the growth is
//! serialized and its byte count deterministic) until the class owns the
//! *sum* of its tags' targets. Distinct tags may hold buffers of the same
//! class simultaneously (a GEMM's packed `B` plus the `A` panel of each
//! of its tile chunks), which is why targets sum across tags rather than
//! max. After the first step every checkout hits, so `fresh_allocs`
//! stays flat — the property the steady-state allocation guard asserts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::pool::{self, class_elems, class_of, NUM_CLASSES};

#[allow(clippy::declare_interior_mutable_const)]
const FREE_LIST_INIT: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

static FREE: [Mutex<Vec<Vec<f32>>>; NUM_CLASSES] = [FREE_LIST_INIT; NUM_CLASSES];

#[allow(clippy::declare_interior_mutable_const)]
const COUNT_INIT: AtomicU64 = AtomicU64::new(0);

/// Buffers ever created per class (free or checked out).
static OWNED_COUNT: [AtomicU64; NUM_CLASSES] = [COUNT_INIT; NUM_CLASSES];
static OWNED_BYTES: AtomicU64 = AtomicU64::new(0);
static CHECKOUTS: AtomicU64 = AtomicU64::new(0);
static FRESH: AtomicU64 = AtomicU64::new(0);

/// Reservation targets: (class, tag) -> worst-case concurrent buffers.
static TARGETS: Mutex<Option<HashMap<(usize, &'static str), u64>>> = Mutex::new(None);

/// Bytes the scratch arenas hold from the system allocator (class
/// capacities — scratch buffers are always full-class-sized).
pub(crate) fn owned_bytes() -> u64 {
    OWNED_BYTES.load(Ordering::Relaxed)
}

pub(crate) fn checkouts() -> u64 {
    CHECKOUTS.load(Ordering::Relaxed)
}

pub(crate) fn fresh_allocs() -> u64 {
    FRESH.load(Ordering::Relaxed)
}

pub(crate) fn reset_counters() {
    CHECKOUTS.store(0, Ordering::Relaxed);
    FRESH.store(0, Ordering::Relaxed);
}

/// A class buffer, full class length from its creation (the bytes its
/// class accounts), so a checkout never fills it.
fn new_class_buffer(c: usize) -> Vec<f32> {
    let buf = vec![0.0; class_elems(c)];
    OWNED_COUNT[c].fetch_add(1, Ordering::Relaxed);
    OWNED_BYTES.fetch_add((class_elems(c) * 4) as u64, Ordering::Relaxed);
    FRESH.fetch_add(1, Ordering::Relaxed);
    buf
}

/// Declares that up to `count` buffers of `len` elements may be checked
/// out concurrently by call site `tag`, and grows the arena to the sum of
/// all tags' targets for that class. Idempotent; a no-op when the request
/// is oversize.
pub fn reserve(tag: &'static str, len: usize, count: usize) {
    if count == 0 {
        return;
    }
    let Some(c) = class_of(len) else {
        return;
    };
    let mut guard = TARGETS.lock().unwrap();
    let targets = guard.get_or_insert_with(HashMap::new);
    let entry = targets.entry((c, tag)).or_insert(0);
    *entry = (*entry).max(count as u64);
    let class_target: u64 = targets
        .iter()
        .filter(|((cls, _), _)| *cls == c)
        .map(|(_, n)| *n)
        .sum();
    // Growth stays under the TARGETS lock so concurrent reservations (e.g.
    // nested GEMMs racing on their first dispatch) produce a deterministic
    // owned count and byte total.
    while OWNED_COUNT[c].load(Ordering::Relaxed) < class_target {
        let buf = new_class_buffer(c);
        FREE[c].lock().unwrap().push(buf);
    }
    drop(guard);
    pool::bump_footprint();
}

/// Checks out a scratch buffer of `len` elements, runs `f`, and returns the
/// buffer to the arena. Its values are unspecified (what the last checkout
/// left): `f` must write every cell it reads. Debug builds hand it over
/// NaN-filled, so a read before a write shows in every bit-identity test.
/// Falls back to a plain allocation when the request is oversize.
pub fn with<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if len == 0 {
        return f(&mut []);
    }
    let Some(c) = class_of(len) else {
        FRESH.fetch_add(1, Ordering::Relaxed);
        return f(unfilled(&mut vec![0.0f32; len]));
    };
    let popped = FREE[c].lock().unwrap().pop();
    let mut buf = match popped {
        Some(buf) => buf,
        None => {
            // Miss: a call site under-reserved (or skipped reserve). Grow
            // the arena — correctness first — and let the fresh counter
            // expose the gap to the steady-state guard.
            let buf = new_class_buffer(c);
            pool::bump_footprint();
            buf
        }
    };
    CHECKOUTS.fetch_add(1, Ordering::Relaxed);
    let r = f(unfilled(&mut buf[..len]));
    FREE[c].lock().unwrap().push(buf);
    r
}

/// `buf` as [`with`] hands it over: NaN in debug builds, as it is otherwise.
fn unfilled(buf: &mut [f32]) -> &mut [f32] {
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    buf
}

/// Drops every parked scratch buffer and forgets all reservation targets.
pub(crate) fn trim_scratch() {
    let mut guard = TARGETS.lock().unwrap();
    if let Some(targets) = guard.as_mut() {
        targets.clear();
    }
    for (c, free) in FREE.iter().enumerate() {
        let mut list = free.lock().unwrap();
        let n = list.len() as u64;
        list.clear();
        OWNED_COUNT[c].fetch_sub(n, Ordering::Relaxed);
        OWNED_BYTES.fetch_sub(n * (class_elems(c) * 4) as u64, Ordering::Relaxed);
    }
}
