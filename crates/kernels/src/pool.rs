//! Persistent worker pool with deterministic chunk decomposition.
//!
//! The pool is lazily initialized on first dispatch and its threads live for
//! the rest of the process — no per-call `std::thread::scope` spawn cost.
//! Thread count comes from `HFTA_NUM_THREADS` (env, read once) or
//! [`set_num_threads`]; the default is `std::thread::available_parallelism`.
//!
//! # Determinism contract
//!
//! Work is split into chunks whose boundaries depend **only** on the problem
//! size and the caller-chosen grain — never on the thread count. Chunks are
//! claimed dynamically, but every chunk computes a disjoint region of the
//! output with a fixed sequential loop order, so the result is bit-identical
//! at any thread count (including 1). Callers must uphold their half of the
//! contract: a chunk may only write its own region and may not split one
//! floating-point reduction across chunks.
//!
//! Nested dispatch from inside a worker (or from the submitting thread while
//! it participates) runs inline and serial, so kernels freely compose —
//! e.g. a batched GEMM whose per-entry GEMMs are themselves potentially
//! parallel.
//!
//! # Panics
//!
//! A panic inside the chunk closure cancels the job's unclaimed chunks and
//! propagates from [`parallel_for`] on the submitting thread — the
//! submitter's own payload when it hit the panic, otherwise a fresh panic
//! reporting the worker failure. The submitter always waits for every
//! in-flight chunk to finish before unwinding, so the closure (and the
//! buffers it borrows) stays alive for as long as any worker can touch it,
//! and the pool remains usable for subsequent dispatches.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Upper bound on pool threads; keeps a typo'd env var from spawning
/// thousands of workers.
pub const MAX_THREADS: usize = 64;

/// Below this much total work (FLOPs for compute kernels, elements for
/// elementwise fills) a dispatch through [`parallel_for_work`] runs inline
/// on the caller: waking condvar-parked workers costs on the order of
/// microseconds, which tiny ops can never win back. The threshold is a
/// pure constant — never a function of the thread count — so the inline
/// decision, like the chunk decomposition, is identical on any pool size.
pub const MIN_POOL_WORK: usize = 1 << 16;

/// Configured thread count. 0 = not yet resolved from env/default.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Jobs actually handed to the worker pool (inline runs excluded). The
/// small-op regression guard in `benches/telemetry_overhead.rs` asserts
/// this stays flat across a loop of tiny tensor ops.
static DISPATCHES: AtomicUsize = AtomicUsize::new(0);

/// Number of jobs ever dispatched to pool workers (inline fast-path runs
/// do not count). Monotonic; useful for asserting that small operations
/// never wake the pool.
pub fn pool_dispatches() -> u64 {
    DISPATCHES.load(Ordering::Relaxed) as u64
}

thread_local! {
    /// True on pool workers and on a submitting thread while it participates
    /// in a dispatch; nested `parallel_for` calls then run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn resolve_default_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let n = match std::env::var("HFTA_NUM_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(fallback),
        Err(_) => fallback(),
    };
    n.clamp(1, MAX_THREADS)
}

/// Worker threads used by [`parallel_for`] (including the submitting
/// thread). Resolved once from `HFTA_NUM_THREADS` or the machine's available
/// parallelism; override with [`set_num_threads`].
pub fn num_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = resolve_default_threads();
            // Racing first calls resolve to the same value, so either store
            // wins harmlessly.
            let _ = THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
            THREADS.load(Ordering::Relaxed)
        }
        n => n,
    }
}

/// Overrides the pool thread count (clamped to `1..=MAX_THREADS`).
///
/// Lowering the count after workers have spawned leaves the extra workers
/// parked: each dispatch records how many workers it runs on, and a worker
/// spawned past that count sits it out, so a dispatch never runs on more
/// threads than the count it was submitted at.
pub fn set_num_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Whether the current thread is a pool worker (or a participating
/// submitter). Exposed so kernels can pick serial code paths cheaply.
pub fn in_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

type Task = dyn Fn(usize) + Sync;

struct Job {
    /// Lifetime-erased pointer to the submitting stack frame's closure; the
    /// submitter blocks until `remaining == 0`, so it outlives all uses.
    task: *const Task,
    n_chunks: usize,
    /// Workers that claim chunks: those spawned below this index.
    workers: usize,
}

// SAFETY: the raw pointer is only dereferenced while the submitting frame is
// alive (enforced by the completion wait) and the pointee is `Sync`.
unsafe impl Send for Job {}

struct State {
    job: Option<Job>,
    generation: u64,
    next_chunk: usize,
    remaining: usize,
    /// Set when any chunk of the current job panicked; read by the submitter
    /// after completion, reset on the next submit.
    panicked: bool,
}

/// Post-chunk bookkeeping shared by workers and the participating submitter:
/// decrements `remaining`, cancels the job's unclaimed chunks if the chunk
/// panicked, and signals completion when the last in-flight chunk retires.
fn finish_chunk<'a>(
    pool: &'a Pool,
    mut guard: MutexGuard<'a, State>,
    n_chunks: usize,
    chunk_panicked: bool,
) -> MutexGuard<'a, State> {
    guard.remaining -= 1;
    if chunk_panicked {
        guard.panicked = true;
        // Drop the chunks nobody has claimed yet so the job can drain; the
        // ones already in flight still retire through this path.
        guard.remaining -= n_chunks - guard.next_chunk;
        guard.next_chunk = n_chunks;
    }
    if guard.remaining == 0 {
        guard.job = None;
        pool.done_cv.notify_all();
    }
    guard
}

struct Pool {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Serializes dispatches; a second concurrent submitter falls back to
    /// inline execution instead of queueing.
    submit_lock: Mutex<()>,
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            job: None,
            generation: 0,
            next_chunk: 0,
            remaining: 0,
            panicked: false,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        submit_lock: Mutex::new(()),
        spawned: AtomicUsize::new(0),
    })
}

fn ensure_workers(pool: &'static Pool, target: usize) {
    loop {
        let spawned = pool.spawned.load(Ordering::Relaxed);
        if spawned >= target {
            return;
        }
        if pool
            .spawned
            .compare_exchange(spawned, spawned + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        std::thread::Builder::new()
            .name(format!("hfta-kernels-{spawned}"))
            .spawn(move || worker_loop(pool, spawned))
            .expect("spawning hfta-kernels worker");
    }
}

/// Worker `index`'s loop: it claims chunks of every job that runs on more
/// than `index` workers.
fn worker_loop(pool: &'static Pool, index: usize) {
    IN_POOL.with(|f| f.set(true));
    let mut last_gen = 0u64;
    let mut guard = pool.state.lock().unwrap();
    loop {
        let fresh = guard
            .job
            .as_ref()
            .map(|_| guard.generation != last_gen)
            .unwrap_or(false);
        if !fresh {
            guard = pool.work_cv.wait(guard).unwrap();
            continue;
        }
        let gen = guard.generation;
        let (task, n_chunks, workers) = {
            let job = guard.job.as_ref().unwrap();
            (job.task, job.n_chunks, job.workers)
        };
        last_gen = gen;
        // A worker spawned past the job's count sits it out. The job cannot
        // be replaced while `remaining > 0` (the submit lock is held until
        // completion), so `next_chunk` still refers to this generation.
        while index < workers && guard.job.is_some() && guard.next_chunk < n_chunks {
            let chunk = guard.next_chunk;
            guard.next_chunk += 1;
            drop(guard);
            // SAFETY: submitter keeps the closure alive until remaining == 0,
            // and `finish_chunk` decrements `remaining` even on panic so that
            // guarantee holds on every path.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task)(chunk) }));
            // The payload is dropped here; the submitter re-raises the
            // failure from its own thread via the `panicked` flag.
            guard = finish_chunk(pool, pool.state.lock().unwrap(), n_chunks, result.is_err());
        }
    }
}

fn chunk_range(chunk: usize, grain: usize, n_items: usize) -> Range<usize> {
    let start = chunk * grain;
    start..((start + grain).min(n_items))
}

/// Runs `f` over `0..n_items` split into chunks of `grain` items.
///
/// Chunk boundaries depend only on `(n_items, grain)`, so as long as `f`
/// writes disjoint output per chunk the result is bit-identical at any
/// thread count. Runs inline (still chunked, in ascending chunk order) when
/// the pool has one thread, when there is a single chunk, when called from
/// inside a pool worker, or when another dispatch is already in flight.
///
/// Each item counts as one unit of work for the [`MIN_POOL_WORK`] inline
/// fast path — right for elementwise loops. Callers whose items are heavy
/// (a GEMM panel, a conv sample) should use [`parallel_for_work`] with an
/// explicit work estimate so medium problems still reach the pool.
pub fn parallel_for(n_items: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    parallel_for_work(n_items, grain, n_items, f);
}

/// [`parallel_for`] with an explicit total-work estimate (FLOPs for compute
/// kernels, elements for fills) deciding the inline fast path.
///
/// Dispatches below [`MIN_POOL_WORK`] run inline on the caller with zero
/// pool traffic — no lock, no condvar wakeup ([`pool_dispatches`] does not
/// move). `work` only gates *whether* the pool is used, never how items are
/// chunked, so results stay bit-identical either way.
pub fn parallel_for_work(
    n_items: usize,
    grain: usize,
    work: usize,
    f: impl Fn(Range<usize>) + Sync,
) {
    parallel_for_on(num_threads(), n_items, grain, work, f);
}

/// [`parallel_for_work`] on at most `threads` threads: the caller's read of
/// [`num_threads`], so it can size per-thread state to the dispatch.
pub(crate) fn parallel_for_on(
    threads: usize,
    n_items: usize,
    grain: usize,
    work: usize,
    f: impl Fn(Range<usize>) + Sync,
) {
    if n_items == 0 {
        return;
    }
    let grain = grain.max(1);
    let n_chunks = n_items.div_ceil(grain);
    let run_inline = || {
        for chunk in 0..n_chunks {
            f(chunk_range(chunk, grain, n_items));
        }
    };
    if threads == 1 || runs_inline(n_chunks, work) {
        run_inline();
        return;
    }
    let pool = pool();
    // The submit lock guards no data, so poisoning (a dispatch that panicked
    // while holding it) carries no meaning — recover the guard instead of
    // treating it as contention, which would silently disable the pool for
    // the rest of the process after the first propagated kernel panic.
    let _submit = match pool.submit_lock.try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            run_inline();
            return;
        }
    };
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    ensure_workers(pool, threads - 1);
    let call = |chunk: usize| f(chunk_range(chunk, grain, n_items));
    let task_ref: &(dyn Fn(usize) + Sync) = &call;
    // SAFETY: erase the stack lifetime; this frame blocks on `done_cv` until
    // every chunk has finished, so the pointee outlives all dereferences.
    let task: *const Task =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static Task>(task_ref) };
    {
        let mut st = pool.state.lock().unwrap();
        st.generation += 1;
        st.next_chunk = 0;
        st.remaining = n_chunks;
        st.panicked = false;
        st.job = Some(Job {
            task,
            n_chunks,
            workers: threads - 1,
        });
        pool.work_cv.notify_all();
    }
    // Participate: the submitting thread claims chunks like a worker. Panics
    // are deferred — unwinding this frame before `remaining == 0` would free
    // the closure out from under the workers still dereferencing `task`.
    let mut payload = None;
    IN_POOL.with(|flag| flag.set(true));
    let mut guard = pool.state.lock().unwrap();
    while guard.job.is_some() && guard.next_chunk < n_chunks {
        let chunk = guard.next_chunk;
        guard.next_chunk += 1;
        drop(guard);
        let result = catch_unwind(AssertUnwindSafe(|| call(chunk)));
        let failed = result.is_err();
        if let Err(p) = result {
            payload = Some(p);
        }
        guard = finish_chunk(pool, pool.state.lock().unwrap(), n_chunks, failed);
    }
    while guard.job.is_some() {
        guard = pool.done_cv.wait(guard).unwrap();
    }
    let any_panicked = guard.panicked;
    drop(guard);
    IN_POOL.with(|flag| flag.set(false));
    if let Some(p) = payload {
        resume_unwind(p);
    }
    if any_panicked {
        panic!("hfta-kernels worker panicked during parallel_for; job aborted");
    }
}

/// Splits `data` into chunks of `grain` elements and calls
/// `f(start_index, chunk)` for each, in parallel when profitable.
///
/// The chunk decomposition is a pure function of `(data.len(), grain)`, so
/// elementwise fills through this helper are bit-identical at any thread
/// count.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    grain: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let n = data.len();
    let grain = grain.max(1);
    if n <= grain {
        if n > 0 {
            f(0, data);
        }
        return;
    }
    let shared = UnsafeSlice::new(data);
    parallel_for(n, grain, |range| {
        // SAFETY: `parallel_for` hands out disjoint ranges.
        let chunk = unsafe { shared.slice_mut(range.clone()) };
        f(range.start, chunk);
    });
}

/// Whether [`parallel_for_work`] runs `n_chunks` chunks of `work` in total
/// inline on the caller whatever the pool size: below [`MIN_POOL_WORK`], as
/// a single chunk, or from inside a worker.
pub(crate) fn runs_inline(n_chunks: usize, work: usize) -> bool {
    work < MIN_POOL_WORK || n_chunks <= 1 || in_worker()
}

/// A `Sync` wrapper around a mutable slice for disjoint parallel writes.
///
/// [`parallel_for`] callers use this to hand each chunk its own region of a
/// shared output buffer. All the usual aliasing rules apply — the ranges
/// passed to [`UnsafeSlice::slice_mut`] by concurrent chunks must not
/// overlap.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access is raw-pointer based; disjointness is the caller's
// obligation (documented on `slice_mut`).
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrows `range` of the underlying slice.
    ///
    /// # Safety
    ///
    /// No two live borrows produced by this method may overlap, and the
    /// original slice must not be accessed while any borrow is live.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &'a mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }

    /// A pointer to the start of `range`, for strided access to some of its
    /// cells without borrowing the others (which may be other chunks').
    /// Each cell touched carries [`UnsafeSlice::slice_mut`]'s obligations.
    /// Panics if `range` is out of bounds.
    pub(crate) fn ptr(&self, range: Range<usize>) -> *mut T {
        assert!(range.start <= range.end && range.end <= self.len);
        self.ptr.wrapping_add(range.start)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes tests that mutate the global thread count.
    pub(crate) static THREAD_LOCK: Mutex<()> = Mutex::new(());

    /// Whether a threshold-sized dispatch goes through the pool (the
    /// submitter participates with the pool flag set). Retried, yielding
    /// in between: tests of other modules share this process's pool without
    /// taking [`THREAD_LOCK`], and while one of their dispatches is in
    /// flight ours falls back to inline.
    fn reaches_pool() -> bool {
        for _ in 0..10_000 {
            let flagged = AtomicUsize::new(0);
            parallel_for_work(4096, 64, MIN_POOL_WORK, |_range| {
                if in_worker() {
                    flagged.fetch_add(1, Ordering::Relaxed);
                }
            });
            if flagged.load(Ordering::Relaxed) > 0 {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn chunks_cover_exactly_once() {
        let _guard = THREAD_LOCK.lock().unwrap();
        for threads in [1, 2, 4] {
            set_num_threads(threads);
            let mut hits = vec![0.0f32; 1003];
            for_each_chunk_mut(&mut hits, 17, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (start + i) as f32;
                }
            });
            for (i, v) in hits.iter().enumerate() {
                assert_eq!(*v, i as f32, "thread count {threads}, index {i}");
            }
        }
        set_num_threads(1);
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let _guard = THREAD_LOCK.lock().unwrap();
        set_num_threads(4);
        let mut out = vec![0.0f32; 64];
        let shared = UnsafeSlice::new(&mut out);
        // Work hints push both levels past the inline fast path so the outer
        // call really dispatches and the inner one proves nested inlining.
        parallel_for_work(8, 1, MIN_POOL_WORK, |outer| {
            for o in outer {
                // Nested call: must run inline on this worker.
                parallel_for_work(8, 2, MIN_POOL_WORK, |inner| {
                    for i in inner {
                        let cell = unsafe { shared.slice_mut(o * 8 + i..o * 8 + i + 1) };
                        cell[0] = (o * 8 + i) as f32;
                    }
                });
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
        set_num_threads(1);
    }

    #[test]
    fn chunk_panic_propagates_and_pool_survives() {
        let _guard = THREAD_LOCK.lock().unwrap();
        set_num_threads(4);
        for _ in 0..4 {
            // The panicking chunk may land on a worker or on the submitter;
            // either way the dispatch must unwind on the submitting thread
            // instead of hanging, and the pool must stay usable.
            let result = std::panic::catch_unwind(|| {
                parallel_for_work(97, 1, MIN_POOL_WORK, |range| {
                    if range.start == 13 {
                        panic!("boom");
                    }
                });
            });
            assert!(result.is_err(), "panic in a chunk must propagate");
            let mut out = vec![0.0f32; 1003];
            for_each_chunk_mut(&mut out, 17, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as f32;
                }
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as f32, "pool broken after panic, index {i}");
            }
            // The pool must keep *dispatching* too — a panic while holding
            // the submit lock used to poison it, silently inlining every
            // later parallel_for for the rest of the process.
            assert!(reaches_pool(), "pool stopped dispatching after a panic");
        }
        set_num_threads(1);
    }

    #[test]
    fn small_work_never_touches_the_pool() {
        let _guard = THREAD_LOCK.lock().unwrap();
        set_num_threads(4);
        let caller = std::thread::current().id();
        // Many chunks, but total work below MIN_POOL_WORK: must run inline —
        // every chunk on the calling thread, pool flag never set. (Inline
        // execution is unconditional below the threshold, so this cannot be
        // perturbed by concurrent tests sharing the process-wide pool.)
        let escaped = AtomicUsize::new(0);
        let mut out = vec![0.0f32; 4096];
        let shared = UnsafeSlice::new(&mut out);
        parallel_for_work(4096, 64, 4096, |range| {
            if in_worker() || std::thread::current().id() != caller {
                escaped.fetch_add(1, Ordering::Relaxed);
            }
            let chunk = unsafe { shared.slice_mut(range.clone()) };
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (range.start + i) as f32;
            }
        });
        // `parallel_for` counts items as work, so a tiny op inlines too.
        parallel_for(100, 1, |_range| {
            if in_worker() {
                escaped.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(escaped.load(Ordering::Relaxed), 0, "small op woke the pool");
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
        // At or above the threshold the dispatch goes through the pool.
        assert!(reaches_pool(), "threshold-sized op never reached the pool");
        set_num_threads(1);
    }

    #[test]
    fn a_dispatch_runs_on_at_most_its_thread_count() {
        let _guard = THREAD_LOCK.lock().unwrap();
        // Distinct threads that ran one dispatch of chunks long enough for
        // every woken worker to claim one.
        let threads_of_dispatch = || {
            let ids = Mutex::new(std::collections::HashSet::new());
            parallel_for_work(32, 1, MIN_POOL_WORK, |_range| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            ids.into_inner().unwrap().len()
        };
        set_num_threads(4);
        // Retried: another module's in-flight dispatch makes ours inline.
        let spread = (0..100).map(|_| threads_of_dispatch()).find(|&t| t > 2);
        assert!(spread.is_some(), "4 threads never ran one dispatch");
        set_num_threads(2);
        for _ in 0..10 {
            let ran_on = threads_of_dispatch();
            assert!(ran_on <= 2, "a dispatch at 2 threads ran on {ran_on}");
        }
        set_num_threads(1);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        parallel_for(0, 8, |_| panic!("must not be called"));
        for_each_chunk_mut::<f32>(&mut [], 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn env_override_is_clamped() {
        // Can't re-read env after first resolution, but the setter clamps.
        let _guard = THREAD_LOCK.lock().unwrap();
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(MAX_THREADS + 100);
        assert_eq!(num_threads(), MAX_THREADS);
        set_num_threads(1);
    }
}
