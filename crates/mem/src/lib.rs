//! # hfta-mem
//!
//! The memory layer under the HFTA reproduction's tensor substrate:
//!
//! * [`Storage`] — the `Vec<f32>`-backed buffer every `Tensor` owns. Dropped
//!   storages return to a size-class recycling pool; later allocations of
//!   the same class reuse them instead of hitting the system allocator.
//! * [`pool`] — the size-class pool, one per thread (a checkout takes no
//!   lock and no atomic read-modify-write), plus byte-accurate accounting
//!   summed over threads: live and peak bytes (total and per class), fresh
//!   allocations vs reuses, and a process *footprint* (live + pool-held
//!   bytes) whose high-water mark is the CPU analogue of the paper's
//!   Table 8/9 `nvidia-smi` peak-usage measurements.
//!
//! Kernel workspace is storage too: a batched GEMM checks out one
//! [`Storage`] per call on the calling thread (its packing panels and
//! scatter strips; convolutions read their image through offset tables and
//! hold no im2col columns), so steady-state training steps perform **zero
//! fresh allocations** on the hot path and one pool counts every byte.
//!
//! # Bit-identity
//!
//! Recycled buffers are value-filled exactly as `vec![fill; len]` would be
//! before any kernel sees them, so a run's results do not depend on what
//! the pool held before it, at any thread count. [`Storage::unfilled`]
//! skips the fill for a pass that overwrites every element anyway: its
//! stale values never reach a result. `tests/mem_equivalence.rs` trains
//! from a cold pool and from one whose free lists hold NaN-filled buffers
//! and requires equal bits. The pool is always on: there is no switch and
//! no environment variable reaches this crate.
//!
//! Accounting covers `f32` buffers owned by [`Storage`] — the tensors,
//! gradients and kernel workspace that dominate a training step — not
//! incidental bookkeeping allocations (tape nodes), which are O(ops), not
//! O(elements). A tensor's shape lives inline and allocates nothing.

#![warn(missing_docs)]

pub mod pool;
pub mod storage;

pub use pool::{pool_enabled, reset_stats, stats, trim, ClassStats, MemStats};
pub use storage::Storage;
