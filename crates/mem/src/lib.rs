//! # hfta-mem
//!
//! The memory layer under the HFTA reproduction's tensor substrate:
//!
//! * [`Storage`] — the `Vec<f32>`-backed buffer every `Tensor` owns. Dropped
//!   storages return to a size-class recycling pool; later allocations of
//!   the same class reuse them instead of hitting the system allocator.
//! * [`pool`] — the size-class pool plus byte-accurate accounting: live and
//!   peak bytes (total and per class), fresh allocations vs reuses, and a
//!   process *footprint* (live + pool-held + scratch-held bytes) whose
//!   high-water mark is the CPU analogue of the paper's Table 8/9
//!   `nvidia-smi` peak-usage measurements.
//! * [`scratch`] — step-scoped scratch arenas for kernel workspace (GEMM
//!   packing panels and scatter strips; convolutions read their image
//!   through offset tables and hold no im2col columns). Call sites [`scratch::reserve`] their
//!   worst-case concurrency up front so steady-state training steps perform
//!   **zero fresh allocations** on the hot path.
//!
//! # Bit-identity
//!
//! Recycled buffers are value-filled exactly as `vec![fill; len]` would be
//! before any kernel sees them, so pooled and unpooled runs are bitwise
//! equal at any thread count. [`Storage::unfilled`] skips the fill for a
//! pass that overwrites every element anyway: its stale values never reach
//! a result. The pool is always on; [`set_pool_enabled`]
//! is the in-process hook that falls back to plain `Vec` allocation for A/B
//! equivalence tests and `bench_mem`. No environment variable reaches this
//! crate.
//!
//! Accounting covers `f32` buffers owned by [`Storage`] and the scratch
//! arenas — the tensors, gradients and kernel workspace that dominate a
//! training step — not incidental bookkeeping allocations (tape nodes,
//! shape vectors), which are O(ops), not O(elements).

#![warn(missing_docs)]

pub mod pool;
pub mod scratch;
pub mod storage;

pub use pool::{pool_enabled, reset_stats, set_pool_enabled, stats, trim, ClassStats, MemStats};
pub use storage::Storage;
