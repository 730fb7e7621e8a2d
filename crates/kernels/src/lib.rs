//! # hfta-kernels
//!
//! The compute-kernel layer under the HFTA reproduction's tensor substrate:
//!
//! * [`pool`] — a persistent, lazily initialized worker pool
//!   ([`parallel_for`], [`for_each_chunk_mut`]) with an `HFTA_NUM_THREADS`
//!   override, a [`set_num_threads`] API, and a determinism contract: chunk
//!   boundaries depend only on the problem shape, so results are
//!   bit-identical at any thread count.
//! * [`gemm`] — cache-blocked, register-tiled f32 GEMM ([`gemm()`],
//!   [`gemm_nt()`], [`gemm_tn()`]) with packed A/B panels and a 2-D tiled
//!   macro-kernel, under **one contract**: every output element is
//!   `acc = fma(a[i,p], b[p,j], acc)` for `p` ascending, one rounding per
//!   step. Every path computes exactly that chain, so all
//!   are bit-identical to the retained naive oracle in [`reference`] and to
//!   each other. [`GemmBackend`] is `{Auto, Naive}`: production dispatch
//!   or the reference loops at every size, switched only in-process
//!   ([`set_backend`]) by tests and A/B benchmarks. [`gemm_gather()`] and
//!   [`gemm_tn_scatter()`] are the same GEMMs with `B` read, or the product
//!   added, through two [`Offsets`] tables — how `hfta-tensor` convolves a
//!   padded image without materialising its im2col matrix.
//! * [`simd`] — the runtime-detected AVX2/FMA instantiations (8×8 / paired
//!   8×16 micro-kernel, small-shape loops) `Auto` takes wherever the CPU
//!   has them; elsewhere the portable `f32::mul_add` twins run. FMA is
//!   correctly rounded on both, which is why the choice is by platform and
//!   never changes a bit. [`simd::set_simd_enabled`] is the test hook that
//!   forces the portable path.
//! * [`tune`] — a one-function stub (`enabled() == false`) kept for the
//!   benchmark's host record; nothing tunes.
//!
//! This crate carries no observability code: op spans and samples are
//! recorded once, on the autograd tape in `hfta-nn`, and the pool's
//! internals are visible as a plain counter ([`pool_dispatches`]) the
//! reporter reads.
//!
//! The paper's Figure 3 claim — fused training is bit-exact with serial
//! training — survives this layer because every kernel here is
//! deterministic by construction; the property tests in `tests/proptests.rs`
//! enforce it.
//!
//! **Selection is by platform and shape; the only env var is
//! `HFTA_NUM_THREADS`, a resource setting.**

#![warn(missing_docs)]

pub mod gemm;
pub mod pool;
pub mod reference;
pub mod simd;
pub mod tune;

pub use gemm::{
    backend, gemm, gemm_gather, gemm_nt, gemm_tn, gemm_tn_scatter, set_backend, GemmBackend,
    Offsets,
};
pub use pool::{
    for_each_chunk_mut, num_threads, parallel_for, parallel_for_work, pool_dispatches,
    set_num_threads, UnsafeSlice,
};
pub use simd::{set_simd_enabled, simd_available};
