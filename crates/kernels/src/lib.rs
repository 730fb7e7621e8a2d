//! # hfta-kernels
//!
//! The compute-kernel layer under the HFTA reproduction's tensor substrate:
//!
//! * [`pool`] — a persistent, lazily initialized worker pool
//!   ([`parallel_for`], [`for_each_chunk_mut`]) shared by the process, each
//!   thread dispatching at its own count ([`set_num_threads`], starting at
//!   the `HFTA_NUM_THREADS` default), and a determinism contract: chunk
//!   boundaries depend only on the problem shape, so results are
//!   bit-identical at any thread count.
//! * [`gemm`] — register-tiled f32 GEMM whose tiles read A and B in place
//!   and accumulate in the output, under **one contract**: every
//!   output element is `acc = fma(a[i,p], b[p,j], acc)` for `p` ascending,
//!   one rounding per step. Every path computes exactly that chain, so all
//!   are bit-identical to the retained naive oracle in [`reference`] and to
//!   each other. There is one entry point, [`gemm_batched()`]: a whole
//!   `(sample × group)` or fused-model batch of products in one call, split
//!   across the pool by one shape-only rule, with `B` optionally read
//!   ([`PackB::Gather`]) and the product optionally added ([`Out::Scatter`])
//!   through two [`Offsets`] tables — how `hfta-tensor` convolves a padded
//!   image without materialising its im2col matrix. [`gemm()`],
//!   [`gemm_nt()`] and [`gemm_tn()`] are its one-entry case. Shape and layout
//!   pick the tiled or the direct loops, the CPU picks the instantiation,
//!   and nothing switches either at run time.
//! * [`simd`] — the runtime-detected AVX2/FMA instantiations (8×8 / paired
//!   8×16 micro-kernel, small-shape loops) `Auto` takes wherever the CPU
//!   has them; elsewhere the portable `f32::mul_add` twins run. FMA is
//!   correctly rounded on both, which is why the choice is by platform and
//!   never changes a bit. [`simd_available`] reports it. [`tanh`] is the
//!   in-tree `tanh` (fdlibm's `tanhf`, eight lanes wide where AVX2 is);
//!   [`ln`] and [`normals`] are glibc 2.36's `logf` and a Box–Muller draw
//!   over its `cosf` (eight lanes wide where AVX2 is), bit for bit the
//!   host's on x86-64 linux-gnu with AVX2+FMA and the same bits on every
//!   other platform; and [`chacha8_blocks`] is the ChaCha8 keystream (eight
//!   blocks at once where AVX2 is) under `hfta-tensor`'s `Rng`.
//! * [`tune`] — a one-function stub (`enabled() == false`) kept for the
//!   benchmark's host record; nothing tunes. So are [`gemm::backend`]
//!   (always `"auto"`) and [`gemm::auto_simd`].
//!
//! This crate carries no observability code: op spans and samples are
//! recorded once, on the autograd tape in `hfta-nn`, and the pool's
//! internals are visible as a plain per-thread counter
//! ([`pool_dispatches`]) the reporter reads.
//!
//! The paper's Figure 3 claim — fused training is bit-exact with serial
//! training — survives this layer because every kernel here is
//! deterministic by construction; the property tests in `tests/proptests.rs`
//! enforce it.
//!
//! **Selection is by platform and shape; the only env var is the default
//! worker-pool size (`HFTA_NUM_THREADS`), and the only setting, a resource
//! setting, is each thread's own ([`set_num_threads`]): no process-wide
//! setting.**

#![warn(missing_docs)]

pub mod gemm;
pub mod pool;
pub mod reference;
pub mod simd;
pub mod tune;

pub use gemm::{gemm, gemm_batched, gemm_nt, gemm_tn, Axis, Offsets, Out, PackA, PackB, Window};
pub use pool::{
    for_each_chunk_mut, num_threads, parallel_for, parallel_for_work, pool_dispatches,
    set_num_threads, UnsafeSlice,
};
pub use simd::{chacha8_blocks, ln, normals, simd_available, tanh};
