//! # hfta-tensor
//!
//! Dense `f32` n-dimensional tensors and the neural-network kernels needed
//! by the HFTA (Horizontally Fused Training Array, MLSys 2021)
//! reproduction: broadcasting arithmetic, reductions, batched GEMM
//! (`bmm`), **grouped** (transposed) convolutions, max pooling, batch
//! normalization and softmax — each with the gradient kernels the autograd
//! layer (`hfta-nn`) builds on.
//!
//! Grouped convolution and the batched `bmm` deserve the emphasis: they are
//! the already-well-optimized operators that HFTA's inter-model horizontal
//! fusion maps onto (Table 6 of the paper; its `baddbmm` is a `bmm` followed
//! by a broadcast bias add). Each is one call into `hfta-kernels`' batched
//! GEMM, which alone decides how their work splits across threads; the
//! other passes split through `hfta_kernels::for_each_chunk_mut`, so this
//! crate needs no `unsafe` code.
//!
//! # Example
//!
//! ```
//! use hfta_tensor::{conv::{conv2d, ConvCfg}, Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let x = rng.randn([1, 3, 8, 8]);
//! let w = rng.randn([16, 3, 3, 3]);
//! let y = conv2d(&x, &w, None, ConvCfg::square(1, 1, 1));
//! assert_eq!(y.dims(), &[1, 16, 8, 8]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod conv;
mod elementwise;
pub mod error;
mod init;
mod layout;
mod linalg;
mod lines;
pub mod norm;
pub mod pool;
mod reduce;
mod shape;
mod tensor;

pub use error::{Result, TensorError};
pub use init::Rng;
pub use shape::{Dims, Shape, MAX_RANK};
pub use tensor::Tensor;

/// The worker-pool sizes the bit-identity tests run at.
#[cfg(test)]
mod thread_counts {
    use std::sync::Mutex;

    /// Serializes the tests that resize the process-wide pool.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Puts the pool size back when a test body exits, even by panicking.
    struct Restore(usize);

    impl Drop for Restore {
        fn drop(&mut self) {
            hfta_kernels::set_num_threads(self.0);
        }
    }

    /// Runs `f` with the pool at 1, 2 and 4 threads, passing the count.
    pub(crate) fn each(mut f: impl FnMut(usize)) {
        let _lock = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let _restore = Restore(hfta_kernels::num_threads());
        for threads in [1, 2, 4] {
            hfta_kernels::set_num_threads(threads);
            f(threads);
        }
    }
}
