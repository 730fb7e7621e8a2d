//! The dense tensor type.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use hfta_mem::Storage;

/// Elements per parallel chunk for elementwise/reduction loops. Chunk
/// boundaries depend only on this constant and the tensor size — never the
/// thread count — so results are identical on any pool size (the chunked
/// loops below don't split any float accumulation across chunks).
pub(crate) const ELEMWISE_GRAIN: usize = 1 << 15;

/// A dense, row-major, contiguous `f32` tensor.
///
/// `Tensor` is the storage substrate for the whole HFTA reproduction: the
/// autograd engine in `hfta-nn` wraps it, and the fused operators in
/// `hfta-core` are expressed entirely in terms of its kernels (grouped
/// convolution, batched `bmm`, widened batch-norm, ...).
///
/// All layout-changing ops materialize new storage — simplicity and
/// predictability over zero-copy views. Storage comes from the `hfta-mem`
/// size-class pool: dropped tensors recycle their buffers into later
/// allocations (bit-identically — recycled buffers are value-filled
/// exactly as a fresh `vec![fill; len]` would be, or, for a pass that
/// writes every element, handed over unfilled), and live/peak bytes are
/// tracked per class (`hfta_mem::stats`).
///
/// # Example
///
/// ```
/// use hfta_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let b = Tensor::ones([2, 2]);
/// let c = a.add(&b);
/// assert_eq!(c.to_vec(), vec![2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Storage,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// The `Vec` is adopted into the storage pool and stays there until its
    /// thread exits (or trims), so a producer that runs every step fills a
    /// pooled buffer instead ([`Storage::unfilled`] + [`Tensor::from_storage`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor {
            data: Storage::from_vec(data),
            shape,
        }
    }

    /// A tensor over a pooled buffer, e.g. one a decoder or an update rule
    /// filled from [`Storage::unfilled`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_storage(data: Storage, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "storage of {} elements does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the lengths disagree.
    pub fn try_from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::InvalidReshape {
                from: data.len(),
                to: shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: Storage::from_vec(data),
            shape,
        })
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: Storage::filled(1, value),
            shape: Shape::scalar(),
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: Storage::filled(shape.numel(), value),
            shape,
        }
    }

    /// Tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor whose elements are unspecified, for a pass that writes every
    /// element before any is read (it skips the zero-fill the pass would
    /// overwrite; see [`Storage::unfilled`]).
    pub(crate) fn unfilled(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: Storage::unfilled(shape.numel()),
            shape,
        }
    }

    /// Pooled copy of this tensor's elements under a new shape of equal
    /// element count — the storage-recycling backbone of `reshape`.
    pub(crate) fn copy_with_shape(&self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        debug_assert_eq!(self.data.len(), shape.numel());
        Tensor {
            data: Storage::copy_of(self.data.as_slice()),
            shape,
        }
    }

    /// This tensor under a new shape of equal element count, its storage
    /// moved rather than copied.
    pub(crate) fn into_shape(mut self, shape: impl Into<Shape>) -> Self {
        self.shape = shape.into();
        debug_assert_eq!(self.data.len(), self.shape.numel());
        self
    }

    /// Pooled copy of a slice — unlike [`Tensor::from_vec`], the backing
    /// buffer comes from the recycling pool, so hot paths that build a
    /// tensor from scratch data stay allocation-free at steady state.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_slice(data: &[f32], shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor {
            data: Storage::copy_of(data),
            shape,
        }
    }

    /// Tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Zeros with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self::zeros(self.shape.clone())
    }

    /// Ones with the same shape as `self`.
    pub fn ones_like(&self) -> Self {
        Self::ones(self.shape.clone())
    }

    /// `[0, 1, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n])
    }

    /// `n` evenly spaced values from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n > 0, "linspace needs at least one point");
        if n == 1 {
            return Tensor::from_vec(vec![start], [1]);
        }
        let step = (end - start) / (n - 1) as f32;
        Tensor::from_vec((0..n).map(|i| start + step * i as f32).collect(), [n])
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Copies the storage into a fresh (unpooled) `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.as_slice().to_vec()
    }

    /// Consumes the tensor, returning its storage as a plain `Vec` (the
    /// buffer leaves the pool's accounting).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on out-of-range indices.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on out-of-range indices.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires exactly one element, shape is {}",
            self.shape
        );
        self.data[0]
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute elementwise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether all elements are within `tol` of `other`'s.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    // ---------------------------------------------------------------------
    // Pointwise construction helpers (used by the op modules)
    // ---------------------------------------------------------------------

    /// Applies `f` elementwise, producing a new tensor: one pass that
    /// writes each output element once.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        self.map_slices(|out, src| map_into(out, src, &f))
    }

    /// [`Tensor::map`] for a slice kernel: `f(out, src)` over the pool's
    /// elementwise chunks of a new tensor and of `self`.
    pub(crate) fn map_slices(&self, f: impl Fn(&mut [f32], &[f32]) + Sync) -> Tensor {
        let src = self.data.as_slice();
        let mut out = Tensor::unfilled(self.shape.clone());
        hfta_kernels::for_each_chunk_mut(out.as_mut_slice(), ELEMWISE_GRAIN, |start, chunk| {
            f(chunk, &src[start..start + chunk.len()]);
        });
        out
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        hfta_kernels::for_each_chunk_mut(self.data.as_mut_slice(), ELEMWISE_GRAIN, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Combines two same-shaped tensors elementwise (no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ; use the broadcasting binary ops
    /// ([`Tensor::add`], [`Tensor::mul`], ...) otherwise.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip requires identical shapes ({} vs {})",
            self.shape, other.shape
        );
        let (da, db) = (self.data.as_slice(), other.data.as_slice());
        let mut out = Tensor::unfilled(self.shape.clone());
        hfta_kernels::for_each_chunk_mut(out.as_mut_slice(), ELEMWISE_GRAIN, |start, chunk| {
            let range = start..start + chunk.len();
            zip_into(chunk, &da[range.clone()], &db[range], &f);
        });
        out
    }
}

// The loops of `map` / `zip`, kept out of line on purpose: a parallel chunk
// arrives through a raw pointer, and only as a `&mut` *argument* is it known
// not to alias the values `f` captured, so those stay in registers and the
// selects in `f` vectorize instead of running scalar behind an alias check.

#[inline(never)]
fn map_into(out: &mut [f32], src: &[f32], f: &impl Fn(f32) -> f32) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = f(v);
    }
}

#[inline(never)]
fn zip_into(out: &mut [f32], a: &[f32], b: &[f32], f: &impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:?}, ..., {:?}]",
                &self.data[..4],
                &self.data[self.numel() - 4..]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        assert_eq!(t.dims(), &[2]);
        assert!(Tensor::try_from_vec(vec![1.0], [2]).is_err());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_panics_on_wrong_length() {
        let _ = Tensor::from_vec(vec![1.0], [2]);
    }

    #[test]
    fn constructors_fill_correctly() {
        assert_eq!(Tensor::zeros([2, 2]).to_vec(), vec![0.0; 4]);
        assert_eq!(Tensor::ones([3]).to_vec(), vec![1.0; 3]);
        assert_eq!(Tensor::full([2], 7.5).to_vec(), vec![7.5, 7.5]);
        assert_eq!(Tensor::arange(4).to_vec(), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn eye_is_identity() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]), 1.0);
        assert_eq!(e.at(&[1, 2]), 0.0);
        assert_eq!(e.as_slice().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.to_vec(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(3.0, 9.0, 1).to_vec(), vec![3.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.as_slice()[5], 5.0);
    }

    #[test]
    fn item_scalar() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "exactly one element")]
    fn item_panics_on_multi_element() {
        Tensor::zeros([2]).item();
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![1.0, 2.1], [2]);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-6);
        assert!(a.allclose(&b, 0.2));
        assert!(!a.allclose(&b, 0.05));
    }

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let mut t = Tensor::zeros([2]);
        assert!(!t.has_non_finite());
        t.set(&[0], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn display_truncates_large_tensors() {
        let small = format!("{}", Tensor::ones([2]));
        assert!(small.contains("1.0"));
        let large = format!("{}", Tensor::zeros([100]));
        assert!(large.contains("..."));
    }
}
