//! Shape arithmetic: dimension bookkeeping, strides and broadcasting.

use std::ops::{Deref, DerefMut};

use crate::error::{Result, TensorError};

/// The highest rank a [`Shape`] holds. Its dims live inline, so building,
/// cloning, reshaping or broadcasting a tensor allocates nothing but its
/// storage.
pub const MAX_RANK: usize = 8;

/// Up to [`MAX_RANK`] sizes held inline — a shape's dims or its strides —
/// read and written as a slice. Growing one past [`MAX_RANK`] panics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dims {
    len: usize,
    // Entries past `len` stay zero, so the derived `Eq` and `Hash` hold.
    vals: [usize; MAX_RANK],
}

impl Dims {
    /// Inserts `v` at `i`, shifting the values after it (`Vec::insert`).
    pub fn insert(&mut self, i: usize, v: usize) {
        assert!(
            self.len < MAX_RANK,
            "a shape has at most MAX_RANK = {MAX_RANK} dims"
        );
        self.vals[i..=self.len].rotate_right(1);
        self.vals[i] = v;
        self.len += 1;
    }

    /// Removes and returns the value at `i` (`Vec::remove`).
    pub fn remove(&mut self, i: usize) -> usize {
        let v = std::mem::take(&mut self[i]);
        self.vals[i..self.len].rotate_left(1);
        self.len -= 1;
        v
    }
}

impl FromIterator<usize> for Dims {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut dims = Dims::default();
        iter.into_iter().for_each(|v| dims.insert(dims.len, v));
        dims
    }
}

impl From<&[usize]> for Dims {
    fn from(vals: &[usize]) -> Self {
        vals.iter().copied().collect()
    }
}

impl Deref for Dims {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.vals[..self.len]
    }
}

impl DerefMut for Dims {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.vals[..self.len]
    }
}

impl std::fmt::Debug for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The shape (dimension sizes) of a tensor.
///
/// Shapes are always row-major; [`Shape::strides`] returns the contiguous
/// row-major strides. A rank-0 shape denotes a scalar with one element.
/// The rank is at most [`MAX_RANK`].
///
/// # Example
///
/// ```
/// use hfta_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(*s.strides(), [12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Dims,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_RANK`] dims.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape::from(&dims[..])
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape::default()
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dims; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major (C-contiguous) strides for this shape.
    pub fn strides(&self) -> Dims {
        let mut strides = self.dims;
        let mut stride = 1;
        for s in strides.iter_mut().rev() {
            (*s, stride) = (stride, stride * *s);
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index rank or any coordinate is out of
    /// range.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.dims.len()).rev() {
            debug_assert!(index[i] < self.dims[i], "index out of bounds");
            off += index[i] * stride;
            stride *= self.dims[i];
        }
        off
    }

    /// Validates `axis` against the rank.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] when `axis >= rank`.
    pub fn check_axis(&self, axis: usize) -> Result<()> {
        if axis >= self.rank() {
            Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
        } else {
            Ok(())
        }
    }

    /// Computes the NumPy-style broadcast of two shapes.
    ///
    /// Dimensions are aligned from the trailing end; a dimension of size 1
    /// broadcasts against any size.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if any aligned pair of
    /// dimensions differs and neither is 1.
    ///
    /// # Example
    ///
    /// ```
    /// use hfta_tensor::Shape;
    /// let a = Shape::new(vec![4, 1, 3]);
    /// let b = Shape::new(vec![2, 1]);
    /// assert_eq!(a.broadcast(&b).unwrap().dims(), &[4, 2, 3]);
    /// ```
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims: Dims = std::iter::repeat_n(1, rank).collect();
        for (i, &a) in self.dims.iter().enumerate() {
            dims[rank - self.rank() + i] = a;
        }
        for (i, &b) in other.dims.iter().enumerate() {
            let d = &mut dims[rank - other.rank() + i];
            if *d == 1 {
                *d = b;
            } else if b != *d && b != 1 {
                return Err(TensorError::ShapeMismatch {
                    lhs: self.dims.to_vec(),
                    rhs: other.dims.to_vec(),
                    op: "broadcast",
                });
            }
        }
        Ok(Shape { dims })
    }

    /// Whether this shape broadcasts to `target` without ambiguity.
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        match self.broadcast(target) {
            Ok(b) => b == *target,
            Err(_) => false,
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape { dims: dims.into() }
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from(&dims[..])
    }
}

impl From<Dims> for Shape {
    fn from(dims: Dims) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

/// Iterates over all multi-dimensional indices of a shape in row-major order.
///
/// Produced by [`Shape`]-driven loops in kernels that cannot be expressed as
/// flat traversals (e.g. broadcast binary ops).
#[derive(Debug, Clone)]
pub struct IndexIter {
    dims: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl IndexIter {
    /// Creates an iterator over all indices of `shape`.
    pub fn new(shape: &Shape) -> Self {
        let done = shape.numel() == 0;
        IndexIter {
            dims: shape.dims().to_vec(),
            current: vec![0; shape.rank()],
            done,
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Advance odometer-style.
        let mut i = self.dims.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.current[i] += 1;
            if self.current[i] < self.dims[i] {
                break;
            }
            self.current[i] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(*Shape::new(vec![2, 3, 4]).strides(), [12, 4, 1]);
        assert_eq!(*Shape::new(vec![5]).strides(), [1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn numel_counts_elements() {
        assert_eq!(Shape::new(vec![2, 3]).numel(), 6);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::new(vec![0, 7]).numel(), 0);
    }

    #[test]
    fn offset_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(vec![4, 1, 3]);
        let b = Shape::new(vec![2, 1]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[4, 2, 3]);
        let s = Shape::scalar();
        assert_eq!(a.broadcast(&s).unwrap(), a);
        let bad = Shape::new(vec![4, 2, 2]);
        assert!(a.broadcast(&bad).is_err());
    }

    #[test]
    fn broadcasts_to_is_directional() {
        let a = Shape::new(vec![1, 3]);
        let t = Shape::new(vec![5, 3]);
        assert!(a.broadcasts_to(&t));
        assert!(!t.broadcasts_to(&a));
    }

    #[test]
    fn index_iter_row_major_order() {
        let s = Shape::new(vec![2, 2]);
        let all: Vec<_> = IndexIter::new(&s).collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn index_iter_empty_shape_yields_nothing() {
        let s = Shape::new(vec![0, 3]);
        assert_eq!(IndexIter::new(&s).count(), 0);
    }

    #[test]
    fn index_iter_scalar_yields_one_empty_index() {
        let all: Vec<_> = IndexIter::new(&Shape::scalar()).collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn check_axis_bounds() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.check_axis(1).is_ok());
        assert!(s.check_axis(2).is_err());
    }
}
