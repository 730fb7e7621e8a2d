//! [`Storage`] — the accounted, recyclable buffer under every `Tensor`.

use crate::pool;

/// A heap buffer of `f32`s owned by the memory layer.
///
/// `Storage` behaves like an immovable-length `Vec<f32>`: it is created at
/// its final length, read and written through slices, and never grows. On
/// drop the buffer returns to the size-class pool (when enabled) so the
/// next same-class allocation reuses it; every path keeps the live/peak
/// byte accounting in [`crate::pool`] exact.
///
/// # Example
///
/// ```
/// use hfta_mem::Storage;
/// let s = Storage::zeroed(8);
/// assert_eq!(s.as_slice(), &[0.0; 8]);
/// let t = Storage::from_vec(vec![1.0, 2.0]);
/// assert_eq!(t.into_vec(), vec![1.0, 2.0]);
/// ```
#[derive(Default)]
pub struct Storage {
    buf: Vec<f32>,
}

impl Storage {
    /// A buffer of `len` zeros — bit-identical to `vec![0.0; len]`.
    pub fn zeroed(len: usize) -> Self {
        Storage {
            buf: pool::acquire(len, 0.0),
        }
    }

    /// A buffer of `len` copies of `value` — bit-identical to
    /// `vec![value; len]`.
    pub fn filled(len: usize, value: f32) -> Self {
        Storage {
            buf: pool::acquire(len, value),
        }
    }

    /// A buffer of `len` elements with unspecified values, for a pass that
    /// overwrites every element before reading any: it skips the fill.
    /// Safe to read (values are stale or zero, never uninitialized), but
    /// only a full overwrite makes the result independent of pool history.
    pub fn unfilled(len: usize) -> Self {
        Storage {
            buf: pool::acquire_unfilled(len),
        }
    }

    /// A buffer holding a copy of `src`.
    pub fn copy_of(src: &[f32]) -> Self {
        Storage {
            buf: pool::acquire_copy(src),
        }
    }

    /// Adopts an externally allocated `Vec` (accounted from here on; its
    /// capacity is normalized up to the class size so it recycles).
    pub fn from_vec(mut buf: Vec<f32>) -> Self {
        pool::adopt(&mut buf);
        Storage { buf }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Immutable element view.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// Mutable element view (the length never changes).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf
    }

    /// Extracts the underlying `Vec`, bypassing recycling (the buffer
    /// leaves the accounted world).
    pub fn into_vec(mut self) -> Vec<f32> {
        let buf = std::mem::take(&mut self.buf);
        pool::disown(buf.len());
        std::mem::forget(self);
        buf
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        pool::release(std::mem::take(&mut self.buf));
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        Storage::copy_of(&self.buf)
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

impl std::ops::Deref for Storage {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_vec_semantics() {
        assert_eq!(Storage::zeroed(3).as_slice(), &[0.0; 3]);
        assert_eq!(Storage::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Storage::copy_of(&[1.0, 2.0]).as_slice(), &[1.0, 2.0]);
        assert_eq!(Storage::zeroed(0).len(), 0);
        assert_eq!(Storage::unfilled(5).len(), 5);
        assert_eq!(Storage::unfilled(0).len(), 0);
        assert!(Storage::default().is_empty());
    }

    #[test]
    fn from_vec_round_trips() {
        let s = Storage::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.into_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn clone_and_eq() {
        let a = Storage::from_vec(vec![1.0, 2.0]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Storage::zeroed(2));
    }

    #[test]
    fn mutation_through_slice() {
        let mut s = Storage::zeroed(4);
        s.as_mut_slice()[2] = 9.0;
        assert_eq!(s[2], 9.0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn recycling_reuses_same_class() {
        // Serialized against other stat-sensitive tests elsewhere; here we
        // only assert relative deltas that hold regardless of interleaving
        // within this single-threaded test.
        crate::set_pool_enabled(true);
        let before = crate::stats();
        drop(Storage::zeroed(1000));
        let s = Storage::zeroed(900); // same 1024-element class
        let after = crate::stats();
        assert!(after.pool_reuses > before.pool_reuses, "no reuse recorded");
        drop(s);
    }
}
