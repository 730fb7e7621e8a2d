//! Trainable parameters with persistent gradient slots.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use hfta_tensor::Tensor;

struct ParamInner {
    value: Tensor,
    grad: Tensor,
    name: String,
}

/// A trainable tensor that persists across training iterations.
///
/// Cloning a `Parameter` is cheap and *shares* the underlying storage —
/// the same slot can be registered on many tapes, and gradients accumulate
/// into it during [`crate::Var::backward`]. Optimizers read `grad()` and
/// write back through [`Parameter::update`].
///
/// # Example
///
/// ```
/// use hfta_nn::Parameter;
/// use hfta_tensor::Tensor;
///
/// let p = Parameter::new(Tensor::zeros([2]), "w");
/// let alias = p.clone();
/// alias.update(|v, _| *v = v.add_scalar(1.0));
/// assert_eq!(p.value().to_vec(), vec![1.0, 1.0]);
/// ```
#[derive(Clone)]
pub struct Parameter {
    inner: Rc<RefCell<ParamInner>>,
}

impl Parameter {
    /// Creates a parameter from an initial value.
    pub fn new(value: Tensor, name: impl Into<String>) -> Self {
        let grad = value.zeros_like();
        Parameter {
            inner: Rc::new(RefCell::new(ParamInner {
                value,
                grad,
                name: name.into(),
            })),
        }
    }

    /// The parameter's diagnostic name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Borrow of the current value.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is currently mutably borrowed.
    pub fn value(&self) -> Ref<'_, Tensor> {
        Ref::map(self.inner.borrow(), |p| &p.value)
    }

    /// Clone of the current value.
    pub fn value_cloned(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// Borrow of the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is currently mutably borrowed.
    pub fn grad(&self) -> Ref<'_, Tensor> {
        Ref::map(self.inner.borrow(), |p| &p.grad)
    }

    /// Clone of the accumulated gradient.
    pub fn grad_cloned(&self) -> Tensor {
        self.inner.borrow().grad.clone()
    }

    /// Replaces the value outright (e.g. when loading weights).
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs from the old.
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "set_value must preserve the parameter shape"
        );
        inner.value = value;
    }

    /// Accumulates `g` into the gradient slot.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from the value shape.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.grad.shape(),
            g.shape(),
            "gradient shape mismatch for parameter {}",
            inner.name
        );
        inner.grad.add_assign_scaled(g, 1.0);
    }

    /// Zeroes the gradient slot in place (the storage is kept, so a
    /// training step pays no pool round-trip per parameter for it).
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad.as_mut_slice().fill(0.0);
    }

    /// Applies an in-place update `f(&mut value, &grad)` — the optimizer
    /// entry point.
    pub fn update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let inner = &mut *self.inner.borrow_mut();
        f(&mut inner.value, &inner.grad);
    }

    /// Applies an in-place edit to the gradient slot — e.g. masking or
    /// poisoning one model lane of a fused gradient, where
    /// [`Parameter::accumulate_grad`] (which adds) cannot express the edit.
    pub fn update_grad(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.inner.borrow_mut().grad);
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.inner.borrow().value.numel()
    }

    /// Whether two handles share the same underlying slot.
    pub fn same_slot(&self, other: &Parameter) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Parameter({:?}, shape {}, |g| {:.3e})",
            inner.name,
            inner.value.shape(),
            inner.grad.abs().max_value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let p = Parameter::new(Tensor::zeros([3]), "w");
        let q = p.clone();
        q.set_value(Tensor::ones([3]));
        assert_eq!(p.value_cloned().to_vec(), vec![1.0; 3]);
        assert!(p.same_slot(&q));
        let r = Parameter::new(Tensor::zeros([3]), "w2");
        assert!(!p.same_slot(&r));
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let p = Parameter::new(Tensor::zeros([2]), "w");
        p.accumulate_grad(&Tensor::ones([2]));
        p.accumulate_grad(&Tensor::ones([2]));
        assert_eq!(p.grad_cloned().to_vec(), vec![2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad_cloned().to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn zero_grad_keeps_the_grad_storage() {
        let p = Parameter::new(Tensor::zeros([5]), "w");
        p.accumulate_grad(&Tensor::full([5], -3.0));
        let before = p.grad().as_slice().as_ptr();
        p.zero_grad();
        assert_eq!(p.grad().as_slice().as_ptr(), before);
        assert!(p.grad().as_slice().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn grad_shape_is_enforced() {
        let p = Parameter::new(Tensor::zeros([2]), "w");
        p.accumulate_grad(&Tensor::ones([3]));
    }

    #[test]
    #[should_panic(expected = "preserve the parameter shape")]
    fn set_value_shape_is_enforced() {
        let p = Parameter::new(Tensor::zeros([2]), "w");
        p.set_value(Tensor::zeros([4]));
    }

    #[test]
    fn update_grad_edits_in_place() {
        let p = Parameter::new(Tensor::zeros([4]), "w");
        p.accumulate_grad(&Tensor::ones([4]));
        p.update_grad(|g| g.as_mut_slice()[..2].fill(0.0));
        assert_eq!(p.grad_cloned().to_vec(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn update_sees_grad() {
        let p = Parameter::new(Tensor::ones([2]), "w");
        p.accumulate_grad(&Tensor::full([2], 0.5));
        p.update(|v, g| *v = v.sub(&g.mul_scalar(2.0)));
        assert_eq!(p.value_cloned().to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let p = Parameter::new(Tensor::zeros([1]), "bias");
        assert!(format!("{p:?}").contains("bias"));
    }
}
