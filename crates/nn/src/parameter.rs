//! Trainable parameters with persistent gradient slots.
//!
//! A parameter's value is shared with the tapes that record it (a write
//! copies it first while one is alive), and its gradient slot does only
//! the work a reader sees (see `Slot`).

use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use hfta_mem::Storage;
use hfta_tensor::Tensor;

use crate::optim::ValueRun;
use crate::tape::Grad;

/// Since the last zero, the storage holds nothing (it reads as zeros), the
/// gradients' sum unread, or — once read — their sum but for the latest,
/// which waits (unevaluated, if a product) for a read or `zero_grad`.
enum Slot {
    Empty,
    Open,
    Read(Option<Grad>),
}

struct ParamInner {
    value: Rc<Tensor>,
    grad: Tensor,
    slot: Slot,
    name: String,
}

impl ParamInner {
    /// Adds `g` after any gradient waiting; to an empty slot as `0.0 + g * 1.0`.
    fn add(&mut self, g: &Tensor) {
        assert_eq!(
            self.grad.shape(),
            g.shape(),
            "gradient shape mismatch for parameter {}",
            self.name
        );
        match &mut self.slot {
            Slot::Empty => {
                let out = self.grad.as_mut_slice().iter_mut();
                out.zip(g.as_slice()).for_each(|(v, &x)| *v = 0.0 + x * 1.0);
                self.slot = Slot::Open;
            }
            Slot::Open => self.grad.add_assign_scaled(g, 1.0),
            Slot::Read(waiting) => {
                if let Some(before) = waiting.take() {
                    self.grad.add_assign_scaled(&before.force(), 1.0);
                }
                self.grad.add_assign_scaled(g, 1.0);
            }
        }
    }
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
                value: Rc::new(value),
                grad,
                slot: Slot::Empty,
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
        Ref::map(self.inner.borrow(), |p| &*p.value)
    }

    /// Clone of the current value.
    pub fn value_cloned(&self) -> Tensor {
        Tensor::clone(&self.inner.borrow().value)
    }

    /// The current value, shared (a tape records it so).
    pub(crate) fn shared_value(&self) -> Rc<Tensor> {
        Rc::clone(&self.inner.borrow().value)
    }

    /// Zeroes an empty slot or adds the gradient waiting, and marks it read.
    fn read(&self) -> RefMut<'_, ParamInner> {
        let mut inner = self.inner.borrow_mut();
        match std::mem::replace(&mut inner.slot, Slot::Read(None)) {
            Slot::Empty => inner.grad.as_mut_slice().fill(0.0),
            Slot::Open | Slot::Read(None) => {}
            Slot::Read(Some(g)) => inner.grad.add_assign_scaled(&g.force(), 1.0),
        }
        inner
    }

    /// Whether the slot was read since it was last zeroed.
    pub(crate) fn is_read(&self) -> bool {
        matches!(self.inner.borrow().slot, Slot::Read(_))
    }

    /// Borrow of the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is currently mutably borrowed.
    pub fn grad(&self) -> Ref<'_, Tensor> {
        drop(self.read());
        Ref::map(self.inner.borrow(), |p| &p.grad)
    }

    /// Clone of the accumulated gradient.
    pub fn grad_cloned(&self) -> Tensor {
        self.read().grad.clone()
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
        inner.value = Rc::new(value);
    }

    /// Accumulates `g` into the gradient slot.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from the value shape.
    pub fn accumulate_grad(&self, g: &Tensor) {
        self.inner.borrow_mut().add(g);
    }

    /// [`Parameter::accumulate_grad`] from the sweep: a read slot keeps `g`
    /// waiting, so a `zero_grad` before the next read drops it unevaluated.
    pub(crate) fn accumulate(&self, g: Grad) {
        let mut inner = self.inner.borrow_mut();
        match &mut inner.slot {
            Slot::Read(waiting) => {
                if let Some(before) = waiting.replace(g) {
                    inner.grad.add_assign_scaled(&before.force(), 1.0);
                }
            }
            _ => inner.add(&g.force()),
        }
    }

    /// Empties the gradient slot, keeping its storage unfilled; a gradient
    /// waiting is dropped unevaluated.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().slot = Slot::Empty;
    }

    /// Applies an in-place update `f(&mut value, &grad)` — the optimizer
    /// entry point. The value is copied first if a live tape shares it.
    pub fn update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let inner = &mut *self.read();
        f(Rc::make_mut(&mut inner.value), &inner.grad);
    }

    /// [`Parameter::update`] for a one-pass rule: `f` writes the new value
    /// through a [`ValueRun`] — in place, or, while a live tape shares the
    /// value, from the old value into a fresh pooled buffer that then
    /// becomes the value (no copy first).
    pub fn update_run(&self, f: impl FnOnce(ValueRun<'_>, &Tensor)) {
        let inner = &mut *self.read();
        if let Some(value) = Rc::get_mut(&mut inner.value) {
            return f(ValueRun::InPlace(value.as_mut_slice()), &inner.grad);
        }
        let mut fresh = Storage::unfilled(inner.value.numel());
        f(
            ValueRun::Fresh(inner.value.as_slice(), fresh.as_mut_slice()),
            &inner.grad,
        );
        inner.value = Rc::new(Tensor::from_storage(fresh, inner.value.shape().clone()));
    }

    /// [`Parameter::update`] of the value alone (a lane write): reads no gradient.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(Rc::make_mut(&mut self.inner.borrow_mut().value));
    }

    /// Applies an in-place edit to the gradient slot — e.g. masking or
    /// poisoning one model lane of a fused gradient, where
    /// [`Parameter::accumulate_grad`] (which adds) cannot express the edit.
    pub fn update_grad(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.read().grad);
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
        let inner = self.read();
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
