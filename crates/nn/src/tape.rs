//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records the forward computation as a topologically ordered
//! list of nodes; [`Var::backward`] sweeps it in reverse, accumulating
//! gradients into [`Parameter`] slots. An op over constants only records no
//! backward: it is a constant like a [`Tape::leaf`]. The tape is rebuilt
//! every training iteration while parameters persist outside it — the same
//! lifecycle as PyTorch's dynamic graph.
//!
//! The tape is also the **one place an op sample comes from**. Under an
//! installed [`Profiler`] every op opens one forward span declaring its
//! [`OpCost`] (`Tape::record_op`), and the node keeps that cost; the
//! backward sweep opens one `bwd:<op>` span per node it reaches (only ops
//! that can reach a parameter have a backward) and prices it at the
//! forward cost times the number of parent gradients the closure returned,
//! except that a gradient the closure declares a reduction
//! (`BackwardCtx::reduces`, a convolution's bias) costs its sum instead.
//! That is exact for the GEMM-backed ops (input + weight gradient = 2 x
//! forward, the 3x-forward training rule the simulator is priced with) and
//! the right order for elementwise ops; a deferred product (`BackwardCtx::product`)
//! opens its own span if forced. Each backward span's end event says which
//! gradients it ran: `input: now` for the gradients the closure computed
//! itself, `weight` / `bias` `now` or `deferred` for a product's (a forced
//! product's own span: `now`). Nothing below the tape (`hfta-tensor`,
//! `hfta-kernels`, `hfta-mem`) records anything, so every op counts once.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use hfta_telemetry::{LaneId, OpCost, OpSpanGuard, Profiler};
use hfta_tensor::{Shape, Tensor};

use crate::parameter::Parameter;

/// Gradients flowing to each parent: `(parent_node_id, gradient)` pairs.
pub(crate) type ParentGrads = Vec<(usize, Tensor)>;

/// A backward function: maps the node's output gradient to parent
/// gradients, reading whatever values it needs from the tape through the
/// [`BackwardCtx`] instead of holding copies of them.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &BackwardCtx<'_>) -> ParentGrads>;

/// How a node sends its output gradient back: through a closure, or (a
/// `narrow`) as the window `(parent, axis, start)` added into the parent's.
pub(crate) enum Backward {
    Closure(BackwardFn),
    Window(usize, usize, usize),
}

/// The span arg naming a product's gradient: `BackwardCtx::product`'s
/// weight, or (a reduction) its bias.
const PART: [&str; 2] = ["weight", "bias"];

/// A gradient: computed, or a product `BackwardCtx::product` deferred.
pub(crate) enum Grad {
    Now(Tensor),
    Later(Box<dyn FnOnce() -> Tensor>),
}

impl Grad {
    pub(crate) fn force(self) -> Tensor {
        match self {
            Grad::Now(g) => g,
            Grad::Later(product) => product(),
        }
    }
}

/// What a backward closure may read during the reverse sweep: the values
/// the tape already holds — its parents' and its own output — and which
/// parents want a gradient at all.
pub(crate) struct BackwardCtx<'a> {
    nodes: &'a [Node],
    id: usize,
    g: &'a Rc<Tensor>,
    /// The returned gradients declared reductions, and the elements they read.
    reduced: Cell<(usize, usize)>,
    /// Products deferred into read parameter slots, for the sweep to hand on.
    deferred: RefCell<Vec<(usize, Grad)>>,
    /// Each [`PART`]'s product: run `"now"`, `"deferred"`, or not asked for.
    ran: Cell<[Option<&'static str>; 2]>,
}

impl<'a> BackwardCtx<'a> {
    fn new(nodes: &'a [Node], id: usize, g: &'a Rc<Tensor>) -> Self {
        BackwardCtx {
            nodes,
            id,
            g,
            reduced: Cell::new((0, 0)),
            deferred: RefCell::new(Vec::new()),
            ran: Cell::new([None; 2]),
        }
    }

    /// Parent `id`'s gradient `f(g, v)` over node `of`'s value, priced as a
    /// forward (or as summing `g`): computed now unless `id`'s parameter slot
    /// was read since its last zero, else deferred holding `g`, `v` shared.
    pub(crate) fn product<F>(&self, id: usize, of: usize, f: &F, reduction: bool) -> Option<Tensor>
    where
        F: Fn(&Tensor, &Tensor) -> Tensor + Clone + 'static,
    {
        let (g, v, node) = (self.g, &self.nodes[of].value, &self.nodes[self.id]);
        let (op, cost) = match reduction {
            true => (node.op, OpCost::reduction(g.numel())),
            false => (node.op, node.cost),
        };
        let (part, mut ran) = (usize::from(reduction), self.ran.get());
        let now = !(self.nodes[id].param.as_ref()).is_some_and(Parameter::is_read);
        ran[part] = Some(if now { "now" } else { "deferred" });
        self.ran.set(ran);
        if now {
            if reduction {
                self.reduces(g.numel());
            }
            return Some(f(g, v));
        }
        let (f, g, v) = (f.clone(), Rc::clone(g), Rc::clone(v));
        // Forced, it opens its own span under the profiler installed then.
        let product = Box::new(move || {
            let _span = Profiler::current().map(|p| {
                let mut span = p.op_span(p.lane("autograd", "backward"), format!("bwd:{op}"), cost);
                span.arg(PART[part], "now");
                span
            });
            f(&g, &v)
        });
        self.deferred.borrow_mut().push((id, Grad::Later(product)));
        None
    }

    /// Declares that one of the gradients the closure returns sums `numel`
    /// elements (a bias gradient over `gy`): the backward span prices it
    /// as that reduction, not as another forward.
    pub(crate) fn reduces(&self, numel: usize) {
        let (grads, elements) = self.reduced.get();
        self.reduced.set((grads + 1, elements + numel));
    }

    /// The forward value of node `id` (a parent of the running node).
    pub(crate) fn value(&self, id: usize) -> &'a Tensor {
        &self.nodes[id].value
    }

    /// The running node's own forward output.
    pub(crate) fn output(&self) -> &'a Tensor {
        &self.nodes[self.id].value
    }

    /// Whether a gradient sent to node `id` can reach a parameter. A
    /// constant — a [`Tape::leaf`] or an op over constants only — would drop
    /// it unread: ops skip computing it.
    pub(crate) fn needs_grad(&self, id: usize) -> bool {
        self.nodes[id].needs_grad()
    }
}

pub(crate) struct Node {
    /// Shared with a [`Tape::param`]'s parameter and any deferred product.
    pub(crate) value: Rc<Tensor>,
    pub(crate) backward: Option<Backward>,
    pub(crate) param: Option<Parameter>,
    /// Op that produced this node and the cost its forward span declared;
    /// they name and price the backward span.
    pub(crate) op: &'static str,
    pub(crate) cost: OpCost,
}

impl Node {
    fn needs_grad(&self) -> bool {
        self.backward.is_some() || self.param.is_some()
    }
}

/// A node's gradient as the sweep accumulates it, with the bits of the plain
/// rule (first gradient moved in, later ones added whole, windows
/// zero-padded). Padding adds `+0.0` outside a window, which only turns
/// `-0.0` into `+0.0` and quiets a signalling NaN; so a lone window is kept
/// as it arrived, and disjoint windows on one axis are added into one
/// zeroed slot (`0.0 + g`) in place. Anything else takes the plain rule.
/// A deferred product waits only while it is a parameter node's sole gradient.
enum Slot {
    Empty,
    /// `(axis, spans, grad)`; `grad` is the window itself while it is alone.
    Windows(usize, Vec<Range<usize>>, Tensor),
    Whole(Grad),
}

impl Slot {
    /// Empties the slot of a node of shape `shape`, returning its gradient.
    fn take(&mut self, shape: &Shape) -> Option<Grad> {
        match std::mem::replace(self, Slot::Empty) {
            Slot::Empty => None,
            Slot::Windows(axis, spans, grad) if spans.len() == 1 => {
                let mut full = Tensor::zeros(shape.clone());
                full.narrow_assign(axis, spans[0].start, &grad);
                Some(Grad::Now(full))
            }
            Slot::Windows(_, _, grad) => Some(Grad::Now(grad)),
            Slot::Whole(g) => Some(g),
        }
    }

    fn add(&mut self, shape: &Shape, g: Grad) {
        *self = Slot::Whole(match self.take(shape) {
            None => g,
            Some(sum) => {
                let mut sum = sum.force();
                sum.add_assign_scaled(&g.force(), 1.0);
                Grad::Now(sum)
            }
        });
    }

    fn add_window(&mut self, shape: &Shape, axis: usize, start: usize, g: Tensor) {
        let span = start..start + g.dim(axis);
        let apart = |r: &Range<usize>| r.end <= span.start || span.end <= r.start;
        match self {
            Slot::Empty => *self = Slot::Windows(axis, vec![span], g),
            Slot::Windows(a, spans, grad) if *a == axis && spans.iter().all(apart) => {
                if let [first] = &spans[..] {
                    let mut full = Tensor::zeros(shape.clone());
                    full.narrow_add_assign(axis, first.start, grad);
                    *grad = full;
                }
                grad.narrow_add_assign(axis, start, &g);
                spans.push(span);
            }
            _ => {
                let padded = Slot::Windows(axis, vec![span], g).take(shape);
                self.add(shape, padded.expect("a window"));
            }
        }
    }
}

/// Telemetry captured once per tape so hot paths pay a single branch.
pub(crate) struct TapeTelemetry {
    pub(crate) profiler: Profiler,
    pub(crate) fwd: LaneId,
    pub(crate) bwd: LaneId,
}

#[derive(Default)]
pub(crate) struct TapeInner {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// Name and cost of the op currently recording (consumed by the next
    /// `push`).
    pub(crate) current_op: Cell<Option<(&'static str, OpCost)>>,
    /// `Some` only when a profiler was installed at tape creation.
    pub(crate) telemetry: Option<TapeTelemetry>,
}

/// A recording of a forward computation.
///
/// Create variables with [`Tape::leaf`] (constants) and [`Tape::param`]
/// (trainable leaves), combine them with the methods on [`Var`], and call
/// [`Var::backward`] on a scalar loss.
///
/// # Example
///
/// ```
/// use hfta_nn::{Parameter, Tape};
/// use hfta_tensor::Tensor;
///
/// let w = Parameter::new(Tensor::from_vec(vec![3.0], [1]), "w");
/// let tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![2.0], [1]));
/// let loss = tape.param(&w).mul(&x).sum();
/// loss.backward();
/// assert_eq!(w.grad_cloned().to_vec(), vec![2.0]); // d(w*x)/dw = x
/// ```
#[derive(Clone)]
pub struct Tape {
    pub(crate) inner: Rc<TapeInner>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape::new()
    }
}

impl Tape {
    /// Creates an empty tape. If a [`Profiler`] is installed on this thread,
    /// the tape caches it (plus its forward/backward lanes) so op recording
    /// pays one branch per op; otherwise telemetry is fully disabled.
    pub fn new() -> Self {
        let telemetry = Profiler::current().map(|profiler| {
            let fwd = profiler.lane("autograd", "forward");
            let bwd = profiler.lane("autograd", "backward");
            TapeTelemetry { profiler, fwd, bwd }
        });
        Tape {
            inner: Rc::new(TapeInner {
                nodes: RefCell::new(Vec::new()),
                current_op: Cell::new(None),
                telemetry,
            }),
        }
    }

    /// Opens a forward span for op `name`, attributing FLOPs and bytes from
    /// `cost`, and hands both to the node the op is about to push. On close
    /// the span folds an `OpSample {flops, bytes, ns}` into the current
    /// experiment's per-op aggregates (the hfta-probe roofline feed). When
    /// no profiler is installed this is a single branch: `cost` is never
    /// evaluated and no allocation happens.
    pub(crate) fn record_op(
        &self,
        name: &'static str,
        cost: impl FnOnce() -> OpCost,
    ) -> Option<OpSpanGuard> {
        let t = self.inner.telemetry.as_ref()?;
        let cost = cost();
        self.inner.current_op.set(Some((name, cost)));
        Some(t.profiler.op_span(t.fwd, name, cost))
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.inner.nodes.borrow().len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a constant leaf (no gradient tracking).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(Rc::new(value), None, None)
    }

    /// Records a trainable leaf bound to `param`, sharing its value;
    /// gradients reaching it accumulate into the parameter's grad slot.
    pub fn param(&self, param: &Parameter) -> Var {
        self.push(param.shared_value(), None, Some(param.clone()))
    }

    /// Runs `f` against borrows of several variables' values at once — the
    /// multi-operand form of [`Var::with_value`].
    ///
    /// # Panics
    ///
    /// Panics if a variable lives on another tape, or if `f` re-enters the
    /// tape mutably.
    pub(crate) fn with_values<R>(&self, vars: &[&Var], f: impl FnOnce(&[&Tensor]) -> R) -> R {
        let nodes = self.inner.nodes.borrow();
        let values: Vec<&Tensor> = vars
            .iter()
            .map(|v| {
                assert!(
                    Rc::ptr_eq(&self.inner, &v.tape.inner),
                    "operands must share a tape"
                );
                &*nodes[v.id].value
            })
            .collect();
        f(&values)
    }

    /// Records an op's output over `parents` with its backward closure.
    pub(crate) fn push_op(
        &self,
        value: Tensor,
        parents: &[usize],
        backward: impl Fn(&Tensor, &BackwardCtx<'_>) -> ParentGrads + 'static,
    ) -> Var {
        self.push_with(value, parents, || Backward::Closure(Box::new(backward)))
    }

    /// Records an op's output over `parents` with the backward `f` builds;
    /// if no parent needs a gradient the output is a constant, `f` unrun.
    pub(crate) fn push_with(
        &self,
        value: Tensor,
        parents: &[usize],
        f: impl FnOnce() -> Backward,
    ) -> Var {
        let tracked = (parents.iter()).any(|&id| self.inner.nodes.borrow()[id].needs_grad());
        self.push(Rc::new(value), tracked.then(f), None)
    }

    fn push(&self, value: Rc<Tensor>, backward: Option<Backward>, param: Option<Parameter>) -> Var {
        let (op, cost) = self
            .inner
            .current_op
            .take()
            .unwrap_or(("leaf", OpCost::default()));
        let mut nodes = self.inner.nodes.borrow_mut();
        nodes.push(Node {
            value,
            backward,
            param,
            op,
            cost,
        });
        Var {
            tape: self.clone(),
            id: nodes.len() - 1,
        }
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.len())
    }
}

/// A node in the computation graph: a value plus how to propagate
/// gradients to its inputs.
///
/// `Var` is a lightweight handle (tape reference + node id); cloning it
/// does not copy the value.
#[derive(Clone)]
pub struct Var {
    pub(crate) tape: Tape,
    pub(crate) id: usize,
}

impl Var {
    /// Clone of the node's value.
    ///
    /// This deep-copies the tensor; on hot paths that only need to *read*
    /// the value (compute a forward result, inspect a shape), prefer
    /// [`Var::with_value`], which borrows in place.
    pub fn value(&self) -> Tensor {
        self.with_value(Tensor::clone)
    }

    /// Runs `f` against a borrow of the node's value — the allocation-free
    /// alternative to [`Var::value`] for read-only access.
    ///
    /// # Panics
    ///
    /// Panics if `f` re-enters the tape mutably (records a new op).
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.tape.inner.nodes.borrow()[self.id].value)
    }

    /// Dimension sizes of the node's value.
    pub fn dims(&self) -> Vec<usize> {
        self.tape.inner.nodes.borrow()[self.id]
            .value
            .dims()
            .to_vec()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.tape.inner.nodes.borrow()[self.id].value.dim(axis)
    }

    /// Number of elements of the node's value.
    pub fn numel(&self) -> usize {
        self.tape.inner.nodes.borrow()[self.id].value.numel()
    }

    /// The scalar value (for loss nodes).
    ///
    /// # Panics
    ///
    /// Panics if the value has more than one element.
    pub fn item(&self) -> f32 {
        self.tape.inner.nodes.borrow()[self.id].value.item()
    }

    /// The tape this variable lives on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Runs reverse-mode differentiation from this (scalar) node,
    /// accumulating gradients into every reachable [`Parameter`].
    ///
    /// # Panics
    ///
    /// Panics if the value is not a single element.
    pub fn backward(&self) {
        let ones = {
            let nodes = self.tape.inner.nodes.borrow();
            assert_eq!(
                nodes[self.id].value.numel(),
                1,
                "backward() requires a scalar loss"
            );
            nodes[self.id].value.ones_like()
        };
        self.backward_with(ones);
    }

    /// Reverse sweep seeded with an explicit output gradient (same shape as
    /// this node's value). Useful for Jacobian-vector products in tests.
    ///
    /// # Panics
    ///
    /// Panics if `seed`'s shape differs from the node's value shape.
    pub fn backward_with(&self, seed: Tensor) {
        let nodes = self.tape.inner.nodes.borrow();
        assert_eq!(
            seed.shape(),
            nodes[self.id].value.shape(),
            "backward seed shape mismatch"
        );
        let telemetry = self.tape.inner.telemetry.as_ref();
        let _sweep = telemetry.map(|t| t.profiler.span(t.bwd, "backward"));
        let mut slots: Vec<Slot> = (0..=self.id).map(|_| Slot::Empty).collect();
        slots[self.id] = Slot::Whole(Grad::Now(seed));
        for id in (0..=self.id).rev() {
            let node = &nodes[id];
            let Some(g) = slots[id].take(node.value.shape()) else {
                continue;
            };
            if let Some(param) = &node.param {
                param.accumulate(g);
            } else if let Some(backward) = &node.backward {
                let mut span = telemetry.map(|t| {
                    t.profiler
                        .op_span(t.bwd, format!("bwd:{}", node.op), node.cost)
                });
                match backward {
                    Backward::Closure(backward) => {
                        let g = Rc::new(g.force());
                        let ctx = BackwardCtx::new(&nodes, id, &g);
                        let parent_grads = backward(&g, &ctx);
                        if let Some(span) = &mut span {
                            let (reductions, numel) = ctx.reduced.get();
                            span.scale(parent_grads.len() - reductions);
                            span.add(OpCost::reduction(numel));
                            let ran = ctx.ran.get();
                            let products = ran.iter().filter(|r| **r == Some("now")).count();
                            if parent_grads.len() > products {
                                span.arg("input", "now");
                            }
                            for (part, ran) in PART.into_iter().zip(ran) {
                                if let Some(ran) = ran {
                                    span.arg(part, ran);
                                }
                            }
                        }
                        for (pid, pg) in parent_grads {
                            debug_assert!(pid < id, "tape must be topologically ordered");
                            slots[pid].add(nodes[pid].value.shape(), Grad::Now(pg));
                        }
                        for (pid, pg) in ctx.deferred.take() {
                            slots[pid].add(nodes[pid].value.shape(), pg);
                        }
                    }
                    &Backward::Window(parent, axis, start) => {
                        let shape = nodes[parent].value.shape();
                        slots[parent].add_window(shape, axis, start, g.force());
                    }
                }
            }
        }
    }

    /// Records a unary op whose `backward(g, x, y)` maps the output
    /// gradient to this node's gradient, reading this node's value `x` and
    /// the op's output `y` from the tape. A constant if this node is one.
    pub(crate) fn unary(
        &self,
        value: Tensor,
        backward: impl Fn(&Tensor, &Tensor, &Tensor) -> Tensor + 'static,
    ) -> Var {
        let id = self.id;
        self.tape.push_op(value, &[id], move |g, ctx| {
            vec![(id, backward(g, ctx.value(id), ctx.output()))]
        })
    }

    /// Records a binary op: `grad_a(g, a, b)` / `grad_b(g, a, b)` map the
    /// output gradient to each operand's gradient, reading both operand
    /// values from the tape; each runs only if its operand needs a
    /// gradient.
    pub(crate) fn binary(
        &self,
        other: &Var,
        value: Tensor,
        grad_a: impl Fn(&Tensor, &Tensor, &Tensor) -> Tensor + 'static,
        grad_b: impl Fn(&Tensor, &Tensor, &Tensor) -> Tensor + 'static,
    ) -> Var {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "operands must share a tape"
        );
        let (a, b) = (self.id, other.id);
        self.tape.push_op(value, &[a, b], move |g, ctx| {
            let (av, bv) = (ctx.value(a), ctx.value(b));
            let mut out = Vec::with_capacity(2);
            if ctx.needs_grad(a) {
                out.push((a, grad_a(g, av, bv)));
            }
            if ctx.needs_grad(b) {
                out.push((b, grad_b(g, av, bv)));
            }
            out
        })
    }
}

#[cfg(test)]
impl Var {
    /// The parents this op node's backward sends a gradient to, given the
    /// output gradient `g`.
    pub(crate) fn grad_targets(&self, g: &Tensor) -> Vec<usize> {
        let nodes = self.tape.inner.nodes.borrow();
        match nodes[self.id].backward.as_ref().expect("an op node") {
            Backward::Closure(backward) => {
                let g = Rc::new(g.clone());
                let ctx = BackwardCtx::new(&nodes, self.id, &g);
                let now = backward(&g, &ctx).into_iter().map(|(id, _)| id);
                now.chain(ctx.deferred.take().into_iter().map(|(id, _)| id))
                    .collect()
            }
            Backward::Window(parent, ..) => vec![*parent],
        }
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = self.tape.inner.nodes.borrow();
        write!(
            f,
            "Var(#{}, shape {})",
            self.id,
            nodes[self.id].value.shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_holds_value() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        assert_eq!(x.value().to_vec(), vec![1.0, 2.0]);
        assert_eq!(x.dims(), vec![2]);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn param_grad_accumulates_across_backwards() {
        let w = Parameter::new(Tensor::from_vec(vec![2.0], [1]), "w");
        for _ in 0..2 {
            let tape = Tape::new();
            let loss = tape.param(&w).sum();
            loss.backward();
        }
        // d(sum(w))/dw = 1 per pass, accumulated twice.
        assert_eq!(w.grad_cloned().to_vec(), vec![2.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = sum(x * x + x * x) with both products sharing x.
        let w = Parameter::new(Tensor::from_vec(vec![3.0], [1]), "w");
        let tape = Tape::new();
        let x = tape.param(&w);
        let y = x.mul(&x).add(&x.mul(&x)).sum();
        y.backward();
        // d(2x^2)/dx = 4x = 12.
        assert_eq!(w.grad_cloned().to_vec(), vec![12.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([2]));
        x.backward();
    }

    #[test]
    fn backward_with_seed() {
        let w = Parameter::new(Tensor::from_vec(vec![1.0, 2.0], [2]), "w");
        let tape = Tape::new();
        let y = tape.param(&w).mul_scalar(3.0);
        y.backward_with(Tensor::from_vec(vec![1.0, 10.0], [2]));
        assert_eq!(w.grad_cloned().to_vec(), vec![3.0, 30.0]);
    }

    #[test]
    fn profiler_captures_forward_and_backward_spans() {
        let p = Profiler::new("tape-test");
        let _g = p.install();
        let w = Parameter::new(Tensor::from_vec(vec![2.0], [1]), "w");
        let tape = Tape::new();
        let x = tape.param(&w);
        let loss = x.mul(&x).sum();
        loss.backward();
        // mul B/E + sum B/E forward, plus backward sweep + per-op bwd spans.
        assert!(p.event_count() >= 8, "events {}", p.event_count());
        let json = p.trace_json();
        assert!(json.contains("\"mul\""));
        assert!(json.contains("bwd:mul"));
        assert!(json.contains("flops"));
        // Forward ops fold OpSamples for the probe roofline layer, and
        // each backward node one more: forward cost x parent gradients.
        let report = p.report();
        let mul = report.experiments[0].op("mul").expect("mul op sample");
        assert_eq!(mul.calls, 1);
        assert!(mul.flops > 0.0 && mul.bytes > 0.0 && mul.ns > 0.0);
        assert!(report.experiments[0].op("sum").is_some());
        let bwd = report.experiments[0].op("bwd:mul").expect("bwd:mul sample");
        assert_eq!((bwd.calls, bwd.flops), (1, 2.0 * mul.flops));
    }

    /// A convolution's bias gradient sums `gy`; it is no third forward.
    #[test]
    fn a_conv_bias_gradient_is_priced_as_its_reduction() {
        let p = Profiler::new("tape-test");
        let _g = p.install();
        let param = |dims: &[usize]| Parameter::new(Tensor::ones(dims), "p");
        let (x, w, b) = (param(&[2, 3, 6, 6]), param(&[4, 3, 3, 3]), param(&[4]));
        let tape = Tape::new();
        let cfg = hfta_tensor::conv::ConvCfg::square(1, 1, 1);
        let y = tape
            .param(&x)
            .conv2d(&tape.param(&w), Some(&tape.param(&b)), cfg);
        let gy_numel = y.numel();
        y.sum().backward();
        let report = p.report();
        let fwd = report.experiments[0].op("conv2d").expect("conv2d sample");
        let bwd = report.experiments[0]
            .op("bwd:conv2d")
            .expect("bwd:conv2d sample");
        let sum = OpCost::reduction(gy_numel);
        assert_eq!(bwd.flops, 2.0 * fwd.flops + sum.flops);
        assert_eq!(bwd.bytes, 2.0 * fwd.bytes + sum.bytes);
    }

    /// Each backward span names the gradients it ran: a conv's input and
    /// weight gradients now; with the weight's slot read since its last
    /// zero, its gradient deferred, then run in its own span when forced.
    #[test]
    fn backward_spans_name_the_gradients_they_ran() {
        let p = Profiler::new("tape-test");
        let _g = p.install();
        let param = |dims: &[usize]| Parameter::new(Tensor::ones(dims), "p");
        let (x, w) = (param(&[1, 2, 5, 5]), param(&[3, 2, 3, 3]));
        let cfg = hfta_tensor::conv::ConvCfg::square(1, 1, 1);
        let step = || {
            let tape = Tape::new();
            let y = tape.param(&x).conv2d(&tape.param(&w), None, cfg);
            y.sum().backward();
        };
        step();
        drop(w.grad());
        step();
        drop(w.grad());
        let json: String = p.trace_json().split_whitespace().collect();
        let conv: Vec<&str> = (json.split("},{"))
            .filter(|e| e.contains(r#""name":"bwd:conv2d""#))
            .collect();
        assert_eq!(conv.len(), 6, "three spans, begin and end");
        let count = |s: &str| conv.iter().filter(|e| e.contains(s)).count();
        assert_eq!(count(r#""input":"now""#), 2);
        assert_eq!(count(r#""weight":"now""#), 2);
        assert_eq!(count(r#""weight":"deferred""#), 1);
        assert_eq!(count(r#""bias""#), 0);
    }

    #[test]
    fn no_profiler_means_no_tape_telemetry() {
        let tape = Tape::new();
        assert!(tape.inner.telemetry.is_none());
    }

    #[test]
    #[should_panic(expected = "share a tape")]
    fn cross_tape_ops_rejected() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.leaf(Tensor::ones([1]));
        let b = t2.leaf(Tensor::ones([1]));
        let _ = a.add(&b);
    }
}
