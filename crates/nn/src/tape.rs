//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records the forward computation as a topologically ordered
//! list of nodes; [`Var::backward`] sweeps it in reverse, accumulating
//! gradients into [`Parameter`] slots. An op node records its backward as
//! data, an [`Op`]: its parents' ids and what the backward reads besides
//! the values the tape holds (a scalar, an axis, a product's shapes, argmax
//! indices, targets, batch norm's x̂ and inverse std). The sweep runs every
//! backward through one `match` over it. An op over constants only records
//! no backward: it is a constant like a [`Tape::leaf`]. The tape is rebuilt
//! every training iteration while parameters persist outside it — the same
//! lifecycle as PyTorch's dynamic graph.
//!
//! The tape is also the **one place an op sample comes from**. Under an
//! installed [`Profiler`] every op opens one forward span declaring its
//! [`OpCost`] (`Tape::record_op`), and the node keeps that cost; the
//! backward sweep opens one `bwd:<op>` span per node it reaches (only ops
//! that can reach a parameter have a backward) and prices it by what the
//! `match` ran: the forward cost per input or weight gradient, and a sum
//! of the output gradient per bias gradient. That is exact for the
//! GEMM-backed ops (input + weight gradient = 2 x forward, the 3x-forward
//! training rule the simulator is priced with) and the right order for
//! elementwise ops; a `narrow`'s window costs its forward. A product's
//! weight or bias gradient deferred into a read parameter slot opens its
//! own span if forced. Each backward span's end event says which gradients
//! it ran: `input: now` for the gradients toward inputs, `weight` / `bias`
//! `now` or `deferred` for a product's (a forced product's own span:
//! `now`). Nothing below the tape (`hfta-tensor`, `hfta-kernels`,
//! `hfta-mem`) records anything, so every op counts once.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use hfta_telemetry::{LaneId, OpCost, OpSpanGuard, Profiler};
use hfta_tensor::activation::{
    leaky_relu_backward, log_softmax_backward, relu_backward, sigmoid_backward, softmax_backward,
    tanh_backward,
};
use hfta_tensor::norm::{
    batch_norm_backward_grouped, batch_norm_eval_backward_grouped, BatchNormOutput,
};
use hfta_tensor::pool::max_pool2d_backward;
use hfta_tensor::{Shape, Tensor};

use crate::parameter::Parameter;
use crate::var_nn::Product;

/// A node's backward as data: its parents' ids (the first field, `x`, or
/// `[x, gamma, beta]`) and what the backward reads besides the values the
/// tape holds. [`Var::backward_with`] runs every variant in one `match`.
pub(crate) enum Op {
    /// Broadcasting `add`, `sub`, `mul` and `div` of two parents.
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    AddScalar(usize),
    MulScalar(usize, f32),
    Neg(usize),
    Relu(usize),
    LeakyRelu(usize, f32),
    Tanh(usize),
    Sigmoid(usize),
    Exp(usize),
    Ln(usize),
    Square(usize),
    /// Times the constant tensor, broadcast.
    MulConst(usize, Tensor),
    /// Plus a constant tensor, broadcast.
    AddConst(usize),
    Sum(usize),
    Mean(usize),
    /// Sum along the axis, kept.
    SumAxis(usize, usize),
    /// Max along the axis: each output's argmax along it.
    MaxAxis(usize, usize, Vec<usize>),
    /// `reshape` or `flatten_from`.
    Reshape(usize),
    /// `permute`: the inverse order.
    Permute(usize, Vec<usize>),
    /// `narrow` at `(axis, start)`: its gradient is added into the
    /// parent's slot as a window.
    Narrow(usize, usize, usize),
    /// `concat` along the axis of `(parent, size along the axis)` parts.
    Concat(Vec<(usize, usize)>, usize),
    /// A convolution or (batched) matrix product of an input and a weight,
    /// with an optional bias.
    Product(usize, usize, Option<usize>, Product),
    /// 2-D max pooling: each output's flat input index.
    MaxPool2d(usize, Vec<usize>),
    /// Training batch norm over groups: the forward's x̂ and inverse std.
    BatchNorm([usize; 3], Option<usize>, BatchNormOutput),
    /// Eval batch norm over groups: the running mean and its inverse std.
    BatchNormEval([usize; 3], Option<usize>, Vec<f32>, Vec<f32>),
    LogSoftmax(usize, usize),
    Softmax(usize, usize),
    /// Mean negative log-likelihood of the targets.
    NllLoss(usize, Vec<usize>),
    /// Mean binary cross-entropy of the logits against the targets.
    BceWithLogits(usize, Tensor),
    /// Mean squared error: the forward's `x - target`.
    MseLoss(usize, Tensor),
}

/// The span args naming the gradients a backward ran: toward inputs (every
/// parent but a product's weight and bias), a product's weight, its bias.
const PART: [&str; 3] = ["input", "weight", "bias"];

/// A gradient: computed, or a product's deferred into a read slot.
pub(crate) enum Grad {
    Now(Tensor),
    Later(Deferred),
}

/// A product's weight (or, `true`, bias) gradient waiting unevaluated in a
/// read parameter slot: `(product, bias, g, x, op, cost)`, the output
/// gradient and input it reads shared with the tape, and the op name and
/// cost of its span if forced.
pub(crate) struct Deferred(Product, bool, Rc<Tensor>, Rc<Tensor>, &'static str, OpCost);

impl Grad {
    pub(crate) fn force(self) -> Tensor {
        let Deferred(product, bias, g, x, op, cost) = match self {
            Grad::Now(g) => return g,
            Grad::Later(d) => d,
        };
        // Forced, it opens its own span under the profiler installed then.
        let _span = Profiler::current().map(|p| {
            let mut span = p.op_span(p.lane("autograd", "backward"), format!("bwd:{op}"), cost);
            span.arg(PART[1 + usize::from(bias)], "now");
            span
        });
        product.grad(bias, &g, &x)
    }
}

pub(crate) struct Node {
    /// Shared with a [`Tape::param`]'s parameter and any deferred product.
    pub(crate) value: Rc<Tensor>,
    pub(crate) backward: Option<Op>,
    pub(crate) param: Option<Parameter>,
    /// Op that produced this node and the cost its forward span declared;
    /// they name and price the backward span.
    pub(crate) op: &'static str,
    pub(crate) cost: OpCost,
}

impl Node {
    /// Whether a gradient sent here can reach a parameter. A constant — a
    /// [`Tape::leaf`] or an op over constants only — would drop it unread:
    /// the sweep computes none toward it.
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

/// Where one node's backward sends its parents' gradients, and what it ran.
struct Sent<'a> {
    nodes: &'a [Node],
    slots: &'a mut [Slot],
    /// Gradients computed toward inputs.
    inputs: usize,
    /// Each [`PART`]'s gradients: sent `"now"`, `"deferred"`, or none asked for.
    ran: [Option<&'static str>; 3],
}

impl Sent<'_> {
    /// Sends parent `id` the gradient `f` computes, if it needs one.
    fn input(&mut self, id: usize, f: impl FnOnce() -> Tensor) {
        if self.nodes[id].needs_grad() {
            self.inputs += 1;
            self.ran[0] = Some("now");
            self.add(id, Grad::Now(f()));
        }
    }

    /// Sends parent `id` a product's weight (or `bias`) gradient.
    fn part(&mut self, id: usize, bias: bool, g: Grad) {
        let now = matches!(g, Grad::Now(_));
        self.ran[1 + usize::from(bias)] = Some(if now { "now" } else { "deferred" });
        self.add(id, g);
    }

    fn add(&mut self, id: usize, g: Grad) {
        self.slots[id].add(self.nodes[id].value.shape(), g);
    }
}

/// Runs op node `id`'s backward on its output gradient `g`: one `match`
/// over its [`Op`] adds each parent that needs one its gradient in `slots`,
/// and `span` is priced by what ran.
fn backward(nodes: &[Node], id: usize, g: Tensor, slots: &mut [Slot], span: Option<OpSpanGuard>) {
    let node = &nodes[id];
    let (v, y) = (|id: usize| &*nodes[id].value, &*node.value);
    let mut to = Sent {
        nodes,
        slots,
        inputs: 0,
        ran: [None; 3],
    };
    let numel = g.numel();
    match *node.backward.as_ref().expect("an op node") {
        Op::Add(a, b) => {
            to.input(a, || g.sum_to(v(a).shape()));
            to.input(b, || g.sum_to(v(b).shape()));
        }
        Op::Sub(a, b) => {
            to.input(a, || g.sum_to(v(a).shape()));
            to.input(b, || g.neg().sum_to(v(b).shape()));
        }
        Op::Mul(a, b) => {
            to.input(a, || g.mul(v(b)).sum_to(v(a).shape()));
            to.input(b, || g.mul(v(a)).sum_to(v(b).shape()));
        }
        Op::Div(a, b) => {
            to.input(a, || g.div(v(b)).sum_to(v(a).shape()));
            to.input(b, || {
                g.mul(v(a)).neg().div(&v(b).square()).sum_to(v(b).shape())
            });
        }
        Op::AddScalar(x) => to.input(x, || g),
        Op::MulScalar(x, s) => to.input(x, || g.mul_scalar(s)),
        Op::Neg(x) => to.input(x, || g.neg()),
        Op::Relu(x) => to.input(x, || relu_backward(&g, v(x))),
        Op::LeakyRelu(x, slope) => to.input(x, || leaky_relu_backward(&g, v(x), slope)),
        Op::Tanh(x) => to.input(x, || tanh_backward(&g, y)),
        Op::Sigmoid(x) => to.input(x, || sigmoid_backward(&g, y)),
        Op::Exp(x) => to.input(x, || g.mul(y)),
        Op::Ln(x) => to.input(x, || g.div(v(x))),
        Op::Square(x) => to.input(x, || g.mul(v(x)).mul_scalar(2.0)),
        Op::MulConst(x, ref c) => to.input(x, || g.mul(c).sum_to(v(x).shape())),
        Op::AddConst(x) => to.input(x, || g.sum_to(v(x).shape())),
        Op::Sum(x) => to.input(x, || Tensor::full(v(x).shape().clone(), g.item())),
        Op::Mean(x) => to.input(x, || {
            Tensor::full(v(x).shape().clone(), g.item() / v(x).numel() as f32)
        }),
        Op::SumAxis(x, axis) => to.input(x, || g.expand_axis(axis, v(x).dim(axis))),
        Op::MaxAxis(x, axis, ref indices) => to.input(x, || {
            let dims = v(x).dims();
            let (n, inner) = (dims[axis], dims[axis + 1..].iter().product::<usize>());
            let mut gx = Tensor::zeros(dims);
            let out = gx.as_mut_slice();
            for (oi, (&k, &gv)) in indices.iter().zip(g.as_slice()).enumerate() {
                out[(oi / inner * n + k) * inner + oi % inner] += gv;
            }
            gx
        }),
        Op::Reshape(x) => to.input(x, || g.reshape(v(x).dims())),
        Op::Permute(x, ref inverse) => to.input(x, || g.permute(inverse)),
        Op::Narrow(x, axis, start) => {
            // A window costs its forward and names no gradient.
            return to.slots[x].add_window(v(x).shape(), axis, start, g);
        }
        Op::Concat(ref parts, axis) => {
            let mut offset = 0;
            for &(id, size) in parts {
                to.input(id, || g.narrow(axis, offset, size));
                offset += size;
            }
        }
        Op::Product(x, w, b, product) => {
            to.input(x, || product.grad_input(&g, v(w)));
            // The weight's and bias's gradients run now, but for one whose
            // parameter slot was read since its last zero: that one waits
            // there unevaluated, sharing `g` and `x` with the tape.
            let parts = [Some((w, false)), b.map(|b| (b, true))];
            let parts = parts.map(|p| p.filter(|&(id, _)| nodes[id].needs_grad()));
            let read = |&(id, _): &(usize, bool)| {
                (nodes[id].param.as_ref()).is_some_and(Parameter::is_read)
            };
            for (id, bias) in parts.into_iter().flatten().filter(|p| !read(p)) {
                to.part(id, bias, Grad::Now(product.grad(bias, &g, v(x))));
            }
            if parts.iter().flatten().any(read) {
                let g = Rc::new(g);
                for (id, bias) in parts.into_iter().flatten().filter(read) {
                    let cost = [node.cost, OpCost::reduction(numel)][usize::from(bias)];
                    let (g, x) = (Rc::clone(&g), Rc::clone(&nodes[x].value));
                    let d = Deferred(product, bias, g, x, node.op, cost);
                    to.part(id, bias, Grad::Later(d));
                }
            }
        }
        Op::MaxPool2d(x, ref indices) => {
            to.input(x, || max_pool2d_backward(&g, indices, v(x).dims()));
        }
        Op::BatchNorm([x, gamma, beta], groups, ref ctx) => {
            let (gx, ggamma, gbeta) = batch_norm_backward_grouped(&g, groups, ctx, v(gamma));
            for (id, grad) in [(x, gx), (gamma, ggamma), (beta, gbeta)] {
                to.input(id, || grad);
            }
        }
        Op::BatchNormEval([x, gamma, beta], groups, ref mean, ref inv_std) => {
            let grads = batch_norm_eval_backward_grouped(&g, v(x), groups, v(gamma), mean, inv_std);
            for (id, grad) in [(x, grads.0), (gamma, grads.1), (beta, grads.2)] {
                to.input(id, || grad);
            }
        }
        Op::LogSoftmax(x, axis) => to.input(x, || log_softmax_backward(&g, y, axis)),
        Op::Softmax(x, axis) => to.input(x, || softmax_backward(&g, y, axis)),
        Op::NllLoss(x, ref targets) => to.input(x, || {
            let lp = v(x);
            let (n, c) = (lp.dim(0), lp.dim(1));
            let d = if lp.rank() == 3 { lp.dim(2) } else { 1 };
            let scale = -g.item() / (n * d) as f32;
            let mut gx = Tensor::zeros(lp.shape().clone());
            let out = gx.as_mut_slice();
            for (i, &t) in targets.iter().enumerate() {
                out[(i / d * c + t) * d + i % d] = scale;
            }
            gx
        }),
        Op::BceWithLogits(x, ref targets) => to.input(x, || {
            // d/dx = sigmoid(x) - y.
            let x = v(x);
            x.sigmoid()
                .sub(targets)
                .mul_scalar(g.item() / x.numel() as f32)
        }),
        Op::MseLoss(x, ref diff) => {
            to.input(x, || diff.mul_scalar(2.0 * g.item() / diff.numel() as f32))
        }
    }
    if let Some(mut span) = span {
        let now = to.ran.map(|ran| ran == Some("now"));
        span.scale(to.inputs + usize::from(now[1]));
        span.add(OpCost::reduction(numel * usize::from(now[2])));
        for (part, ran) in PART.into_iter().zip(to.ran) {
            if let Some(ran) = ran {
                span.arg(part, ran);
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

    /// Records an op's output over `parents` with the backward `op`
    /// describes; if no parent needs a gradient the output is a constant.
    pub(crate) fn push_op(&self, value: Tensor, parents: &[usize], op: Op) -> Var {
        let tracked = (parents.iter()).any(|&id| self.inner.nodes.borrow()[id].needs_grad());
        self.push(Rc::new(value), tracked.then_some(op), None)
    }

    fn push(&self, value: Rc<Tensor>, backward: Option<Op>, param: Option<Parameter>) -> Var {
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
            } else if node.backward.is_some() {
                let span = telemetry.map(|t| {
                    t.profiler
                        .op_span(t.bwd, format!("bwd:{}", node.op), node.cost)
                });
                backward(&nodes, id, g.force(), &mut slots, span);
            }
        }
    }

    /// Records an op over this node alone: its output `value` and the
    /// backward `op` describes.
    pub(crate) fn record(&self, value: Tensor, op: Op) -> Var {
        self.tape.push_op(value, &[self.id], op)
    }
}

#[cfg(test)]
impl Var {
    /// The parents this op node's backward sends a gradient to, given the
    /// output gradient `g`.
    pub(crate) fn grad_targets(&self, g: &Tensor) -> Vec<usize> {
        let nodes = self.tape.inner.nodes.borrow();
        let mut slots: Vec<Slot> = (0..self.id).map(|_| Slot::Empty).collect();
        backward(&nodes, self.id, g.clone(), &mut slots, None);
        (0..self.id)
            .filter(|&id| !matches!(slots[id], Slot::Empty))
            .collect()
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

    /// The end events of the `bwd:<op>` spans, in order: each one's FLOPs,
    /// bytes and the `key:value` args naming the gradients it ran.
    fn bwd_spans(p: &Profiler, op: &str) -> Vec<(f64, f64, Vec<String>)> {
        let head = format!(r#"{{"name":"bwd:{op}","ph":"E""#);
        (p.trace_json().split(&head).skip(1))
            .map(|event| {
                let args = event.split(r#""args":{"#).nth(1).expect("end args");
                let args = &args[..args.find('}').expect("args close")];
                let mut kv = args.split(',').map(|a| {
                    let (k, v) = a.split_once(':').expect("key:value");
                    (k.trim_matches('"'), v.trim_matches('"'))
                });
                let mut cost = |key| match kv.next() {
                    Some((k, v)) if k == key => v.parse::<f64>().expect("a number"),
                    other => panic!("{op}: {key} expected, {other:?} found"),
                };
                let (flops, bytes) = (cost("flops"), cost("bytes"));
                (flops, bytes, kv.map(|(k, v)| format!("{k}:{v}")).collect())
            })
            .collect()
    }

    /// Every product kind's backward spans. With empty slots the sweep's
    /// span prices the input and weight gradients at the forward's cost
    /// each and the bias gradient at summing `gy`, and names all three
    /// `now`; with the weight and bias slots read it prices the input
    /// gradient alone and names the other two `deferred`; reading the
    /// slots then forces each in a span of its own.
    #[test]
    fn backward_spans_price_and_name_every_product_kind() {
        type Product = fn(&Var, &Var, Option<&Var>) -> Var;
        /// Name, input and weight dims, bias channels, the op.
        type Case = (
            &'static str,
            &'static [usize],
            &'static [usize],
            Option<usize>,
            Product,
        );
        let cases: [Case; 5] = [
            (
                "conv2d",
                &[2, 4, 6, 6],
                &[6, 2, 3, 3],
                Some(6),
                |x, w, b| x.conv2d(w, b, hfta_tensor::conv::ConvCfg::square(2, 1, 2)),
            ),
            ("conv1d", &[2, 4, 9], &[6, 2, 3], Some(6), |x, w, b| {
                x.conv1d(w, b, 1, 1, 2)
            }),
            (
                "conv_transpose2d",
                &[2, 4, 3, 3],
                &[4, 3, 4, 4],
                Some(6),
                |x, w, b| x.conv_transpose2d(w, b, hfta_tensor::conv::ConvCfg::square(2, 1, 2)),
            ),
            ("matmul", &[3, 4], &[4, 5], None, |x, w, _| x.matmul(w)),
            ("bmm", &[2, 3, 4], &[2, 4, 5], None, |x, w, _| x.bmm(w)),
        ];
        let strings = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for (name, xd, wd, bias, op) in cases {
            let param = |dims: &[usize]| Parameter::new(Tensor::ones(dims), "p");
            let (x, w, b) = (param(xd), param(wd), bias.map(|c| param(&[c])));
            let read_slots = || {
                drop(w.grad());
                b.iter().for_each(|b| drop(b.grad()));
            };
            // One step under `p`, returning the cost of summing `gy`.
            let step = |p: &Profiler| {
                let _g = p.install();
                let tape = Tape::new();
                let bv = b.as_ref().map(|b| tape.param(b));
                let y = op(&tape.param(&x), &tape.param(&w), bv.as_ref());
                let gy = OpCost::reduction(y.numel());
                y.sum().backward();
                gy
            };

            let eager = Profiler::new("eager");
            let gy = step(&eager);
            let report = eager.report();
            let fwd = report.experiments[0].op(name).expect("forward sample");
            let (mut flops, mut bytes) = (2.0 * fwd.flops, 2.0 * fwd.bytes);
            let mut args = strings(&["input:now", "weight:now"]);
            if bias.is_some() {
                (flops, bytes) = (flops + gy.flops, bytes + gy.bytes);
                args.push("bias:now".into());
            }
            assert_eq!(bwd_spans(&eager, name), [(flops, bytes, args)], "{name}");

            read_slots();
            let deferred = Profiler::new("deferred");
            step(&deferred);
            let mut args = strings(&["input:now", "weight:deferred"]);
            args.extend(bias.map(|_| "bias:deferred".to_string()));
            let want = [(fwd.flops, fwd.bytes, args)];
            assert_eq!(bwd_spans(&deferred, name), want, "{name}");

            let forced = Profiler::new("forced");
            let guard = forced.install();
            read_slots();
            drop(guard);
            let mut want = vec![(fwd.flops, fwd.bytes, strings(&["weight:now"]))];
            want.extend(bias.map(|_| (gy.flops, gy.bytes, strings(&["bias:now"]))));
            assert_eq!(bwd_spans(&forced, name), want, "{name}");
        }
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
