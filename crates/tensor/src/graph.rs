//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a single forward pass: leaves are created from parameter
//! or input tensors, operations append nodes in topological order, and
//! [`Graph::backward`] walks the tape in reverse accumulating gradients.
//! The op vocabulary is exactly what a structure-aware Transformer needs.
//! Forward values come from the [`crate::ops`] kernels the forward-plan
//! executor calls; this module adds the tape and the backward closures.
//!
//! Backward computes only what is read: every closure is told which of
//! its parents need a gradient and returns `None` for the rest, so a
//! constant operand (a mask, an averaging matrix) costs nothing. A weight
//! can go one step further and be bound *deferred*
//! ([`Graph::leaf_deferred`]): it may only be the rhs of one
//! [`Graph::matmul`], the tape never forms its gradient `Xᵀ · dY`, and
//! after `backward` [`Graph::take_deferred`] hands out the two factors —
//! the owner adds the product into its gradient store, for all the
//! tables of a batch in one kernel call. An embedding table that is only
//! ever gathered from can be bound *gathered* ([`Graph::leaf_gathered`]):
//! no `[vocab, d]` gradient is formed for it either, each of its
//! [`Graph::index_select0`]s keeps `(indices, dY rows)` and
//! [`Graph::take_gathered`] hands those out.
//!
//! The tape lets go as the sweep passes: once a computed node's backward
//! has run, no node below it can read its closure, its gradient or its
//! value (parents precede children), so `backward` drops all three right
//! there — except a gradient or value one of the two lists above still
//! hands out, and the root's value. Leaves keep value and gradient. A
//! swept tape holds what the caller can still ask for and nothing else;
//! asking it for more ([`Graph::value`] or [`Graph::grad`] of a released
//! node, a second `backward`) panics, it never answers with a stand-in.

use crate::ops;
use crate::ops::gelu_grad;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Position of this node on its graph's tape.
    ///
    /// Nodes are appended in topological order, so for any node its
    /// parents always have a strictly smaller index — the invariant the
    /// tape auditor in `turl-audit` verifies.
    pub fn index(self) -> usize {
        self.0
    }
}

/// `(node gradient, node value, parent values, which parents need a
/// gradient) → one gradient per parent`, `None` where none is needed.
// `Send` so a whole `Graph` can move between data-parallel train workers.
type BackFn = Box<dyn Fn(&Tensor, &Tensor, &[&Tensor], &[bool]) -> Vec<Option<Tensor>> + Send>;

/// A node's value: computed on this tape, a leaf that stays with its
/// owner (a parameter bound without copying it), or only the shape of a
/// value [`Graph::backward`] released.
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
    Released(Vec<usize>),
}

impl Value {
    fn get(&self) -> Option<&Tensor> {
        match self {
            Value::Owned(t) => Some(t),
            Value::Shared(t) => Some(t),
            Value::Released(_) => None,
        }
    }

    fn shape(&self) -> &[usize] {
        match self {
            Value::Owned(t) => t.shape(),
            Value::Shared(t) => t.shape(),
            Value::Released(shape) => shape,
        }
    }
}

/// What a node is to the reverse sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Computed by an operation; released once the sweep has passed it.
    Op,
    /// A leaf whose gradient, if it needs one, accumulates on the tape.
    Leaf,
    /// A leaf bound by [`Graph::leaf_deferred`]: trained, but its gradient
    /// is never formed on the tape (`needs_grad` is false).
    Deferred,
    /// A leaf bound by [`Graph::leaf_gathered`]: likewise, its gathers
    /// keep their row lists.
    Gathered,
}

struct Node {
    value: Value,
    grad: Option<Tensor>,
    parents: Vec<Var>,
    needs_grad: bool,
    kind: Kind,
    /// The sweep must not release the value: the `X` of a deferred product.
    keep_value: bool,
    /// The sweep must not release the gradient: the `dY` of a deferred
    /// product or of a gathered leaf's gather.
    keep_grad: bool,
    backward: Option<BackFn>,
}

impl Node {
    /// The value of a node the sweep has yet to pass.
    fn unswept_value(&self) -> &Tensor {
        self.value.get().expect("the sweep releases a node only after its readers")
    }
}

/// A deferred leaf's one use: `node = matmul(lhs, leaf)`.
struct DeferredUse {
    leaf: Var,
    lhs: Var,
    node: Var,
}

/// One gather from a gathered leaf: `node = index_select0(leaf, indices)`.
struct GatherUse {
    leaf: Var,
    node: Var,
    indices: Vec<usize>,
}

/// The two factors of a deferred leaf's gradient `xᵀ · dy`, as
/// [`Graph::take_deferred`] hands them out.
pub struct DeferredProduct {
    /// The deferred leaf the product is the gradient of.
    pub leaf: Var,
    /// The lhs value of the leaf's `matmul`, `[k, m]`; still on the tape.
    pub x: Arc<Tensor>,
    /// The gradient that reached the `matmul`'s output, `[k, n]`.
    pub dy: Tensor,
}

/// One gather's share of a gathered leaf's gradient, as
/// [`Graph::take_gathered`] hands it out: row `indices[r]` of the leaf's
/// gradient receives row `r` of `dy`.
pub struct GatheredRows {
    /// The gathered leaf the rows belong to.
    pub leaf: Var,
    /// The gather's index list.
    pub indices: Vec<usize>,
    /// The gradient that reached the gather's output, one row per index.
    pub dy: Tensor,
}

/// A dynamic computation graph (autograd tape).
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    deferred: Vec<DeferredUse>,
    gathers: Vec<GatherUse>,
    /// The root of the [`backward`](Graph::backward) that swept this tape.
    swept: Option<Var>,
}

/// The one failure of reading what [`Graph::backward`] let go of.
#[cold]
fn released(node: usize, what: &str) -> ! {
    panic!("node {node} was released by `backward`: {what}")
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Clear the tape while keeping its node storage allocated, so a
    /// training loop can reuse one `Graph` across steps instead of
    /// re-growing the tape vector from scratch every iteration.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.deferred.clear();
        self.gathers.clear();
        self.swept = None;
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a leaf node. `requires_grad` marks trainable parameters.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push_leaf(Value::Owned(value), requires_grad, Kind::Leaf)
    }

    /// Add a leaf whose value stays shared with the caller: the tape holds
    /// a reference, not a copy, for as long as the node exists.
    pub fn leaf_shared(&mut self, value: Arc<Tensor>, requires_grad: bool) -> Var {
        self.push_leaf(Value::Shared(value), requires_grad, Kind::Leaf)
    }

    /// Add a trained leaf whose gradient the tape never forms: it may be
    /// read once, as the rhs of a [`matmul`](Graph::matmul) — anything
    /// else panics when the op is recorded — and after
    /// [`backward`](Graph::backward) its gradient is the product
    /// [`take_deferred`](Graph::take_deferred) lists.
    pub fn leaf_deferred(&mut self, value: Arc<Tensor>) -> Var {
        self.push_leaf(Value::Shared(value), false, Kind::Deferred)
    }

    /// Add a trained leaf that is only ever gathered from: any reader
    /// but [`index_select0`](Graph::index_select0) panics when the op is
    /// recorded, the tape never forms the leaf's `[rows, ..]` gradient,
    /// and after [`backward`](Graph::backward) that gradient is the row
    /// lists [`take_gathered`](Graph::take_gathered) hands out.
    pub fn leaf_gathered(&mut self, value: Arc<Tensor>) -> Var {
        self.push_leaf(Value::Shared(value), false, Kind::Gathered)
    }

    fn push_leaf(&mut self, value: Value, requires_grad: bool, kind: Kind) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            parents: Vec::new(),
            needs_grad: requires_grad,
            kind,
            keep_value: false,
            keep_grad: false,
            backward: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Add a constant (non-differentiable) leaf.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// Value of a node.
    ///
    /// # Panics
    /// Panics if [`backward`](Graph::backward) released the value: read an
    /// interior node before the sweep.
    pub fn value(&self, v: Var) -> &Tensor {
        let held = self.nodes[v.0].value.get();
        held.unwrap_or_else(|| released(v.0, "its value is gone, read it before the sweep"))
    }

    /// Shape of a node's value; still known once the value is released.
    pub fn shape(&self, v: Var) -> &[usize] {
        self.nodes[v.0].value.shape()
    }

    /// Gradient accumulated at a node after [`Graph::backward`]; `None`
    /// where none arrived.
    ///
    /// # Panics
    /// Panics if the sweep released the gradient, as it does for every
    /// computed node: only leaves keep theirs.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.check_grad_held(v);
        self.nodes[v.0].grad.as_ref()
    }

    /// Take (move out) the gradient at a node, leaving `None`. Panics
    /// like [`grad`](Graph::grad).
    pub fn take_grad(&mut self, v: Var) -> Option<Tensor> {
        self.check_grad_held(v);
        self.nodes[v.0].grad.take()
    }

    fn check_grad_held(&self, v: Var) {
        if self.nodes[v.0].grad.is_none() && self.is_released(v) {
            released(v.0, "its gradient is gone, only leaves keep theirs");
        }
    }

    /// Whether a [`backward`](Graph::backward) sweep has passed `v` and
    /// released what it held.
    pub fn is_released(&self, v: Var) -> bool {
        self.nodes[v.0].kind == Kind::Op && self.swept.is_some_and(|root| v.0 <= root.0)
    }

    // ---------------------------------------------------------------------
    // Tape introspection (read-only; used by static analysis / auditing)
    // ---------------------------------------------------------------------

    /// Handles of all nodes in tape (topological) order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len()).map(Var)
    }

    /// The input nodes of `v` (empty for leaves).
    pub fn parents(&self, v: Var) -> &[Var] {
        &self.nodes[v.0].parents
    }

    /// Whether `v` participates in gradient computation.
    pub fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Whether `v` is a [deferred](Graph::leaf_deferred) leaf.
    pub fn is_deferred(&self, v: Var) -> bool {
        self.nodes[v.0].kind == Kind::Deferred
    }

    /// Whether `v` is a [gathered](Graph::leaf_gathered) leaf.
    pub fn is_gathered(&self, v: Var) -> bool {
        self.nodes[v.0].kind == Kind::Gathered
    }

    /// Whether `v` is a leaf: it was created directly from a tensor rather
    /// than by an operation.
    pub fn is_leaf(&self, v: Var) -> bool {
        self.nodes[v.0].kind != Kind::Op
    }

    /// Shape of the gradient the tape holds at `v`, if it holds one: after
    /// a sweep, a leaf's, or the `dY` of a product or row list not yet
    /// taken. Never panics (for auditing).
    pub fn held_grad_shape(&self, v: Var) -> Option<&[usize]> {
        self.nodes[v.0].grad.as_ref().map(Tensor::shape)
    }

    /// Whether `v` recorded a backward closure (differentiable interior
    /// node on a grad-requiring path) the sweep has not run yet.
    pub fn has_backward(&self, v: Var) -> bool {
        self.nodes[v.0].backward.is_some()
    }

    fn push(&mut self, value: Tensor, parents: Vec<Var>, backward: BackFn) -> Var {
        self.push_reading(value, parents, backward, None)
    }

    /// Record an op. Only the parent in slot `special` may be a deferred
    /// or gathered leaf — the caller is the op that leaf's kind admits.
    fn push_reading(
        &mut self,
        value: Tensor,
        parents: Vec<Var>,
        backward: BackFn,
        special: Option<usize>,
    ) -> Var {
        for (slot, p) in parents.iter().enumerate() {
            match self.nodes[p.0].kind {
                _ if special == Some(slot) => {}
                Kind::Deferred => panic!("deferred leaf {} may only be the rhs of a matmul", p.0),
                Kind::Gathered => panic!("gathered leaf {} may only be read by index_select0", p.0),
                Kind::Op | Kind::Leaf => {}
            }
        }
        // Such a leaf needs no gradient itself but its reader does.
        let needs_grad = parents.iter().any(|p| {
            let p = &self.nodes[p.0];
            p.needs_grad || matches!(p.kind, Kind::Deferred | Kind::Gathered)
        });
        self.nodes.push(Node {
            value: Value::Owned(value),
            grad: None,
            parents,
            needs_grad,
            kind: Kind::Op,
            keep_value: false,
            keep_grad: false,
            backward: if needs_grad { Some(backward) } else { None },
        });
        Var(self.nodes.len() - 1)
    }

    /// Run reverse-mode differentiation from `root` (seeded with ones),
    /// releasing every computed node the sweep is done with: afterwards
    /// the tape holds the leaves (values and gradients), `root`'s value,
    /// and the factors [`take_deferred`](Graph::take_deferred) and
    /// [`take_gathered`](Graph::take_gathered) hand out.
    ///
    /// Existing gradients on the tape are cleared first.
    ///
    /// # Panics
    /// Panics if an earlier `backward` already swept a computed node at
    /// or below `root`: what is left of it cannot be differentiated.
    pub fn backward(&mut self, root: Var) {
        if let Some(v) = (0..=root.0).map(Var).find(|&v| self.is_released(v)) {
            released(v.0, "a swept tape cannot be differentiated again");
        }
        for node in &mut self.nodes {
            node.grad = None;
        }
        let shape = self.nodes[root.0].value.shape().to_vec();
        self.nodes[root.0].grad = Some(Tensor::ones(shape));
        for i in (0..=root.0).rev() {
            if self.nodes[i].kind != Kind::Op {
                continue;
            }
            self.propagate(i);
            // Parents precede children: nothing left to sweep reads node
            // `i`'s closure, gradient or value.
            let node = &mut self.nodes[i];
            node.backward = None;
            if !node.keep_grad {
                node.grad = None;
            }
            if !node.keep_value && i != root.0 {
                node.value = Value::Released(node.value.shape().to_vec());
            }
        }
        self.swept = Some(root);
    }

    /// Run node `i`'s closure, if a gradient reached it, and add what it
    /// returns into the parents' gradients.
    fn propagate(&mut self, i: usize) {
        let node = &self.nodes[i];
        let (Some(f), Some(grad)) = (&node.backward, &node.grad) else { return };
        let grads = {
            let pvals: Vec<&Tensor> =
                node.parents.iter().map(|p| self.nodes[p.0].unswept_value()).collect();
            let needs: Vec<bool> =
                node.parents.iter().map(|p| self.nodes[p.0].needs_grad).collect();
            f(grad, node.unswept_value(), &pvals, &needs)
        };
        let parents = node.parents.clone();
        debug_assert_eq!(parents.len(), grads.len(), "backward arity mismatch at node {i}");
        for (p, g) in parents.into_iter().zip(grads) {
            let target = &mut self.nodes[p.0];
            debug_assert_eq!(g.is_some(), target.needs_grad, "needs-mask ignored at node {i}");
            let Some(g) = g else { continue };
            debug_assert_eq!(
                g.shape(),
                target.value.shape(),
                "gradient shape mismatch flowing into node {}",
                p.0
            );
            match &mut target.grad {
                Some(acc) => acc.add_assign(&g),
                slot @ None => *slot = Some(g),
            }
        }
    }

    /// After [`backward`](Graph::backward): the gradient of every deferred
    /// leaf as its two factors, in recording order. A leaf whose `matmul`
    /// no gradient reached is absent. `dy` is moved off the tape (like
    /// [`take_grad`](Graph::take_grad)); `x` — which the sweep did not
    /// release — stays a value of the tape, shared with the returned
    /// handle, which outlives a [`reset`](Graph::reset).
    pub fn take_deferred(&mut self) -> Vec<DeferredProduct> {
        let mut out = Vec::with_capacity(self.deferred.len());
        for i in 0..self.deferred.len() {
            let DeferredUse { leaf, lhs, node } = self.deferred[i];
            let Some(dy) = self.nodes[node.0].grad.take() else { continue };
            out.push(DeferredProduct { leaf, x: self.share_value(lhs), dy });
        }
        out
    }

    /// After [`backward`](Graph::backward): the gradient of every
    /// gathered leaf as row lists, one per gather a gradient reached, in
    /// the order the sweep met them (reverse recording order — the order
    /// a plain leaf's gradient would have added them up in). Indices and
    /// `dy` are moved off the tape; a second call finds nothing.
    pub fn take_gathered(&mut self) -> Vec<GatheredRows> {
        let nodes = &mut self.nodes;
        let taken = self.gathers.drain(..).rev().filter_map(|GatherUse { leaf, node, indices }| {
            let dy = nodes[node.0].grad.take()?;
            Some(GatheredRows { leaf, indices, dy })
        });
        taken.collect()
    }

    /// A shared handle to `v`'s value, which the tape keeps reading.
    fn share_value(&mut self, v: Var) -> Arc<Tensor> {
        let slot = &mut self.nodes[v.0].value;
        let shared = match std::mem::replace(slot, Value::Released(Vec::new())) {
            Value::Owned(t) => Arc::new(t),
            Value::Shared(t) => t,
            Value::Released(_) => released(v.0, "its value is gone, though a product reads it"),
        };
        *slot = Value::Shared(Arc::clone(&shared));
        shared
    }

    // ---------------------------------------------------------------------
    // Elementwise arithmetic (NumPy broadcasting)
    // ---------------------------------------------------------------------

    /// Elementwise `a + b` with broadcasting.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).broadcast_zip(self.value(b), |x, y| x + y).expect("add shapes");
        self.push(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                (0..2).map(|i| needs[i].then(|| g.reduce_to_shape(pv[i].shape()))).collect()
            }),
        )
    }

    /// Elementwise `a - b` with broadcasting.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).broadcast_zip(self.value(b), |x, y| x - y).expect("sub shapes");
        self.push(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                vec![
                    needs[0].then(|| g.reduce_to_shape(pv[0].shape())),
                    needs[1].then(|| g.map(|x| -x).reduce_to_shape(pv[1].shape())),
                ]
            }),
        )
    }

    /// Elementwise `a * b` with broadcasting.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).broadcast_zip(self.value(b), |x, y| x * y).expect("mul shapes");
        self.push(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                // d(a·b)/da = b and the other way round.
                (0..2)
                    .map(|i| {
                        needs[i].then(|| {
                            let gi = g.broadcast_zip(pv[1 - i], |x, y| x * y).expect("mul back");
                            gi.reduce_to_shape(pv[i].shape())
                        })
                    })
                    .collect()
            }),
        )
    }

    /// `a * c` for scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| x * c);
        self.push(value, vec![a], Box::new(move |g, _, _, _| vec![Some(g.map(|x| x * c))]))
    }

    /// `a + c` for scalar constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| x + c);
        self.push(value, vec![a], Box::new(|g, _, _, _| vec![Some(g.clone())]))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// 2-D matrix product `A · B`. `B` may be a
    /// [deferred](Graph::leaf_deferred) leaf not read before: backward
    /// then computes `dA` alone.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let deferred_rhs = self.is_deferred(b);
        if deferred_rhs {
            let earlier = self.deferred.iter().any(|u| u.leaf == b);
            assert!(!earlier, "deferred leaf {} is read by a second matmul", b.0);
        }
        let value = ops::matmul(self.value(a), self.value(b));
        let node = self.push_reading(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                vec![
                    needs[0].then(|| ops::matmul_nt(g, pv[1])),
                    needs[1].then(|| ops::matmul_tn(pv[0], g)),
                ]
            }),
            deferred_rhs.then_some(1),
        );
        if deferred_rhs {
            self.nodes[a.0].keep_value = true;
            self.nodes[node.0].keep_grad = true;
            self.deferred.push(DeferredUse { leaf: b, lhs: a, node });
        }
        node
    }

    /// 2-D product against a transposed rhs: `A · Bᵀ`.
    ///
    /// This is the row-scoring primitive: `scores[i, j] = ⟨a_i, b_j⟩`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = ops::matmul_nt(self.value(a), self.value(b));
        self.push(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                vec![
                    needs[0].then(|| ops::matmul(g, pv[1])),
                    needs[1].then(|| ops::matmul_tn(g, pv[0])),
                ]
            }),
        )
    }

    /// Batched 3-D matrix product.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let value = ops::bmm(self.value(a), self.value(b));
        self.push(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                vec![
                    needs[0].then(|| ops::bmm_nt(g, pv[1])),
                    needs[1].then(|| ops::bmm_tn(pv[0], g)),
                ]
            }),
        )
    }

    /// Batched product against transposed rhs: per batch `A · Bᵀ`.
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let value = ops::bmm_nt(self.value(a), self.value(b));
        self.push(
            value,
            vec![a, b],
            Box::new(|g, _, pv, needs| {
                vec![needs[0].then(|| ops::bmm(g, pv[1])), needs[1].then(|| ops::bmm_tn(g, pv[0]))]
            }),
        )
    }

    /// Permute tensor axes.
    pub fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        let value = self.value(a).permute(axes);
        let mut inverse = vec![0usize; axes.len()];
        for (i, &ax) in axes.iter().enumerate() {
            inverse[ax] = i;
        }
        self.push(value, vec![a], Box::new(move |g, _, _, _| vec![Some(g.permute(&inverse))]))
    }

    /// Reshape to a new shape with the same element count.
    pub fn reshape(&mut self, a: Var, shape: Vec<usize>) -> Var {
        let value = self.value(a).reshape(shape).expect("reshape element count");
        self.push(
            value,
            vec![a],
            Box::new(|g, _, pv, _| {
                vec![Some(g.reshape(pv[0].shape().to_vec()).expect("reshape back"))]
            }),
        )
    }

    // ---------------------------------------------------------------------
    // Activations
    // ---------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(
            value,
            vec![a],
            Box::new(|g, _, pv, _| {
                let dx = g.broadcast_zip(pv[0], |gv, x| if x > 0.0 { gv } else { 0.0 });
                vec![Some(dx.expect("relu back"))]
            }),
        )
    }

    /// GELU activation (tanh approximation, as used by BERT-family models).
    ///
    /// The forward's `tanh` is kept for the backward, so neither pass
    /// computes it twice.
    pub fn gelu(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut t = Tensor::zeros(x.shape().to_vec());
        ops::gelu_tanh_into(x.data(), t.data_mut());
        let value = x.broadcast_zip(&t, |x, t| 0.5 * x * (1.0 + t)).expect("same shape");
        self.push(
            value,
            vec![a],
            Box::new(move |g, _, pv, _| {
                let mut dx = g.clone();
                for ((d, &x), &t) in dx.data_mut().iter_mut().zip(pv[0].data()).zip(t.data()) {
                    *d *= gelu_grad(x, t);
                }
                vec![Some(dx)]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut value = Tensor::zeros(x.shape().to_vec());
        ops::tanh_into(x.data(), value.data_mut());
        self.push(
            value,
            vec![a],
            Box::new(|g, out, _, _| {
                vec![Some(g.broadcast_zip(out, |gv, y| gv * (1.0 - y * y)).expect("tanh back"))]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(
            value,
            vec![a],
            Box::new(|g, out, _, _| {
                let dx = g.broadcast_zip(out, |gv, y| gv * y * (1.0 - y));
                vec![Some(dx.expect("sigmoid back"))]
            }),
        )
    }

    // ---------------------------------------------------------------------
    // Normalization / softmax
    // ---------------------------------------------------------------------

    /// Softmax along the last axis (stabilized; tolerates `-inf` masking).
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_last();
        self.push(
            value,
            vec![a],
            Box::new(|g, out, _, _| {
                let w = *out.shape().last().expect("softmax rank");
                let mut dx = g.clone();
                {
                    let dxd = dx.data_mut();
                    let y = out.data();
                    for r in 0..y.len() / w {
                        let row = r * w;
                        let mut dot = 0.0f32;
                        for j in 0..w {
                            dot += dxd[row + j] * y[row + j];
                        }
                        for j in 0..w {
                            dxd[row + j] = (dxd[row + j] - dot) * y[row + j];
                        }
                    }
                }
                vec![Some(dx)]
            }),
        )
    }

    /// Layer normalization over the last axis with affine parameters.
    ///
    /// `x` has shape `[..., d]`, `gamma` and `beta` have shape `[d]`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().last(), Some(&self.value(gamma).len()), "layer_norm gamma size");
        let mut out = Tensor::zeros(xv.shape().to_vec());
        ops::fused_layer_norm(
            xv.data(),
            self.value(gamma).data(),
            self.value(beta).data(),
            eps,
            out.data_mut(),
        );
        self.push(
            out,
            vec![x, gamma, beta],
            Box::new(move |g, _, pv, needs| {
                let xval = pv[0];
                let gamma = pv[1].data();
                let d = *xval.shape().last().expect("layer_norm rank");
                let rows = xval.len() / d;
                let mut dx = needs[0].then(|| Tensor::zeros(xval.shape().to_vec()));
                let mut dgamma = needs[1].then(|| Tensor::zeros(vec![d]));
                let mut dbeta = needs[2].then(|| Tensor::zeros(vec![d]));
                let xd = xval.data();
                let gd = g.data();
                for r in 0..rows {
                    let o = r * d;
                    let row = &xd[o..o + d];
                    let grow = &gd[o..o + d];
                    let mean = row.iter().sum::<f32>() / d as f32;
                    let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
                    let inv = 1.0 / (var + eps).sqrt();
                    if let Some(dx) = &mut dx {
                        // xhat and dy*gamma statistics
                        let mut sum_dyg = 0.0f32;
                        let mut sum_dyg_xhat = 0.0f32;
                        for j in 0..d {
                            let xhat = (row[j] - mean) * inv;
                            let dyg = grow[j] * gamma[j];
                            sum_dyg += dyg;
                            sum_dyg_xhat += dyg * xhat;
                        }
                        let m1 = sum_dyg / d as f32;
                        let m2 = sum_dyg_xhat / d as f32;
                        let dxd = &mut dx.data_mut()[o..o + d];
                        for j in 0..d {
                            let xhat = (row[j] - mean) * inv;
                            let dyg = grow[j] * gamma[j];
                            dxd[j] = inv * (dyg - m1 - xhat * m2);
                        }
                    }
                    if let Some(dgamma) = &mut dgamma {
                        for (j, dg) in dgamma.data_mut().iter_mut().enumerate() {
                            *dg += grow[j] * ((row[j] - mean) * inv);
                        }
                    }
                    if let Some(dbeta) = &mut dbeta {
                        for (db, &gv) in dbeta.data_mut().iter_mut().zip(grow) {
                            *db += gv;
                        }
                    }
                }
                vec![dx, dgamma, dbeta]
            }),
        )
    }

    // ---------------------------------------------------------------------
    // Gather / structure
    // ---------------------------------------------------------------------

    /// Gather rows along axis 0 (embedding lookup). From a
    /// [gathered](Graph::leaf_gathered) leaf, backward scatters nothing:
    /// the gather keeps `(indices, dY)` for
    /// [`take_gathered`](Graph::take_gathered).
    pub fn index_select0(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = self.value(a).index_select0(indices);
        let idx = indices.to_vec();
        if self.is_gathered(a) {
            let scatters_nothing: BackFn = Box::new(|_, _, _, _| vec![None]);
            let node = self.push_reading(value, vec![a], scatters_nothing, Some(0));
            self.nodes[node.0].keep_grad = true;
            self.gathers.push(GatherUse { leaf: a, node, indices: idx });
            return node;
        }
        self.push(
            value,
            vec![a],
            Box::new(move |g, _, pv, _| {
                let mut out = Tensor::zeros(pv[0].shape().to_vec());
                let row_len: usize = pv[0].shape()[1..].iter().product();
                let gd = g.data();
                let od = out.data_mut();
                for (r, &i) in idx.iter().enumerate() {
                    let src = &gd[r * row_len..(r + 1) * row_len];
                    let dst = &mut od[i * row_len..(i + 1) * row_len];
                    for (d, s) in dst.iter_mut().zip(src.iter()) {
                        *d += s;
                    }
                }
                vec![Some(out)]
            }),
        )
    }

    /// Mean over rows of a 2-D tensor, producing a 1-D vector.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        assert_eq!(av.rank(), 2, "mean_rows expects a 2-D tensor");
        let (n, d) = (av.shape()[0], av.shape()[1]);
        let mut out = vec![0.0f32; d];
        for r in 0..n {
            for (o, &x) in out.iter_mut().zip(av.row(r).iter()) {
                *o += x;
            }
        }
        let inv = 1.0 / n.max(1) as f32;
        out.iter_mut().for_each(|x| *x *= inv);
        self.push(
            Tensor::from_vec(vec![d], out),
            vec![a],
            Box::new(move |g, _, pv, _| {
                let (n, d) = (pv[0].shape()[0], pv[0].shape()[1]);
                let inv = 1.0 / n.max(1) as f32;
                let mut dx = Tensor::zeros(vec![n, d]);
                for r in 0..n {
                    for (o, &gv) in dx.row_mut(r).iter_mut().zip(g.data().iter()) {
                        *o = gv * inv;
                    }
                }
                vec![Some(dx)]
            }),
        )
    }

    /// Sum of all elements (scalar of shape `[1]`).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        self.push(
            value,
            vec![a],
            Box::new(|g, _, pv, _| vec![Some(Tensor::full(pv[0].shape().to_vec(), g.item()))]),
        )
    }

    /// Mean of all elements (scalar of shape `[1]`).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.value(a).len().max(1) as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Concatenate 2-D tensors along the column axis.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_cols(&tensors);
        let widths: Vec<usize> = tensors.iter().map(|t| t.shape()[1]).collect();
        self.push(
            value,
            parts.to_vec(),
            Box::new(move |g, _, pv, needs| {
                let rows = pv[0].shape()[0];
                let total: usize = widths.iter().sum();
                let mut grads: Vec<Option<Tensor>> = widths
                    .iter()
                    .zip(needs)
                    .map(|(&w, &need)| need.then(|| Tensor::zeros(vec![rows, w])))
                    .collect();
                for r in 0..rows {
                    let mut off = 0usize;
                    for (gi, &w) in grads.iter_mut().zip(widths.iter()) {
                        if let Some(gi) = gi {
                            gi.row_mut(r)
                                .copy_from_slice(&g.data()[r * total + off..r * total + off + w]);
                        }
                        off += w;
                    }
                }
                grads
            }),
        )
    }

    /// Concatenate 2-D tensors along the row axis (vertical stack).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let w = tensors[0].shape()[1];
        let mut heights = Vec::with_capacity(tensors.len());
        for t in &tensors {
            assert_eq!(t.rank(), 2, "concat_rows expects 2-D tensors");
            assert_eq!(t.shape()[1], w, "concat_rows width mismatch");
            heights.push(t.shape()[0]);
        }
        let total: usize = heights.iter().sum();
        let mut value = Tensor::zeros(vec![total, w]);
        ops::concat_rows_into(tensors.iter().map(|t| t.data()), value.data_mut());
        self.push(
            value,
            parts.to_vec(),
            Box::new(move |g, _, _, needs| {
                let mut out = Vec::with_capacity(heights.len());
                let mut off = 0usize;
                for (&h, &need) in heights.iter().zip(needs) {
                    let part = &g.data()[off * w..(off + h) * w];
                    out.push(need.then(|| Tensor::from_slice(vec![h, w], part)));
                    off += h;
                }
                out
            }),
        )
    }

    /// Stack 1-D tensors of equal length into a 2-D tensor (one per row).
    pub fn stack_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::stack_rows(&tensors);
        self.push(
            value,
            parts.to_vec(),
            Box::new(|g, _, pv, needs| {
                let w = pv[0].len();
                (0..pv.len())
                    .map(|r| {
                        needs[r].then(|| Tensor::from_slice(vec![w], &g.data()[r * w..(r + 1) * w]))
                    })
                    .collect()
            }),
        )
    }

    // ---------------------------------------------------------------------
    // Fused losses
    // ---------------------------------------------------------------------

    /// Mean cross-entropy of row-wise softmax over `logits` (shape `[n, c]`)
    /// against integer `targets` (length `n`).
    ///
    /// Rows may be padded with very negative logits (≈ −1e30); such classes
    /// receive vanishing probability and gradient.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.rank(), 2, "cross_entropy expects [n, c] logits");
        let (n, c) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(n, targets.len(), "cross_entropy target count");
        let probs = lv.softmax_last();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < c, "target {t} out of range {c}");
            loss -= probs.at2(r, t).max(1e-12).ln();
        }
        loss /= n.max(1) as f32;
        let tgt = targets.to_vec();
        self.push(
            Tensor::scalar(loss),
            vec![logits],
            Box::new(move |g, _, pv, _| {
                let n = pv[0].shape()[0];
                let scale = g.item() / n.max(1) as f32;
                let mut dx = pv[0].softmax_last();
                for (r, &t) in tgt.iter().enumerate() {
                    let v = dx.at2(r, t);
                    dx.set2(r, t, v - 1.0);
                }
                dx.scale_inplace(scale);
                vec![Some(dx)]
            }),
        )
    }

    /// Mean binary-cross-entropy with logits against a `0/1` target tensor
    /// of the same shape.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Tensor) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.shape(), targets.shape(), "bce target shape");
        let n = lv.len().max(1) as f32;
        let mut loss = 0.0f32;
        for (&x, &t) in lv.data().iter().zip(targets.data().iter()) {
            // max(x,0) - x*t + ln(1 + exp(-|x|)) : stable BCE
            loss += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        }
        loss /= n;
        self.push(
            Tensor::scalar(loss),
            vec![logits],
            Box::new(move |g, _, pv, _| {
                let n = pv[0].len().max(1) as f32;
                let scale = g.item() / n;
                let mut dx = pv[0].clone();
                for (x, &t) in dx.data_mut().iter_mut().zip(targets.data().iter()) {
                    let s = 1.0 / (1.0 + (-*x).exp());
                    *x = (s - t) * scale;
                }
                vec![Some(dx)]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn add_backward_broadcast() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2, 2], &[1., 2., 3., 4.]), true);
        let b = g.leaf(t2(&[2], &[10., 20.]), true);
        let y = g.add(a, b);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[1., 1., 1., 1.]);
        assert_eq!(g.grad(b).unwrap().data(), &[2., 2.]);
    }

    #[test]
    fn mul_backward_uses_other_operand() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2], &[3., 5.]), true);
        let b = g.leaf(t2(&[2], &[7., 11.]), true);
        let y = g.mul(a, b);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[7., 11.]);
        assert_eq!(g.grad(b).unwrap().data(), &[3., 5.]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2, 3], &[0.1; 6]), true);
        let b = g.leaf(t2(&[3, 4], &[0.2; 12]), true);
        let y = g.matmul(a, b);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().shape(), &[2, 3]);
        assert_eq!(g.grad(b).unwrap().shape(), &[3, 4]);
    }

    #[test]
    fn grad_accumulates_over_multiple_uses() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2], &[1., 2.]), true);
        let y1 = g.scale(a, 2.0);
        let y2 = g.scale(a, 3.0);
        let y = g.add(y1, y2);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[5., 5.]);
    }

    #[test]
    fn constants_get_no_grad() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2], &[1., 2.]), true);
        let c = g.constant(t2(&[2], &[5., 5.]));
        let y = g.mul(a, c);
        let s = g.sum_all(y);
        g.backward(s);
        assert!(g.grad(c).is_none());
        assert_eq!(g.grad(a).unwrap().data(), &[5., 5.]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let mut g = Graph::new();
        let logits = g.leaf(t2(&[1, 3], &[100., 0., 0.]), true);
        let l = g.cross_entropy(logits, &[0]);
        assert!(g.value(l).item() < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let mut g = Graph::new();
        let logits = g.leaf(t2(&[1, 3], &[0., 0., 0.]), true);
        let l = g.cross_entropy(logits, &[1]);
        g.backward(l);
        let grad = g.grad(logits).unwrap();
        assert!(grad.at2(0, 1) < 0.0, "target logit grad must be negative");
        assert!(grad.at2(0, 0) > 0.0 && grad.at2(0, 2) > 0.0);
    }

    #[test]
    fn cross_entropy_ignores_padded_classes() {
        let mut g = Graph::new();
        let logits = g.leaf(t2(&[1, 3], &[1.0, 2.0, -1e30]), true);
        let l = g.cross_entropy(logits, &[0]);
        g.backward(l);
        let grad = g.grad(logits).unwrap();
        assert!(g.value(l).item().is_finite());
        assert!(grad.at2(0, 2).abs() < 1e-12);
    }

    #[test]
    fn bce_matches_manual() {
        let mut g = Graph::new();
        let logits = g.leaf(t2(&[2], &[0.0, 0.0]), true);
        let l = g.bce_with_logits(logits, t2(&[2], &[1.0, 0.0]));
        // -ln(0.5) each
        assert!((g.value(l).item() - std::f32::consts::LN_2).abs() < 1e-6);
        g.backward(l);
        let grad = g.grad(logits).unwrap();
        assert!((grad.data()[0] + 0.25).abs() < 1e-6);
        assert!((grad.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn softmax_masked_attention_pattern() {
        // scores [1,3] with middle masked: softmax ignores it, grads flow to rest.
        let mut g = Graph::new();
        let s = g.leaf(t2(&[1, 3], &[1.0, 1.0, 1.0]), true);
        let mask = g.constant(t2(&[1, 3], &[0.0, -1e9, 0.0]));
        let m = g.add(s, mask);
        let p = g.softmax_last(m);
        assert!((g.value(p).at2(0, 0) - 0.5).abs() < 1e-4);
        assert!(g.value(p).at2(0, 1) < 1e-6);
        let w = g.constant(t2(&[1, 3], &[1.0, 0.0, 0.0]));
        let y = g.mul(p, w);
        let l = g.sum_all(y);
        g.backward(l);
        assert!(g.grad(s).unwrap().data()[1].abs() < 1e-6);
    }

    #[test]
    fn index_select_backward_scatter_adds() {
        let mut g = Graph::new();
        let w = g.leaf(t2(&[3, 2], &[0.; 6]), true);
        let y = g.index_select0(w, &[1, 1, 2]);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(w).unwrap().data(), &[0., 0., 2., 2., 1., 1.]);
    }

    #[test]
    fn layer_norm_output_standardized() {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[2, 4], &[1., 2., 3., 4., -2., 0., 2., 4.]), true);
        let gamma = g.leaf(Tensor::ones(vec![4]), true);
        let beta = g.leaf(Tensor::zeros(vec![4]), true);
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        for r in 0..2 {
            let row = g.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn mean_rows_backward_uniform() {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[4, 2], &[1.; 8]), true);
        let m = g.mean_rows(x);
        let s = g.sum_all(m);
        g.backward(s);
        assert!(g.grad(x).unwrap().data().iter().all(|&v| (v - 0.25).abs() < 1e-7));
    }

    #[test]
    fn stack_and_concat_backward() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2], &[1., 2.]), true);
        let b = g.leaf(t2(&[2], &[3., 4.]), true);
        let st = g.stack_rows(&[a, b]); // [2,2]
        let c = g.leaf(t2(&[2, 1], &[10., 20.]), true);
        let cat = g.concat_cols(&[st, c]); // [2,3]
        let s = g.sum_all(cat);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[1., 1.]);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 1.]);
        assert_eq!(g.grad(c).unwrap().data(), &[1., 1.]);
    }

    #[test]
    fn concat_rows_backward_splits() {
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2, 2], &[1., 2., 3., 4.]), true);
        let b = g.leaf(t2(&[1, 2], &[5., 6.]), true);
        let cat = g.concat_rows(&[a, b]);
        assert_eq!(g.value(cat).shape(), &[3, 2]);
        assert_eq!(g.value(cat).data(), &[1., 2., 3., 4., 5., 6.]);
        let w = g.constant(t2(&[3, 2], &[1., 0., 0., 1., 2., 2.]));
        let y = g.mul(cat, w);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[1., 0., 0., 1.]);
        assert_eq!(g.grad(b).unwrap().data(), &[2., 2.]);
    }

    /// `loss = Σ (x · w + b)²` with `w` bound plain or deferred; returns
    /// the tape and `(x, w)`.
    fn linear_tape(deferred: bool) -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[3, 2], &[0.5, -1.0, 2.0, 0.25, -0.0, 1.5]), true);
        let weight = Arc::new(t2(&[2, 4], &[0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]));
        let w = if deferred { g.leaf_deferred(weight) } else { g.leaf_shared(weight, true) };
        let b = g.leaf(t2(&[4], &[0.01, -0.02, 0.03, 0.0]), true);
        let y = g.matmul(x, w);
        let y = g.add(y, b);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        (g, x, w)
    }

    #[test]
    fn deferred_leaf_leaves_the_factors_of_the_plain_leafs_gradient() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (plain, x, w) = linear_tape(false);
        let (mut tape, xd, wd) = linear_tape(true);
        assert_eq!(bits(tape.grad(xd).unwrap()), bits(plain.grad(x).unwrap()), "dA");
        assert!(tape.is_deferred(wd) && !tape.needs_grad(wd) && tape.grad(wd).is_none());
        let products = tape.take_deferred();
        assert_eq!(products.len(), 1);
        let p = &products[0];
        assert_eq!(p.leaf, wd);
        assert!(std::ptr::eq(&*p.x, tape.value(xd)), "x is the tape's own value, shared");
        let mut dw = Tensor::zeros(vec![2, 4]);
        ops::matmul_tn_acc_into(dw.data_mut(), 2, 4, &[(p.x.data(), p.dy.data())]);
        assert_eq!(bits(&dw), bits(plain.grad(w).unwrap()), "dW");
        // The factors outlive the tape; a second take finds nothing.
        assert!(tape.take_deferred().is_empty());
        tape.reset();
        assert_eq!(p.x.shape(), &[3, 2]);
    }

    #[test]
    fn a_deferred_leaf_no_gradient_reaches_lists_no_product() {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[1, 2], &[1., 2.]), true);
        let w = g.leaf_deferred(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])));
        let _dead_end = g.matmul(x, w);
        let loss = g.sum_all(x);
        g.backward(loss);
        assert!(g.take_deferred().is_empty());
    }

    #[test]
    #[should_panic(expected = "may only be the rhs of a matmul")]
    fn a_deferred_leaf_read_by_another_op_panics_where_it_is_recorded() {
        let mut g = Graph::new();
        let w = g.leaf_deferred(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])));
        g.scale(w, 2.0);
    }

    #[test]
    #[should_panic(expected = "may only be the rhs of a matmul")]
    fn a_deferred_leaf_as_matmul_lhs_panics() {
        let mut g = Graph::new();
        let w = g.leaf_deferred(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])));
        let x = g.leaf(t2(&[2, 2], &[1.; 4]), true);
        g.matmul(w, x);
    }

    #[test]
    #[should_panic(expected = "read by a second matmul")]
    fn a_deferred_leaf_read_twice_panics() {
        let mut g = Graph::new();
        let w = g.leaf_deferred(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])));
        let x = g.leaf(t2(&[2, 2], &[1.; 4]), true);
        let y = g.matmul(x, w);
        g.matmul(y, w);
    }

    /// `loss = Σ (2x · w)²` over a computed lhs, `w` deferred; returns the
    /// tape and `(x, lhs, product, loss)`.
    fn swept_tape() -> (Graph, Var, Var, Var, Var) {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[3, 2], &[0.5, -1.0, 2.0, 0.25, -0.0, 1.5]), true);
        let lhs = g.scale(x, 2.0);
        let w = g.leaf_deferred(Arc::new(t2(&[2, 2], &[0.1, -0.2, 0.3, 0.4])));
        let y = g.matmul(lhs, w);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        (g, x, lhs, y, loss)
    }

    #[test]
    fn the_sweep_releases_computed_nodes_and_keeps_what_is_still_handed_out() {
        let (mut g, x, lhs, y, loss) = swept_tape();
        assert!(g.vars().all(|v| g.is_released(v) != g.is_leaf(v)));
        assert!(g.vars().all(|v| !g.has_backward(v)), "a closure outlived the sweep");
        // Leaves, the root's value, and both factors of the product.
        assert_eq!(g.value(loss).shape(), &[1]);
        assert_eq!(g.grad(x).unwrap().shape(), &[3, 2]);
        assert_eq!(g.value(lhs).data(), &[1.0, -2.0, 4.0, 0.5, -0.0, 3.0]);
        assert_eq!(g.held_grad_shape(y), Some(&[3, 2][..]));
        // Everything else is gone, its shape still on record.
        assert_eq!((g.shape(y), g.held_grad_shape(lhs)), (&[3, 2][..], None));
        let products = g.take_deferred();
        assert!(std::ptr::eq(&*products[0].x, g.value(lhs)));
        assert_eq!(g.held_grad_shape(y), None);
    }

    #[test]
    #[should_panic(expected = "node 3 was released by `backward`: its value is gone")]
    fn value_of_a_released_node_panics_naming_it() {
        let (g, _, _, y, _) = swept_tape();
        g.value(y);
    }

    #[test]
    #[should_panic(expected = "node 4 was released by `backward`: its gradient is gone")]
    fn grad_of_a_released_node_panics_naming_it() {
        let (g, _, _, y, _) = swept_tape();
        g.grad(Var(y.0 + 1));
    }

    #[test]
    #[should_panic(expected = "node 1 was released by `backward`: a swept tape cannot")]
    fn a_second_backward_over_a_swept_tape_panics() {
        let (mut g, _, _, _, loss) = swept_tape();
        g.backward(loss);
    }

    #[test]
    fn a_gathered_leaf_hands_out_row_lists_in_sweep_order() {
        // Two gathers of one table, each output weighted by a constant so
        // its `dY` is that constant; the plain leaf scatters the same rows.
        let table = Arc::new(t2(&[4, 2], &[0.; 8]));
        let seeds = [t2(&[3, 2], &[1., -2., 3., 4., -0., 6.]), t2(&[2, 2], &[7., 8., 9., -1.])];
        let lists: [&[usize]; 2] = [&[1, 1, 3], &[3, 0]];
        let run = |gathered: bool| {
            let mut g = Graph::new();
            let t = Arc::clone(&table);
            let w = if gathered { g.leaf_gathered(t) } else { g.leaf_shared(t, true) };
            let mut loss = None;
            for (idx, seed) in lists.iter().zip(&seeds) {
                let rows = g.index_select0(w, idx);
                let c = g.constant(seed.clone());
                let weighted = g.mul(rows, c);
                let s = g.sum_all(weighted);
                loss = Some(loss.map_or(s, |l| g.add(l, s)));
            }
            g.backward(loss.unwrap());
            (g, w)
        };
        let (mut g, w) = run(true);
        assert!(g.is_gathered(w) && !g.needs_grad(w) && g.grad(w).is_none());
        let rows = g.take_gathered();
        assert_eq!(rows.len(), 2);
        for (got, want) in rows.iter().zip([1, 0]) {
            assert_eq!((got.leaf, &got.indices[..]), (w, lists[want]));
            assert_eq!(got.dy, seeds[want]);
        }
        assert!(g.take_gathered().is_empty());
        let (dense, w) = run(false);
        assert_eq!(dense.grad(w).unwrap().data(), &[9., -1., 4., 2., 0., 0., 7., 14.]);
    }

    #[test]
    fn a_gather_no_gradient_reaches_lists_no_rows() {
        let mut g = Graph::new();
        let w = g.leaf_gathered(Arc::new(t2(&[2, 2], &[1., 2., 3., 4.])));
        let x = g.leaf(t2(&[2], &[1., 2.]), true);
        let _dead_end = g.index_select0(w, &[0]);
        let loss = g.sum_all(x);
        g.backward(loss);
        assert!(g.take_gathered().is_empty());
    }

    #[test]
    #[should_panic(expected = "gathered leaf 0 may only be read by index_select0")]
    fn a_gathered_leaf_read_by_another_op_panics_where_it_is_recorded() {
        let mut g = Graph::new();
        let w = g.leaf_gathered(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])));
        g.scale(w, 2.0);
    }

    #[test]
    fn backward_builds_no_gradient_for_a_constant_operand() {
        // Every binary and n-ary op with one constant operand: the tape
        // must hold a gradient for the trained operand only (debug builds
        // also assert inside `backward` that each closure honoured its
        // needs-mask), and a tape of constants records no closure at all.
        let mut g = Graph::new();
        let a = g.leaf(t2(&[2, 2], &[1., 2., 3., 4.]), true);
        let c = g.constant(t2(&[2, 2], &[0.5, -1., 2., 0.]));
        let row = g.constant(t2(&[2], &[1., -1.]));
        let mut outs = vec![
            g.add(a, row),
            g.sub(c, a),
            g.mul(c, a),
            g.matmul(c, a),
            g.matmul_nt(a, c),
            g.concat_cols(&[c, a]),
            g.concat_rows(&[a, c]),
            g.layer_norm(a, row, row, 1e-5),
        ];
        let (a3, c3) = (g.reshape(a, vec![1, 2, 2]), g.constant(t2(&[1, 2, 2], &[1.; 4])));
        outs.extend([g.bmm(c3, a3), g.bmm_nt(a3, c3)]);
        let mut total = g.sum_all(a);
        for o in outs {
            let s = g.sum_all(o);
            total = g.add(total, s);
        }
        g.backward(total);
        assert!(g.grad(a).is_some());
        for v in [c, row, c3] {
            assert!(g.grad(v).is_none());
        }
        let inert = g.mul(c, c);
        assert!(!g.has_backward(inert));
    }

    #[test]
    fn permute_reshape_roundtrip_grad() {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[2, 3], &[1., 2., 3., 4., 5., 6.]), true);
        let r = g.reshape(x, vec![3, 2]);
        let p = g.permute(r, &[1, 0]);
        let s = g.sum_all(p);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[1.; 6]);
    }
}
