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
//! constant operand (a mask, an averaging matrix) costs nothing. A
//! trained parameter is bound by [`Graph::param_leaf`] with the
//! [`GradForm`] its gradient leaves the tape in, and after `backward`
//! [`Graph::take_params`] hands every parameter's gradient out as
//! [`GradPart`]s. A `Dense` leaf's gradient is formed on the tape. A
//! `Product` leaf may only be the rhs of one [`Graph::matmul`]: the tape
//! keeps the factors `X`, `dY` of its gradient `Xᵀ · dY` instead, and the
//! owner adds the product into its store, for all the tables of a batch in
//! one kernel call. A tape may stack several tables' rows into one operand
//! ([`Graph::matmul_stacked`], [`Graph::add_stacked`],
//! [`Graph::layer_norm_stacked`]): every sum across rows that reaches a
//! parameter then leaves the tape as one part per table, each the sum a
//! tape of that table alone forms. A `Rows` leaf may only be gathered from
//! ([`Graph::index_select0`]): each gather keeps `(indices, dY rows)`, so
//! no `[vocab, d]` gradient is formed for an embedding table.
//!
//! The tape lets go as the sweep passes: once a computed node's backward
//! has run, no node below it can read its closure, its gradient or its
//! value (parents precede children), so `backward` drops all three right
//! there — except a factor a part still hands out, and the root's value.
//! Leaves keep value and gradient. A swept tape holds what the caller can
//! still ask for and nothing else; asking it for more ([`Graph::value`] or
//! [`Graph::grad`] of a released node, a second `backward`) panics, it
//! never answers with a stand-in.

use crate::ops;
use crate::ops::gelu_grad;
use crate::tensor::Tensor;
use std::ops::Range;
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

/// The form a trained parameter's gradient leaves the tape in. The IR
/// decides it per parameter from the parameter's readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradForm {
    /// Formed on the tape; read by any op.
    Dense,
    /// `Xᵀ · dY`, kept as its two factors; read only as the rhs of one
    /// `matmul`.
    Product,
    /// One `(indices, dY rows)` list per gather; read only by gathers.
    Rows,
}

/// A parameter's gradient, or one share of it, as
/// [`Graph::take_params`] hands it out.
pub enum GradPart {
    /// The whole gradient of a `Dense` leaf.
    Dense(Tensor),
    /// The gradient `xᵀ · dy` of a `Product` leaf over rows `rows` of
    /// both factors: all of them, or one table's of a stacked operand.
    Product {
        /// The lhs value of the leaf's `matmul`, `[k, m]`; still on the tape.
        x: Arc<Tensor>,
        /// The gradient that reached the `matmul`'s output, `[k, n]`.
        dy: Arc<Tensor>,
        /// The rows (`k` range) of `x` and `dy` this part is the product of.
        rows: Range<usize>,
    },
    /// One gather's share of a `Rows` leaf's gradient: row `indices[r]`
    /// receives row `r` of `dy`.
    Rows {
        /// The gather's index list.
        indices: Vec<usize>,
        /// The gradient that reached the gather's output, one row per index.
        dy: Tensor,
    },
}

impl GradPart {
    /// A `Product`'s factors, restricted to its rows: `(x, dy)` as
    /// row-major `[rows, m]` and `[rows, n]` slices.
    pub fn factors(&self) -> Option<(&[f32], &[f32])> {
        let GradPart::Product { x, dy, rows } = self else { return None };
        fn span<'t>(t: &'t Tensor, rows: &Range<usize>) -> &'t [f32] {
            let width = t.shape()[1];
            &t.data()[rows.start * width..rows.end * width]
        }
        Some((span(x, rows), span(dy, rows)))
    }
}

/// What a node is to the reverse sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Computed by an operation; released once the sweep has passed it.
    Op,
    /// An input or constant; its gradient, if it needs one, accumulates
    /// on the tape.
    Leaf,
    /// A trained parameter bound by [`Graph::param_leaf`]. Only a `Dense`
    /// one needs a gradient on the tape.
    Param(GradForm),
}

struct Node {
    value: Value,
    grad: Option<Tensor>,
    parents: Vec<Var>,
    needs_grad: bool,
    kind: Kind,
    /// The sweep must not release the value: the `X` of a product.
    keep_value: bool,
    /// The sweep must not release the gradient: the `dY` of a product or
    /// of a row list.
    keep_grad: bool,
    backward: Option<BackFn>,
    /// The op slot the sweep times `backward` under
    /// ([`Graph::time_backward`]).
    backward_op: Option<turl_obs::OpId>,
}

impl Node {
    /// The value of a node the sweep has yet to pass.
    fn unswept_value(&self) -> &Tensor {
        self.value.get().expect("the sweep releases a node only after its readers")
    }
}

/// One read of a `Product` or `Rows` leaf, whose gradient is the `dY`
/// of `node`.
struct Use {
    leaf: Var,
    node: Var,
    factor: Factor,
    /// Row counts of the tables stacked in `node`'s rows, one part each;
    /// empty for one unsplit part.
    segments: Vec<usize>,
}

/// What a [`Use`] keeps next to its `dY`.
enum Factor {
    /// `node = matmul(lhs, leaf)`.
    Lhs(Var),
    /// `node = index_select0(leaf, indices)`.
    Indices(Vec<usize>),
}

/// One table of a [`Graph::attention`] stack.
pub struct AttentionTable {
    /// The table's rows of the stacked operands.
    pub rows: Range<usize>,
    /// Its additive `[n, n]` visibility mask, if it has one.
    pub mask: Option<Var>,
    /// Its dropout keep-mask over the `[heads, n, n]` probabilities, drawn
    /// by the caller; `None` without dropout.
    pub keep: Option<Tensor>,
}

/// [`ops`]'s view of one table's elements `span` of the stacked `q`, `k`,
/// `v` ([`Graph::attention`]).
fn attention_rows(
    [q, k, v]: [&Tensor; 3],
    span: Range<usize>,
    heads: usize,
    scale: f32,
) -> ops::AttentionRows<'_> {
    let d = q.shape()[1];
    let [q, k, v] = [q, k, v].map(|x| &x.data()[span.clone()]);
    ops::AttentionRows { q, k, v, d, heads, scale }
}

/// A dynamic computation graph (autograd tape).
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    uses: Vec<Use>,
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
        self.uses.clear();
        self.swept = None;
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a leaf node the tape owns. `requires_grad` asks for its
    /// gradient on the tape (a trained parameter binds through
    /// [`param_leaf`](Graph::param_leaf) instead).
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push_leaf(Value::Owned(value), requires_grad, Kind::Leaf)
    }

    /// Add a trained parameter whose gradient leaves the tape in `form`.
    /// The value stays shared with the caller: the tape holds a reference,
    /// not a copy, for as long as the node exists. An op reading the leaf
    /// in a way `form` does not admit panics where it is recorded; after
    /// [`backward`](Graph::backward) the gradient is what
    /// [`take_params`](Graph::take_params) hands out for the leaf.
    pub fn param_leaf(&mut self, value: Arc<Tensor>, form: GradForm) -> Var {
        self.push_leaf(Value::Shared(value), form == GradForm::Dense, Kind::Param(form))
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
            backward_op: None,
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

    /// The form `v`'s gradient leaves the tape in, when `v` is a
    /// [parameter leaf](Graph::param_leaf).
    pub fn grad_form(&self, v: Var) -> Option<GradForm> {
        match self.nodes[v.0].kind {
            Kind::Param(form) => Some(form),
            Kind::Op | Kind::Leaf => None,
        }
    }

    /// Whether `v` is a leaf: it was created directly from a tensor rather
    /// than by an operation.
    pub fn is_leaf(&self, v: Var) -> bool {
        self.nodes[v.0].kind != Kind::Op
    }

    /// Shape of the gradient the tape holds at `v`, if it holds one: after
    /// a sweep, a leaf's, or the `dY` of a part not yet taken. Never
    /// panics (for auditing).
    pub fn held_grad_shape(&self, v: Var) -> Option<&[usize]> {
        self.nodes[v.0].grad.as_ref().map(Tensor::shape)
    }

    /// Time the backward closures of the nodes recorded since the tape
    /// held `since` nodes under `op` (the caller names it, e.g. after the
    /// IR op the nodes lower from); [`backward`](Graph::backward) runs
    /// each inside a [`turl_obs::op_timer`].
    pub fn time_backward(&mut self, since: usize, op: Option<turl_obs::OpId>) {
        for node in &mut self.nodes[since..] {
            node.backward_op = op;
        }
    }

    fn push(&mut self, value: Tensor, parents: Vec<Var>, backward: BackFn) -> Var {
        self.push_reading(value, parents, backward, None)
    }

    /// Record an op. Only the parent in slot `special` may be a `Product`
    /// or `Rows` leaf — the caller is the one read that leaf's form admits.
    fn push_reading(
        &mut self,
        value: Tensor,
        parents: Vec<Var>,
        backward: BackFn,
        special: Option<usize>,
    ) -> Var {
        for (slot, p) in parents.iter().enumerate() {
            let Kind::Param(form) = self.nodes[p.0].kind else { continue };
            let readers = match form {
                GradForm::Dense => continue,
                GradForm::Product => "only one matmul rhs may read it",
                GradForm::Rows => "only index_select0 may read it",
            };
            assert!(special == Some(slot), "leaf {} has a {form:?} gradient: {readers}", p.0);
        }
        // A parameter leaf's reader needs a gradient, whether or not the
        // tape forms the leaf's own.
        let needs_grad = parents.iter().any(|p| {
            let p = &self.nodes[p.0];
            p.needs_grad || matches!(p.kind, Kind::Param(_))
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
            backward_op: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Run reverse-mode differentiation from `root` (seeded with ones),
    /// releasing every computed node the sweep is done with: afterwards
    /// the tape holds the leaves (values and gradients), `root`'s value,
    /// and the factors [`take_params`](Graph::take_params) hands out.
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
        let _t = turl_obs::op_timer(node.backward_op);
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

    /// After [`backward`](Graph::backward): the gradient of every
    /// [parameter leaf](Graph::param_leaf) a gradient reached, as parts of
    /// its form. That is one `Dense` part, one `Product`, or one `Rows`
    /// list per gather. A leaf's row lists come in the order the sweep met
    /// them (reverse recording order), which is the order a `Dense` leaf's
    /// gradient adds them up in. A [stacked](Graph::matmul_stacked)
    /// product comes as one part per table, tagged with the table's
    /// position in the stack; every other part is untagged. Gradients and
    /// indices are moved off the tape, so a second call finds nothing. A
    /// product's `x`, which the sweep did not release, stays a value of
    /// the tape, shared with the returned handle, which outlives a
    /// [`reset`](Graph::reset).
    pub fn take_params(&mut self) -> Vec<(Var, Option<usize>, GradPart)> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.kind == Kind::Param(GradForm::Dense) {
                out.extend(node.grad.take().map(|g| (Var(i), None, GradPart::Dense(g))));
            }
        }
        let mut uses = std::mem::take(&mut self.uses);
        for Use { leaf, node, factor, segments } in uses.drain(..).rev() {
            let Some(dy) = self.nodes[node.0].grad.take() else { continue };
            match factor {
                Factor::Lhs(lhs) => {
                    let (x, dy) = (self.share_value(lhs), Arc::new(dy));
                    if segments.is_empty() {
                        let rows = 0..dy.shape()[0];
                        out.push((leaf, None, GradPart::Product { x, dy, rows }));
                        continue;
                    }
                    let mut start = 0;
                    for (s, &n) in segments.iter().enumerate() {
                        let rows = start..start + n;
                        start += n;
                        let part =
                            GradPart::Product { x: Arc::clone(&x), dy: Arc::clone(&dy), rows };
                        out.push((leaf, Some(s), part));
                    }
                }
                Factor::Indices(indices) => out.push((leaf, None, GradPart::Rows { indices, dy })),
            }
        }
        self.uses = uses;
        out
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

    /// `a + b` for a `[rows, d]` `a` whose rows stack tables of
    /// `segments` rows each, table `s`'s rows plus the `[d]` row
    /// `biases[s]` (one parameter bound once per table): each bias's
    /// gradient is its own table's column sums, in row order from `+0.0`,
    /// the sum [`add`](Graph::add)'s broadcast backward forms for a tape of
    /// that table alone.
    pub fn add_stacked(&mut self, a: Var, biases: &[Var], segments: &[usize]) -> Var {
        assert_eq!(biases.len(), segments.len(), "one bias per table");
        let av = self.value(a);
        let d = self.value(biases[0]).len();
        assert!(av.rank() == 2 && av.shape()[1] == d, "add_stacked: {:?} rows of {d}", av.shape());
        assert_eq!(segments.iter().sum::<usize>(), av.shape()[0], "segments must cover the rows");
        let mut value = av.clone();
        let mut start = 0;
        for (&b, &n) in biases.iter().zip(segments) {
            let bias = self.value(b).data();
            for row in value.data_mut()[start * d..(start + n) * d].chunks_exact_mut(d) {
                row.iter_mut().zip(bias).for_each(|(x, &y)| *x += y);
            }
            start += n;
        }
        let segments = segments.to_vec();
        let mut parents = vec![a];
        parents.extend_from_slice(biases);
        self.push(
            value,
            parents,
            Box::new(move |g, _, _, needs| {
                let mut grads = vec![needs[0].then(|| g.clone())];
                let mut start = 0;
                for (s, &n) in segments.iter().enumerate() {
                    grads.push(needs[1 + s].then(|| {
                        let mut sums = Tensor::zeros(vec![d]);
                        for row in g.data()[start * d..(start + n) * d].chunks_exact(d) {
                            sums.data_mut().iter_mut().zip(row).for_each(|(o, &x)| *o += x);
                        }
                        sums
                    }));
                    start += n;
                }
                grads
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

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// 2-D matrix product `A · B`. `B` may be a `Product` leaf not read
    /// before: backward then computes `dA` alone.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.matmul_stacked(a, b, &[])
    }

    /// [`matmul`](Graph::matmul) over an `A` whose rows stack tables of
    /// `segments` rows each: a `Product` rhs then hands out one part per
    /// table, that table's rows of `X` and `dY` ([`Graph::take_params`]).
    /// Each row of the product and of `dA` is its row's alone, so
    /// stacking changes no bit of either.
    pub fn matmul_stacked(&mut self, a: Var, b: Var, segments: &[usize]) -> Var {
        debug_assert!(
            segments.is_empty() || segments.iter().sum::<usize>() == self.shape(a)[0],
            "segments must cover the lhs rows"
        );
        let product_rhs =
            self.grad_form(b) == Some(GradForm::Product) && !self.uses.iter().any(|u| u.leaf == b);
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
            product_rhs.then_some(1),
        );
        if product_rhs {
            self.nodes[a.0].keep_value = true;
            self.nodes[node.0].keep_grad = true;
            let segments = segments.to_vec();
            self.uses.push(Use { leaf: b, node, factor: Factor::Lhs(a), segments });
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

    /// Multi-head self-attention over stacked tables, as one node: `q`,
    /// `k`, `v` are `[R, d]` and `tables` cover their rows in order. Per
    /// table and head (`d / heads` columns, read in place), `P =
    /// softmax(Q·Kᵀ · scale + mask)` and the output rows are `(P ⊙ keep) ·
    /// V`, written into the stacked `[R, d]` output ([`ops`]'s
    /// `attention_into`). The node keeps each table's `P` and keep-mask for
    /// its backward, nothing else; the backward forms the chain's products
    /// in the chain's order. It has the bits of the chain that slices each
    /// table's rows (when the stack holds more than one), splits heads
    /// (reshape, permute), scores (`bmm_nt`, `scale`, mask `add`,
    /// `softmax_last`, dropout `mul`), contracts (`bmm`), merges (permute,
    /// reshape) and stacks the tables (`concat_rows`) — forward and every
    /// gradient. (The slice backward's `+0.0 + g` is the identity here:
    /// every gradient element is a fused multiply-add chain from `+0.0`,
    /// which never ends on `-0.0`.)
    pub fn attention(
        &mut self,
        [q, k, v]: [Var; 3],
        heads: usize,
        scale: f32,
        tables: Vec<AttentionTable>,
    ) -> Var {
        let shape = self.shape(q).to_vec();
        assert!(shape.len() == 2 && self.shape(k) == shape && self.shape(v) == shape, "q, k, v");
        let d = shape[1];
        assert!(heads > 0 && d.is_multiple_of(heads), "{heads} heads of {d} columns");
        let covered =
            tables.iter().try_fold(0, |end, t| (t.rows.start == end).then_some(t.rows.end));
        assert_eq!(covered, Some(shape[0]), "the tables must cover the rows in order");
        let mut out = Tensor::zeros(shape);
        let mut probs = Vec::with_capacity(tables.len());
        for t in &tables {
            let (n, span) = (t.rows.len(), t.rows.start * d..t.rows.end * d);
            let mask = t.mask.map(|m| self.value(m).data());
            assert!(mask.is_none_or(|m| m.len() == n * n), "an [n, n] mask per table");
            let keep = t.keep.as_ref().map(|k| k.data());
            assert!(keep.is_none_or(|k| k.len() == heads * n * n), "a [heads, n, n] keep-mask");
            let qkv = [q, k, v].map(|x| self.value(x));
            let rows = attention_rows(qkv, span.clone(), heads, scale);
            let mut p = vec![0.0f32; rows.probs_len()];
            ops::attention_into(rows, mask, keep, &mut p, &mut out.data_mut()[span]);
            probs.push(p);
        }
        let mut parents = vec![q, k, v];
        parents.extend(tables.iter().filter_map(|t| t.mask));
        let saved: Vec<(Range<usize>, Vec<f32>, Option<Tensor>)> =
            tables.into_iter().zip(probs).map(|(t, p)| (t.rows, p, t.keep)).collect();
        self.push(
            out,
            parents,
            Box::new(move |g, _, pv, needs| {
                // q, k, v's gradients; a mask is a constant.
                let mut grads: [Option<Tensor>; 3] =
                    std::array::from_fn(|i| needs[i].then(|| Tensor::zeros(g.shape().to_vec())));
                for (rows, p, keep) in &saved {
                    let span = rows.start * d..rows.end * d;
                    let table = attention_rows([pv[0], pv[1], pv[2]], span.clone(), heads, scale);
                    let [dq, dk, dv] = &mut grads;
                    let slots =
                        [dq, dk, dv].map(|x| x.as_mut().map(|x| &mut x.data_mut()[span.clone()]));
                    let (keep, dout) = (keep.as_ref().map(Tensor::data), &g.data()[span.clone()]);
                    ops::attention_backward(table, p, keep, dout, slots);
                }
                let mut grads = Vec::from(grads);
                grads.resize_with(needs.len(), || None);
                grads
            }),
        )
    }

    /// Layer normalization over the last axis with affine parameters.
    ///
    /// `x` has shape `[..., d]`, `gamma` and `beta` have shape `[d]`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let rows = self.value(x).len() / self.value(gamma).len().max(1);
        self.layer_norm_stacked(x, &[gamma], &[beta], &[rows], eps)
    }

    /// [`layer_norm`](Graph::layer_norm) over an `x` whose rows stack
    /// tables of `segments` rows each, table `s` under `gammas[s]` and
    /// `betas[s]` (one parameter bound once per table): each table's rows
    /// are normalized as alone, and its affine gradients are the sums over
    /// its own rows, which a tape of that table alone forms.
    pub fn layer_norm_stacked(
        &mut self,
        x: Var,
        gammas: &[Var],
        betas: &[Var],
        segments: &[usize],
        eps: f32,
    ) -> Var {
        assert!(gammas.len() == segments.len() && betas.len() == segments.len(), "one per table");
        let xv = self.value(x);
        let d = self.value(gammas[0]).len();
        assert_eq!(xv.shape().last(), Some(&d), "layer_norm gamma size");
        assert_eq!(segments.iter().sum::<usize>() * d, xv.len(), "segments must cover the rows");
        let mut out = Tensor::zeros(xv.shape().to_vec());
        let mut start = 0;
        for ((&g, &b), &n) in gammas.iter().zip(betas).zip(segments) {
            let span = start * d..(start + n) * d;
            let (gamma, beta) = (self.value(g).data(), self.value(b).data());
            ops::fused_layer_norm(
                &xv.data()[span.clone()],
                gamma,
                beta,
                eps,
                &mut out.data_mut()[span],
            );
            start += n;
        }
        let segments = segments.to_vec();
        let mut parents = vec![x];
        parents.extend_from_slice(gammas);
        parents.extend_from_slice(betas);
        self.push(
            out,
            parents,
            Box::new(move |g, _, pv, needs| {
                let n_seg = segments.len();
                let xval = pv[0];
                let mut dx = needs[0].then(|| Tensor::zeros(xval.shape().to_vec()));
                let mut dgammas = vec![None; n_seg];
                let mut dbetas = vec![None; n_seg];
                let mut start = 0;
                for (s, &n) in segments.iter().enumerate() {
                    let span = start * d..(start + n) * d;
                    start += n;
                    let mut dgamma = needs[1 + s].then(|| Tensor::zeros(vec![d]));
                    let mut dbeta = needs[1 + n_seg + s].then(|| Tensor::zeros(vec![d]));
                    ops::layer_norm_backward(
                        &xval.data()[span.clone()],
                        pv[1 + s].data(),
                        &g.data()[span.clone()],
                        eps,
                        dx.as_mut().map(|dx| &mut dx.data_mut()[span]),
                        dgamma.as_mut().map(Tensor::data_mut),
                        dbeta.as_mut().map(Tensor::data_mut),
                    );
                    dgammas[s] = dgamma;
                    dbetas[s] = dbeta;
                }
                let mut grads = vec![dx];
                grads.extend(dgammas);
                grads.extend(dbetas);
                grads
            }),
        )
    }

    // ---------------------------------------------------------------------
    // Gather / structure
    // ---------------------------------------------------------------------

    /// Gather rows along axis 0 (embedding lookup). From a `Rows` leaf,
    /// backward scatters nothing: the gather keeps `(indices, dY)` for
    /// [`take_params`](Graph::take_params).
    pub fn index_select0(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = self.value(a).index_select0(indices);
        let idx = indices.to_vec();
        if self.grad_form(a) == Some(GradForm::Rows) {
            let scatters_nothing: BackFn = Box::new(|_, _, _, _| vec![None]);
            let node = self.push_reading(value, vec![a], scatters_nothing, Some(0));
            self.nodes[node.0].keep_grad = true;
            let segments = Vec::new();
            self.uses.push(Use { leaf: a, node, factor: Factor::Indices(idx), segments });
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

    /// A tape that reads a `[4, 2]` parameter bound in `form` the way
    /// `reader` admits, swept: `Σ (x · w)²` for `Product`, and otherwise
    /// `Σ gather(w, [1, 1, 3]) ⊙ x + Σ gather(w, [3, 0]) ⊙ c`. Returns the
    /// tape and `(x, w)`.
    fn form_tape(form: GradForm, reader: GradForm) -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let x =
            g.leaf(t2(&[3, 4], &[0.5, -1., 2., 0.25, -0., 1.5, 3., -2., 1., 7., -0.5, 4.]), true);
        let table = t2(&[4, 2], &[0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]);
        let w = g.param_leaf(Arc::new(table), form);
        let loss = if reader == GradForm::Product {
            let y = g.matmul(x, w);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        } else {
            let xs = g.reshape(x, vec![6, 2]);
            let seeds =
                [g.index_select0(xs, &[0, 1, 2]), g.constant(t2(&[2, 2], &[7., 8., 9., -1.]))];
            let mut loss = None;
            for (idx, seed) in [&[1, 1, 3][..], &[3, 0]].into_iter().zip(seeds) {
                let rows = g.index_select0(w, idx);
                let weighted = g.mul(rows, seed);
                let s = g.sum_all(weighted);
                loss = Some(loss.map_or(s, |l| g.add(l, s)));
            }
            loss.unwrap()
        };
        g.backward(loss);
        (g, x, w)
    }

    /// `parts` added up the way the tape forms a `Dense` leaf's gradient:
    /// each part as the tensor its op's backward builds, in order.
    fn formed(parts: Vec<(Var, Option<usize>, GradPart)>, shape: &[usize]) -> Tensor {
        let as_tensor = |part: GradPart| match part {
            GradPart::Dense(g) => g,
            GradPart::Product { x, dy, .. } => ops::matmul_tn(&x, &dy),
            GradPart::Rows { indices, dy } => {
                let mut g = Tensor::zeros(shape.to_vec());
                let w = shape[1];
                for (r, &i) in indices.iter().enumerate() {
                    let src = &dy.data()[r * w..(r + 1) * w];
                    g.data_mut()[i * w..(i + 1) * w].iter_mut().zip(src).for_each(|(d, s)| *d += s);
                }
                g
            }
        };
        let mut tensors = parts.into_iter().map(|(_, _, part)| as_tensor(part));
        let mut total = tensors.next().expect("a gradient reached the leaf");
        tensors.for_each(|g| total.add_assign(&g));
        total
    }

    /// A leaf bound `Dense` and one bound `reader` (the form the tape's
    /// reads admit), each over [`form_tape`]: both hand out parts that add
    /// up to the `Dense` leaf's gradient bits, the `reader` leaf's in its
    /// own form.
    fn hands_out_the_parts_of_the_dense_leafs_gradient(reader: GradForm) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (dense, x, w) = form_tape(GradForm::Dense, reader);
        let want = bits(dense.grad(w).unwrap());
        for form in [GradForm::Dense, reader] {
            let (mut tape, xf, wf) = form_tape(form, reader);
            assert_eq!(bits(tape.grad(xf).unwrap()), bits(dense.grad(x).unwrap()), "dA");
            assert_eq!(tape.grad_form(wf), Some(form));
            assert_eq!(tape.needs_grad(wf), form == GradForm::Dense);
            let parts = tape.take_params();
            assert!(parts.iter().all(|(leaf, seg, _)| *leaf == wf && seg.is_none()));
            match (form, &parts[..]) {
                (GradForm::Dense, [(_, _, GradPart::Dense(_))]) => {}
                (GradForm::Product, [(_, _, GradPart::Product { x, .. })]) => {
                    assert!(std::ptr::eq(&**x, tape.value(xf)), "x is the tape's own, shared");
                }
                (
                    GradForm::Rows,
                    [(_, _, GradPart::Rows { indices: first, .. }), (_, _, GradPart::Rows { indices: second, .. })],
                ) => {
                    // Sweep order: the later gather comes first.
                    assert_eq!((&first[..], &second[..]), (&[3, 0][..], &[1, 1, 3][..]));
                }
                _ => panic!("{form:?}: {} parts of the wrong form", parts.len()),
            }
            assert!(tape.take_params().is_empty(), "{form:?}: a second take finds nothing");
            // The parts outlive the tape.
            tape.reset();
            assert_eq!(bits(&formed(parts, &[4, 2])), want, "{form:?} read as {reader:?}");
        }
    }

    #[test]
    fn deferred_leaf_leaves_the_factors_of_the_plain_leafs_gradient() {
        hands_out_the_parts_of_the_dense_leafs_gradient(GradForm::Product);
    }

    #[test]
    fn a_gathered_leaf_hands_out_row_lists_in_sweep_order() {
        hands_out_the_parts_of_the_dense_leafs_gradient(GradForm::Rows);
    }

    /// A leaf bound `Dense` and one bound `form`, each read the way `form`
    /// admits on a dead end the loss does not reach: neither has a part.
    fn no_part_when_no_gradient_reaches(form: GradForm) {
        for bound in [GradForm::Dense, form] {
            let mut g = Graph::new();
            let x = g.leaf(t2(&[1, 2], &[1., 2.]), true);
            let w = g.param_leaf(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])), bound);
            let _dead_end =
                if form == GradForm::Rows { g.index_select0(w, &[1]) } else { g.matmul(x, w) };
            let loss = g.sum_all(x);
            g.backward(loss);
            assert!(g.take_params().is_empty(), "{bound:?}");
        }
    }

    #[test]
    fn a_deferred_leaf_no_gradient_reaches_lists_no_product() {
        no_part_when_no_gradient_reaches(GradForm::Product);
    }

    #[test]
    fn a_gather_no_gradient_reaches_lists_no_rows() {
        no_part_when_no_gradient_reaches(GradForm::Rows);
    }

    /// A `[2, 2]` leaf bound `form` (node 0) and a plain `[2, 2]` leaf `x`,
    /// handed to `read`.
    fn read_param(form: GradForm, read: impl FnOnce(&mut Graph, Var, Var)) {
        let mut g = Graph::new();
        let w = g.param_leaf(Arc::new(t2(&[2, 2], &[1., 0., 0., 1.])), form);
        let x = g.leaf(t2(&[2, 2], &[1.; 4]), true);
        read(&mut g, w, x);
    }

    #[test]
    #[should_panic(expected = "leaf 0 has a Product gradient: only one matmul rhs may read it")]
    fn a_deferred_leaf_read_by_another_op_panics_where_it_is_recorded() {
        read_param(GradForm::Product, |g, w, _| _ = g.scale(w, 2.0));
    }

    #[test]
    #[should_panic(expected = "leaf 0 has a Product gradient: only one matmul rhs may read it")]
    fn a_deferred_leaf_as_matmul_lhs_panics() {
        read_param(GradForm::Product, |g, w, x| _ = g.matmul(w, x));
    }

    #[test]
    #[should_panic(expected = "leaf 0 has a Product gradient: only one matmul rhs may read it")]
    fn a_deferred_leaf_read_twice_panics() {
        read_param(GradForm::Product, |g, w, x| {
            let y = g.matmul(x, w);
            g.matmul(y, w);
        });
    }

    #[test]
    #[should_panic(expected = "leaf 0 has a Product gradient: only one matmul rhs may read it")]
    fn a_deferred_leaf_read_by_a_gather_panics() {
        read_param(GradForm::Product, |g, w, _| _ = g.index_select0(w, &[0]));
    }

    #[test]
    #[should_panic(expected = "leaf 0 has a Rows gradient: only index_select0 may read it")]
    fn a_gathered_leaf_read_by_another_op_panics_where_it_is_recorded() {
        read_param(GradForm::Rows, |g, w, _| _ = g.scale(w, 2.0));
    }

    #[test]
    #[should_panic(expected = "leaf 0 has a Rows gradient: only index_select0 may read it")]
    fn a_gathered_leaf_as_matmul_rhs_panics() {
        read_param(GradForm::Rows, |g, w, x| _ = g.matmul(x, w));
    }

    /// `Σ LN(x · W + b)²` over `tables` stacked on one tape — `W` a
    /// `Product` leaf, `b`, `γ`, `β` bound once per table — as each
    /// table's `(x rows, dY rows)` product factors and its `b`, `γ`, `β`
    /// gradients, in bits.
    fn stacked_tape(tables: &[&Tensor]) -> Vec<[Vec<u32>; 5]> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let w = [0.3, -0.1, 0.7, 0.2, -0.5, 0.4, 0.1, -0.9, 0.6, 0.05, -0.3, 0.8];
        let affine = [[0.1, -0.2, 0.3, 0.0], [1.0, 0.9, 1.1, 1.2], [0.0, 0.1, -0.1, 0.2]]
            .map(|v| Arc::new(t2(&[4], &v)));
        let mut g = Graph::new();
        let rows: Vec<usize> = tables.iter().map(|t| t.shape()[0]).collect();
        let data = tables.iter().flat_map(|t| t.data().iter().copied()).collect();
        let x = g.constant(Tensor::from_vec(vec![rows.iter().sum(), 3], data));
        let wv = g.param_leaf(Arc::new(t2(&[3, 4], &w)), GradForm::Product);
        let [b, gamma, beta] = affine.map(|v| {
            rows.iter().map(|_| g.param_leaf(Arc::clone(&v), GradForm::Dense)).collect::<Vec<_>>()
        });
        let y = g.matmul_stacked(x, wv, &rows);
        let y = g.add_stacked(y, &b, &rows);
        let h = g.layer_norm_stacked(y, &gamma, &beta, &rows, 1e-5);
        let sq = g.mul(h, h);
        let loss = g.sum_all(sq);
        g.backward(loss);
        let grad = |g: &Graph, v: Var| bits(g.grad(v).expect("a gradient reached it").data());
        let dense: Vec<[Vec<u32>; 3]> = (0..rows.len())
            .map(|s| [grad(&g, b[s]), grad(&g, gamma[s]), grad(&g, beta[s])])
            .collect();
        let mut products = g.take_params().into_iter().filter(|(leaf, ..)| *leaf == wv);
        (0..rows.len())
            .map(|s| {
                let (_, seg, part) = products.next().expect("one product part per table");
                assert_eq!(seg, Some(s), "tagged with its table");
                let (x, dy) = part.factors().expect("a product");
                let [db, dgamma, dbeta] = dense[s].clone();
                [bits(x), bits(dy), db, dgamma, dbeta]
            })
            .collect()
    }

    #[test]
    fn a_stacked_tape_gives_each_table_the_gradients_of_its_own_tape() {
        let tables = [
            t2(&[3, 3], &[0.5, -1.0, 2.0, 0.25, -0.0, 1.5, 3.0, -2.0, 1.0]),
            t2(&[2, 3], &[7.0, -0.5, 4.0, 0.1, 0.2, -0.3]),
        ];
        let stacked = stacked_tape(&[&tables[0], &tables[1]]);
        for (s, table) in tables.iter().enumerate() {
            assert_eq!(stacked[s], stacked_tape(&[table])[0], "table {s}");
        }
    }

    /// `loss = Σ (2x · w)²` over a computed lhs, `w` a `Product` leaf;
    /// returns the tape and `(x, lhs, product, loss)`.
    fn swept_tape() -> (Graph, Var, Var, Var, Var) {
        let mut g = Graph::new();
        let x = g.leaf(t2(&[3, 2], &[0.5, -1.0, 2.0, 0.25, -0.0, 1.5]), true);
        let lhs = g.scale(x, 2.0);
        let w = g.param_leaf(Arc::new(t2(&[2, 2], &[0.1, -0.2, 0.3, 0.4])), GradForm::Product);
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
        assert!(g.vars().all(|v| g.nodes[v.0].backward.is_none()), "a closure outlived the sweep");
        // Leaves, the root's value, and both factors of the product.
        assert_eq!(g.value(loss).shape(), &[1]);
        assert_eq!(g.grad(x).unwrap().shape(), &[3, 2]);
        assert_eq!(g.value(lhs).data(), &[1.0, -2.0, 4.0, 0.5, -0.0, 3.0]);
        assert_eq!(g.held_grad_shape(y), Some(&[3, 2][..]));
        // Everything else is gone, its shape still on record.
        assert_eq!((g.shape(y), g.held_grad_shape(lhs)), (&[3, 2][..], None));
        let parts = g.take_params();
        let [(_, None, GradPart::Product { x, .. })] = &parts[..] else { panic!("one product") };
        assert!(std::ptr::eq(&**x, g.value(lhs)));
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
        assert!(g.nodes[inert.0].backward.is_none());
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
