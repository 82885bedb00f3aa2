//! Central parameter storage and the per-step forward context.
//!
//! A parameter's gradient reaches the store in the form the caller binds
//! it in ([`Forward::param`]), as a list of [`GradPart`]s
//! ([`Forward::take_grads`]). A `Dense` part is the tensor the tape
//! formed, and the store adds it. A `Product` part, for a weight that is
//! only ever the rhs of one `matmul`, is the two factors `X`, `dY` of
//! `dW = Xᵀ · dY`: the store adds the product in place, for all the tables
//! of a batch in one kernel call ([`ParamStore::reduce`]), so no
//! weight-sized gradient tensor exists outside the store. A `Rows` part,
//! for an embedding table that is only ever gathered from, is one
//! gather's `(indices, dY rows)`: the store adds the rows it names, so a
//! table costs what it looked up, not `[vocab, d]`. Each form reaches the
//! store with the bits the `Dense` one gives (`add_parts`).

use std::collections::HashMap;
use std::sync::Arc;
use turl_tensor::{ops, pool, GradForm, GradPart, Graph, Tensor, Var};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Stable index of this parameter within its store (registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// `grad += ` one parameter's `parts`, each tagged with the position of
/// the table (tape) it came from, in slice order. The bits are those of
/// adding each table's `Dense` gradient in that order:
///
/// * a `Dense` part by `add_assign`;
/// * a run of products, across tables, as one `matmul_tn_acc_into`
///   call, which adds them in order inside each register tile, each
///   product its own accumulator from `+0.0`, as `matmul_tn` forms it;
/// * one table's row lists together through [`add_row_lists`].
///
/// Returns the time spent in products (0 with metrics off).
fn add_parts(grad: &mut Tensor, parts: &[(usize, &GradPart)]) -> u64 {
    let together = |(ta, a): &(usize, &GradPart), (tb, b): &(usize, &GradPart)| match (a, b) {
        (GradPart::Product { .. }, GradPart::Product { .. }) => true,
        (GradPart::Rows { .. }, GradPart::Rows { .. }) => ta == tb,
        _ => false,
    };
    let mut product_ns = 0;
    for run in parts.chunk_by(together) {
        match run[0].1 {
            GradPart::Dense(g) => grad.add_assign(g),
            GradPart::Rows { .. } => add_row_lists(grad, run),
            GradPart::Product { .. } => {
                let timer = turl_obs::Timer::start();
                let factors: Vec<(&[f32], &[f32])> = (run.iter())
                    .map(|(_, part)| part.factors().expect("a run holds one form"))
                    .collect();
                let (m, n) = (grad.shape()[0], grad.shape()[1]);
                ops::matmul_tn_acc_into(grad.data_mut(), m, n, &factors);
                product_ns += timer.elapsed_ns();
            }
        }
    }
    product_ns
}

/// `grad += G`, with `G` the dense gradient one tape forms for the table
/// `lists` — all that tape's gathers of it, in the order the sweep met
/// them — were gathered from, and with the bits of that dense add.
///
/// The dense way scatters each gather into its own zero tensor (row `e`:
/// `+0.0`, plus the gather's `dY` rows that name `e`, in index order),
/// adds those tensors up in sweep order into `G`, and adds `G` to `grad`.
/// This does the same sums for the rows some list names and skips the
/// others, where every term is a `+ 0.0`. That changes no bit: each
/// accumulator involved (a gather's row, `G`'s row, `grad`'s row) starts
/// at `+0.0`, a sum of two floats is `-0.0` only if both are, so none of
/// them ever holds `-0.0` — and `x + 0.0` is `x` for every other `x`.
fn add_row_lists(grad: &mut Tensor, lists: &[(usize, &GradPart)]) {
    let row_len: usize = grad.shape()[1..].iter().product();
    let lists: Vec<(&[usize], &Tensor)> = (lists.iter())
        .map(|(_, part)| match part {
            GradPart::Rows { indices, dy } => (&indices[..], dy),
            _ => unreachable!("a run holds one form"),
        })
        .collect();
    // (row, list, position in the list): sorted, a row's hits are grouped
    // by list in sweep order, and within a list in index order.
    let mut hits: Vec<(usize, usize, usize)> = Vec::new();
    for (l, (indices, dy)) in lists.iter().enumerate() {
        let fits = dy.len() == indices.len() * row_len;
        assert!(fits, "a {:?} row list against a {:?} table", dy.shape(), grad.shape());
        hits.extend(indices.iter().enumerate().map(|(r, &row)| (row, l, r)));
    }
    hits.sort_unstable();
    let (mut total, mut sum) = (vec![0.0f32; row_len], vec![0.0f32; row_len]);
    let add = |acc: &mut [f32], src: &[f32]| acc.iter_mut().zip(src).for_each(|(a, s)| *a += s);
    for of_row in hits.chunk_by(|a, b| a.0 == b.0) {
        for (k, of_list) in of_row.chunk_by(|a, b| a.1 == b.1).enumerate() {
            let acc = if k == 0 { &mut total } else { &mut sum };
            acc.fill(0.0);
            for &(_, l, r) in of_list {
                add(acc, &lists[l].1.data()[r * row_len..][..row_len]);
            }
            if k > 0 {
                add(&mut total, &sum);
            }
        }
        add(&mut grad.data_mut()[of_row[0].0 * row_len..][..row_len], &total);
    }
}

/// Parameters per task of [`ParamStore::reduce`]: the sums of squares
/// of one task's parameters run as interleaved chains.
const REDUCE_GROUP: usize = 4;

/// What [`ParamStore::reduce`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    /// Global L2 norm over all touched gradients.
    pub grad_norm: f32,
    /// Wall-clock share of the call spent in `Product` parts (0 with
    /// metrics off).
    pub wgrad_ns: u64,
}

pub(crate) struct ParamEntry {
    pub name: String,
    /// Shared with every live tape that bound it ([`Forward::param`]);
    /// written through `Arc::make_mut`, which copies only while one does.
    pub value: Arc<Tensor>,
    /// Allocated the first time a gradient is added; zeros until then.
    pub grad: Option<Tensor>,
    /// Adam first-moment state, allocated the first time the optimizer
    /// steps the parameter; zeros until then. Shared, like `value`, with
    /// a checkpoint being written ([`crate::snapshot_params`]).
    pub m: Option<Arc<Tensor>>,
    /// Adam second-moment state, allocated with `m`.
    pub v: Option<Arc<Tensor>>,
    /// Whether a gradient has been accumulated since the last optimizer
    /// step (so `grad` is allocated).
    pub touched: bool,
    /// Frozen parameters are skipped by the optimizer.
    pub frozen: bool,
}

impl ParamEntry {
    /// The gradient, allocated as zeros of the value's shape on first use.
    fn grad_mut(&mut self) -> &mut Tensor {
        let shape = self.value.shape();
        self.grad.get_or_insert_with(|| Tensor::zeros(shape.to_vec()))
    }
}

/// Owns every trainable tensor of a model, along with optimizer state.
///
/// Layers hold [`ParamId`] handles; the store is the single source of truth
/// for values, gradients, and Adam moments, which makes checkpointing and
/// optimizer stepping trivial. Only values are allocated up front: a
/// parameter's gradient is allocated the first time
/// [`reduce`](ParamStore::reduce) or [`accumulate`](ParamStore::accumulate)
/// adds to it, and its Adam moments the first time the optimizer steps
/// it, so a store that only serves or evaluates holds its weights once.
/// State that was never allocated reads, and is checkpointed, as zeros.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new named parameter. Names must be unique. The value
    /// may be block-quantized, for a store that is only read (a loaded
    /// int8 artifact, with every entry [frozen](ParamStore::set_frozen)).
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate parameter name {name}");
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry {
            name: name.clone(),
            value: Arc::new(value),
            grad: None,
            m: None,
            v: None,
            touched: false,
            frozen: false,
        });
        self.by_name.insert(name, id);
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable value of a parameter (for manual initialization). A tape
    /// that still holds the parameter keeps the old value: the store
    /// copies on this first write.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// Accumulated gradient of a parameter; `None` until a gradient is
    /// first added to it.
    pub fn grad(&self, id: ParamId) -> Option<&Tensor> {
        self.entries[id.0].grad.as_ref()
    }

    /// Bytes held by parameter values.
    pub fn value_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.value.byte_len()).sum()
    }

    /// Bytes held by the gradients and Adam moments allocated so far.
    pub fn state_bytes(&self) -> usize {
        let grads = self.entries.iter().flat_map(|e| &e.grad);
        let moments = self.entries.iter().flat_map(|e| [&e.m, &e.v]).flatten().map(|t| &**t);
        grads.chain(moments).map(Tensor::byte_len).sum()
    }

    /// Report the store's two memory owners as the gauges
    /// `mem.param_values_bytes` ([`value_bytes`](ParamStore::value_bytes))
    /// and `mem.optimizer_state_bytes`
    /// ([`state_bytes`](ParamStore::state_bytes)); with metrics off,
    /// nothing is computed.
    pub fn record_memory(&self) {
        if turl_obs::metrics_enabled() {
            turl_obs::gauge("mem.param_values_bytes").set(self.value_bytes() as f64);
            turl_obs::gauge("mem.optimizer_state_bytes").set(self.state_bytes() as f64);
        }
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Look up a parameter by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Freeze a parameter: its gradients are still accumulated but the
    /// optimizer leaves its value unchanged.
    pub fn set_frozen(&mut self, id: ParamId, frozen: bool) {
        self.entries[id.0].frozen = frozen;
    }

    /// Whether a parameter is frozen.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.entries[id.0].frozen
    }

    /// Accumulate externally computed gradients (from [`Forward::take_param_grads`]).
    pub fn accumulate(&mut self, grads: Vec<(ParamId, Tensor)>) {
        for (id, g) in grads {
            let e = &mut self.entries[id.0];
            e.grad_mut().add_assign(&g);
            e.touched = true;
        }
    }

    /// Sum one step's per-table gradient parts ([`Forward::take_grads`],
    /// [`Forward::take_segment_grads`]) into the store and return the
    /// global L2 norm over every touched gradient, for
    /// [`Adam::step_clipped`](crate::Adam::step_clipped): how every
    /// trainer hands a step's gradients to the optimizer. One call over
    /// several tables gives the bits of one call per table in slice order.
    ///
    /// The work fans out over tasks of a few parameters each. Each
    /// parameter adds its tables' parts in slice order (`add_parts`) — its
    /// products in one kernel call — and sums its own squares in element
    /// order ([`ops::sums_of_squares`], a task's chains side by side), and
    /// the per-parameter sums are added in registration order, so the
    /// result has the same bits at any thread count. A parameter
    /// has a `Product` part in every table of a step that reaches it or in
    /// none; a table may be `Rows` in one tape and `Dense` in the next
    /// (`word_emb`, which only the tapes with an MLM head multiply by).
    pub fn reduce(&mut self, tables: &[Vec<(ParamId, GradPart)>]) -> Reduced {
        struct Work<'a> {
            e: &'a mut ParamEntry,
            /// `(table, part)`, in slice order.
            parts: Vec<(usize, &'a GradPart)>,
            sq_sum: f32,
            wgrad_ns: u64,
        }
        let wall = turl_obs::Timer::start();
        let mut work: Vec<Work> = self
            .entries
            .iter_mut()
            .map(|e| Work { e, parts: Vec::new(), sq_sum: 0.0, wgrad_ns: 0 })
            .collect();
        for (t, table) in tables.iter().enumerate() {
            for (id, part) in table {
                work[id.0].parts.push((t, part));
            }
        }
        // A gradient is allocated here, on the caller's thread, not in a
        // pool task: a worker's allocation lands in its own malloc arena,
        // where freeing a step's temporaries trims and refaults pages
        // every step (half again the minor faults, ~15 % slower steps).
        for w in work.iter_mut().filter(|w| !w.parts.is_empty()) {
            w.e.grad_mut();
        }
        // Tasks of REDUCE_GROUP parameters of similar size, largest
        // first: each adds its parameters' parts, then sums their squares
        // while the gradients are still in cache, the chains interleaved.
        let mut work: Vec<(usize, Work)> = work.into_iter().enumerate().collect();
        work.sort_by_key(|(_, w)| std::cmp::Reverse(w.e.value.len()));
        let mut tasks: Vec<(&mut [(usize, Work)], u64)> =
            work.chunks_mut(REDUCE_GROUP).map(|task| (task, 0)).collect();
        pool::parallel_for_each_mut(&mut tasks, |_, (task, busy_ns)| {
            let busy = turl_obs::Timer::start();
            for (_, w) in task.iter_mut() {
                let products =
                    w.parts.iter().filter(|(_, p)| matches!(p, GradPart::Product { .. })).count();
                assert!(
                    products == 0 || products == w.parts.len(),
                    "`{}` has a Product part in one table of the step and another form in another",
                    w.e.name
                );
                if !w.parts.is_empty() {
                    let grad = w.e.grad.as_mut().expect("allocated above");
                    w.wgrad_ns = add_parts(grad, &w.parts);
                    w.e.touched = true;
                }
            }
            let touched: Vec<&[f32]> = (task.iter())
                .filter_map(|(_, w)| w.e.grad.as_ref().filter(|_| w.e.touched))
                .map(Tensor::data)
                .collect();
            let sums = ops::sums_of_squares(&touched);
            for ((_, w), sum) in task.iter_mut().filter(|(_, w)| w.e.touched).zip(sums) {
                w.sq_sum = sum;
            }
            *busy_ns = busy.elapsed_ns();
        });
        let busy = tasks.iter().map(|(_, ns)| ns).sum::<u64>();
        drop(tasks);
        // Back in registration order: the squares add up in it.
        work.sort_by_key(|(i, _)| *i);
        let work: Vec<Work> = work.into_iter().map(|(_, w)| w).collect();
        let grad_norm = work.iter().filter(|w| w.e.touched).map(|w| w.sq_sum).sum::<f32>().sqrt();
        // Worker time overlaps; scale the products' share to the wall clock.
        let wgrad = work.iter().map(|w| w.wgrad_ns).sum::<u64>();
        let wgrad_ns = (wall.elapsed_ns() as f64 * wgrad as f64 / busy.max(1) as f64) as u64;
        Reduced { grad_norm, wgrad_ns }
    }

    /// Zero every gradient and clear touched flags.
    pub fn zero_grads(&mut self) {
        for e in self.entries.iter_mut().filter(|e| e.touched) {
            e.grad_mut().zero_();
            e.touched = false;
        }
    }

    pub(crate) fn entries_mut(&mut self) -> &mut [ParamEntry] {
        &mut self.entries
    }

    pub(crate) fn entries(&self) -> &[ParamEntry] {
        &self.entries
    }

    /// Copy parameter values from another store by matching names.
    /// Returns how many parameters were copied (shape mismatches are skipped).
    pub fn load_matching(&mut self, other: &ParamStore) -> usize {
        let mut copied = 0;
        for e in &mut self.entries {
            if let Some(oid) = other.by_name.get(&e.name) {
                let ov = &other.entries[oid.0].value;
                if ov.shape() == e.value.shape() {
                    e.value = Arc::clone(ov);
                    copied += 1;
                }
            }
        }
        copied
    }
}

/// A single forward/backward pass: an autograd graph plus the bindings from
/// parameters to graph leaves.
///
/// One tape may run several tables stacked as row segments (the
/// pre-training step does). A parameter read per table is bound once per
/// table ([`Forward::set_segment`], [`Forward::param`]), and one a stacked
/// product reads once for all of them ([`Forward::param_shared`]), whose
/// parts the tape tags with their table. [`Forward::take_segment_grads`]
/// hands the gradients out as one list per table, each the list a tape of
/// that table alone gives.
///
/// `Forward` deliberately holds no reference to the [`ParamStore`] — the
/// store is passed to [`Forward::param`] at bind time — so that gradients
/// can be moved back into the (then mutably borrowed) store afterwards.
pub struct Forward {
    /// The autograd tape for this pass.
    pub graph: Graph,
    /// The leaf each parameter is bound to this pass, by
    /// `(ParamId::index, table)`; `None` for a leaf shared by every table.
    bound: HashMap<(usize, Option<usize>), Var>,
    /// The table [`param`](Forward::param) binds for.
    segment: usize,
    /// Whether dropout layers should be active.
    pub training: bool,
}

impl Forward {
    /// Start a new training-mode forward pass (dropout active).
    pub fn new(_store: &ParamStore) -> Self {
        Self { graph: Graph::new(), bound: HashMap::new(), segment: 0, training: true }
    }

    /// Start a new inference pass (dropout disabled).
    pub fn inference(store: &ParamStore) -> Self {
        Self { training: false, ..Self::new(store) }
    }

    /// Reuse this context for a fresh pass: clears the tape (keeping its
    /// allocation), the parameter bindings and the table. Equivalent to
    /// replacing `self` with `Forward::new`, minus the tape-vector
    /// reallocation.
    pub fn reset(&mut self, training: bool) {
        self.graph.reset();
        self.bound.clear();
        self.segment = 0;
        self.training = training;
    }

    /// The table (row segment) [`param`](Forward::param) binds for from
    /// now on; 0 until set.
    pub fn set_segment(&mut self, segment: usize) {
        self.segment = segment;
    }

    /// Bind a parameter into the graph for the current table, its
    /// gradient to leave the tape in `form` ([`Graph::param_leaf`]);
    /// binding it again this pass for the same table in the same form
    /// returns the same leaf. The leaf shares the store's tensor instead
    /// of copying it; an optimizer step taken while this tape is alive
    /// leaves the tape's value as it was.
    ///
    /// # Panics
    /// Panics if the parameter is already bound for this table this pass
    /// in another form.
    pub fn param(&mut self, store: &ParamStore, id: ParamId, form: GradForm) -> Var {
        self.bind(store, id, form, Some(self.segment))
    }

    /// Bind a parameter once for every table of the tape, for the one
    /// [stacked product](Graph::matmul_stacked) that reads it: the tape
    /// tags each part with its table. Panics like [`param`](Forward::param).
    pub fn param_shared(&mut self, store: &ParamStore, id: ParamId, form: GradForm) -> Var {
        self.bind(store, id, form, None)
    }

    fn bind(&mut self, store: &ParamStore, id: ParamId, form: GradForm, seg: Option<usize>) -> Var {
        if let Some(&leaf) = self.bound.get(&(id.0, seg)) {
            let held = self.graph.grad_form(leaf).expect("a bound parameter is a parameter leaf");
            assert!(
                held == form,
                "parameter `{}` is bound for a {held:?} gradient this pass and cannot be bound \
                 for a {form:?} one as well",
                store.name(id)
            );
            return leaf;
        }
        let leaf = self.graph.param_leaf(Arc::clone(&store.entries[id.0].value), form);
        self.bound.insert((id.0, seg), leaf);
        leaf
    }

    /// After `graph.backward`, pull every parameter gradient off the tape
    /// as parts of the form it was bound in: one list per table of the
    /// tape (`segments` of them), each in parameter (registration) order,
    /// a table's row lists of a parameter in the order the sweep met them.
    /// Each list is what a tape of that table alone hands out.
    ///
    /// Feed the lists to [`ParamStore::reduce`] in batch order.
    pub fn take_segment_grads(&mut self, segments: usize) -> Vec<Vec<(ParamId, GradPart)>> {
        let mut bound_as = vec![None; self.graph.len()];
        for (&(id, seg), leaf) in &self.bound {
            bound_as[leaf.index()] = Some((ParamId(id), seg));
        }
        let mut lists: Vec<Vec<(ParamId, GradPart)>> = (0..segments).map(|_| Vec::new()).collect();
        for (leaf, tagged, part) in self.graph.take_params() {
            let (id, seg) = bound_as[leaf.index()].expect("a bound parameter's leaf");
            let seg = tagged.or(seg).expect("a shared parameter's parts name their table");
            lists[seg].push((id, part));
        }
        // Stable: a table's row lists stay in sweep order.
        lists.iter_mut().for_each(|list| list.sort_by_key(|(id, _)| id.0));
        lists
    }

    /// [`take_segment_grads`](Forward::take_segment_grads) of a tape of
    /// one table: its one list.
    ///
    /// Feed one list per table of a step to [`ParamStore::reduce`].
    pub fn take_grads(&mut self) -> Vec<(ParamId, GradPart)> {
        self.take_segment_grads(1).pop().expect("one table")
    }

    /// After `graph.backward`, every parameter gradient as a tensor, in
    /// parameter (registration) order: a `Dense` part moved off the tape,
    /// any other what [`ParamStore::reduce`] adds to a zero
    /// gradient, formed here from zeros by the same code.
    ///
    /// Feed the result to [`ParamStore::accumulate`].
    pub fn take_param_grads(&mut self) -> Vec<(ParamId, Tensor)> {
        let mut parts = self.take_grads();
        let formed = parts.chunk_by_mut(|a, b| a.0 == b.0).map(|of_param| {
            let id = of_param[0].0;
            if let [(_, GradPart::Dense(g))] = of_param {
                return (id, std::mem::replace(g, Tensor::zeros(vec![0])));
            }
            let leaf = [Some(0), None].iter().find_map(|&seg| self.bound.get(&(id.0, seg)));
            let leaf = *leaf.expect("its parts came off this tape");
            let mut grad = Tensor::zeros(self.graph.shape(leaf).to_vec());
            add_parts(&mut grad, &of_param.iter().map(|(_, part)| (0, part)).collect::<Vec<_>>());
            (id, grad)
        });
        formed.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMS: [GradForm; 3] = [GradForm::Dense, GradForm::Product, GradForm::Rows];

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(vec![2, 2]));
        assert_eq!(s.find("w"), Some(id));
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_scalars(), 4);
    }

    #[test]
    #[should_panic]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::zeros(vec![1]));
        s.register("w", Tensor::zeros(vec![1]));
    }

    #[test]
    fn forward_binds_once() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::ones(vec![2]));
        let mut f = Forward::new(&s);
        let v1 = f.param(&s, id, GradForm::Dense);
        let v2 = f.param(&s, id, GradForm::Dense);
        assert_eq!(v1, v2);
        assert_eq!(f.graph.len(), 1);
    }

    #[test]
    fn a_second_binding_under_another_form_panics_naming_both() {
        let mut s = ParamStore::new();
        let w = s.register("w", Tensor::ones(vec![2, 2]));
        for first in FORMS {
            for second in FORMS.into_iter().filter(|&f| f != first) {
                let mut f = Forward::new(&s);
                f.param(&s, w, first);
                let rebind = std::panic::AssertUnwindSafe(|| f.param(&s, w, second));
                let payload = std::panic::catch_unwind(rebind).expect_err("a second form");
                let why = payload.downcast_ref::<String>().expect("a formatted message");
                let both = format!("`w` is bound for a {first:?} gradient this pass and cannot be bound for a {second:?} one");
                assert!(why.contains(&both), "{why}");
            }
        }
    }

    #[test]
    fn param_grads_come_back_in_parameter_order() {
        let mut s = ParamStore::new();
        let ids: Vec<ParamId> =
            (0..6).map(|i| s.register(format!("p{i}"), Tensor::ones(vec![1]))).collect();
        let mut f = Forward::new(&s);
        // Bound out of order; p2 is never bound and p4 never reaches the loss.
        let mut bind = |i: usize| f.param(&s, ids[i], GradForm::Dense);
        let (v5, v0) = (bind(5), bind(0));
        bind(4);
        let (v3, v1) = (bind(3), bind(1));
        let cat = f.graph.stack_rows(&[v5, v0, v3, v1]);
        let loss = f.graph.sum_all(cat);
        f.graph.backward(loss);
        let got: Vec<usize> = f.take_param_grads().iter().map(|(id, _)| id.index()).collect();
        assert_eq!(got, [0, 1, 3, 5]);
    }

    #[test]
    fn grads_accumulate_into_store() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::ones(vec![2]));
        for _ in 0..2 {
            let mut f = Forward::new(&s);
            let v = f.param(&s, id, GradForm::Dense);
            let l = f.graph.sum_all(v);
            f.graph.backward(l);
            assert!(s.reduce(&[f.take_grads()]).grad_norm > 0.0);
        }
        assert_eq!(s.grad(id).unwrap().data(), &[2.0, 2.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn reduce_matches_accumulate_then_grad_norm_bit_for_bit() {
        let shapes = [vec![3, 5], vec![7], vec![2, 2], vec![4]];
        let grad = |shape: &[usize], seed: usize| {
            let n: usize = shape.iter().product();
            let data = (0..n).map(|i| ((i * 37 + seed * 101) % 19) as f32 * 0.37 - 3.1).collect();
            Tensor::from_vec(shape.to_vec(), data)
        };
        let fresh = || {
            let mut s = ParamStore::new();
            let ids: Vec<ParamId> = shapes
                .iter()
                .enumerate()
                .map(|(i, sh)| s.register(format!("p{i}"), Tensor::zeros(sh.clone())))
                .collect();
            (s, ids)
        };
        // p0 `[3, 5]` is a product: its gradient arrives as `[k, 3]ᵀ · [k, 5]`
        // factors, `k` differing per table. Table 1 skips p1, table 2
        // skips p0; p3 gets nothing and stays untouched (and out of the
        // norm).
        let product = |k: usize, seed: usize| GradPart::Product {
            x: Arc::new(grad(&[k, 3], seed)),
            dy: Arc::new(grad(&[k, 5], seed + 1)),
            rows: 0..k,
        };
        let dense = |p: usize, seed: usize| GradPart::Dense(grad(&shapes[p], seed));
        let tables = |ids: &[ParamId]| {
            vec![
                vec![(ids[0], product(4, 1)), (ids[1], dense(1, 2))],
                vec![(ids[0], product(1, 3)), (ids[2], dense(2, 4))],
                vec![(ids[1], dense(1, 5)), (ids[2], dense(2, 6))],
            ]
        };
        // The serial reference forms every product as a tensor first.
        let (mut serial, ids) = fresh();
        for table in tables(&ids) {
            let formed = table.into_iter().map(|(id, part)| match part {
                GradPart::Product { x, dy, .. } => (id, ops::matmul_tn(&x, &dy)),
                GradPart::Dense(g) => (id, g),
                GradPart::Rows { .. } => unreachable!("no row lists here"),
            });
            serial.accumulate(formed.collect());
        }
        // The norm: each touched gradient's squares in element order, the
        // sums added in registration order.
        let touched: Vec<&[f32]> = serial
            .ids()
            .filter(|&id| serial.entries()[id.0].touched)
            .map(|id| serial.grad(id).unwrap().data())
            .collect();
        let want = ops::sums_of_squares(&touched).into_iter().sum::<f32>().sqrt();
        let saved = pool::n_threads();
        for threads in [1, 2, 4] {
            pool::set_threads(threads);
            let (mut s, ids) = fresh();
            let norm = s.reduce(&tables(&ids)).grad_norm;
            assert_eq!(norm.to_bits(), want.to_bits(), "norm at {threads} threads");
            let bits = |g: Option<&Tensor>| -> Option<Vec<u32>> {
                g.map(|g| g.data().iter().map(|x| x.to_bits()).collect())
            };
            for &id in &ids {
                assert_eq!(bits(s.grad(id)), bits(serial.grad(id)));
            }
            assert_eq!(s.reduce(&[]).grad_norm.to_bits(), want.to_bits(), "no tables");
        }
        pool::set_threads(saved);
    }

    /// Four tapes over one `[6, 3]` table: duplicate indices inside a
    /// gather, rows several gathers of a tape hit (4 in tape 0; 3 and 4,
    /// three times each, in tape 3, when the store already holds a sum for
    /// row 4), a row only tapes 0 and 3 touch (5), an empty index list.
    const GATHERS: [&[&[usize]]; 4] = [
        &[&[1, 1, 4, 1, 5], &[4, 2]],
        &[&[], &[2, 0]],
        &[&[2], &[0, 0]],
        &[&[5, 3, 5, 4], &[1, 3, 4], &[3, 4]],
    ];

    /// `(len, salt)` → the values of one constant.
    type Seed<'a> = &'a dyn Fn(usize, usize) -> Vec<f32>;

    /// Tape `t` after `backward`, with `w` bound in `form` and read the
    /// way `reader` admits: for `Product`, once, as the rhs of
    /// `x · w` with `x` a `[t + 1, 6]` constant; otherwise by the gathers
    /// of [`GATHERS`]. `loss = Σ read ⊙ seed + Σ b ⊙ b`, so each read's
    /// `dY` is its seed.
    fn form_tape(
        s: &ParamStore,
        t: usize,
        form: GradForm,
        reader: GradForm,
        seed: Seed,
    ) -> Forward {
        let (w, b) = (s.find("w").unwrap(), s.find("b").unwrap());
        let mut f = Forward::new(s);
        let wv = f.param(s, w, form);
        let bv = f.param(s, b, GradForm::Dense);
        let sq = f.graph.mul(bv, bv);
        let mut loss = f.graph.sum_all(sq);
        let reads: Vec<Var> = if reader == GradForm::Product {
            let x = f.graph.constant(Tensor::from_vec(vec![t + 1, 6], seed(6 * (t + 1), 8 + t)));
            vec![f.graph.matmul(x, wv)]
        } else {
            GATHERS[t].iter().map(|idx| f.graph.index_select0(wv, idx)).collect()
        };
        for (k, read) in reads.into_iter().enumerate() {
            let shape = f.graph.shape(read).to_vec();
            let c = Tensor::from_vec(shape.clone(), seed(shape.iter().product(), 2 * t + k));
            let c = f.graph.constant(c);
            let weighted = f.graph.mul(read, c);
            let part = f.graph.sum_all(weighted);
            loss = f.graph.add(loss, part);
        }
        f.graph.backward(loss);
        f
    }

    /// Four tapes of `w` read the way `reader` admits, bound `reader` (and
    /// for a table also with tapes 1 and 2 `Dense` between its `Rows`
    /// ones): through `reduce` over the four at 1, 2 and 4 threads,
    /// `take_param_grads` and one `reduce` per tape, the store gets the
    /// bits of the tapes bound `Dense`, fed one `reduce` per tape.
    fn reaches_the_store_with_the_dense_bits(reader: GradForm) {
        let fresh = || {
            let mut s = ParamStore::new();
            s.register("w", Tensor::zeros(vec![6, 3]));
            s.register("b", Tensor::from_vec(vec![3], vec![0.5, -1.5, 2.0]));
            s
        };
        let bits = |s: &ParamStore| -> Vec<Vec<u32>> {
            s.ids()
                .map(|id| s.grad(id).unwrap().data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // Spiked: full 24-bit mantissas over 13 binades, so every add
        // rounds and a sum taken in another order is another float.
        let spiked = |n: usize, salt: usize| -> Vec<f32> {
            let mut x = (salt as u32).wrapping_mul(2_654_435_761).wrapping_add(12_345);
            let mut next = || {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let exponent = 121 + (x >> 8) % 13;
                f32::from_bits((x & 0x8000_0000) | exponent << 23 | (x >> 5 & 0x007f_ffff))
            };
            (0..n).map(|_| next()).collect()
        };
        let seeds: [(&str, Seed); 3] = [
            ("plain", &|n, salt| (0..n).map(|i| ((i * 7 + salt * 5) % 11) as f32 - 5.0).collect()),
            ("spiked", &spiked),
            ("all -0.0", &|n, _| vec![-0.0; n]),
        ];
        let saved = pool::n_threads();
        for (name, seed) in seeds {
            // The reference: every tape binds `w` `Dense`.
            let mut dense = fresh();
            let mut want_norm = 0;
            for t in 0..4 {
                let parts = form_tape(&dense, t, GradForm::Dense, reader, seed).take_grads();
                want_norm = dense.reduce(&[parts]).grad_norm.to_bits();
            }
            let want = bits(&dense);
            if name == "all -0.0" {
                let w = dense.find("w").unwrap();
                assert!(
                    dense.grad(w).unwrap().data().iter().all(|x| x.to_bits() == 0),
                    "dense -0.0"
                );
            }
            for threads in [1, 2, 4] {
                pool::set_threads(threads);
                let mixes: &[&[usize]] =
                    if reader == GradForm::Rows { &[&[], &[1, 2]] } else { &[&[]] };
                for dense_tapes in mixes {
                    let mut s = fresh();
                    let w = s.find("w").unwrap();
                    let tables: Vec<_> = (0..4)
                        .map(|t| {
                            let form =
                                if dense_tapes.contains(&t) { GradForm::Dense } else { reader };
                            form_tape(&s, t, form, reader, seed).take_grads()
                        })
                        .collect();
                    for (t, parts) in tables.iter().enumerate() {
                        let formed =
                            parts.iter().any(|(id, p)| *id == w && matches!(p, GradPart::Dense(_)));
                        assert_eq!(formed, dense_tapes.contains(&t), "{name}: tape {t}");
                    }
                    let norm = s.reduce(&tables).grad_norm;
                    assert_eq!(norm.to_bits(), want_norm, "{name}: norm at {threads} threads");
                    assert!(bits(&s) == want, "{name}: gradients at {threads} threads");
                }
            }
            // The two serial consumers of the same parts.
            let (mut formed, mut added) = (fresh(), fresh());
            for t in 0..4 {
                let grads = form_tape(&formed, t, reader, reader, seed).take_param_grads();
                assert_eq!(grads[0].1.shape(), &[6, 3]);
                formed.accumulate(grads);
                added.reduce(&[form_tape(&added, t, reader, reader, seed).take_grads()]);
            }
            assert!(bits(&formed) == want, "{name}: take_param_grads");
            assert!(bits(&added) == want, "{name}: one reduce per tape");
        }
        pool::set_threads(saved);
    }

    #[test]
    fn deferred_binding_gives_the_dense_bindings_gradient_bits() {
        reaches_the_store_with_the_dense_bits(GradForm::Product);
    }

    #[test]
    fn row_lists_reach_the_store_with_the_dense_gather_gradients_bits() {
        reaches_the_store_with_the_dense_bits(GradForm::Rows);
    }

    #[test]
    #[should_panic(expected = "`w` has a Product part in one table of the step and another form")]
    fn reduce_refuses_a_weight_deferred_in_one_tape_only() {
        let mut s = ParamStore::new();
        let w = s.register("w", Tensor::ones(vec![2, 2]));
        let tables = [GradForm::Product, GradForm::Dense].map(|form| {
            let mut f = Forward::new(&s);
            let x = f.graph.constant(Tensor::ones(vec![1, 2]));
            let wv = f.param(&s, w, form);
            let y = f.graph.matmul(x, wv);
            let loss = f.graph.sum_all(y);
            f.graph.backward(loss);
            f.take_grads()
        });
        s.reduce(&tables);
    }

    #[test]
    fn bound_parameters_are_shared_until_written() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::ones(vec![2]));
        let mut f = Forward::new(&s);
        let v = f.param(&s, id, GradForm::Dense);
        assert!(std::ptr::eq(f.graph.value(v), s.value(id)), "binding copied the parameter");
        s.value_mut(id).data_mut()[0] = 5.0;
        assert_eq!(f.graph.value(v).data(), &[1.0, 1.0], "the write reached a live tape");
        assert_eq!(s.value(id).data(), &[5.0, 1.0]);
        // With the tape gone the next write is in place.
        drop(f);
        let before = s.value(id).data().as_ptr();
        s.value_mut(id).data_mut()[1] = 6.0;
        assert_eq!(s.value(id).data().as_ptr(), before);
    }

    #[test]
    fn load_matching_copies_by_name() {
        let mut a = ParamStore::new();
        a.register("x", Tensor::zeros(vec![2]));
        a.register("y", Tensor::zeros(vec![3]));
        let mut b = ParamStore::new();
        b.register("x", Tensor::ones(vec![2]));
        b.register("y", Tensor::ones(vec![4])); // shape mismatch: skipped
        let copied = a.load_matching(&b);
        assert_eq!(copied, 1);
        assert_eq!(a.value(a.find("x").unwrap()).data(), &[1.0, 1.0]);
        assert_eq!(a.value(a.find("y").unwrap()).data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn inference_registration_is_frozen_and_stateless() {
        let mut s = ParamStore::new();
        let t = Tensor::from_vec(vec![2, 32], (0..64).map(|i| i as f32).collect()).quantize_i8();
        let id = s.register("w", t.clone());
        s.set_frozen(id, true);
        assert!(s.is_frozen(id));
        assert!(s.grad(id).is_none());
        assert_eq!((s.value_bytes(), s.state_bytes()), (t.byte_len(), 0));
        assert_eq!(s.value(id), &t);
        assert_eq!(s.find("w"), Some(id));
    }

    #[test]
    fn frozen_flag_roundtrip() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(vec![1]));
        assert!(!s.is_frozen(id));
        s.set_frozen(id, true);
        assert!(s.is_frozen(id));
    }
}
