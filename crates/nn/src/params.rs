//! Central parameter storage and the per-step forward context.
//!
//! A parameter's gradient reaches the store one of three ways. The dense
//! way: the tape forms it ([`Forward::param`]) and the store adds the
//! tensor. The deferred way, for a weight that is only ever the rhs of
//! one `matmul` ([`Forward::param_deferred`]): the tape keeps the two
//! factors `X`, `dY` of `dW = Xᵀ · dY` ([`WeightProduct`]) and the store
//! adds the product in place — for all the tables of a batch in one
//! kernel call ([`ParamStore::reduce`]), so no weight-sized gradient
//! tensor exists outside the store. The gathered way, for an embedding
//! table that is only ever gathered from ([`Forward::param_gathered`]):
//! each gather keeps `(indices, dY rows)` ([`RowGrads`]) and the store
//! adds the rows it names — a table costs what it looked up, not
//! `[vocab, d]` — with the bits the dense way gives (`add_row_lists`).

use std::collections::HashMap;
use std::sync::Arc;
use turl_tensor::{ops, pool, Graph, Tensor, Var};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Stable index of this parameter within its store (registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A weight gradient still in its two factors: `grad(id) += xᵀ · dy`.
pub struct WeightProduct {
    /// The `[m, n]` weight the product is the gradient of.
    pub id: ParamId,
    /// The input of the weight's `matmul`, `[k, m]`.
    pub x: Arc<Tensor>,
    /// The gradient of that `matmul`'s output, `[k, n]`.
    pub dy: Tensor,
}

impl WeightProduct {
    /// `grad += xᵀ · dy`: each element `grad + t`, with `t` the product's
    /// own accumulator — the bits of adding the formed tensor.
    fn add_into(&self, grad: &mut Tensor) {
        let (m, n) = (self.x.shape()[1], self.dy.shape()[1]);
        assert_eq!(grad.shape(), [m, n], "weight product against a {:?} gradient", grad.shape());
        ops::matmul_tn_acc_into(grad.data_mut(), m, n, &[(self.x.data(), self.dy.data())]);
    }
}

/// One gather's share of a gathered table's gradient: row `indices[r]`
/// of `grad(id)` receives row `r` of `dy`.
pub struct RowGrads {
    /// The `[rows, ..]` table the gather read.
    pub id: ParamId,
    /// The gather's index list.
    pub indices: Vec<usize>,
    /// The gradient of the gather's output, one row per index.
    pub dy: Tensor,
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
fn add_row_lists(grad: &mut Tensor, lists: &[RowGrads]) {
    let row_len: usize = grad.shape()[1..].iter().product();
    // (row, list, position in the list): sorted, a row's hits are grouped
    // by list in sweep order, and within a list in index order.
    let mut hits: Vec<(usize, usize, usize)> = Vec::new();
    for (l, list) in lists.iter().enumerate() {
        let fits = list.dy.len() == list.indices.len() * row_len;
        assert!(fits, "a {:?} row list against a {:?} table", list.dy.shape(), grad.shape());
        hits.extend(list.indices.iter().enumerate().map(|(r, &row)| (row, l, r)));
    }
    hits.sort_unstable();
    let (mut total, mut sum) = (vec![0.0f32; row_len], vec![0.0f32; row_len]);
    let add = |acc: &mut [f32], src: &[f32]| acc.iter_mut().zip(src).for_each(|(a, s)| *a += s);
    for of_row in hits.chunk_by(|a, b| a.0 == b.0) {
        for (k, of_list) in of_row.chunk_by(|a, b| a.1 == b.1).enumerate() {
            let acc = if k == 0 { &mut total } else { &mut sum };
            acc.fill(0.0);
            for &(_, l, r) in of_list {
                add(acc, &lists[l].dy.data()[r * row_len..][..row_len]);
            }
            if k > 0 {
                add(&mut total, &sum);
            }
        }
        add(&mut grad.data_mut()[of_row[0].0 * row_len..][..row_len], &total);
    }
}

/// What one tape's backward pass leaves for the store
/// ([`Forward::take_grads`]), each list in parameter (registration) order.
#[derive(Default)]
pub struct TapeGrads {
    /// Gradients the tape formed.
    pub dense: Vec<(ParamId, Tensor)>,
    /// Gradients of [deferred](Forward::param_deferred) weights.
    pub products: Vec<WeightProduct>,
    /// Gradients of [gathered](Forward::param_gathered) tables; one
    /// table's gathers in the order the sweep met them.
    pub rows: Vec<RowGrads>,
}

/// What [`ParamStore::reduce`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    /// Global L2 norm over all touched gradients.
    pub grad_norm: f32,
    /// Wall-clock share of the call spent in deferred products (0 with
    /// metrics off).
    pub wgrad_ns: u64,
}

pub(crate) struct ParamEntry {
    pub name: String,
    /// Shared with every live tape that bound it ([`Forward::param`]);
    /// written through `Arc::make_mut`, which copies only while one does.
    pub value: Arc<Tensor>,
    pub grad: Tensor,
    /// Adam first-moment state.
    pub m: Tensor,
    /// Adam second-moment state.
    pub v: Tensor,
    /// Whether a gradient has been accumulated since the last optimizer step.
    pub touched: bool,
    /// Frozen parameters are skipped by the optimizer.
    pub frozen: bool,
}

/// Owns every trainable tensor of a model, along with optimizer state.
///
/// Layers hold [`ParamId`] handles; the store is the single source of truth
/// for values, gradients, and Adam moments, which makes checkpointing and
/// optimizer stepping trivial.
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

    /// Register a new named parameter. Names must be unique.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate parameter name {name}");
        let shape = value.shape().to_vec();
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry {
            name: name.clone(),
            grad: Tensor::zeros(shape.clone()),
            m: Tensor::zeros(shape.clone()),
            v: Tensor::zeros(shape),
            value: Arc::new(value),
            touched: false,
            frozen: false,
        });
        self.by_name.insert(name, id);
        id
    }

    /// Register a parameter for inference only. The value may be
    /// block-quantized; no gradient or optimizer state is allocated
    /// (shape-`[0]` placeholders), and the entry is born frozen so the
    /// optimizer can never write through it. This is the registration
    /// path used when binding a model artifact into a store — such a
    /// store drives `CompiledForward` but cannot be trained or resumed.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register_inference(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate parameter name {name}");
        let id = ParamId(self.entries.len());
        self.entries.push(ParamEntry {
            name: name.clone(),
            grad: Tensor::zeros(vec![0]),
            m: Tensor::zeros(vec![0]),
            v: Tensor::zeros(vec![0]),
            value: Arc::new(value),
            touched: false,
            frozen: true,
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

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
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
            e.grad.add_assign(&g);
            e.touched = true;
        }
    }

    /// Add deferred weight gradients into the store, one product at a
    /// time.
    pub fn accumulate_products(&mut self, products: &[WeightProduct]) {
        for p in products {
            let e = &mut self.entries[p.id.0];
            p.add_into(&mut e.grad);
            e.touched = true;
        }
    }

    /// Add one tape's gathered-table gradients into the store: a
    /// table's row lists together, so rows two gathers share add up as
    /// on the tape.
    pub fn accumulate_rows(&mut self, rows: &[RowGrads]) {
        for lists in rows.chunk_by(|a, b| a.id == b.id) {
            let e = &mut self.entries[lists[0].id.0];
            add_row_lists(&mut e.grad, lists);
            e.touched = true;
        }
    }

    /// Sum one step's per-table gradients into the store and return the
    /// global L2 norm of the result: [`accumulate`](Self::accumulate),
    /// [`accumulate_products`](Self::accumulate_products) and
    /// [`accumulate_rows`](Self::accumulate_rows) for each table in
    /// slice order, then [`grad_norm`](Self::grad_norm).
    ///
    /// The work fans out over parameters. Each parameter adds its tables'
    /// gradients in slice order — a deferred weight in one kernel call
    /// over its tables' products, which adds them in that order inside
    /// each register tile — and sums its own squares in element order, and
    /// the per-parameter sums are added in registration order, so the
    /// result has the bits of the serial calls at any thread count. A
    /// parameter is deferred in every tape of a step or in none; a table
    /// may be gathered in one tape and dense in the next (`word_emb`,
    /// which only the tapes with an MLM head multiply by).
    pub fn reduce(&mut self, tables: &[TapeGrads]) -> Reduced {
        /// What one tape holds for a parameter that is not deferred.
        enum TableGrad<'a> {
            Dense(&'a Tensor),
            Rows(&'a [RowGrads]),
        }
        struct Work<'a> {
            e: &'a mut ParamEntry,
            /// In slice order.
            per_table: Vec<TableGrad<'a>>,
            parts: Vec<(&'a [f32], &'a [f32])>,
            sq_sum: f32,
            wgrad_ns: u64,
            busy_ns: u64,
        }
        let wall = turl_obs::Timer::start();
        let mut work: Vec<Work> = self
            .entries
            .iter_mut()
            .map(|e| Work {
                e,
                per_table: Vec::new(),
                parts: Vec::new(),
                sq_sum: 0.0,
                wgrad_ns: 0,
                busy_ns: 0,
            })
            .collect();
        for table in tables {
            for (id, g) in &table.dense {
                work[id.0].per_table.push(TableGrad::Dense(g));
            }
            for p in &table.products {
                work[p.id.0].parts.push((p.x.data(), p.dy.data()));
            }
            for lists in table.rows.chunk_by(|a, b| a.id == b.id) {
                work[lists[0].id.0].per_table.push(TableGrad::Rows(lists));
            }
        }
        pool::parallel_for_each_mut(&mut work, |_, w| {
            let busy = turl_obs::Timer::start();
            assert!(
                w.parts.is_empty() || w.per_table.is_empty(),
                "`{}` is deferred in one tape of the step and dense or gathered in another",
                w.e.name
            );
            if !w.parts.is_empty() {
                let (m, n) = (w.e.grad.shape()[0], w.e.grad.shape()[1]);
                ops::matmul_tn_acc_into(w.e.grad.data_mut(), m, n, &w.parts);
                w.e.touched = true;
                w.wgrad_ns = busy.elapsed_ns();
            }
            for of_table in &w.per_table {
                match of_table {
                    TableGrad::Dense(g) => w.e.grad.add_assign(g),
                    TableGrad::Rows(lists) => add_row_lists(&mut w.e.grad, lists),
                }
                w.e.touched = true;
            }
            if w.e.touched {
                w.sq_sum = w.e.grad.data().iter().map(|x| x * x).sum::<f32>();
            }
            w.busy_ns = busy.elapsed_ns();
        });
        let grad_norm = work.iter().filter(|w| w.e.touched).map(|w| w.sq_sum).sum::<f32>().sqrt();
        // Worker time overlaps; scale the products' share to the wall clock.
        let (wgrad, busy) =
            work.iter().fold((0u64, 0u64), |(a, b), w| (a + w.wgrad_ns, b + w.busy_ns));
        let wgrad_ns = (wall.elapsed_ns() as f64 * wgrad as f64 / busy.max(1) as f64) as u64;
        Reduced { grad_norm, wgrad_ns }
    }

    /// Zero every gradient and clear touched flags.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            if e.touched {
                e.grad.zero_();
                e.touched = false;
            }
        }
    }

    /// Global L2 norm over all touched gradients.
    pub fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .filter(|e| e.touched)
            .map(|e| e.grad.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
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
/// `Forward` deliberately holds no reference to the [`ParamStore`] — the
/// store is passed to [`Forward::param`] at bind time — so that gradients
/// can be moved back into the (then mutably borrowed) store afterwards.
pub struct Forward {
    /// The autograd tape for this pass.
    pub graph: Graph,
    /// The leaf each parameter is bound to this pass, by [`ParamId::index`].
    bound: Vec<Option<Var>>,
    /// Whether dropout layers should be active.
    pub training: bool,
}

impl Forward {
    /// Start a new training-mode forward pass (dropout active).
    pub fn new(_store: &ParamStore) -> Self {
        Self { graph: Graph::new(), bound: Vec::new(), training: true }
    }

    /// Start a new inference pass (dropout disabled).
    pub fn inference(store: &ParamStore) -> Self {
        Self { training: false, ..Self::new(store) }
    }

    /// Reuse this context for a fresh pass: clears the tape (keeping its
    /// allocation) and the parameter bindings. Equivalent to replacing
    /// `self` with `Forward::new`, minus the tape-vector reallocation.
    pub fn reset(&mut self, training: bool) {
        self.graph.reset();
        self.bound.clear();
        self.training = training;
    }

    /// Bind a parameter into the graph (idempotent per pass). The leaf
    /// shares the store's tensor instead of copying it; an optimizer step
    /// taken while this tape is alive leaves the tape's value as it was.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.bind(id, |g| g.leaf_shared(Arc::clone(&store.entries[id.0].value), true))
    }

    /// [`param`](Self::param) for a `[m, n]` weight this pass reads once,
    /// as the rhs of a `matmul`: the tape never forms its gradient, which
    /// comes back as a [`WeightProduct`] of [`take_grads`](Self::take_grads).
    /// Any other use of the returned leaf panics where it is recorded. A
    /// parameter already bound this pass keeps its binding.
    pub fn param_deferred(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.bind(id, |g| g.leaf_deferred(Arc::clone(&store.entries[id.0].value)))
    }

    /// [`param`](Self::param) for a `[rows, ..]` table this pass only
    /// gathers from (`index_select0`): the tape never forms its gradient,
    /// which comes back as the [`RowGrads`] of
    /// [`take_grads`](Self::take_grads). Any other use of the returned
    /// leaf panics where it is recorded. A parameter already bound this
    /// pass keeps its binding.
    pub fn param_gathered(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.bind(id, |g| g.leaf_gathered(Arc::clone(&store.entries[id.0].value)))
    }

    fn bind(&mut self, id: ParamId, leaf: impl FnOnce(&mut Graph) -> Var) -> Var {
        if self.bound.len() <= id.0 {
            self.bound.resize(id.0 + 1, None);
        }
        *self.bound[id.0].get_or_insert_with(|| leaf(&mut self.graph))
    }

    /// After `graph.backward`, pull parameter gradients off the tape: the
    /// dense ones, the factors of the deferred ones and the row lists of
    /// the gathered ones, each list in parameter (registration) order.
    ///
    /// Feed the result to [`ParamStore::reduce`], or its three lists to
    /// [`ParamStore::accumulate`], [`ParamStore::accumulate_products`]
    /// and [`ParamStore::accumulate_rows`].
    pub fn take_grads(&mut self) -> TapeGrads {
        let mut grads = TapeGrads::default();
        for (i, var) in self.bound.iter().enumerate() {
            if let Some(g) = var.and_then(|v| self.graph.take_grad(v)) {
                grads.dense.push((ParamId(i), g));
            }
        }
        let bound = &self.bound;
        let id_of = |leaf: Var| {
            let id = bound.iter().position(|b| *b == Some(leaf));
            ParamId(id.expect("a deferred or gathered leaf is a bound parameter"))
        };
        for p in self.graph.take_deferred() {
            grads.products.push(WeightProduct { id: id_of(p.leaf), x: p.x, dy: p.dy });
        }
        grads.products.sort_by_key(|p| p.id.0);
        for r in self.graph.take_gathered() {
            grads.rows.push(RowGrads { id: id_of(r.leaf), indices: r.indices, dy: r.dy });
        }
        // Stable: a table's gathers stay in sweep order.
        grads.rows.sort_by_key(|r| r.id.0);
        grads
    }

    /// After `graph.backward`, every parameter gradient as a tensor, in
    /// parameter (registration) order — deferred and gathered ones formed
    /// here, from zeros, by the code the store would have used.
    ///
    /// Feed the result to [`ParamStore::accumulate`].
    pub fn take_param_grads(&mut self) -> Vec<(ParamId, Tensor)> {
        let TapeGrads { dense: mut out, products, rows } = self.take_grads();
        for p in products {
            let mut g = Tensor::zeros(vec![p.x.shape()[1], p.dy.shape()[1]]);
            p.add_into(&mut g);
            out.push((p.id, g));
        }
        for lists in rows.chunk_by(|a, b| a.id == b.id) {
            let id = lists[0].id;
            let leaf = self.bound[id.0].expect("its row lists came off this tape");
            let mut g = Tensor::zeros(self.graph.shape(leaf).to_vec());
            add_row_lists(&mut g, lists);
            out.push((id, g));
        }
        out.sort_by_key(|(id, _)| id.0);
        out
    }

    /// Convenience: backward from `loss`, then accumulate into `store`.
    pub fn backprop(&mut self, loss: Var, store: &mut ParamStore) {
        self.graph.backward(loss);
        let grads = self.take_grads();
        store.accumulate(grads.dense);
        store.accumulate_products(&grads.products);
        store.accumulate_rows(&grads.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let v1 = f.param(&s, id);
        let v2 = f.param(&s, id);
        assert_eq!(v1, v2);
        assert_eq!(f.graph.len(), 1);
    }

    #[test]
    fn param_grads_come_back_in_parameter_order() {
        let mut s = ParamStore::new();
        let ids: Vec<ParamId> =
            (0..6).map(|i| s.register(format!("p{i}"), Tensor::ones(vec![1]))).collect();
        let mut f = Forward::new(&s);
        // Bound out of order; p2 is never bound and p4 never reaches the loss.
        let v5 = f.param(&s, ids[5]);
        let v0 = f.param(&s, ids[0]);
        f.param(&s, ids[4]);
        let v3 = f.param(&s, ids[3]);
        let v1 = f.param(&s, ids[1]);
        let parts = [v5, v0, v3, v1];
        let cat = f.graph.stack_rows(&parts);
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
            let v = f.param(&s, id);
            let l = f.graph.sum_all(v);
            f.backprop(l, &mut s);
        }
        assert_eq!(s.grad(id).data(), &[2.0, 2.0]);
        assert!(s.grad_norm() > 0.0);
        s.zero_grads();
        assert_eq!(s.grad(id).data(), &[0.0, 0.0]);
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
        // p0 `[3, 5]` is deferred: its gradient arrives as `[k, 3]ᵀ · [k, 5]`
        // factors, `k` differing per table. Table 1 skips p1, table 2
        // skips p0; p3 gets nothing and stays untouched (and out of the
        // norm).
        let product = |id: ParamId, k: usize, seed: usize| WeightProduct {
            id,
            x: Arc::new(grad(&[k, 3], seed)),
            dy: grad(&[k, 5], seed + 1),
        };
        let tables = |ids: &[ParamId]| {
            vec![
                TapeGrads {
                    dense: vec![(ids[1], grad(&shapes[1], 2))],
                    products: vec![product(ids[0], 4, 1)],
                    rows: Vec::new(),
                },
                TapeGrads {
                    dense: vec![(ids[2], grad(&shapes[2], 4))],
                    products: vec![product(ids[0], 1, 3)],
                    rows: Vec::new(),
                },
                TapeGrads {
                    dense: vec![(ids[1], grad(&shapes[1], 5)), (ids[2], grad(&shapes[2], 6))],
                    ..TapeGrads::default()
                },
            ]
        };
        // The serial reference forms every product as a tensor first.
        let (mut serial, ids) = fresh();
        for t in tables(&ids) {
            let formed = t.products.iter().map(|p| (p.id, ops::matmul_tn(&p.x, &p.dy)));
            serial.accumulate(formed.collect());
            serial.accumulate(t.dense);
        }
        let want = serial.grad_norm();
        let saved = pool::n_threads();
        for threads in [1, 2, 4] {
            pool::set_threads(threads);
            let (mut s, ids) = fresh();
            let norm = s.reduce(&tables(&ids)).grad_norm;
            assert_eq!(norm.to_bits(), want.to_bits(), "norm at {threads} threads");
            for &id in &ids {
                let (got, want) = (s.grad(id).data(), serial.grad(id).data());
                assert!(got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            assert_eq!(s.grad_norm().to_bits(), want.to_bits());
        }
        pool::set_threads(saved);
    }

    #[test]
    fn deferred_binding_gives_the_dense_bindings_gradient_bits() {
        // y = x · w + b through both bindings: `take_param_grads` and
        // `backprop` must not tell them apart.
        let mut s = ParamStore::new();
        let x = Tensor::from_vec(vec![3, 2], vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
        let w = s.register("w", Tensor::from_vec(vec![2, 2], vec![0.1, -0.2, 0.3, 0.4]));
        let b = s.register("b", Tensor::from_vec(vec![2], vec![0.01, -0.02]));
        let run = |s: &mut ParamStore, deferred: bool, accumulate: bool| {
            let mut f = Forward::new(s);
            let xv = f.graph.leaf(x.clone(), true);
            let wv = if deferred { f.param_deferred(s, w) } else { f.param(s, w) };
            let bv = f.param(s, b);
            let y = f.graph.matmul(xv, wv);
            let y = f.graph.add(y, bv);
            let sq = f.graph.mul(y, y);
            let loss = f.graph.sum_all(sq);
            if accumulate {
                f.backprop(loss, s);
                return vec![(w, s.grad(w).clone()), (b, s.grad(b).clone())];
            }
            f.graph.backward(loss);
            f.take_param_grads()
        };
        for accumulate in [false, true] {
            let dense = run(&mut s, false, accumulate);
            s.zero_grads();
            let deferred = run(&mut s, true, accumulate);
            s.zero_grads();
            assert_eq!(dense.len(), 2);
            for ((id, want), (got_id, got)) in dense.iter().zip(&deferred) {
                assert_eq!(id, got_id);
                assert_eq!(want.shape(), got.shape());
                let same =
                    want.data().iter().zip(got.data()).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "`{}` (accumulate: {accumulate})", s.name(*id));
            }
        }
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

    /// `(len, salt)` → the `dY` values of one gather.
    type Seed<'a> = &'a dyn Fn(usize, usize) -> Vec<f32>;

    /// Tape `t` of [`GATHERS`] after `backward`, the table bound gathered
    /// or plain: `loss = Σ gather ⊙ seed + Σ b ⊙ b`, so each gather's `dY`
    /// is its seed.
    fn gather_tape(s: &ParamStore, t: usize, gathered: bool, seed: Seed) -> Forward {
        let (w, b) = (s.find("w").unwrap(), s.find("b").unwrap());
        let mut f = Forward::new(s);
        let wv = if gathered { f.param_gathered(s, w) } else { f.param(s, w) };
        let bv = f.param(s, b);
        let sq = f.graph.mul(bv, bv);
        let mut loss = f.graph.sum_all(sq);
        for (k, idx) in GATHERS[t].iter().enumerate() {
            let rows = f.graph.index_select0(wv, idx);
            let c = Tensor::from_vec(vec![idx.len(), 3], seed(idx.len() * 3, 2 * t + k));
            let c = f.graph.constant(c);
            let weighted = f.graph.mul(rows, c);
            let part = f.graph.sum_all(weighted);
            loss = f.graph.add(loss, part);
        }
        f.graph.backward(loss);
        f
    }

    #[test]
    fn row_lists_reach_the_store_with_the_dense_gather_gradients_bits() {
        let fresh = || {
            let mut s = ParamStore::new();
            s.register("w", Tensor::zeros(vec![6, 3]));
            s.register("b", Tensor::from_vec(vec![3], vec![0.5, -1.5, 2.0]));
            s
        };
        let bits = |s: &ParamStore| -> Vec<Vec<u32>> {
            s.ids().map(|id| s.grad(id).data().iter().map(|x| x.to_bits()).collect()).collect()
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
            // The reference: every tape forms the table's dense gradient.
            let mut dense = fresh();
            for t in 0..4 {
                let grads = gather_tape(&dense, t, false, seed).take_param_grads();
                dense.accumulate(grads);
            }
            let (want, want_norm) = (bits(&dense), dense.grad_norm().to_bits());
            if name == "all -0.0" {
                let w = dense.find("w").unwrap();
                assert!(dense.grad(w).data().iter().all(|x| x.to_bits() == 0), "dense -0.0");
            }
            for threads in [1, 2, 4] {
                pool::set_threads(threads);
                // Every tape gathered, then tapes 1 and 2 dense between them.
                for dense_tapes in [&[][..], &[1, 2]] {
                    let mut s = fresh();
                    let tape = |t| gather_tape(&s, t, !dense_tapes.contains(&t), seed).take_grads();
                    let tables: Vec<TapeGrads> = (0..4).map(tape).collect();
                    for (t, grads) in tables.iter().enumerate() {
                        assert_eq!(grads.rows.is_empty(), dense_tapes.contains(&t));
                    }
                    let norm = s.reduce(&tables).grad_norm;
                    assert_eq!(norm.to_bits(), want_norm, "{name}: norm at {threads} threads");
                    assert!(bits(&s) == want, "{name}: gradients at {threads} threads");
                }
            }
            // The two serial consumers of the same lists.
            let (mut formed, mut added) = (fresh(), fresh());
            for t in 0..4 {
                let grads = gather_tape(&formed, t, true, seed).take_param_grads();
                assert_eq!(grads[0].1.shape(), &[6, 3]);
                formed.accumulate(grads);
                let mut f = gather_tape(&added, t, true, seed);
                let rows = f.take_grads();
                added.accumulate(rows.dense);
                added.accumulate_rows(&rows.rows);
            }
            assert!(bits(&formed) == want, "{name}: take_param_grads");
            assert!(bits(&added) == want, "{name}: accumulate_rows");
        }
        pool::set_threads(saved);
    }

    #[test]
    #[should_panic(expected = "`w` is deferred in one tape of the step and dense")]
    fn reduce_refuses_a_weight_deferred_in_one_tape_only() {
        let mut s = ParamStore::new();
        let w = s.register("w", Tensor::ones(vec![2, 2]));
        let tables = [true, false].map(|deferred| {
            let mut f = Forward::new(&s);
            let x = f.graph.constant(Tensor::ones(vec![1, 2]));
            let wv = if deferred { f.param_deferred(&s, w) } else { f.param(&s, w) };
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
        let v = f.param(&s, id);
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
        let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = s.register_inference("w", t.clone());
        assert!(s.is_frozen(id));
        assert_eq!(s.grad(id).len(), 0);
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
