//! Central parameter storage and the per-step forward context.
//!
//! A parameter's gradient reaches the store one of two ways. The dense
//! way: the tape forms it ([`Forward::param`]) and the store adds the
//! tensor. The deferred way, for a weight that is only ever the rhs of
//! one `matmul` ([`Forward::param_deferred`]): the tape keeps the two
//! factors `X`, `dY` of `dW = Xᵀ · dY` ([`WeightProduct`]) and the store
//! adds the product in place — for all the tables of a batch in one
//! kernel call ([`ParamStore::reduce`]), so no weight-sized gradient
//! tensor exists outside the store.

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

/// What one tape's backward pass leaves for the store
/// ([`Forward::take_grads`]), in parameter (registration) order.
#[derive(Default)]
pub struct TapeGrads {
    /// Gradients the tape formed.
    pub dense: Vec<(ParamId, Tensor)>,
    /// Gradients of [deferred](Forward::param_deferred) weights.
    pub products: Vec<WeightProduct>,
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

    /// Sum one step's per-table gradients into the store and return the
    /// global L2 norm of the result: [`accumulate`](Self::accumulate) and
    /// [`accumulate_products`](Self::accumulate_products) for each table
    /// in slice order, then [`grad_norm`](Self::grad_norm).
    ///
    /// The work fans out over parameters. Each parameter adds its tables'
    /// gradients in slice order — a deferred weight in one kernel call
    /// over its tables' products, which adds them in that order inside
    /// each register tile — and sums its own squares in element order, and
    /// the per-parameter sums are added in registration order, so the
    /// result has the bits of the serial calls at any thread count. (A
    /// parameter is deferred in every tape of a step or in none.)
    pub fn reduce(&mut self, tables: &[TapeGrads]) -> Reduced {
        struct Work<'a> {
            e: &'a mut ParamEntry,
            dense: Vec<&'a Tensor>,
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
                dense: Vec::new(),
                parts: Vec::new(),
                sq_sum: 0.0,
                wgrad_ns: 0,
                busy_ns: 0,
            })
            .collect();
        for table in tables {
            for (id, g) in &table.dense {
                work[id.0].dense.push(g);
            }
            for p in &table.products {
                work[p.id.0].parts.push((p.x.data(), p.dy.data()));
            }
        }
        pool::parallel_for_each_mut(&mut work, |_, w| {
            let busy = turl_obs::Timer::start();
            assert!(w.parts.is_empty() || w.dense.is_empty(), "`{}` bound both ways", w.e.name);
            if !w.parts.is_empty() {
                let (m, n) = (w.e.grad.shape()[0], w.e.grad.shape()[1]);
                ops::matmul_tn_acc_into(w.e.grad.data_mut(), m, n, &w.parts);
                w.e.touched = true;
                w.wgrad_ns = busy.elapsed_ns();
            }
            for g in &w.dense {
                w.e.grad.add_assign(g);
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

    fn bind(&mut self, id: ParamId, leaf: impl FnOnce(&mut Graph) -> Var) -> Var {
        if self.bound.len() <= id.0 {
            self.bound.resize(id.0 + 1, None);
        }
        *self.bound[id.0].get_or_insert_with(|| leaf(&mut self.graph))
    }

    /// After `graph.backward`, pull parameter gradients off the tape: the
    /// dense ones and the factors of the deferred ones, each list in
    /// parameter (registration) order.
    ///
    /// Feed the result to [`ParamStore::reduce`], or its two lists to
    /// [`ParamStore::accumulate`] and [`ParamStore::accumulate_products`].
    pub fn take_grads(&mut self) -> TapeGrads {
        let mut grads = TapeGrads::default();
        for (i, var) in self.bound.iter().enumerate() {
            if let Some(g) = var.and_then(|v| self.graph.take_grad(v)) {
                grads.dense.push((ParamId(i), g));
            }
        }
        for p in self.graph.take_deferred() {
            let id = self.bound.iter().position(|b| *b == Some(p.leaf));
            let id = ParamId(id.expect("a deferred leaf is a bound parameter"));
            grads.products.push(WeightProduct { id, x: p.x, dy: p.dy });
        }
        grads.products.sort_by_key(|p| p.id.0);
        grads
    }

    /// After `graph.backward`, every parameter gradient as a tensor, in
    /// parameter (registration) order — deferred ones formed here, from
    /// zeros, by the kernel the store would have used.
    ///
    /// Feed the result to [`ParamStore::accumulate`].
    pub fn take_param_grads(&mut self) -> Vec<(ParamId, Tensor)> {
        let TapeGrads { dense: mut out, products } = self.take_grads();
        for p in products {
            let mut g = Tensor::zeros(vec![p.x.shape()[1], p.dy.shape()[1]]);
            p.add_into(&mut g);
            out.push((p.id, g));
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
                },
                TapeGrads {
                    dense: vec![(ids[2], grad(&shapes[2], 4))],
                    products: vec![product(ids[0], 1, 3)],
                },
                TapeGrads {
                    dense: vec![(ids[1], grad(&shapes[1], 5)), (ids[2], grad(&shapes[2], 6))],
                    products: Vec::new(),
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
