//! Central parameter storage and the per-step forward context.

use std::collections::HashMap;
use turl_tensor::{Graph, Tensor, Var};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Stable index of this parameter within its store (registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct ParamEntry {
    pub name: String,
    pub value: Tensor,
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
            value,
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
            value,
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

    /// Mutable value of a parameter (for manual initialization).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
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
                    e.value = ov.clone();
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

    /// Bind a parameter into the graph (idempotent per pass).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if self.bound.len() <= id.0 {
            self.bound.resize(id.0 + 1, None);
        }
        *self.bound[id.0].get_or_insert_with(|| self.graph.leaf(store.value(id).clone(), true))
    }

    /// After `graph.backward`, pull parameter gradients off the tape, in
    /// parameter (registration) order.
    ///
    /// Feed the result to [`ParamStore::accumulate`].
    pub fn take_param_grads(&mut self) -> Vec<(ParamId, Tensor)> {
        let mut out = Vec::new();
        for (i, var) in self.bound.iter().enumerate() {
            if let Some(g) = var.and_then(|v| self.graph.take_grad(v)) {
                out.push((ParamId(i), g));
            }
        }
        out
    }

    /// Convenience: backward from `loss`, then accumulate into `store`.
    pub fn backprop(&mut self, loss: Var, store: &mut ParamStore) {
        self.graph.backward(loss);
        let grads = self.take_param_grads();
        store.accumulate(grads);
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
