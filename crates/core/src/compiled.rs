//! Graph-free compiled inference for [`TurlModel`].
//!
//! [`CompiledForward`] is the second executor of the IR that
//! [`TurlModel::encode`] runs on an autograd [`Graph`]: instead of
//! recording one tape op per node (each allocating its output `Vec` and
//! cloning every bound parameter), it compiles the same IR once per
//! input shape with `turl-exec`'s fusing compiler, then executes the
//! schedule out of a single reused arena — no tape, no gradient
//! bookkeeping, no parameter clones. Both executors read an input
//! through [`InputBinding`], name parameters by [`param_name`] and
//! compute with the `turl_tensor::ops` kernels, so they differ only in
//! bookkeeping and in which ops the compiler fuses.
//!
//! The compiled pass is **bit-exact** against `encode` under an
//! inference-mode `Forward` (every fused kernel is reassociation-free;
//! see `turl_tensor::ops`). The executor contract table
//! (`tests/contract.rs`) asserts it down to `f32::to_bits` on every case
//! of the fixture corpus, for a single table, a batch, a reloaded
//! artifact, an int8 store and both pool widths. Several tables run as
//! one batch the way the pre-trainer runs a group (see [`TableBatch`]).
//!
//! [`TableBatch`]: crate::TableBatch
//!
//! [`Graph`]: turl_tensor::Graph

use crate::batch::Tables;
use crate::input::InputBinding;
use crate::model::{param_name, TurlModel};
use turl_audit::{lower_group_plan, ModelPlan};
use turl_exec::{compile, Arena, CompiledPlan, ExecError, SourceValue};
use turl_nn::{ParamId, ParamStore};
use turl_tensor::Tensor;

/// One compiled specialization: the executable plan plus its resolved
/// bindings.
struct Entry {
    /// The forward plans this entry was compiled from, one per member
    /// table: the model's config-level plan at that input's sequence
    /// shape and masking.
    key: Vec<ModelPlan>,
    plan: CompiledPlan,
    /// Per plan source, in plan order: the member whose input it reads
    /// (`IrNode::seg`), and the parameter it reads instead, resolved
    /// against the store once at compile, when it is one.
    sources: Vec<(usize, Option<ParamId>)>,
    /// Per plan gather, in plan order: where its indices come from.
    gathers: Vec<Indices>,
}

/// Where a compiled gather's index list comes from.
enum Indices {
    /// The [`InputBinding`] of this member's input.
    Member(usize),
    /// These rows of a stacked node ([`turl_audit::Ir::slice_rows`]).
    Rows(Vec<usize>),
}

/// Default [plan-cache](CompiledForward::set_plan_cache_cap) capacity:
/// how many distinct input shapes keep a resident compiled plan.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 64;

/// A reusable compiled-inference context for one model + store pair.
///
/// Create once, call [`encode`](CompiledForward::encode) per input or
/// per [`TableBatch`](crate::TableBatch). Plans are compiled lazily per
/// input shape (a batch's: its members' shapes, in order) and cached in
/// an LRU bounded at [`DEFAULT_PLAN_CACHE_CAP`] shapes (tunable via
/// [`set_plan_cache_cap`](CompiledForward::set_plan_cache_cap)) — a
/// long-running server fed arbitrary table shapes holds at most `cap`
/// compiled schedules, recompiling on re-entry after eviction. The
/// arena and all index/constant scratch buffers are reused across
/// calls, so the steady state allocates nothing sized by the model or
/// the table: per call it builds the cache key (one plan per member),
/// the two binding lists `run` takes (one slice per source, one per
/// gather) and the output tensor (use
/// [`encode_into`](CompiledForward::encode_into) to drop that one).
pub struct CompiledForward {
    /// MRU-first: index 0 is the most recently used plan.
    entries: Vec<Entry>,
    plan_cache_cap: usize,
    plan_evictions: u64,
    arena: Arena,
    /// Reused per-call input bindings, one per member table.
    bound: Vec<InputBinding>,
}

impl Default for CompiledForward {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            plan_evictions: 0,
            arena: Arena::default(),
            bound: Vec::new(),
        }
    }
}

impl CompiledForward {
    /// Empty context; plans compile lazily on first use of each shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct input shapes holding a resident compiled plan.
    pub fn compiled_shapes(&self) -> usize {
        self.entries.len()
    }

    /// Bound the plan cache to `cap` resident shapes (minimum 1),
    /// evicting least-recently-used plans immediately if over the new
    /// cap.
    pub fn set_plan_cache_cap(&mut self, cap: usize) {
        self.plan_cache_cap = cap.max(1);
        while self.entries.len() > self.plan_cache_cap {
            self.entries.pop();
            self.plan_evictions += 1;
        }
        self.publish_cache_metrics();
    }

    /// Configured plan-cache capacity.
    pub fn plan_cache_cap(&self) -> usize {
        self.plan_cache_cap
    }

    /// Total plans evicted from the cache over this context's lifetime.
    pub fn plan_evictions(&self) -> u64 {
        self.plan_evictions
    }

    fn publish_cache_metrics(&self) {
        if turl_obs::metrics_enabled() {
            turl_obs::gauge("compiled.plan_cache_size").set(self.entries.len() as f64);
            turl_obs::gauge("compiled.plan_evictions").set(self.plan_evictions as f64);
        }
    }

    /// The compiled plan for `tables`' shapes, compiling it on a miss —
    /// exposed so callers (CLI `infer`, benches) can report schedule
    /// statistics such as arena size and reuse factor.
    pub fn plan_for<'t>(
        &mut self,
        model: &TurlModel,
        store: &ParamStore,
        tables: impl Into<Tables<'t>>,
    ) -> Result<&CompiledPlan, ExecError> {
        let idx = self.entry_index(model, store, tables.into())?;
        Ok(&self.entries[idx].plan)
    }

    fn entry_index(
        &mut self,
        model: &TurlModel,
        store: &ParamStore,
        tables: Tables,
    ) -> Result<usize, ExecError> {
        let members = tables.members();
        if members.is_empty() || members.iter().any(|m| m.seq_len() == 0) {
            return Err(ExecError::Binding(
                "empty input: at least one token or entity cell is required".into(),
            ));
        }
        let key: Vec<ModelPlan> = members.iter().map(|m| model.forward_plan(m)).collect();
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            // LRU move-to-front: the hit becomes the most recent entry.
            self.entries[0..=i].rotate_right(1);
            return Ok(0);
        }

        // No heads: compiled plans are encode-only.
        let ir = lower_group_plan(&key)
            .map_err(|e| ExecError::Unsupported(format!("plan does not lower: {e}")))?;
        let compiled = compile(&ir)?;

        // Resolve every parameter source once, by name.
        let sources = compiled
            .sources
            .iter()
            .map(|spec| {
                let seg = ir.node_at(spec.id.index()).seg.unwrap_or(0);
                match param_name(&spec.kind, &spec.label) {
                    Some(name) => store.find(&name).map(|id| (seg, Some(id))).ok_or_else(|| {
                        ExecError::Binding(format!("parameter '{name}' not in store"))
                    }),
                    None => Ok((seg, None)),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gathers = (compiled.gathers.iter())
            .map(|spec| match ir.slice_rows(spec.id) {
                Some(rows) => Indices::Rows(rows.collect()),
                None => Indices::Member(ir.node_at(spec.id.index()).seg.unwrap_or(0)),
            })
            .collect();
        self.entries.insert(0, Entry { key, plan: compiled, sources, gathers });
        while self.entries.len() > self.plan_cache_cap {
            self.entries.pop();
            self.plan_evictions += 1;
        }
        self.publish_cache_metrics();
        Ok(0)
    }

    /// Run the compiled encoder over `tables`, returning contextualized
    /// representations `[n, d_model]` — the graph-free equivalent of
    /// [`TurlModel::encode`] under an inference-mode `Forward`. For a
    /// batch, `n` is the members' total and member `s` the `s`-th block
    /// of rows ([`TableBatch::extract`](crate::TableBatch::extract)).
    pub fn encode<'t>(
        &mut self,
        model: &TurlModel,
        store: &ParamStore,
        tables: impl Into<Tables<'t>>,
    ) -> Result<Tensor, ExecError> {
        let tables = tables.into();
        let idx = self.entry_index(model, store, tables)?;
        self.run_entry(idx, model, store, tables)?;
        let plan = &self.entries[idx].plan;
        let out = plan.output_in(&self.arena);
        Ok(Tensor::from_vec(plan.output_shape.clone(), out.to_vec()))
    }

    /// Like [`encode`](CompiledForward::encode) but writing into an
    /// existing tensor of the right shape — the zero-allocation steady
    /// state used by the throughput bench.
    pub fn encode_into<'t>(
        &mut self,
        model: &TurlModel,
        store: &ParamStore,
        tables: impl Into<Tables<'t>>,
        out: &mut Tensor,
    ) -> Result<(), ExecError> {
        let tables = tables.into();
        let idx = self.entry_index(model, store, tables)?;
        self.run_entry(idx, model, store, tables)?;
        let plan = &self.entries[idx].plan;
        if out.shape() != plan.output_shape.as_slice() {
            return Err(ExecError::Binding(format!(
                "output tensor shape {:?} != plan output {:?}",
                out.shape(),
                plan.output_shape
            )));
        }
        out.data_mut().copy_from_slice(plan.output_in(&self.arena));
        Ok(())
    }

    /// Graph-free MER scoring head (paper Eqn. 6) over a compiled
    /// encode: gather `rows` of `h`, apply the MER projection, and score
    /// each against the candidate entity embeddings. Runs the kernels of
    /// the plan's `mer.rows … mer.logits` nodes in the same order, so the
    /// logits are bit-exact with that node on the tape (the one mirrored
    /// pair left, pinned by the contract table's `mer_head` row).
    ///
    /// Out-of-range `rows` (≥ the encoded sequence length) or
    /// `candidates` (≥ the entity vocabulary) are typed
    /// [`ExecError::Binding`] errors, never panics — serving code hands
    /// adversarial indices straight in here.
    pub fn mer_logits(
        &self,
        model: &TurlModel,
        store: &ParamStore,
        h: &Tensor,
        rows: &[usize],
        candidates: &[usize],
    ) -> Result<Tensor, ExecError> {
        let n_rows = h.shape().first().copied().unwrap_or(0);
        if rows.is_empty() || candidates.is_empty() {
            return Err(ExecError::Binding(
                "mer_logits needs at least one row and one candidate".into(),
            ));
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= n_rows) {
            return Err(ExecError::Binding(format!(
                "mer row {bad} out of range for {n_rows} encoded rows"
            )));
        }
        // Candidates shift by +1 (embedding row 0 is the entity [MASK]).
        let n_entities = model.n_entities();
        if let Some(&bad) = candidates.iter().find(|&&c| c >= n_entities) {
            return Err(ExecError::Binding(format!(
                "candidate entity {bad} out of range for {n_entities} entities"
            )));
        }
        let sel = h.index_select0(rows);
        let mut proj = turl_tensor::ops::matmul(&sel, store.value(model.mer_proj.weight));
        if let Some(b) = model.mer_proj.bias {
            proj = proj.broadcast_zip(store.value(b), |x, y| x + y).map_err(|e| {
                ExecError::Binding(format!("mer bias does not broadcast over rows: {e}"))
            })?;
        }
        let shifted: Vec<usize> = candidates.iter().map(|&c| c + 1).collect();
        let cand = store.value(model.ent_emb.weight).index_select0(&shifted);
        Ok(turl_tensor::ops::matmul_nt(&proj, &cand))
    }

    fn run_entry(
        &mut self,
        idx: usize,
        model: &TurlModel,
        store: &ParamStore,
        tables: Tables,
    ) -> Result<(), ExecError> {
        let members = tables.members();
        if self.bound.len() < members.len() {
            self.bound.resize_with(members.len(), InputBinding::default);
        }
        for (bound, input) in self.bound.iter_mut().zip(members) {
            bound.bind(input, &model.cfg);
        }
        let entry = &self.entries[idx];
        let mut gathers: Vec<&[usize]> = Vec::with_capacity(entry.plan.gathers.len());
        for (spec, indices) in entry.plan.gathers.iter().zip(&entry.gathers) {
            gathers.push(match indices {
                Indices::Rows(rows) => rows,
                Indices::Member(s) => {
                    self.bound[*s].indices(members[*s], &spec.label).ok_or_else(|| {
                        ExecError::Binding(format!(
                            "no runtime index source for gather '{}'",
                            spec.label
                        ))
                    })?
                }
            });
        }
        let mut sources: Vec<SourceValue> = Vec::with_capacity(entry.sources.len());
        for (spec, (seg, param)) in entry.plan.sources.iter().zip(&entry.sources) {
            sources.push(match param {
                Some(id) => {
                    let t = store.value(*id);
                    match t.quantized() {
                        // Quantized params (artifact-loaded weights) bind
                        // zero-copy; run() dispatches the q8 kernels.
                        Some(q) => SourceValue::I8Block(q),
                        None => SourceValue::F32(t.data()),
                    }
                }
                None => SourceValue::F32(
                    self.bound[*seg].source(members[*seg], &spec.kind).ok_or_else(|| {
                        ExecError::Binding(format!("input has no '{}'", spec.label))
                    })?,
                ),
            });
        }

        entry.plan.run(&mut self.arena, &sources, &gathers)
    }
}

/// Order `scores` best first: descending by [`f32::total_cmp`], so a NaN
/// ranks by its sign instead of panicking, ties by ascending index.
pub fn rank_descending(scores: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
    order
}

impl TurlModel {
    /// Create a compiled graph-free inference context for this model.
    /// See [`CompiledForward`].
    pub fn compiled(&self) -> CompiledForward {
        CompiledForward::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::input::EncodedInput;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use turl_nn::Forward;

    fn build_input(tokens: usize, ents: usize, masked: bool, seed: u64) -> EncodedInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = tokens + ents;
        let mask = masked.then(|| {
            let mut m = Tensor::zeros(vec![n, n]);
            for v in m.data_mut().iter_mut() {
                if rng.gen::<f32>() < 0.3 {
                    *v = -1e9;
                }
            }
            m
        });
        EncodedInput {
            token_ids: (0..tokens).map(|i| (i * 7 + 3) % 50).collect(),
            token_types: (0..tokens).map(|i| i % 2).collect(),
            token_pos: (0..tokens).collect(),
            entities: (0..ents)
                .map(|i| crate::input::EntityInput {
                    emb_index: (i * 3) % 21,
                    mention: vec![(i * 5) % 50; (i % 3) + 1],
                    type_idx: i % 3,
                })
                .collect(),
            mask,
        }
    }

    #[test]
    fn compiled_encode_is_bit_exact_vs_graph() {
        let cfg = TurlConfig::small(4242);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(99);
        let model = TurlModel::new(&mut store, &mut rng, cfg, 50, 20);
        let mut cf = model.compiled();
        for (tokens, ents, masked) in [(6, 3, true), (6, 3, false), (5, 0, false), (0, 4, true)] {
            let input = build_input(tokens, ents, masked, 7);
            let mut f = Forward::inference(&store);
            let h = model.encode(&mut f, &store, &mut rng, &input);
            let want = f.graph.value(h).clone();
            let got = cf.encode(&model, &store, &input).expect("compiled encode");
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.data().iter().zip(want.data().iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "compiled diverged ({tokens},{ents},{masked})"
                );
            }
        }
    }

    #[test]
    fn plan_cache_reuses_shapes() {
        let cfg = TurlConfig::tiny(1);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let model = TurlModel::new(&mut store, &mut rng, cfg, 50, 20);
        let mut cf = model.compiled();
        let input = build_input(4, 2, true, 1);
        cf.encode(&model, &store, &input).expect("first");
        cf.encode(&model, &store, &input).expect("second");
        assert_eq!(cf.compiled_shapes(), 1, "same shape must not recompile");
        let other = build_input(5, 2, true, 2);
        cf.encode(&model, &store, &other).expect("third");
        assert_eq!(cf.compiled_shapes(), 2);
    }
}
