//! The TURL model: embedding layer, structure-aware encoder, and the
//! projection heads used by pre-training and fine-tuning.

use crate::audit::{model_plan, plan_for_input, probe_plan};
use crate::config::TurlConfig;
use crate::input::{EncodedInput, InputBinding};
use rand::Rng;
use std::sync::OnceLock;
use turl_audit::{lower_model_plan, Ir, ModelPlan, OpKind, SourceKind, TensorId};
use turl_exec::ExecError;
use turl_nn::{Dropout, Embedding, Forward, Linear, ParamId, ParamStore};
use turl_obs::{metrics_enabled, op_timer, register_op, OpId};
use turl_tensor::{GradForm, Tensor, Var};

/// Store name of the parameter an IR source stands for; `None` for the
/// sources built per input (mask, mention-averaging matrix, zeros).
/// This is the one rule tying IR labels to the names [`TurlModel::new`]
/// registers.
pub(crate) fn param_name(kind: &SourceKind, label: &str) -> Option<String> {
    match kind {
        SourceKind::Table => Some(format!("turl.{label}.weight")),
        SourceKind::Weight { .. } | SourceKind::Bias | SourceKind::Gamma | SourceKind::Beta => {
            Some(format!("turl.{label}"))
        }
        SourceKind::Mask | SourceKind::AvgMatrix | SourceKind::ZeroConst => None,
    }
}

/// The op slots `tape.<name>` and `tape.<name>.bwd`, registered on first
/// use and read lock-free after.
macro_rules! tape_slots {
    ($name:literal) => {{
        static IDS: OnceLock<[Option<OpId>; 2]> = OnceLock::new();
        *IDS.get_or_init(|| {
            [register_op(concat!("tape.", $name)), register_op(concat!("tape.", $name, ".bwd"))]
        })
    }};
}

/// The op slots of a tape op recorded from an IR node of `kind`:
/// [`tape_slots`] named by [`OpKind::name`].
fn tape_ops(kind: &OpKind) -> [Option<OpId>; 2] {
    match kind {
        OpKind::Source(_) => tape_slots!("source"),
        OpKind::Gather => tape_slots!("gather"),
        OpKind::MatMul => tape_slots!("matmul"),
        OpKind::MatMulNT => tape_slots!("matmul_nt"),
        OpKind::Bmm => tape_slots!("bmm"),
        OpKind::BmmNT => tape_slots!("bmm_nt"),
        OpKind::Add => tape_slots!("add"),
        OpKind::Mask => tape_slots!("mask"),
        OpKind::Scale { .. } => tape_slots!("scale"),
        OpKind::Gelu => tape_slots!("gelu"),
        OpKind::Softmax => tape_slots!("softmax"),
        OpKind::LayerNorm { .. } => tape_slots!("layer_norm"),
        OpKind::ConcatCols => tape_slots!("concat_cols"),
        OpKind::ConcatRows => tape_slots!("concat_rows"),
        OpKind::Reshape => tape_slots!("reshape"),
        OpKind::Permute { .. } => tape_slots!("permute"),
        OpKind::CrossEntropy => tape_slots!("cross_entropy"),
    }
}

/// `record` ops on `f`'s tape. With metrics on, the recording is timed
/// under the first slot `ops` gives and the backward closures of every
/// node it pushed under the second; with metrics off `ops` is not called.
fn timed<T>(
    f: &mut Forward,
    ops: impl FnOnce() -> [Option<OpId>; 2],
    record: impl FnOnce(&mut Forward) -> T,
) -> T {
    let [fwd, bwd] = if metrics_enabled() { ops() } else { [None; 2] };
    let since = f.graph.len();
    let timer = op_timer(fwd);
    let v = record(f);
    drop(timer);
    f.graph.time_backward(since, bwd);
    v
}

/// The one check between a model and the weights it is about to run on,
/// whichever file or trainer they came from: every parameter the model's
/// IR reads (the probe plan, both heads on, named by `param_name`) must
/// be in `store` with the IR's shape, at the [`ParamId`] the model's
/// layers hold for it (some heads read by id). Dense and block-quantized
/// tensors both bind; whatever else the store holds is ignored. A store
/// that passes cannot fail a forward of this model on a missing or
/// mis-shaped parameter: this is that [`ExecError::Binding`], at load.
pub fn bind_store(model: &TurlModel, store: &ParamStore) -> Result<(), ExecError> {
    let plan = probe_plan(&model.cfg, model.word_emb.vocab, model.n_entities());
    let ir = lower_model_plan(&plan).expect("TurlModel::new validated this plan");
    for node in ir.nodes() {
        let OpKind::Source(kind) = &node.kind else { continue };
        let Some(param) = param_name(kind, &node.label) else { continue };
        let refuse = |why: String| Err(ExecError::Binding(format!("parameter `{param}`: {why}")));
        let Some(found) = store.find(&param) else {
            return refuse("not in the store".to_string());
        };
        let shape = store.value(found).shape();
        if shape != node.shape {
            return refuse(format!(
                "the model needs shape {:?}, the store holds {shape:?}",
                node.shape
            ));
        }
        let (held, _) = model
            .params
            .iter()
            .find(|(_, name)| *name == param)
            .expect("the IR reads only parameters TurlModel::new registered");
        if *held != found {
            return refuse(format!(
                "entry {} of the store, entry {} of the model's registration order",
                found.index(),
                held.index()
            ));
        }
    }
    Ok(())
}

/// One table of a tape [`TurlModel::run_ir`] records: its input, and the
/// index lists of its heads' gathers and targets by node label.
#[derive(Clone, Copy)]
pub struct TapeTable<'a> {
    /// The encoded table.
    pub input: &'a EncodedInput,
    /// `(label, index list)` of every head gather and cross-entropy node.
    pub heads: &'a [(&'a str, &'a [usize])],
}

/// TURL: embedding layer (§4.2), visibility-masked Transformer stack
/// (§4.3) and the MLM/MER projection heads (§4.4).
pub struct TurlModel {
    /// Configuration the model was built with.
    pub cfg: TurlConfig,
    /// Word embeddings `w` (shared with both output softmaxes).
    pub word_emb: Embedding,
    /// Entity embeddings `e^e` (row 0 is the entity `[MASK]`).
    pub ent_emb: Embedding,
    /// MER output projection (Eqn. 6).
    pub mer_proj: Linear,
    /// Every parameter [`TurlModel::new`] registered, under its id (the
    /// one the layers above hold, for those a layer holds).
    params: Vec<(ParamId, String)>,
}

impl TurlModel {
    /// Create a model over a vocabulary of `n_words` words and
    /// `n_entities` entities.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        cfg: TurlConfig,
        n_words: usize,
        n_entities: usize,
    ) -> Self {
        // Fail fast on structurally invalid configs: the symbolic plan
        // check catches shape bugs before any parameter is allocated.
        if let Err(e) = crate::audit::validate_config(&cfg, n_words, n_entities) {
            panic!("TurlModel::new rejected by static audit: {e}");
        }
        let (d, ff) = (cfg.encoder.d_model, cfg.encoder.d_intermediate);
        let first = store.len();
        // A layer norm's affine pair, γ = 1 and β = 0; it draws nothing.
        let layer_norm = |store: &mut ParamStore, name: &str| {
            store.register(format!("{name}.gamma"), Tensor::ones(vec![d]));
            store.register(format!("{name}.beta"), Tensor::zeros(vec![d]));
        };
        // Registration order is the RNG's draw order, so it fixes every
        // init bit. The encoder blocks' parameters come first, under the
        // names the IR's sources carry (`param_name`). The model holds only
        // the three layers tasks read directly: every forward binds by
        // name.
        for i in 0..cfg.encoder.n_layers {
            let blk = format!("turl.block{i}");
            for w in ["wq", "wk", "wv", "wo"] {
                Linear::new(store, rng, &format!("{blk}.att.{w}"), d, d, true);
            }
            Linear::new(store, rng, &format!("{blk}.ffn.lin1"), d, ff, true);
            Linear::new(store, rng, &format!("{blk}.ffn.lin2"), ff, d, true);
            for ln in ["ln1", "ln2"] {
                layer_norm(store, &format!("{blk}.{ln}"));
            }
        }
        let word_emb = Embedding::new(store, rng, "turl.word_emb", n_words, d);
        Embedding::new(store, rng, "turl.token_type_emb", 2, d);
        Embedding::new(store, rng, "turl.pos_emb", cfg.max_position, d);
        let ent_emb = Embedding::new(store, rng, "turl.ent_emb", n_entities + 1, d);
        Embedding::new(store, rng, "turl.ent_type_emb", 3, d);
        Linear::new(store, rng, "turl.fuse", 2 * d, d, true);
        layer_norm(store, "turl.ln_embed");
        Linear::new(store, rng, "turl.mlm_proj", d, d, true);
        let mer_proj = Linear::new(store, rng, "turl.mer_proj", d, d, true);
        let mut model = Self { word_emb, ent_emb, mer_proj, cfg, params: Vec::new() };
        model.params = store.ids().skip(first).map(|id| (id, store.name(id).to_string())).collect();
        model
    }

    /// Model hidden dimension.
    pub fn d_model(&self) -> usize {
        self.cfg.encoder.d_model
    }

    /// Number of entities in the embedding table (excluding `[MASK]`).
    pub fn n_entities(&self) -> usize {
        self.ent_emb.vocab - 1
    }

    /// Initialize entity embeddings as the average of their name's word
    /// embeddings (the paper's initialization). `name_tokens[e]` holds the
    /// word ids of entity `e`'s name.
    pub fn init_entity_embeddings_from_names(
        &self,
        store: &mut ParamStore,
        name_tokens: &[Vec<usize>],
    ) {
        assert_eq!(name_tokens.len(), self.n_entities(), "one name per entity");
        let d = self.d_model();
        let words = store.value(self.word_emb.weight).clone();
        let ent = store.value_mut(self.ent_emb.weight);
        for (e, toks) in name_tokens.iter().enumerate() {
            if toks.is_empty() {
                continue;
            }
            let row = (e + 1) * d;
            let inv = 1.0 / toks.len() as f32;
            for j in 0..d {
                let mut acc = 0.0f32;
                for &t in toks {
                    acc += words.data()[t * d + j];
                }
                ent.data_mut()[row + j] = acc * inv;
            }
        }
    }

    /// The encode-only plan of this model at `input`'s shape: what both
    /// executors lower, and the compiled executor's cache key.
    pub(crate) fn forward_plan(&self, input: &EncodedInput) -> ModelPlan {
        plan_for_input(model_plan(&self.cfg, self.word_emb.vocab, self.n_entities()), input)
    }

    /// Full encoder: embeddings (Eqns. 1–3) then `N` visibility-masked
    /// Transformer blocks. Returns contextualized representations
    /// `[n, d_model]`.
    ///
    /// The forward is defined once, as the IR `lower_model_plan` gives
    /// for this model at `input`'s shape; this runs it on the tape.
    pub fn encode<R: Rng>(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        rng: &mut R,
        input: &EncodedInput,
    ) -> Var {
        assert!(input.seq_len() > 0, "empty input sequence");
        let ir = lower_model_plan(&self.forward_plan(input))
            .unwrap_or_else(|e| panic!("forward plan does not lower: {e}"));
        let tables = [TapeTable { input, heads: &[] }];
        let vars = self.run_ir(f, store, std::slice::from_mut(rng), &ir, &tables);
        *vars.last().expect("a lowered plan has nodes")
    }

    /// The tape executor: record `ir` on `f`'s tape, one graph op per
    /// node in IR order, and return the tape var each node's readers see
    /// (indexed like [`Ir::nodes`]). [`encode`](TurlModel::encode) runs an
    /// encode-only plan through here, `Pretrainer::train_step` a group of
    /// tables with the MLM/MER heads and losses (Eqns. 5–6), stacked as
    /// the row segments of `turl_audit::lower_group_plan`: `tables[s]`
    /// and `rngs[s]` are segment `s`'s input and dropout stream.
    ///
    /// Parameters bind by `param_name`, each for the gradient form
    /// [`Ir::grad_form`] gives it, so the tape never forms the gradient of
    /// a `linear` weight or of a table it only looks rows up in. A
    /// per-table node's parameter binds for its table; a stacked node's
    /// once for all of them when a stacked product reads it, and once per
    /// table otherwise (a bias, a layer norm's affine pair), so every sum
    /// over rows leaves the tape as one part per table. The embedding
    /// layer's gathers and per-input sources bind through
    /// `InputBinding`; a table's `heads` name the index list of every
    /// other gather or cross-entropy node by its label (row selections,
    /// shifted candidate ids, targets) and are empty for an encode-only
    /// plan. In a training-mode pass each of [`Ir::dropout_sites`] is
    /// multiplied by a fresh keep mask right after it is recorded, a
    /// stacked site's rows drawn from each table's own stream.
    ///
    /// With metrics on, each node's recording is timed under
    /// `tape.<kind>` and its backward closures under `tape.<kind>.bwd`
    /// (dropout under `tape.dropout`), the names the kernel profile of
    /// `turl report` lists.
    ///
    /// # Panics
    /// Panics when `ir` was not lowered for this model at the tables'
    /// shapes: a parameter missing from `store`, or a node with no index
    /// list.
    pub fn run_ir<R: Rng>(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        rngs: &mut [R],
        ir: &Ir,
        tables: &[TapeTable],
    ) -> Vec<Var> {
        let segments = ir.segments();
        assert!(tables.len() == segments.len() && rngs.len() == segments.len(), "one per table");
        let bound: Vec<InputBinding> = (tables.iter())
            .map(|t| {
                let mut b = InputBinding::default();
                b.bind(t.input, &self.cfg);
                b
            })
            .collect();
        let dropout = Dropout::new(self.cfg.encoder.dropout);
        let mut sites = ir.dropout_sites().iter().map(|t| t.index()).peekable();
        let mut vars: Vec<Var> = Vec::with_capacity(ir.len());
        // A stacked node's per-table parameter leaves, by source node.
        let mut per_table: Vec<Vec<Var>> = vec![Vec::new(); ir.len()];
        for (i, node) in ir.nodes().iter().enumerate() {
            let t = TensorId::from_index(i);
            let arg = |slot: usize| vars[node.inputs[slot].index()];
            let leaves = |slot: usize| &per_table[node.inputs[slot].index()];
            let args = || node.inputs.iter().map(|t| vars[t.index()]).collect::<Vec<Var>>();
            let seg = node.seg.unwrap_or(0);
            let indices = || {
                let label = node.label.as_str();
                let (input, heads) = (tables[seg].input, tables[seg].heads);
                bound[seg]
                    .indices(input, label)
                    .or_else(|| heads.iter().find(|(l, _)| *l == label).map(|(_, v)| *v))
                    .unwrap_or_else(|| panic!("no index list bound for '{label}'"))
            };
            let (mut v, leaves_bound) = timed(
                f,
                || tape_ops(&node.kind),
                |f| {
                    let mut leaves_bound = Vec::new();
                    let v = match &node.kind {
                        OpKind::Source(kind) => match param_name(kind, &node.label) {
                            Some(name) => {
                                let id = store
                                    .find(&name)
                                    .unwrap_or_else(|| panic!("parameter '{name}' not in store"));
                                let form = ir.grad_form(t);
                                match node.seg {
                                    Some(s) => {
                                        f.set_segment(s);
                                        f.param(store, id, form)
                                    }
                                    None if form == GradForm::Product => {
                                        f.param_shared(store, id, form)
                                    }
                                    None => {
                                        leaves_bound = (0..segments.len())
                                            .map(|s| {
                                                f.set_segment(s);
                                                f.param(store, id, form)
                                            })
                                            .collect();
                                        leaves_bound[0]
                                    }
                                }
                            }
                            None => {
                                let values = bound[seg]
                                    .source(tables[seg].input, kind)
                                    .unwrap_or_else(|| panic!("input has no '{}'", node.label));
                                f.graph.constant(Tensor::from_slice(node.shape.clone(), values))
                            }
                        },
                        OpKind::Gather => match ir.slice_rows(t) {
                            Some(rows) => f.graph.index_select0(arg(0), &rows.collect::<Vec<_>>()),
                            None => f.graph.index_select0(arg(0), indices()),
                        },
                        OpKind::MatMul if node.seg.is_none() => {
                            f.graph.matmul_stacked(arg(0), arg(1), segments)
                        }
                        OpKind::MatMul => f.graph.matmul(arg(0), arg(1)),
                        OpKind::MatMulNT => f.graph.matmul_nt(arg(0), arg(1)),
                        OpKind::Bmm => f.graph.bmm(arg(0), arg(1)),
                        OpKind::BmmNT => f.graph.bmm_nt(arg(0), arg(1)),
                        OpKind::Add if !leaves(1).is_empty() => {
                            f.graph.add_stacked(arg(0), leaves(1), segments)
                        }
                        OpKind::Add | OpKind::Mask => f.graph.add(arg(0), arg(1)),
                        OpKind::Scale { factor } => f.graph.scale(arg(0), *factor as f32),
                        OpKind::Gelu => f.graph.gelu(arg(0)),
                        OpKind::Softmax => f.graph.softmax_last(arg(0)),
                        OpKind::LayerNorm { eps } if !leaves(1).is_empty() => {
                            f.graph.layer_norm_stacked(
                                arg(0),
                                leaves(1),
                                leaves(2),
                                segments,
                                *eps as f32,
                            )
                        }
                        OpKind::LayerNorm { eps } => {
                            f.graph.layer_norm(arg(0), arg(1), arg(2), *eps as f32)
                        }
                        OpKind::ConcatCols => f.graph.concat_cols(&args()),
                        OpKind::ConcatRows => f.graph.concat_rows(&args()),
                        OpKind::Reshape => f.graph.reshape(arg(0), node.shape.clone()),
                        OpKind::Permute { axes } => f.graph.permute(arg(0), axes),
                        OpKind::CrossEntropy => f.graph.cross_entropy(arg(0), indices()),
                    };
                    (v, leaves_bound)
                },
            );
            per_table[i] = leaves_bound;
            if sites.next_if_eq(&i).is_some() {
                v = timed(
                    f,
                    || tape_slots!("dropout"),
                    |f| match node.seg {
                        Some(s) => dropout.forward(f, &mut rngs[s], v),
                        None if dropout.active(f) => {
                            let mut mask = Tensor::zeros(node.shape.clone());
                            let width = node.elements() / segments.iter().sum::<usize>().max(1);
                            let mut rest = mask.data_mut();
                            for (rng, &n) in rngs.iter_mut().zip(segments) {
                                let (rows, tail) = rest.split_at_mut(n * width);
                                dropout.fill_mask(rng, rows);
                                rest = tail;
                            }
                            let mask = f.graph.constant(mask);
                            f.graph.mul(v, mask)
                        }
                        None => v,
                    },
                );
            }
            vars.push(v);
        }
        vars
    }

    /// Frozen entity-embedding matrix (value snapshot), for inspection and
    /// baselines that consume pre-trained embeddings.
    pub fn entity_embedding_matrix<'a>(&self, store: &'a ParamStore) -> &'a Tensor {
        store.value(self.ent_emb.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::EntityInput;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn tiny_model() -> (ParamStore, TurlModel, StdRng) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let model = TurlModel::new(&mut store, &mut rng, TurlConfig::tiny(9), 50, 20);
        (store, model, rng)
    }

    fn toy_input() -> EncodedInput {
        EncodedInput {
            token_ids: vec![4, 5, 6],
            token_types: vec![0, 0, 1],
            token_pos: vec![0, 1, 0],
            entities: vec![
                EntityInput { emb_index: 3, mention: vec![7], type_idx: 1 },
                EntityInput { emb_index: 0, mention: vec![2], type_idx: 2 },
            ],
            mask: None,
        }
    }

    #[test]
    fn bind_store_accepts_what_the_model_registered_and_names_what_it_refuses() {
        let (store, model, _) = tiny_model();
        assert_eq!(bind_store(&model, &store), Ok(()));
        // the IR reads every parameter `new` registered: nothing escapes the check
        let ir = lower_model_plan(&probe_plan(&model.cfg, 50, 20)).unwrap();
        for (_, name) in &model.params {
            let is_source = |n: &turl_audit::IrNode| {
                matches!(&n.kind, OpKind::Source(k)
                if param_name(k, &n.label).as_deref() == Some(name.as_str()))
            };
            assert!(ir.nodes().iter().any(is_source), "`{name}` is not an IR source");
        }
        // `store` as a loaded artifact holds it — inference entries, big
        // matrices block-quantized — after `lead` and without `skip`
        let rebuilt = |lead: Option<&str>, skip: &str| {
            let mut out = ParamStore::new();
            lead.map(|name| out.register_inference(name, Tensor::zeros(vec![3])));
            for id in store.ids().filter(|&id| store.name(id) != skip) {
                let t = store.value(id);
                let t = if t.len() >= 256 { t.quantize_i8() } else { t.clone() };
                out.register_inference(store.name(id), t);
            }
            out
        };
        let refusal = |s: &ParamStore| bind_store(&model, s).unwrap_err().to_string();
        let mut extra = rebuilt(None, "");
        extra.register_inference("task.head", Tensor::zeros(vec![3]));
        assert_eq!(bind_store(&model, &extra), Ok(()), "int8 weights and trailing extras bind");

        // written for another entity vocabulary
        let mut other = ParamStore::new();
        TurlModel::new(&mut other, &mut StdRng::seed_from_u64(9), model.cfg, 50, 30);
        let why = refusal(&other);
        assert!(why.contains("`turl.ent_emb.weight`: the model needs shape [21, 16]"), "{why}");
        assert!(why.contains("holds [31, 16]"), "{why}");
        let why = refusal(&rebuilt(None, "turl.mer_proj.bias"));
        assert!(why.contains("`turl.mer_proj.bias`: not in the store"), "{why}");
        // same names and shapes at other indices: the ids the layers hold
        // would read the wrong tensors
        assert!(refusal(&rebuilt(Some("task.head"), "")).contains("registration order"));
    }

    /// The model's two plans lowered: pre-training's (both heads on) and
    /// fine-tuning's (encode only).
    fn training_and_encode_irs(model: &TurlModel) -> (Ir, Ir) {
        let encode = model.forward_plan(&toy_input());
        let training = ModelPlan { n_mlm_targets: 2, n_mer_targets: 1, n_candidates: 3, ..encode };
        let lower = |plan: &ModelPlan| lower_model_plan(plan).expect("plan lowers");
        (lower(&training), lower(&encode))
    }

    /// Labels of the sources [`Ir::grad_form`] gives `form` — the form
    /// `run_ir` binds each parameter in.
    fn sources_of(ir: &Ir, form: GradForm) -> HashSet<String> {
        let sources = ir.nodes().iter().enumerate().filter(|(_, n)| n.kind.is_source());
        let picked = sources.filter(|&(i, _)| ir.grad_form(TensorId::from_index(i)) == form);
        picked.map(|(_, n)| n.label.clone()).collect()
    }

    #[test]
    fn tape_op_slots_are_named_after_the_ir_op_kinds() {
        let (_, model, _) = tiny_model();
        let (ir, _) = training_and_encode_irs(&model);
        let registered = ir.nodes().iter().all(|n| tape_ops(&n.kind).iter().all(Option::is_some));
        assert!(registered, "every kind gets both op slots");
        let names: HashSet<&str> =
            turl_obs::profile::op_snapshot().into_iter().map(|(name, ..)| name).collect();
        for kind in ir.nodes().iter().map(|n| n.kind.name()) {
            for name in [format!("tape.{kind}"), format!("tape.{kind}.bwd")] {
                assert!(names.contains(name.as_str()), "`{name}` is not registered");
            }
        }
    }

    #[test]
    fn the_ir_defers_exactly_the_linear_weights() {
        // Both heads on: `Product` must go to the rhs of every `*.matmul`
        // node `IrBuilder::linear` emits (fuse, six per block, the two
        // head projections) and nothing else — neither embedding table,
        // though the MLM head multiplies by `word_emb`, nor the constant
        // lhs of `embed.mention_means`.
        let (_, model, _) = tiny_model();
        let (ir, encode) = training_and_encode_irs(&model);
        let deferred = sources_of(&ir, GradForm::Product);
        let linear_weights: HashSet<String> = ir
            .nodes()
            .iter()
            .filter(|n| n.label.ends_with(".matmul"))
            .map(|n| ir.node_at(n.inputs[1].index()).label.clone())
            .collect();
        assert_eq!(deferred, linear_weights);
        assert_eq!(deferred.len(), 1 + 6 * model.cfg.encoder.n_layers + 2);
        assert!(deferred.iter().all(|label| label.ends_with(".weight")));
        for table in ["word_emb", "ent_emb"] {
            assert!(ir.find(table).is_some() && !deferred.contains(table), "{table} is gathered");
        }
        // The encode-only plan defers the same weights, less the heads it
        // does not contain.
        let heads = ["mlm_proj.weight", "mer_proj.weight"].map(String::from);
        let expected: HashSet<String> =
            deferred.iter().filter(|n| !heads.contains(n)).cloned().collect();
        assert_eq!(sources_of(&encode, GradForm::Product), expected);
    }

    #[test]
    fn the_ir_gathers_exactly_the_lookup_only_tables() {
        // Both heads on: the MER head's candidate lookup is one more
        // gather from `ent_emb`, the tied MLM head a `MatMulNT` by
        // `word_emb` — which therefore keeps its `Dense` gradient.
        let (_, model, _) = tiny_model();
        let (training, encode) = training_and_encode_irs(&model);
        let lookup_only: HashSet<String> =
            ["ent_emb", "token_type_emb", "pos_emb", "ent_type_emb"].map(String::from).into();
        assert_eq!(sources_of(&training, GradForm::Rows), lookup_only);
        assert!(sources_of(&training, GradForm::Dense).contains("word_emb"));
        let readers_of_ent_emb = training.nodes().iter().filter(|n| {
            n.inputs.first().is_some_and(|t| training.node_at(t.index()).label == "ent_emb")
        });
        assert_eq!(readers_of_ent_emb.count(), 2, "embed.entities and mer.candidates");
        // The encode-only plan has no MLM head: every table is
        // lookup-only there.
        let mut with_words = lookup_only;
        with_words.insert("word_emb".to_string());
        assert_eq!(sources_of(&encode, GradForm::Rows), with_words);
    }

    #[test]
    fn encode_produces_one_row_per_element() {
        let (store, model, mut rng) = tiny_model();
        let mut f = Forward::inference(&store);
        let input = toy_input();
        let h = model.encode(&mut f, &store, &mut rng, &input);
        assert_eq!(f.graph.value(h).shape(), &[5, 16]);
        assert!(f.graph.value(h).all_finite());
    }

    #[test]
    fn encode_handles_token_only_and_entity_only() {
        let (store, model, mut rng) = tiny_model();
        let mut input = toy_input();
        input.entities.clear();
        let mut f = Forward::inference(&store);
        let h = model.encode(&mut f, &store, &mut rng, &input);
        assert_eq!(f.graph.value(h).shape(), &[3, 16]);

        let mut input2 = toy_input();
        input2.token_ids.clear();
        input2.token_types.clear();
        input2.token_pos.clear();
        let mut f2 = Forward::inference(&store);
        let h2 = model.encode(&mut f2, &store, &mut rng, &input2);
        assert_eq!(f2.graph.value(h2).shape(), &[2, 16]);
    }

    #[test]
    fn training_dropout_records_one_mask_multiply_per_site() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let mut model = TurlModel::new(&mut store, &mut rng, TurlConfig::small(9), 50, 20);
        assert!(model.cfg.encoder.dropout > 0.0);
        let input = toy_input();
        // (computed ops, leaves, output) of one training-mode encode.
        let run = |model: &TurlModel, seed: u64| {
            let mut f = Forward::new(&store);
            let h = model.encode(&mut f, &store, &mut StdRng::seed_from_u64(seed), &input);
            let ops = f.graph.vars().filter(|&v| !f.graph.is_leaf(v)).count();
            (ops, f.graph.len() - ops, f.graph.value(h).clone())
        };
        let (ops, leaves, a) = run(&model, 1);
        let (_, _, b) = run(&model, 1);
        let (_, _, other_seed) = run(&model, 2);
        model.cfg.encoder.dropout = 0.0;
        let (ops0, leaves0, plain) = run(&model, 1);

        // One keep-mask constant and one multiply per site: the embedding
        // layer norm, and each block's attention probabilities and
        // feed-forward output.
        let sites = 1 + 2 * model.cfg.encoder.n_layers;
        assert_eq!((ops - ops0, leaves - leaves0), (sites, sites));
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "same seed, same masks, same bits");
        assert_ne!(bits(&a), bits(&other_seed), "masks follow the rng");
        assert_ne!(bits(&a), bits(&plain), "dropout is active in training mode");
    }

    /// Lower `input`'s plan with both heads (MLM over `mlm_rows`, MER over
    /// `mer_rows` × `candidates`, every target class 0) and run it on `f`.
    fn run_heads(
        model: &TurlModel,
        store: &ParamStore,
        f: &mut Forward,
        input: &EncodedInput,
        mlm_rows: &[usize],
        mer_rows: &[usize],
        candidates: &[usize],
    ) -> (Ir, Vec<Var>) {
        let plan = ModelPlan {
            n_mlm_targets: mlm_rows.len(),
            n_mer_targets: mer_rows.len(),
            n_candidates: candidates.len(),
            ..model.forward_plan(input)
        };
        let ir = lower_model_plan(&plan).expect("plan lowers");
        let shifted: Vec<usize> = candidates.iter().map(|&c| c + 1).collect();
        let heads: [(&str, &[usize]); 5] = [
            ("mlm.rows", mlm_rows),
            ("mlm.loss", &vec![0; mlm_rows.len()]),
            ("mer.rows", mer_rows),
            ("mer.candidates", &shifted),
            ("mer.loss", &vec![0; mer_rows.len()]),
        ];
        let tables = [TapeTable { input, heads: &heads }];
        let vars = model.run_ir(f, store, &mut [StdRng::seed_from_u64(0)], &ir, &tables);
        (ir, vars)
    }

    #[test]
    fn mlm_and_mer_logit_shapes() {
        let (store, model, _) = tiny_model();
        let mut f = Forward::inference(&store);
        let (ir, vars) = run_heads(&model, &store, &mut f, &toy_input(), &[0, 2], &[4], &[0, 5, 9]);
        let shape_of = |label| f.graph.value(vars[ir.find(label).unwrap().index()]).shape();
        assert_eq!(shape_of("mlm.logits"), &[2, 50]);
        assert_eq!(shape_of("mer.logits"), &[1, 3]);
    }

    #[test]
    fn gradients_reach_embeddings_through_full_stack() {
        let (mut store, model, _) = tiny_model();
        let mut f = Forward::new(&store);
        // MER only: the plan's root is `mer.loss` itself, no `loss` sum.
        let (ir, vars) = run_heads(&model, &store, &mut f, &toy_input(), &[], &[4], &[2, 3, 4]);
        assert_eq!(ir.find("mer.loss").map(|t| t.index()), Some(ir.len() - 1));
        f.backprop(*vars.last().unwrap(), &mut store);
        // Every block's linear weights reach the store too, as `Product`
        // parts.
        let blocks = (0..model.cfg.encoder.n_layers).flat_map(|i| {
            ["att.wq", "att.wk", "att.wv", "att.wo", "ffn.lin1", "ffn.lin2"]
                .map(|w| format!("turl.block{i}.{w}.weight"))
        });
        let embeddings = ["turl.word_emb.weight", "turl.ent_emb.weight", "turl.fuse.weight"];
        for name in embeddings.map(String::from).into_iter().chain(blocks) {
            let id = store.find(&name).unwrap();
            assert!(store.grad(id).norm() > 0.0, "no grad for {name}");
        }
    }

    #[test]
    fn entity_init_from_names_averages_word_rows() {
        let (mut store, model, _) = tiny_model();
        let names: Vec<Vec<usize>> = (0..20).map(|i| vec![i % 50, (i + 1) % 50]).collect();
        model.init_entity_embeddings_from_names(&mut store, &names);
        let d = model.d_model();
        let words = store.value(model.word_emb.weight).clone();
        let ents = store.value(model.ent_emb.weight);
        // entity 0 lives at row 1; mean of word rows 0 and 1
        for j in 0..d {
            let expect = (words.data()[j] + words.data()[d + j]) / 2.0;
            assert!((ents.data()[d + j] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn visibility_mask_restricts_entity_context() {
        // Every element sees only itself: perturbing the word only token 0
        // reads must not change entity 0's output — and without the mask
        // the same perturbation must reach it.
        let (mut store, model, mut rng) = tiny_model();
        let unmasked = toy_input();
        let n = unmasked.seq_len();
        let mut mask = Tensor::full(vec![n, n], -1e9);
        for i in 0..n {
            mask.data_mut()[i * n + i] = 0.0;
        }
        let masked = EncodedInput { mask: Some(mask), ..unmasked.clone() };
        let run = |store: &ParamStore, rng: &mut StdRng, input: &EncodedInput| {
            let mut f = Forward::inference(store);
            let h = model.encode(&mut f, store, rng, input);
            f.graph.value(h).row(input.entity_row(0)).to_vec()
        };
        let base = [&masked, &unmasked].map(|input| run(&store, &mut rng, input));
        let wid = store.find("turl.word_emb.weight").unwrap();
        let d = model.d_model();
        // Not a constant shift, which the embedding layer norm would undo.
        for j in 0..d {
            let v = store.value(wid).data()[4 * d + j];
            store.value_mut(wid).data_mut()[4 * d + j] = v + 0.5 * j as f32;
        }
        let after = [&masked, &unmasked].map(|input| run(&store, &mut rng, input));
        for (a, b) in base[0].iter().zip(after[0].iter()) {
            assert!((a - b).abs() < 1e-5, "fully masked attention leaked context");
        }
        let moved: f32 = base[1].iter().zip(after[1].iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(moved > 1e-4, "unmasked attention should propagate the perturbation");
    }
}
