//! A typed dataflow IR for the TURL forward plan.
//!
//! [`lower_model_plan`] turns a [`ModelPlan`] into an
//! explicit op graph: every node is one tensor (a [`SourceKind`] input or
//! the output of an [`OpKind`] op), edges are [`TensorId`]s, and each node
//! carries its inferred shape plus a human-readable label. The IR is the
//! only definition of the encoder: `TurlModel::encode` executes it node
//! by node on the autograd tape (the reference executor) and `turl-exec`
//! compiles it into a fused arena schedule, so there is no second
//! description to keep aligned with it. The same graph feeds
//!
//! * value-range abstract interpretation ([`crate::range`]) and
//! * buffer-liveness / arena planning ([`crate::liveness`]).
//!
//! The IR is also the shape checker: [`IrBuilder`] infers every node's
//! shape from its operands' recorded shapes through one [`OpKind`]-keyed
//! rule set, enforcing exactly the precondition the runtime op asserts
//! but returning a typed [`AuditError`] instead of panicking
//! mid-training. There is no second tape beside it.

use crate::error::AuditError;
use crate::plan::{ModelPlan, PlanNumerics};
use turl_tensor::{broadcast_shape, GradForm};

/// Handle to one tensor (node) in an [`Ir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorId(usize);

impl TensorId {
    /// Position of this tensor on the IR tape (topological order).
    pub fn index(self) -> usize {
        self.0
    }

    /// Handle to the tensor at a tape position. The caller must take the
    /// index from the same [`Ir`] it resolves the handle against (the
    /// forward-plan compiler uses this to rebuild ids for its schedule).
    pub fn from_index(i: usize) -> Self {
        TensorId(i)
    }
}

/// What kind of input a [`OpKind::Source`] node is — determines its
/// initialization-derived value range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceKind {
    /// An embedding table (`N(0, 0.02)` init, hard-bounded by the
    /// Box–Muller sampler; see `turl_tensor::normal_init_bound`).
    Table,
    /// A linear weight matrix stored `[fan_in, fan_out]`, Kaiming-uniform
    /// in `[-1/sqrt(fan_in), 1/sqrt(fan_in)]`.
    Weight {
        /// Input dimension of the layer (the sampler's fan-in).
        fan_in: usize,
    },
    /// A zero-initialized bias vector.
    Bias,
    /// A ones-initialized layer-norm scale.
    Gamma,
    /// A zero-initialized layer-norm shift.
    Beta,
    /// The additive `[n, n]` visibility mask: `0` for visible pairs,
    /// `mask_penalty` for masked ones.
    Mask,
    /// The mention-averaging matrix of Eqn. 3: rows of `1/len` weights
    /// (all-zero rows for mention-less entities).
    AvgMatrix,
    /// An exactly-zero constant tensor.
    ZeroConst,
}

/// The op that produced a tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// A graph input (parameter, constant, or mask) — no op inputs.
    Source(SourceKind),
    /// Row gather (`index_select0`).
    Gather,
    /// `[m, k] · [k, n]`.
    MatMul,
    /// `[m, k] · [n, k]ᵀ`.
    MatMulNT,
    /// Batched `[b, m, k] · [b, k, n]`.
    Bmm,
    /// Batched `[b, m, k] · [b, n, k]ᵀ`.
    BmmNT,
    /// Broadcasting elementwise sum.
    Add,
    /// Additive attention-mask application (an `add` in the runtime, kept
    /// distinct so the analyses can treat `-inf` logits as intentional).
    Mask,
    /// Multiplication by a compile-time constant.
    Scale {
        /// The constant factor.
        factor: f64,
    },
    /// Tanh-approximated GELU.
    Gelu,
    /// Stabilized softmax over the last axis.
    Softmax,
    /// Layer normalization with affine parameters; inputs are
    /// `[x, gamma, beta]`.
    LayerNorm {
        /// Variance-stabilizing epsilon the runtime layer was built with.
        eps: f64,
    },
    /// Column-wise concatenation.
    ConcatCols,
    /// Row-wise concatenation.
    ConcatRows,
    /// Element-preserving reshape.
    Reshape,
    /// Axis permutation: output axis `i` is input axis `axes[i]`.
    Permute {
        /// A permutation of `0..rank`.
        axes: Vec<usize>,
    },
    /// Fused softmax + NLL loss over `[n, c]` logits, yielding `[1]`.
    CrossEntropy,
}

impl OpKind {
    /// Short op name for error messages and plan listings.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Source(_) => "source",
            OpKind::Gather => "gather",
            OpKind::MatMul => "matmul",
            OpKind::MatMulNT => "matmul_nt",
            OpKind::Bmm => "bmm",
            OpKind::BmmNT => "bmm_nt",
            OpKind::Add => "add",
            OpKind::Mask => "mask",
            OpKind::Scale { .. } => "scale",
            OpKind::Gelu => "gelu",
            OpKind::Softmax => "softmax",
            OpKind::LayerNorm { .. } => "layer_norm",
            OpKind::ConcatCols => "concat_cols",
            OpKind::ConcatRows => "concat_rows",
            OpKind::Reshape => "reshape",
            OpKind::Permute { .. } => "permute",
            OpKind::CrossEntropy => "cross_entropy",
        }
    }

    /// Whether this node is a graph input rather than a computed op.
    pub fn is_source(&self) -> bool {
        matches!(self, OpKind::Source(_))
    }
}

/// One tensor in the IR: the op that produced it, its operands, its
/// inferred shape, and a stable human-readable label.
#[derive(Debug, Clone, PartialEq)]
pub struct IrNode {
    /// Producing op.
    pub kind: OpKind,
    /// Operand tensors, in op order (empty for sources).
    pub inputs: Vec<TensorId>,
    /// Inferred output shape.
    pub shape: Vec<usize>,
    /// Human-readable name (e.g. `block0.att.scores`).
    pub label: String,
}

impl IrNode {
    /// Number of elements in this tensor.
    pub fn elements(&self) -> usize {
        self.shape.iter().product()
    }
}

/// An op-graph lowering of one forward plan, in topological order.
#[derive(Debug, Clone)]
pub struct Ir {
    nodes: Vec<IrNode>,
    /// Per node, what [`Ir::grad_form`] answers.
    grad_forms: Vec<GradForm>,
    dropout_sites: Vec<TensorId>,
    /// Numeric metadata (init bounds, eps, mask penalty) the value-range
    /// analysis interprets the graph under.
    pub numerics: PlanNumerics,
}

impl Ir {
    /// Number of nodes (sources + ops).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the IR holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node at a tape position.
    pub fn node_at(&self, id: usize) -> &IrNode {
        &self.nodes[id]
    }

    /// All nodes in tape order.
    pub fn nodes(&self) -> &[IrNode] {
        &self.nodes
    }

    /// The first tensor labelled `label` (a lowered plan's labels are unique).
    pub fn find(&self, label: &str) -> Option<TensorId> {
        self.nodes.iter().position(|n| n.label == label).map(TensorId)
    }

    /// The tensors training-mode dropout applies to, in tape order: the
    /// embedding layer norm, and each block's attention probabilities
    /// and feed-forward output. Dropout is not an op of the graph — the
    /// analyses and the compiler describe the inference function — so
    /// only the tape executor reads this list, multiplying a site by its
    /// keep mask right after recording it.
    pub fn dropout_sites(&self) -> &[TensorId] {
        &self.dropout_sites
    }

    /// The form the tape hands over source `t`'s gradient in when `t`
    /// stands for a trained parameter, as its readers imply. `Product`
    /// when its one reader is a `MatMul` taking it as rhs: every `linear`
    /// weight. `Rows` when every reader gathers from it: the lookup-only
    /// tables, and `word_emb` only without the MLM head, whose tied
    /// projection multiplies by it. `Dense` otherwise, and for every
    /// computed node.
    pub fn grad_form(&self, t: TensorId) -> GradForm {
        self.grad_forms[t.0]
    }

    /// Ids of all non-source (computed) nodes, in tape order.
    pub fn op_ids(&self) -> impl Iterator<Item = TensorId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| !n.kind.is_source()).map(|(i, _)| TensorId(i))
    }

    /// Largest single-tensor element count anywhere in the graph.
    pub fn peak_elements(&self) -> usize {
        self.nodes.iter().map(IrNode::elements).max().unwrap_or(0)
    }
}

fn mismatch(op: &'static str, shapes: &[&[usize]], detail: String) -> AuditError {
    AuditError::ShapeMismatch { op, shapes: shapes.iter().map(|s| s.to_vec()).collect(), detail }
}

fn require_rank(op: &'static str, s: &[usize], rank: usize) -> Result<(), AuditError> {
    if s.len() != rank {
        return Err(mismatch(op, &[s], format!("expected rank {rank}, got {s:?}")));
    }
    Ok(())
}

/// The shape rule set: output shape of `kind` over operands of shapes
/// `ins`, or the typed error for the precondition the runtime op would
/// panic on. Covers every op whose shape its operands determine;
/// gather, reshape and cross-entropy also depend on a call argument and
/// are checked in their [`IrBuilder`] methods.
fn infer_shape(kind: &OpKind, ins: &[&[usize]]) -> Result<Vec<usize>, AuditError> {
    let op = kind.name();
    match (kind, ins) {
        (OpKind::Add | OpKind::Mask, &[a, b]) => {
            broadcast_shape(a, b).map_err(|e| mismatch(op, ins, e.to_string()))
        }
        (OpKind::Scale { .. } | OpKind::Gelu, &[a]) => Ok(a.to_vec()),
        (OpKind::Softmax, &[a]) => {
            if a.is_empty() {
                return Err(mismatch(op, ins, "rank 0 tensor".into()));
            }
            Ok(a.to_vec())
        }
        (OpKind::MatMul | OpKind::MatMulNT, &[a, b]) => {
            require_rank(op, a, 2)?;
            require_rank(op, b, 2)?;
            // `[m, k] · [k, n]`, or `[m, k] · [n, k]ᵀ` for the NT form.
            let (inner, n) = if *kind == OpKind::MatMul { (b[0], b[1]) } else { (b[1], b[0]) };
            if a[1] != inner {
                return Err(mismatch(op, ins, format!("inner dims {} vs {inner}", a[1])));
            }
            Ok(vec![a[0], n])
        }
        (OpKind::Bmm | OpKind::BmmNT, &[a, b]) => {
            require_rank(op, a, 3)?;
            require_rank(op, b, 3)?;
            if a[0] != b[0] {
                return Err(mismatch(op, ins, format!("batch dims {} vs {}", a[0], b[0])));
            }
            let (inner, n) = if *kind == OpKind::Bmm { (b[1], b[2]) } else { (b[2], b[1]) };
            if a[2] != inner {
                return Err(mismatch(op, ins, format!("inner dims {} vs {inner}", a[2])));
            }
            Ok(vec![a[0], a[1], n])
        }
        (OpKind::Permute { axes }, &[a]) => {
            let mut seen = vec![false; a.len()];
            let valid = axes.len() == a.len()
                && axes.iter().all(|&ax| ax < a.len() && !std::mem::replace(&mut seen[ax], true));
            if !valid {
                let detail = format!("axes {axes:?} is not a permutation of 0..{}", a.len());
                return Err(mismatch(op, ins, detail));
            }
            Ok(axes.iter().map(|&ax| a[ax]).collect())
        }
        (OpKind::LayerNorm { .. }, &[x, gamma, beta]) => {
            let Some(&d) = x.last() else {
                return Err(mismatch(op, &[x], "rank 0 input".into()));
            };
            for (name, s) in [("gamma", gamma), ("beta", beta)] {
                if s != [d] {
                    return Err(mismatch(op, &[x, s], format!("{name} shape {s:?} != [{d}]")));
                }
            }
            Ok(x.to_vec())
        }
        (OpKind::ConcatCols | OpKind::ConcatRows, &[first, ..]) => {
            // Rank-2 parts agreeing on the axis that is not concatenated.
            let (cat, keep, what) =
                if *kind == OpKind::ConcatCols { (1, 0, "row counts") } else { (0, 1, "widths") };
            let mut total = 0;
            for s in ins {
                require_rank(op, s, 2)?;
                if s[keep] != first[keep] {
                    return Err(mismatch(
                        op,
                        ins,
                        format!("{what} {} vs {}", first[keep], s[keep]),
                    ));
                }
                total += s[cat];
            }
            let mut shape = first.to_vec();
            shape[cat] = total;
            Ok(shape)
        }
        _ => {
            let detail = format!("no shape rule for {op} over {} operand(s)", ins.len());
            Err(mismatch(op, ins, detail))
        }
    }
}

/// Builds an [`Ir`] one node at a time, inferring and checking each
/// node's shape from its operands' recorded shapes.
#[derive(Default)]
pub struct IrBuilder {
    nodes: Vec<IrNode>,
    dropout_sites: Vec<TensorId>,
}

impl IrBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, attaching the numeric metadata the analyses interpret
    /// the graph under.
    pub fn finish(self, numerics: PlanNumerics) -> Ir {
        // Per node: (readers, all of them gathers, the last one a `MatMul`
        // taking it as rhs).
        let mut readers = vec![(0usize, true, false); self.nodes.len()];
        for node in &self.nodes {
            for (slot, input) in node.inputs.iter().enumerate() {
                let r = &mut readers[input.0];
                r.0 += 1;
                r.1 &= node.kind == OpKind::Gather;
                r.2 = node.kind == OpKind::MatMul && slot == 1;
            }
        }
        let grad_forms = (self.nodes.iter().zip(readers))
            .map(|(node, reads)| match reads {
                _ if !node.kind.is_source() => GradForm::Dense,
                (1, _, true) => GradForm::Product,
                (1.., true, _) => GradForm::Rows,
                _ => GradForm::Dense,
            })
            .collect();
        Ir { nodes: self.nodes, grad_forms, dropout_sites: self.dropout_sites, numerics }
    }

    fn shape(&self, t: TensorId) -> &[usize] {
        &self.nodes[t.0].shape
    }

    fn push(
        &mut self,
        kind: OpKind,
        inputs: Vec<TensorId>,
        shape: Vec<usize>,
        label: &str,
    ) -> TensorId {
        self.nodes.push(IrNode { kind, inputs, shape, label: label.to_string() });
        TensorId(self.nodes.len() - 1)
    }

    /// Introduce an input tensor.
    pub fn source(&mut self, kind: SourceKind, shape: Vec<usize>, label: &str) -> TensorId {
        self.push(OpKind::Source(kind), Vec::new(), shape, label)
    }

    /// The `[rows, d]` embedding table `label`: declared where it is
    /// first read and shared after that (one parameter leaf per pass),
    /// so a plan never carries a table nothing reads.
    fn table(&mut self, rows: usize, d: usize, label: &str) -> TensorId {
        match self.nodes.iter().position(|n| n.label == label) {
            Some(i) => TensorId(i),
            None => self.source(SourceKind::Table, vec![rows, d], label),
        }
    }

    /// Mark `t` as a training-mode dropout site (see
    /// [`Ir::dropout_sites`]).
    pub fn dropout_site(&mut self, t: TensorId) {
        self.dropout_sites.push(t);
    }

    /// Record `kind` applied to `inputs` (in op order), with the output
    /// shape the rule set infers from theirs. Gather, reshape and
    /// cross-entropy take a call argument and have their own methods.
    pub fn op(
        &mut self,
        kind: OpKind,
        inputs: &[TensorId],
        label: &str,
    ) -> Result<TensorId, AuditError> {
        let ins: Vec<&[usize]> = inputs.iter().map(|&t| self.shape(t)).collect();
        let shape = infer_shape(&kind, &ins)?;
        Ok(self.push(kind, inputs.to_vec(), shape, label))
    }

    /// Gather `indices` rows of a rank ≥ 1 `table`.
    pub fn gather(
        &mut self,
        table: TensorId,
        indices: &[usize],
        label: &str,
    ) -> Result<TensorId, AuditError> {
        let op = OpKind::Gather.name();
        let s = self.shape(table);
        let Some(&rows) = s.first() else {
            return Err(mismatch(op, &[s], "rank 0 input".into()));
        };
        if let Some(&index) = indices.iter().find(|&&i| i >= rows) {
            return Err(AuditError::IndexOutOfRange { op, index, len: rows });
        }
        let mut shape = s.to_vec();
        shape[0] = indices.len();
        Ok(self.push(OpKind::Gather, vec![table], shape, label))
    }

    /// Element-preserving reshape: element counts must agree.
    pub fn reshape(
        &mut self,
        a: TensorId,
        shape: Vec<usize>,
        label: &str,
    ) -> Result<TensorId, AuditError> {
        let s = self.shape(a);
        let (old, new) = (s.iter().product::<usize>(), shape.iter().product::<usize>());
        if old != new {
            let detail = format!("cannot reshape {old} elements into {shape:?} ({new} elements)");
            return Err(mismatch(OpKind::Reshape.name(), &[s], detail));
        }
        Ok(self.push(OpKind::Reshape, vec![a], shape, label))
    }

    /// Cross-entropy of `[n, c]` logits against `n_targets` class
    /// targets, each `< c`; yields a scalar `[1]`.
    pub fn cross_entropy(
        &mut self,
        logits: TensorId,
        n_targets: usize,
        max_target: Option<usize>,
        label: &str,
    ) -> Result<TensorId, AuditError> {
        let op = OpKind::CrossEntropy.name();
        let s = self.shape(logits);
        require_rank(op, s, 2)?;
        if s[0] != n_targets {
            return Err(mismatch(op, &[s], format!("{} logit rows vs {n_targets} targets", s[0])));
        }
        if let Some(index) = max_target.filter(|&t| t >= s[1]) {
            return Err(AuditError::IndexOutOfRange { op, index, len: s[1] });
        }
        Ok(self.push(OpKind::CrossEntropy, vec![logits], vec![1], label))
    }

    // ------------------------------------------------------------------
    // Composite helpers (each expands into the primitives above)
    // ------------------------------------------------------------------

    /// `x · W + b` over fresh weight and bias sources.
    fn linear(
        &mut self,
        x: TensorId,
        d_in: usize,
        d_out: usize,
        name: &str,
    ) -> Result<TensorId, AuditError> {
        let w = self.source(
            SourceKind::Weight { fan_in: d_in },
            vec![d_in, d_out],
            &format!("{name}.weight"),
        );
        let b = self.source(SourceKind::Bias, vec![d_out], &format!("{name}.bias"));
        let y = self.op(OpKind::MatMul, &[x, w], &format!("{name}.matmul"))?;
        self.op(OpKind::Add, &[y, b], &format!("{name}.out"))
    }

    /// Layer norm of `x` over fresh affine sources.
    fn ln(&mut self, x: TensorId, d: usize, eps: f64, name: &str) -> Result<TensorId, AuditError> {
        let g = self.source(SourceKind::Gamma, vec![d], &format!("{name}.gamma"));
        let b = self.source(SourceKind::Beta, vec![d], &format!("{name}.beta"));
        self.op(OpKind::LayerNorm { eps }, &[x, g, b], &format!("{name}.out"))
    }
}

/// Lower a [`ModelPlan`] into the explicit op graph of one full forward
/// pass: embedding (Eqns. 1–3), `N` visibility-masked Transformer blocks
/// (§4.3), the MLM/MER heads (Eqns. 5–6) with their cross-entropy losses,
/// and the final loss sum when both heads are active.
///
/// Node order is execution order for every executor, and for the tape
/// it is also the order backward replays in reverse — so it is part of
/// the bit-exactness contract (q/k/v are all projected before any head
/// split; the token block precedes the entity block).
pub fn lower_model_plan(plan: &ModelPlan) -> Result<Ir, AuditError> {
    crate::plan::check_plan_fields(plan)?;
    let p = *plan;
    let d = p.d_model;
    let n = p.n_tokens + p.n_seq_entities;
    let dh = d / p.n_heads;
    let mut b = IrBuilder::new();

    // ---- Embedding layer (Eqns. 1–3) --------------------------------
    let mut parts = Vec::new();
    if p.n_tokens > 0 {
        let word_emb = b.table(p.n_words, d, "word_emb");
        let token_type_emb = b.table(2, d, "token_type_emb");
        let pos_emb = b.table(p.max_position, d, "pos_emb");
        // Worst-case gather indices exercise each table's upper bound;
        // executors clamp positions to max_position - 1.
        let w = b.gather(word_emb, &vec![p.n_words - 1; p.n_tokens], "embed.words")?;
        let t = b.gather(token_type_emb, &vec![1; p.n_tokens], "embed.token_types")?;
        let pos = b.gather(pos_emb, &vec![p.max_position - 1; p.n_tokens], "embed.positions")?;
        let wt = b.op(OpKind::Add, &[w, t], "embed.word_type")?;
        parts.push(b.op(OpKind::Add, &[wt, pos], "embed.tokens")?);
    }
    if p.n_seq_entities > 0 {
        let ent_emb = b.table(p.n_entities + 1, d, "ent_emb");
        let ee = b.gather(ent_emb, &vec![p.n_entities; p.n_seq_entities], "embed.entities")?;
        let em = if p.n_mention_tokens > 0 {
            let word_emb = b.table(p.n_words, d, "word_emb");
            let rows = b.gather(
                word_emb,
                &vec![p.n_words - 1; p.n_mention_tokens],
                "embed.mention_words",
            )?;
            let avg = b.source(
                SourceKind::AvgMatrix,
                vec![p.n_seq_entities, p.n_mention_tokens],
                "embed.mention_avg",
            );
            b.op(OpKind::MatMul, &[avg, rows], "embed.mention_means")?
        } else {
            b.source(SourceKind::ZeroConst, vec![p.n_seq_entities, d], "embed.mention_zeros")
        };
        let cat = b.op(OpKind::ConcatCols, &[ee, em], "embed.ent_cat")?;
        let fused = b.linear(cat, 2 * d, d, "fuse")?;
        let ent_type_emb = b.table(3, d, "ent_type_emb");
        let te = b.gather(ent_type_emb, &vec![2; p.n_seq_entities], "embed.ent_types")?;
        parts.push(b.op(OpKind::Add, &[fused, te], "embed.ents")?);
    }
    let x =
        if parts.len() == 1 { parts[0] } else { b.op(OpKind::ConcatRows, &parts, "embed.seq")? };
    let mut h = b.ln(x, d, p.numerics.ln_eps, "ln_embed")?;
    b.dropout_site(h);

    // ---- Encoder stack (§4.3) ---------------------------------------
    // One mask source shared by every block.
    let mask = p.use_visibility.then(|| b.source(SourceKind::Mask, vec![n, n], "visibility_mask"));
    let inv_sqrt_dh = f64::from(1.0f32 / (dh as f32).sqrt());
    // Head split and merge are the same swap: [n, h, dh] ⇄ [h, n, dh].
    let swap_heads = || OpKind::Permute { axes: vec![1, 0, 2] };
    for i in 0..p.n_layers {
        let blk = format!("block{i}");
        let q = b.linear(h, d, d, &format!("{blk}.att.wq"))?;
        let k = b.linear(h, d, d, &format!("{blk}.att.wk"))?;
        let v = b.linear(h, d, d, &format!("{blk}.att.wv"))?;
        let mut heads = [q, k, v];
        for (t, nm) in heads.iter_mut().zip(["q", "k", "v"]) {
            let r = b.reshape(*t, vec![n, p.n_heads, dh], &format!("{blk}.att.{nm}_split"))?;
            *t = b.op(swap_heads(), &[r], &format!("{blk}.att.{nm}_heads"))?;
        }
        let scores = b.op(OpKind::BmmNT, &[heads[0], heads[1]], &format!("{blk}.att.scores"))?;
        let scaled =
            b.op(OpKind::Scale { factor: inv_sqrt_dh }, &[scores], &format!("{blk}.att.scaled"))?;
        let logits = match mask {
            Some(m) => b.op(OpKind::Mask, &[scaled, m], &format!("{blk}.att.masked"))?,
            None => scaled,
        };
        let probs = b.op(OpKind::Softmax, &[logits], &format!("{blk}.att.probs"))?;
        b.dropout_site(probs);
        let ctx = b.op(OpKind::Bmm, &[probs, heads[2]], &format!("{blk}.att.ctx"))?;
        let merged = b.op(swap_heads(), &[ctx], &format!("{blk}.att.merged"))?;
        let flat = b.reshape(merged, vec![n, d], &format!("{blk}.att.flat"))?;
        let att = b.linear(flat, d, d, &format!("{blk}.att.wo"))?;
        let res1 = b.op(OpKind::Add, &[h, att], &format!("{blk}.res1"))?;
        let h1 = b.ln(res1, d, p.numerics.ln_eps, &format!("{blk}.ln1"))?;
        let ff1 = b.linear(h1, d, p.d_intermediate, &format!("{blk}.ffn.lin1"))?;
        let act = b.op(OpKind::Gelu, &[ff1], &format!("{blk}.ffn.gelu"))?;
        let ff2 = b.linear(act, p.d_intermediate, d, &format!("{blk}.ffn.lin2"))?;
        b.dropout_site(ff2);
        let res2 = b.op(OpKind::Add, &[h1, ff2], &format!("{blk}.res2"))?;
        h = b.ln(res2, d, p.numerics.ln_eps, &format!("{blk}.ln2"))?;
    }

    // ---- Pre-training heads (Eqns. 5–6) -----------------------------
    let mut losses = Vec::new();
    if p.n_mlm_targets > 0 {
        // MLM rows index token positions (< n_tokens ≤ n).
        let sel = b.gather(h, &vec![p.n_tokens - 1; p.n_mlm_targets], "mlm.rows")?;
        let proj = b.linear(sel, d, d, "mlm_proj")?;
        let word_emb = b.table(p.n_words, d, "word_emb");
        let logits = b.op(OpKind::MatMulNT, &[proj, word_emb], "mlm.logits")?;
        losses.push(b.cross_entropy(logits, p.n_mlm_targets, Some(p.n_words - 1), "mlm.loss")?);
    }
    if p.n_mer_targets > 0 {
        // MER rows index entity positions (≥ n_tokens, < n).
        let sel = b.gather(h, &vec![n - 1; p.n_mer_targets], "mer.rows")?;
        let proj = b.linear(sel, d, d, "mer_proj")?;
        // Candidate ids are shifted by one past the [MASK] row.
        let ent_emb = b.table(p.n_entities + 1, d, "ent_emb");
        let cand = b.gather(ent_emb, &vec![p.n_entities; p.n_candidates], "mer.candidates")?;
        let logits = b.op(OpKind::MatMulNT, &[proj, cand], "mer.logits")?;
        losses.push(b.cross_entropy(
            logits,
            p.n_mer_targets,
            Some(p.n_candidates - 1),
            "mer.loss",
        )?);
    }
    if losses.len() == 2 {
        // The trainer sums the head losses into one backward root.
        b.op(OpKind::Add, &losses, "loss")?;
    }

    Ok(b.finish(p.numerics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_plan() -> ModelPlan {
        ModelPlan {
            n_layers: 4,
            d_model: 312,
            d_intermediate: 1200,
            n_heads: 12,
            n_words: 30522,
            n_entities: 926135,
            max_position: 64,
            n_tokens: 24,
            n_seq_entities: 20,
            n_mention_tokens: 40,
            use_visibility: true,
            n_mlm_targets: 5,
            n_mer_targets: 12,
            n_candidates: 64,
            numerics: PlanNumerics::default(),
        }
    }

    /// A builder holding one source per shape, in order.
    fn sources(shapes: &[&[usize]]) -> (IrBuilder, Vec<TensorId>) {
        let mut b = IrBuilder::new();
        let ids = shapes.iter().map(|s| b.source(SourceKind::Table, s.to_vec(), "t")).collect();
        (b, ids)
    }

    fn shape_of(b: &IrBuilder, t: TensorId) -> &[usize] {
        &b.nodes[t.index()].shape
    }

    #[test]
    fn matmul_infers_product_shape() {
        let (mut b, t) = sources(&[&[4, 312], &[312, 1200], &[12, 4, 26], &[12, 7, 26]]);
        let c = b.op(OpKind::MatMul, &[t[0], t[1]], "c").expect("shapes compatible");
        assert_eq!(shape_of(&b, c), &[4, 1200]);
        let nt = b.op(OpKind::MatMulNT, &[t[0], t[0]], "nt").expect("shared inner dim");
        assert_eq!(shape_of(&b, nt), &[4, 4]);
        let scores = b.op(OpKind::BmmNT, &[t[2], t[3]], "scores").expect("shared inner dim");
        assert_eq!(shape_of(&b, scores), &[12, 4, 7]);
        let ctx = b.op(OpKind::Bmm, &[scores, t[3]], "ctx").expect("inner dims agree");
        assert_eq!(shape_of(&b, ctx), &[12, 4, 26]);
    }

    #[test]
    fn matmul_rejects_inner_dim_mismatch() {
        let (mut b, t) = sources(&[&[4, 312], &[300, 1200]]);
        let err = b.op(OpKind::MatMul, &[t[0], t[1]], "c").expect_err("inner dims differ");
        match err {
            AuditError::ShapeMismatch { op, shapes, detail } => {
                assert_eq!(op, "matmul");
                assert_eq!(shapes, vec![vec![4, 312], vec![300, 1200]]);
                assert!(detail.contains("312") && detail.contains("300"));
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(b.nodes.len() == 2, "a rejected op records no node");
    }

    #[test]
    fn every_product_rejects_inner_batch_and_rank_mismatch() {
        let (mut b, t) =
            sources(&[&[4, 8], &[5, 9], &[2, 4, 8], &[3, 4, 8], &[2, 5, 9], &[2, 9, 5]]);
        let mut detail_of = |kind: OpKind, x: usize, y: usize| {
            let name = kind.name();
            match b.op(kind, &[t[x], t[y]], "bad").expect_err("operands cannot combine") {
                AuditError::ShapeMismatch { op, detail, .. } => {
                    assert_eq!(op, name);
                    detail
                }
                other => panic!("wrong error: {other}"),
            }
        };
        assert!(detail_of(OpKind::MatMulNT, 0, 1).contains("inner dims 8 vs 9"));
        assert!(detail_of(OpKind::Bmm, 2, 3).contains("batch dims 2 vs 3"));
        assert!(detail_of(OpKind::BmmNT, 2, 3).contains("batch dims 2 vs 3"));
        assert!(detail_of(OpKind::Bmm, 2, 4).contains("inner dims 8 vs 5"));
        assert!(detail_of(OpKind::BmmNT, 2, 5).contains("inner dims 8 vs 5"));
        assert!(detail_of(OpKind::MatMul, 0, 2).contains("expected rank 2"));
        assert!(detail_of(OpKind::Bmm, 0, 2).contains("expected rank 3"));
    }

    #[test]
    fn broadcast_add_follows_numpy_rules() {
        let (mut b, t) = sources(&[&[12, 8, 8], &[8, 8], &[7, 8]]);
        let c = b.op(OpKind::Add, &[t[0], t[1]], "c").expect("broadcastable");
        assert_eq!(shape_of(&b, c), &[12, 8, 8]);
        assert!(b.op(OpKind::Add, &[t[0], t[2]], "bad").is_err());
        // The attention mask is an add: a mask of the wrong shape fails
        // the same way.
        let m = b.op(OpKind::Mask, &[t[0], t[1]], "m").expect("[n, n] broadcasts over heads");
        assert_eq!(shape_of(&b, m), &[12, 8, 8]);
        assert!(matches!(
            b.op(OpKind::Mask, &[t[0], t[2]], "bad"),
            Err(AuditError::ShapeMismatch { op: "mask", .. })
        ));
    }

    #[test]
    fn permute_validates_axes() {
        let (mut b, t) = sources(&[&[2, 3, 4]]);
        let p = b.op(OpKind::Permute { axes: vec![1, 0, 2] }, &[t[0]], "p").expect("valid");
        assert_eq!(shape_of(&b, p), &[3, 2, 4]);
        assert_eq!(b.nodes[p.index()].kind, OpKind::Permute { axes: vec![1, 0, 2] });
        for axes in [vec![0, 0, 2], vec![0, 1], vec![0, 1, 3]] {
            assert!(b.op(OpKind::Permute { axes }, &[t[0]], "bad").is_err());
        }
    }

    #[test]
    fn reshape_checks_element_count() {
        let (mut b, t) = sources(&[&[6, 4]]);
        assert!(b.reshape(t[0], vec![8, 3], "ok").is_ok());
        assert!(matches!(
            b.reshape(t[0], vec![5, 5], "bad"),
            Err(AuditError::ShapeMismatch { op: "reshape", .. })
        ));
    }

    #[test]
    fn index_select_rejects_out_of_range_rows() {
        let (mut b, t) = sources(&[&[10, 312]]);
        let ok = b.gather(t[0], &[0, 9, 3], "ok").expect("in range");
        assert_eq!(shape_of(&b, ok), &[3, 312]);
        match b.gather(t[0], &[0, 10], "bad").expect_err("row 10 invalid") {
            AuditError::IndexOutOfRange { index, len, .. } => {
                assert_eq!((index, len), (10, 10));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn layer_norm_checks_affine_shapes() {
        let (mut b, t) = sources(&[&[5, 16], &[16], &[15]]);
        let ln = OpKind::LayerNorm { eps: 1e-5 };
        let y = b.op(ln.clone(), &[t[0], t[1], t[1]], "y").expect("affine matches last dim");
        assert_eq!(shape_of(&b, y), &[5, 16]);
        match b.op(ln, &[t[0], t[1], t[2]], "bad").expect_err("beta is [15]") {
            AuditError::ShapeMismatch { op, shapes, detail } => {
                assert_eq!(op, "layer_norm");
                assert_eq!(shapes, vec![vec![5, 16], vec![15]]);
                assert!(detail.contains("beta"), "{detail}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn cross_entropy_checks_rows_and_target_range() {
        let (mut b, t) = sources(&[&[5, 100]]);
        assert!(b.cross_entropy(t[0], 5, Some(99), "ok").is_ok());
        assert!(matches!(
            b.cross_entropy(t[0], 4, None, "bad"),
            Err(AuditError::ShapeMismatch { op: "cross_entropy", .. })
        ));
        assert!(matches!(
            b.cross_entropy(t[0], 5, Some(100), "bad"),
            Err(AuditError::IndexOutOfRange { index: 100, len: 100, .. })
        ));
    }

    #[test]
    fn concat_validates_partner_dims() {
        let (mut b, t) = sources(&[&[4, 8], &[4, 3], &[5, 8]]);
        let cat = b.op(OpKind::ConcatCols, &[t[0], t[1]], "cat").expect("same rows");
        assert_eq!(shape_of(&b, cat), &[4, 11]);
        assert!(b.op(OpKind::ConcatCols, &[t[0], t[2]], "bad").is_err());
        let rows = b.op(OpKind::ConcatRows, &[t[0], t[2]], "rows").expect("same width");
        assert_eq!(shape_of(&b, rows), &[9, 8]);
        assert!(b.op(OpKind::ConcatRows, &[t[0], t[1]], "bad").is_err());
    }

    #[test]
    fn a_sources_gradient_form_follows_its_readers() {
        // y = x · w; x · v twice; l · w2, l read once as the lhs; u
        // gathered twice; e gathered and read by a `MatMulNT`; z unread;
        // and the computed y gathered.
        let (mut b, t) =
            sources(&[&[4, 6], &[6, 3], &[6, 3], &[6, 6], &[6, 3], &[6, 3], &[6, 6], &[6, 3]]);
        let [x, w, v, l, w2, u, e, z] = t[..] else { unreachable!() };
        let y = b.op(OpKind::MatMul, &[x, w], "y").unwrap();
        for _ in 0..2 {
            b.op(OpKind::MatMul, &[x, v], "xv").unwrap();
            b.gather(u, &[0, 5, 0], "u_rows").unwrap();
        }
        b.op(OpKind::MatMul, &[l, w2], "lw2").unwrap();
        b.gather(e, &[1, 2], "e_rows").unwrap();
        b.op(OpKind::MatMulNT, &[x, e], "xe").unwrap();
        b.gather(y, &[3], "y_rows").unwrap();
        let ir = b.finish(PlanNumerics::default());
        let forms = [x, w, v, l, w2, u, e, z, y].map(|t| ir.grad_form(t));
        use GradForm::{Dense, Product, Rows};
        assert_eq!(forms, [Dense, Product, Dense, Dense, Product, Rows, Dense, Dense, Dense]);
    }

    #[test]
    fn lowering_produces_a_typed_tape() {
        let ir = lower_model_plan(&paper_plan()).expect("paper plan lowers");
        assert!(ir.len() > 100, "4 blocks plus embedding and heads: {} nodes", ir.len());
        // The final node is the summed loss, scalar-shaped.
        let last = ir.node_at(ir.len() - 1);
        assert_eq!(last.kind, OpKind::Add);
        assert_eq!(last.shape, vec![1]);
        // Exactly one masked-softmax chain per block.
        let softmaxes = ir.nodes().iter().filter(|n| matches!(n.kind, OpKind::Softmax)).count();
        assert_eq!(softmaxes, 4);
        let masks = ir.nodes().iter().filter(|n| matches!(n.kind, OpKind::Mask)).count();
        assert_eq!(masks, 4);
    }

    #[test]
    fn every_input_precedes_its_consumer() {
        let ir = lower_model_plan(&paper_plan()).expect("paper plan lowers");
        for (i, node) in ir.nodes().iter().enumerate() {
            for inp in &node.inputs {
                assert!(inp.index() < i, "node {i} `{}` reads a later tensor", node.label);
            }
        }
    }

    #[test]
    fn unmasked_plan_has_no_mask_nodes() {
        let plan = ModelPlan { use_visibility: false, ..paper_plan() };
        let ir = lower_model_plan(&plan).expect("plan lowers");
        assert!(!ir.nodes().iter().any(|n| matches!(n.kind, OpKind::Mask)));
        assert!(!ir.nodes().iter().any(|n| matches!(n.kind, OpKind::Source(SourceKind::Mask))));
    }

    #[test]
    fn bad_head_count_fails_with_typed_error() {
        let plan = ModelPlan { n_heads: 5, ..paper_plan() };
        assert!(matches!(
            lower_model_plan(&plan),
            Err(AuditError::BadConfig { field: "d_model % n_heads", .. })
        ));
    }
}
