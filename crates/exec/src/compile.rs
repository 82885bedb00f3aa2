//! Lowering an audit IR into an executable, fused, arena-backed schedule.

use std::fmt;

use turl_audit::{plan_layout, ArenaRequest, Ir, OpKind, SourceKind, TensorId};
use turl_tensor::ops;

/// Compilation or execution failure, with the offending node's label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The IR contains an op the executor cannot lower (e.g. a loss head
    /// — compiled plans are inference-only).
    Unsupported(String),
    /// The compile-time aliasing audit found a step whose output span
    /// overlaps a live input span (planner invariant violation).
    Alias(String),
    /// A runtime binding mismatch: wrong source slice length, wrong
    /// gather count, or an out-of-range gather index.
    Binding(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Unsupported(s) => write!(f, "unsupported op: {s}"),
            ExecError::Alias(s) => write!(f, "arena aliasing violation: {s}"),
            ExecError::Binding(s) => write!(f, "binding mismatch: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Where a step operand lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A span of the shared arena, in f32 elements.
    Arena {
        /// Element offset into the arena buffer.
        off: usize,
        /// Length in elements.
        len: usize,
    },
    /// A caller-bound input slice (parameter, mask, or constant), by
    /// position in [`CompiledPlan::sources`].
    Source {
        /// Index into the bound source list.
        idx: usize,
    },
}

/// One IR source node the caller must bind a slice for at run time, in
/// the order `run` expects them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// IR node this source binds.
    pub id: TensorId,
    /// What the source is (parameter table, mask, constant, ...).
    pub kind: SourceKind,
    /// The IR label (e.g. `word_emb`), used to resolve parameters.
    pub label: String,
    /// Expected shape; the bound slice must hold its product.
    pub shape: Vec<usize>,
    /// True when every use of this source in the schedule has a
    /// block-quantized kernel (gather table or plain-matmul rhs), so a
    /// `SourceValue::I8Block` binding is accepted at run time. Computed
    /// at compile time from the final step operands.
    pub quantizable: bool,
}

/// One gather whose indices the caller supplies at run time, in the
/// order `run` expects them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherSpec {
    /// IR node of the gather.
    pub id: TensorId,
    /// The IR label (e.g. `embed.words`).
    pub label: String,
    /// Number of indices the caller must supply.
    pub rows: usize,
    /// Row length of the gathered table.
    pub row_len: usize,
    /// Number of rows in the table (indices must stay below this).
    pub table_rows: usize,
}

/// The kernel a [`Step`] dispatches to, over operands of type `O`:
/// [`Operand`]s (arena spans and bound sources) in a finished
/// [`CompiledPlan`], buffer ids while [`compile`] is still fusing —
/// one description of every kernel's operands for both.
#[derive(Debug, Clone, PartialEq)]
pub enum StepKind<O = Operand> {
    /// Row gather from `table` using the caller-bound index list
    /// `gather` (position in [`CompiledPlan::gathers`]).
    Gather {
        /// Gathered table.
        table: O,
        /// Index-list position in the plan's gather order.
        gather: usize,
        /// Row length.
        row_len: usize,
    },
    /// `out[m,n] = a[m,k] · b[k,n]`, with an optional fused bias (and
    /// bias+GELU) epilogue absorbed from the following IR ops.
    MatMul {
        /// Left operand.
        a: O,
        /// Right operand.
        b: O,
        /// Fused rank-1 bias, added after full accumulation.
        bias: Option<O>,
        /// Apply GELU after the bias (requires `bias`).
        gelu: bool,
        /// Output rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// `out[m,n] = a[m,k] · b[n,k]ᵀ` via an arena scratch panel.
    MatMulNT {
        /// Left operand.
        a: O,
        /// Right operand (stored transposed).
        b: O,
        /// Arena span for the kernel's transpose scratch.
        scratch: O,
        /// Output rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Batched `out[bs,m,n] = a[bs,m,k] · b[bs,k,n]`.
    Bmm {
        /// Left operand.
        a: O,
        /// Right operand.
        b: O,
        /// Batch count.
        bs: usize,
        /// Output rows per batch.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns per batch.
        n: usize,
    },
    /// Batched `out[bs,m,n] = a[bs,m,k] · b[bs,n,k]ᵀ` via arena scratch.
    BmmNT {
        /// Left operand.
        a: O,
        /// Right operand (stored transposed per batch).
        b: O,
        /// Arena span for the `[bs, k, n]` transpose panels.
        scratch: O,
        /// Batch count.
        bs: usize,
        /// Output rows per batch.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns per batch.
        n: usize,
    },
    /// Elementwise sum; `b` is cycled when shorter (suffix broadcast).
    Add {
        /// Full-size operand.
        a: O,
        /// Added operand (same size or a trailing-axes broadcast).
        b: O,
    },
    /// Fused `scale → (+ mask) → softmax` over rows of `row_len`.
    FusedSoftmax {
        /// Logits.
        x: O,
        /// Pre-softmax scale factor (1.0 when no scale op was fused).
        scale: f32,
        /// Additive mask, cycled over `x` when shorter.
        mask: Option<O>,
        /// Softmax row length (last axis).
        row_len: usize,
    },
    /// One-pass layer norm (mean/var/normalize/scale/shift).
    FusedLayerNorm {
        /// Normalized input.
        x: O,
        /// Scale vector; its length is the row width.
        gamma: O,
        /// Shift vector.
        beta: O,
        /// Variance epsilon.
        eps: f32,
    },
    /// Standalone elementwise scale (no softmax to fuse into).
    Scale {
        /// Input.
        x: O,
        /// Factor.
        factor: f32,
    },
    /// Standalone elementwise GELU.
    Gelu {
        /// Input.
        x: O,
    },
    /// One-copy `reshape ⇄ permute` (or standalone permute): walk
    /// `out_shape` row-major reading `x` through `read_strides`.
    CopyStrided {
        /// Copy source.
        x: O,
        /// Iteration shape of the copy.
        out_shape: Vec<usize>,
        /// Read strides into `x`, one per `out_shape` axis.
        read_strides: Vec<usize>,
    },
    /// Straight copy (a materialized standalone reshape).
    Memcpy {
        /// Copy source.
        x: O,
    },
    /// Row-wise concatenation: parts copied back to back.
    ConcatRows {
        /// Parts in order.
        parts: Vec<O>,
    },
    /// Column-wise concatenation of rank-2 parts with shared row count.
    ConcatCols {
        /// `(part, part_cols)` in order.
        parts: Vec<(O, usize)>,
        /// Shared row count.
        rows: usize,
    },
}

impl<O> StepKind<O> {
    /// Every operand this step reads, in field order. This is the list
    /// liveness, the aliasing audit and quantizability are derived from.
    /// The `*NT` kinds' `scratch` is written, not read, and is not here.
    pub fn operands(&self) -> Vec<&O> {
        match self {
            StepKind::Gather { table: x, .. }
            | StepKind::Scale { x, .. }
            | StepKind::Gelu { x }
            | StepKind::CopyStrided { x, .. }
            | StepKind::Memcpy { x } => vec![x],
            StepKind::MatMul { a, b, bias, .. } => [a, b].into_iter().chain(bias).collect(),
            StepKind::MatMulNT { a, b, .. }
            | StepKind::Bmm { a, b, .. }
            | StepKind::BmmNT { a, b, .. }
            | StepKind::Add { a, b } => vec![a, b],
            StepKind::FusedSoftmax { x, mask, .. } => std::iter::once(x).chain(mask).collect(),
            StepKind::FusedLayerNorm { x, gamma, beta, .. } => vec![x, gamma, beta],
            StepKind::ConcatRows { parts } => parts.iter().collect(),
            StepKind::ConcatCols { parts, .. } => parts.iter().map(|(p, _)| p).collect(),
        }
    }

    /// The same step over another operand type: `f` converts every `O`
    /// it holds — the operands it reads and, for the `*NT` kinds, the
    /// scratch it writes — and the first error aborts.
    fn try_map<P, E>(self, mut f: impl FnMut(O) -> Result<P, E>) -> Result<StepKind<P>, E> {
        Ok(match self {
            StepKind::Gather { table, gather, row_len } => {
                StepKind::Gather { table: f(table)?, gather, row_len }
            }
            StepKind::MatMul { a, b, bias, gelu, m, k, n } => StepKind::MatMul {
                a: f(a)?,
                b: f(b)?,
                bias: bias.map(f).transpose()?,
                gelu,
                m,
                k,
                n,
            },
            StepKind::MatMulNT { a, b, scratch, m, k, n } => {
                StepKind::MatMulNT { a: f(a)?, b: f(b)?, scratch: f(scratch)?, m, k, n }
            }
            StepKind::Bmm { a, b, bs, m, k, n } => {
                StepKind::Bmm { a: f(a)?, b: f(b)?, bs, m, k, n }
            }
            StepKind::BmmNT { a, b, scratch, bs, m, k, n } => {
                StepKind::BmmNT { a: f(a)?, b: f(b)?, scratch: f(scratch)?, bs, m, k, n }
            }
            StepKind::Add { a, b } => StepKind::Add { a: f(a)?, b: f(b)? },
            StepKind::FusedSoftmax { x, scale, mask, row_len } => {
                StepKind::FusedSoftmax { x: f(x)?, scale, mask: mask.map(f).transpose()?, row_len }
            }
            StepKind::FusedLayerNorm { x, gamma, beta, eps } => {
                StepKind::FusedLayerNorm { x: f(x)?, gamma: f(gamma)?, beta: f(beta)?, eps }
            }
            StepKind::Scale { x, factor } => StepKind::Scale { x: f(x)?, factor },
            StepKind::Gelu { x } => StepKind::Gelu { x: f(x)? },
            StepKind::CopyStrided { x, out_shape, read_strides } => {
                StepKind::CopyStrided { x: f(x)?, out_shape, read_strides }
            }
            StepKind::Memcpy { x } => StepKind::Memcpy { x: f(x)? },
            StepKind::ConcatRows { parts } => {
                StepKind::ConcatRows { parts: parts.into_iter().map(f).collect::<Result<_, _>>()? }
            }
            StepKind::ConcatCols { parts, rows } => StepKind::ConcatCols {
                parts: parts.into_iter().map(|(p, c)| Ok((f(p)?, c))).collect::<Result<_, E>>()?,
                rows,
            },
        })
    }

    /// The transpose scratch of a `*NT` step and its size in elements:
    /// what the kernel asks for, resp. one `[k, n]` panel per batch.
    fn scratch(&self) -> Option<(&O, usize)> {
        match self {
            StepKind::MatMulNT { scratch, m, k, n, .. } => {
                Some((scratch, ops::matmul_nt_scratch_len(*m, *k, *n)))
            }
            StepKind::BmmNT { scratch, bs, k, n, .. } => Some((scratch, bs * k * n)),
            _ => None,
        }
    }

    /// Position in [`operands`](StepKind::operands) of the one operand
    /// `run` has a block-quantized kernel for: a gather's table, a plain
    /// matmul's rhs.
    fn quantized_slot(&self) -> Option<usize> {
        match self {
            StepKind::Gather { .. } => Some(0),
            StepKind::MatMul { .. } => Some(1),
            _ => None,
        }
    }
}

/// One executable unit of the schedule: a kernel, its operands, the
/// arena span it writes, and the IR nodes it covers (one node, or a
/// fused chain).
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Dispatched kernel.
    pub kind: StepKind,
    /// Output span in the arena, in elements.
    pub out: Operand,
    /// IR tensor this step materializes (the last node of its chain).
    pub out_id: TensorId,
    /// All IR nodes this step covers, in tape order. Interior nodes of a
    /// fused chain never materialize.
    pub covered: Vec<TensorId>,
    /// Label of the output node (diagnostics).
    pub label: String,
}

/// A fully lowered forward plan: fused steps over one shared arena.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Executable steps in order.
    pub steps: Vec<Step>,
    /// Sources the caller binds, in order.
    pub sources: Vec<SourceSpec>,
    /// Gathers the caller supplies indices for, in order.
    pub gathers: Vec<GatherSpec>,
    /// Arena span of the plan output (the final IR node).
    pub output: Operand,
    /// Shape of the plan output.
    pub output_shape: Vec<usize>,
    /// Required arena capacity, in f32 elements.
    pub arena_elems: usize,
    /// Required arena capacity, in bytes (the liveness planner's
    /// `peak_bytes` over the fused step schedule).
    pub peak_bytes: usize,
    /// No-reuse baseline bytes (every step output held to the end).
    pub total_bytes: usize,
}

impl CompiledPlan {
    /// `total_bytes / peak_bytes` — how many times over the arena is
    /// reused relative to a no-reuse executor.
    pub fn reuse_factor(&self) -> f64 {
        if self.peak_bytes == 0 {
            1.0
        } else {
            self.total_bytes as f64 / self.peak_bytes as f64
        }
    }

    /// Check that the schedule covers the IR exactly: every computed
    /// node is covered by exactly one step, in tape order, with the
    /// step's materialized shape matching the IR — the check that
    /// fusion dropped, duplicated or reordered nothing.
    pub fn verify_covers(&self, ir: &Ir) -> Result<(), ExecError> {
        let mut covered = vec![false; ir.len()];
        let mut prev_last = 0usize;
        for step in &self.steps {
            for id in &step.covered {
                if ir.node_at(id.index()).kind.is_source() {
                    return Err(ExecError::Alias(format!(
                        "step '{}' claims to cover source node {}",
                        step.label,
                        id.index()
                    )));
                }
                if covered[id.index()] {
                    return Err(ExecError::Alias(format!(
                        "node {} covered twice (last by step '{}')",
                        id.index(),
                        step.label
                    )));
                }
                covered[id.index()] = true;
            }
            let last = step.out_id.index();
            if last < prev_last {
                return Err(ExecError::Alias(format!("step '{}' out of tape order", step.label)));
            }
            prev_last = last;
            let want = ir.node_at(last).elements();
            let Operand::Arena { len, .. } = step.out else {
                return Err(ExecError::Alias(format!("step '{}' writes a source", step.label)));
            };
            if len != want {
                return Err(ExecError::Alias(format!(
                    "step '{}' materializes {} elements, IR says {}",
                    step.label, len, want
                )));
            }
        }
        for id in ir.op_ids() {
            if !covered[id.index()] {
                return Err(ExecError::Unsupported(format!(
                    "node {} ('{}') not covered by any step",
                    id.index(),
                    ir.node_at(id.index()).label
                )));
            }
        }
        Ok(())
    }
}

/// Contiguous row-major strides of a shape.
fn contig_strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Read strides of a permuted view of a contiguous `in_shape` tensor.
fn permuted_strides(in_shape: &[usize], axes: &[usize]) -> Vec<usize> {
    let in_strides = contig_strides(in_shape);
    axes.iter().map(|&ax| in_strides[ax]).collect()
}

/// Lower an [`Ir`] into a [`CompiledPlan`].
///
/// Runs the fusion pass, plans the arena over the fused step schedule
/// with the audit crate's greedy best-fit planner, resolves every
/// operand to a source index or arena span, and audits that no step's
/// output span overlaps any of its live input spans.
pub fn compile(ir: &Ir) -> Result<CompiledPlan, ExecError> {
    // --- reader bookkeeping -------------------------------------------
    let n = ir.len();
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in ir.nodes().iter().enumerate() {
        for inp in &node.inputs {
            readers[inp.index()].push(i);
        }
    }
    let shape = |i: usize| ir.node_at(i).shape.as_slice();
    let elems = |i: usize| ir.node_at(i).elements();
    let last_axis = |i: usize| *shape(i).last().unwrap_or(&1);
    let sole_reader = |i: usize| -> Option<usize> {
        match readers[i].as_slice() {
            [r] => Some(*r),
            _ => None,
        }
    };
    let softmax_after =
        |i: usize| sole_reader(i).filter(|&s| ir.node_at(s).kind == OpKind::Softmax);

    // --- fusion pass --------------------------------------------------
    // Steps over buffer ids: an IR node index `t < n` names that node's
    // tensor, and `n + s` names the transpose scratch of step `s` (dead
    // outside its own step). `covered` starts with the step's own node
    // and ends with the one it materializes; the rest are fused in.
    let mut gathers: Vec<GatherSpec> = Vec::new();
    let mut steps: Vec<(StepKind<usize>, Vec<usize>)> = Vec::new();
    let mut absorbed = vec![false; n];

    for i in 0..n {
        let node = ir.node_at(i);
        if node.kind.is_source() || absorbed[i] {
            continue;
        }
        let input = |slot: usize| node.inputs[slot].index();
        let scratch = n + steps.len();
        let (kind, covered) = match &node.kind {
            OpKind::Source(_) => unreachable!("sources skipped above"),
            OpKind::CrossEntropy => {
                return Err(ExecError::Unsupported(format!(
                    "cross_entropy '{}' (compiled plans are inference-only; lower a \
                     zero-target plan)",
                    node.label
                )))
            }
            OpKind::Gather => {
                let table = input(0);
                let ts = shape(table);
                let row_len = ts[1..].iter().product::<usize>().max(1);
                gathers.push(GatherSpec {
                    id: TensorId::from_index(i),
                    label: node.label.clone(),
                    rows: node.shape[0],
                    row_len,
                    table_rows: ts.first().copied().unwrap_or(0),
                });
                (StepKind::Gather { table, gather: gathers.len() - 1, row_len }, vec![i])
            }
            OpKind::MatMul => {
                let (a, b) = (input(0), input(1));
                let (m, k, nn) = (shape(a)[0], shape(a)[1], shape(b)[1]);
                // Bias epilogue: the matmul's sole reader is an add of a
                // rank-1 vector matching the output's last axis; GELU
                // epilogue: that add's sole reader.
                let bias_add = sole_reader(i).filter(|&r| {
                    let rn = ir.node_at(r);
                    rn.kind == OpKind::Add
                        && rn.inputs[0].index() == i
                        && shape(rn.inputs[1].index()) == [nn]
                });
                let gelu_after =
                    bias_add.and_then(sole_reader).filter(|&g| ir.node_at(g).kind == OpKind::Gelu);
                let bias = bias_add.map(|r| ir.node_at(r).inputs[1].index());
                let covered = [Some(i), bias_add, gelu_after].into_iter().flatten().collect();
                (StepKind::MatMul { a, b, bias, gelu: gelu_after.is_some(), m, k, n: nn }, covered)
            }
            OpKind::MatMulNT => {
                let (a, b) = (input(0), input(1));
                let (m, k, nn) = (shape(a)[0], shape(a)[1], shape(b)[0]);
                (StepKind::MatMulNT { a, b, scratch, m, k, n: nn }, vec![i])
            }
            OpKind::Bmm => {
                let (a, b) = (input(0), input(1));
                let (bs, m, k, nn) = (shape(a)[0], shape(a)[1], shape(a)[2], shape(b)[2]);
                (StepKind::Bmm { a, b, bs, m, k, n: nn }, vec![i])
            }
            OpKind::BmmNT => {
                let (a, b) = (input(0), input(1));
                let (bs, m, k, nn) = (shape(a)[0], shape(a)[1], shape(a)[2], shape(b)[1]);
                (StepKind::BmmNT { a, b, scratch, bs, m, k, n: nn }, vec![i])
            }
            OpKind::Scale { factor } => {
                // scale → (mask) → softmax fuses into one row pass.
                let (x, scale) = (input(0), *factor as f32);
                let masked = sole_reader(i).filter(|&r| {
                    let rn = ir.node_at(r);
                    rn.kind == OpKind::Mask && rn.inputs[0].index() == i
                });
                if let Some((r, s)) = masked.and_then(|r| Some((r, softmax_after(r)?))) {
                    let mask = Some(ir.node_at(r).inputs[1].index());
                    (
                        StepKind::FusedSoftmax { x, scale, mask, row_len: last_axis(s) },
                        vec![i, r, s],
                    )
                } else if let Some(s) = softmax_after(i) {
                    (
                        StepKind::FusedSoftmax { x, scale, mask: None, row_len: last_axis(s) },
                        vec![i, s],
                    )
                } else {
                    (StepKind::Scale { x, factor: scale }, vec![i])
                }
            }
            OpKind::Mask => {
                let (x, mask) = (input(0), input(1));
                match softmax_after(i) {
                    Some(s) => (
                        StepKind::FusedSoftmax {
                            x,
                            scale: 1.0,
                            mask: Some(mask),
                            row_len: last_axis(s),
                        },
                        vec![i, s],
                    ),
                    None => (StepKind::Add { a: x, b: mask }, vec![i]),
                }
            }
            OpKind::Softmax => (
                StepKind::FusedSoftmax {
                    x: input(0),
                    scale: 1.0,
                    mask: None,
                    row_len: last_axis(i),
                },
                vec![i],
            ),
            OpKind::Add => {
                let (a, b) = (input(0), input(1));
                // Same size, or `b` a trailing-axes broadcast (its shape
                // a suffix of `a`'s) cycled over `a`.
                let (sa, sb) = (shape(a), shape(b));
                if !(sa == sb || (sa.ends_with(sb) && elems(b) > 0)) {
                    return Err(ExecError::Unsupported(format!(
                        "add '{}' broadcasts {sa:?} + {sb:?} (only trailing-axes broadcast \
                         is compiled)",
                        node.label
                    )));
                }
                (StepKind::Add { a, b }, vec![i])
            }
            OpKind::Gelu => (StepKind::Gelu { x: input(0) }, vec![i]),
            OpKind::LayerNorm { eps } => {
                let (x, gamma, beta) = (input(0), input(1), input(2));
                (StepKind::FusedLayerNorm { x, gamma, beta, eps: *eps as f32 }, vec![i])
            }
            OpKind::Reshape => {
                let x = input(0);
                // reshape → permute collapses into one strided copy of
                // the (contiguous) reshaped view.
                let permuted = sole_reader(i).and_then(|p| match &ir.node_at(p).kind {
                    OpKind::Permute { axes } => Some((p, axes)),
                    _ => None,
                });
                match permuted {
                    Some((p, axes)) => (
                        StepKind::CopyStrided {
                            x,
                            out_shape: shape(p).to_vec(),
                            read_strides: permuted_strides(&node.shape, axes),
                        },
                        vec![i, p],
                    ),
                    None => (StepKind::Memcpy { x }, vec![i]),
                }
            }
            OpKind::Permute { axes } => {
                let x = input(0);
                // permute → reshape: the reshape of the materialized
                // permuted buffer is free (same bytes), so one strided
                // copy covers both nodes.
                let reshaped = sole_reader(i).filter(|&r| ir.node_at(r).kind == OpKind::Reshape);
                (
                    StepKind::CopyStrided {
                        x,
                        out_shape: node.shape.clone(),
                        read_strides: permuted_strides(shape(x), axes),
                    },
                    std::iter::once(i).chain(reshaped).collect(),
                )
            }
            OpKind::ConcatRows => (
                StepKind::ConcatRows { parts: node.inputs.iter().map(|t| t.index()).collect() },
                vec![i],
            ),
            OpKind::ConcatCols => {
                let parts = node.inputs.iter().map(|t| (t.index(), shape(t.index())[1])).collect();
                (StepKind::ConcatCols { parts, rows: node.shape[0] }, vec![i])
            }
        };
        for &c in &covered[1..] {
            absorbed[c] = true;
        }
        steps.push((kind, covered));
    }

    // --- arena planning over the fused step schedule ------------------
    // Time is re-indexed by step: a fused chain is atomic, its interior
    // tensors never materialize, and its inputs stay live until the step
    // that consumes them runs.
    let n_steps = steps.len();
    let out_of = |covered: &[usize]| covered[covered.len() - 1];
    let mut last_use_step: Vec<Option<usize>> = vec![None; n];
    for (s, (kind, _)) in steps.iter().enumerate() {
        for &inp in kind.operands() {
            last_use_step[inp] = Some(s);
        }
    }

    // One request per step output (in step order), then the step's
    // scratch. Request order is nondecreasing in first_def, as
    // plan_layout requires. `bufs` names each request's buffer id and
    // length in elements.
    let mut requests: Vec<ArenaRequest> = Vec::new();
    let mut bufs: Vec<(usize, usize)> = Vec::new();
    for (s, (kind, covered)) in steps.iter().enumerate() {
        let out_id = out_of(covered);
        bufs.push((out_id, elems(out_id)));
        requests.push(ArenaRequest {
            bytes: elems(out_id) * 4,
            first_def: s,
            // Outputs nothing reads stay live to the end of the schedule.
            last_use: last_use_step[out_id].unwrap_or(n_steps),
        });
        if let Some((&id, len)) = kind.scratch() {
            bufs.push((id, len));
            requests.push(ArenaRequest { bytes: len * 4, first_def: s, last_use: s });
        }
    }
    let layout = plan_layout(&requests);

    // --- where every buffer id lives at run time ----------------------
    let mut sources: Vec<SourceSpec> = Vec::new();
    let mut resolved: Vec<Option<Operand>> = vec![None; n + n_steps];
    for (i, node) in ir.nodes().iter().enumerate() {
        if let OpKind::Source(kind) = &node.kind {
            resolved[i] = Some(Operand::Source { idx: sources.len() });
            sources.push(SourceSpec {
                id: TensorId::from_index(i),
                kind: kind.clone(),
                label: node.label.clone(),
                shape: node.shape.clone(),
                quantizable: true, // narrowed below from final step operands
            });
        }
    }
    for (&(id, len), off) in bufs.iter().zip(&layout.offsets) {
        resolved[id] = Some(Operand::Arena { off: off.unwrap_or(0) / 4, len });
    }
    let operand_of = |t: usize| -> Result<Operand, ExecError> {
        resolved[t].ok_or_else(|| {
            ExecError::Unsupported(format!(
                "operand '{}' is an interior tensor of a fused chain",
                ir.node_at(t).label
            ))
        })
    };

    // --- operand resolution + aliasing audit --------------------------
    let overlap = |x: &Operand, y: &Operand| -> bool {
        match (x, y) {
            (Operand::Arena { off: o1, len: l1 }, Operand::Arena { off: o2, len: l2 }) => {
                *l1 > 0 && *l2 > 0 && o1 < &(o2 + l2) && o2 < &(o1 + l1)
            }
            _ => false,
        }
    };

    let mut final_steps: Vec<Step> = Vec::with_capacity(n_steps);
    for (ids, covered) in steps {
        let out_id = out_of(&covered);
        let out = operand_of(out_id)?;
        let label = ir.node_at(out_id).label.clone();
        let read_ids: Vec<usize> = ids.operands().into_iter().copied().collect();
        let kind = ids.try_map(operand_of)?;
        // Aliasing audit: the output span (and scratch) must be disjoint
        // from every input span this step reads.
        let scratch = kind.scratch().map(|(sc, _)| sc);
        for (&inp, op) in read_ids.iter().zip(kind.operands()) {
            for (what, span) in [("output", Some(&out)), ("scratch", scratch)] {
                if span.is_some_and(|sp| overlap(sp, op)) {
                    return Err(ExecError::Alias(format!(
                        "step '{label}' {what} overlaps live input '{}'",
                        ir.node_at(inp).label
                    )));
                }
            }
        }
        if scratch.is_some_and(|sc| overlap(&out, sc)) {
            return Err(ExecError::Alias(format!(
                "step '{label}' output overlaps its own scratch"
            )));
        }
        final_steps.push(Step {
            kind,
            out,
            out_id: TensorId::from_index(out_id),
            covered: covered.into_iter().map(TensorId::from_index).collect(),
            label,
        });
    }

    // --- quantizability narrowing -------------------------------------
    // A source stays quantizable only if every read of it dispatches a
    // block-quantized kernel: a gather table or a plain-matmul rhs. Any
    // other position (bias, layer-norm affine, nt/bmm operands, masks,
    // elementwise inputs) demands a dense f32 view.
    for step in &final_steps {
        let quantized = step.kind.quantized_slot();
        for (slot, op) in step.kind.operands().into_iter().enumerate() {
            if let Operand::Source { idx } = op {
                sources[*idx].quantizable &= Some(slot) == quantized;
            }
        }
    }

    let output_step = final_steps.last().ok_or_else(|| {
        ExecError::Unsupported("empty plan: IR has no computed nodes".to_string())
    })?;
    let output = output_step.out;
    let output_shape = ir.node_at(output_step.out_id.index()).shape.clone();

    let plan = CompiledPlan {
        steps: final_steps,
        sources,
        gathers,
        output,
        output_shape,
        arena_elems: layout.peak_bytes / 4,
        peak_bytes: layout.peak_bytes,
        total_bytes: layout.total_bytes,
    };
    plan.verify_covers(ir)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_audit::{lower_model_plan, ModelPlan, PlanNumerics};

    fn plan(n_layers: usize, tokens: usize, ents: usize, mts: usize, masked: bool) -> ModelPlan {
        ModelPlan {
            n_layers,
            d_model: 16,
            d_intermediate: 32,
            n_heads: 2,
            n_words: 50,
            n_entities: 20,
            max_position: 64,
            n_tokens: tokens,
            n_seq_entities: ents,
            n_mention_tokens: mts,
            use_visibility: masked,
            n_mlm_targets: 0,
            n_mer_targets: 0,
            n_candidates: 0,
            numerics: PlanNumerics::default(),
        }
    }

    fn compiled(p: &ModelPlan) -> (Ir, CompiledPlan) {
        let ir = lower_model_plan(p).expect("plan lowers");
        let cp = compile(&ir).expect("plan compiles");
        (ir, cp)
    }

    #[test]
    fn fusion_shrinks_the_schedule_and_covers_the_ir() {
        let (ir, cp) = compiled(&plan(2, 6, 3, 4, true));
        let n_ops = ir.op_ids().count();
        assert!(
            cp.steps.len() < n_ops,
            "fusion must shrink the schedule ({} steps vs {} ops)",
            cp.steps.len(),
            n_ops
        );
        cp.verify_covers(&ir).expect("schedule covers IR");
        // bias+GELU epilogue fused into the FFN's first matmul:
        assert!(
            cp.steps
                .iter()
                .any(|s| matches!(s.kind, StepKind::MatMul { bias: Some(_), gelu: true, .. })),
            "no fused bias+GELU matmul in schedule"
        );
        // scale → mask → softmax fused into one row pass:
        assert!(
            cp.steps.iter().any(|s| matches!(
                s.kind,
                StepKind::FusedSoftmax { mask: Some(_), scale, .. } if scale != 1.0
            )),
            "no fused scale+mask+softmax in schedule"
        );
        // every layer norm lowers to the one-pass fused kernel:
        let ln =
            cp.steps.iter().filter(|s| matches!(s.kind, StepKind::FusedLayerNorm { .. })).count();
        assert_eq!(ln, 2 * 2 + 1, "embed LN + two per block");
        // no standalone scale / mask-add / gelu survives fusion here:
        assert!(!cp.steps.iter().any(|s| matches!(s.kind, StepKind::Scale { .. })));
        assert!(!cp.steps.iter().any(|s| matches!(s.kind, StepKind::Gelu { .. })));
    }

    #[test]
    fn unmasked_plan_fuses_scale_into_softmax_without_mask() {
        let (_, cp) = compiled(&plan(1, 5, 2, 2, false));
        assert!(!cp.sources.iter().any(|s| s.kind == SourceKind::Mask));
        assert!(cp.steps.iter().any(|s| matches!(
            s.kind,
            StepKind::FusedSoftmax { mask: None, scale, .. } if scale != 1.0
        )));
    }

    /// Collect every buffer *instance* (span + def step + last-use step)
    /// the plan hands out. A span can be reused by several instances
    /// over the schedule; each read is attributed to the most recent def
    /// of its span. Outputs nothing reads stay live to the end (the
    /// planner's convention); scratch lives for exactly its own step.
    fn span_lifetimes(cp: &CompiledPlan) -> Vec<(usize, usize, usize, usize)> {
        let span = |op: &Operand| -> Option<(usize, usize)> {
            match *op {
                Operand::Arena { off, len } if len > 0 => Some((off, len)),
                _ => None,
            }
        };
        let inputs_of = |st: &Step| -> Vec<Operand> {
            let mut ops: Vec<Operand> = Vec::new();
            match &st.kind {
                StepKind::Gather { table, .. } => ops.push(*table),
                StepKind::MatMul { a, b, bias, .. } => {
                    ops.extend([*a, *b]);
                    ops.extend(bias.iter().copied());
                }
                StepKind::MatMulNT { a, b, .. } | StepKind::BmmNT { a, b, .. } => {
                    ops.extend([*a, *b]);
                }
                StepKind::Bmm { a, b, .. } | StepKind::Add { a, b } => ops.extend([*a, *b]),
                StepKind::FusedSoftmax { x, mask, .. } => {
                    ops.push(*x);
                    ops.extend(mask.iter().copied());
                }
                StepKind::FusedLayerNorm { x, gamma, beta, .. } => {
                    ops.extend([*x, *gamma, *beta]);
                }
                StepKind::Scale { x, .. }
                | StepKind::Gelu { x }
                | StepKind::CopyStrided { x, .. }
                | StepKind::Memcpy { x } => ops.push(*x),
                StepKind::ConcatRows { parts } => ops.extend(parts.iter().copied()),
                StepKind::ConcatCols { parts, .. } => {
                    ops.extend(parts.iter().map(|(p, _)| *p));
                }
            }
            ops
        };
        // (off, len, def, last_use, was_read)
        let mut inst: Vec<(usize, usize, usize, usize, bool)> = Vec::new();
        for (s, st) in cp.steps.iter().enumerate() {
            // Reads first: a step's inputs were defined by earlier steps.
            for op in inputs_of(st) {
                if let Some((off, len)) = span(&op) {
                    if let Some(i) = inst
                        .iter()
                        .enumerate()
                        .filter(|(_, &(o, l, d, _, _))| (o, l) == (off, len) && d <= s)
                        .max_by_key(|(_, &(_, _, d, _, _))| d)
                        .map(|(i, _)| i)
                    {
                        inst[i].3 = inst[i].3.max(s);
                        inst[i].4 = true;
                    } else {
                        panic!("read of span [{off},+{len}) at step {s} with no prior def");
                    }
                }
            }
            if let Some((off, len)) = span(&st.out) {
                inst.push((off, len, s, s, false));
            }
            match &st.kind {
                StepKind::MatMulNT { scratch, .. } | StepKind::BmmNT { scratch, .. } => {
                    if let Some((off, len)) = span(scratch) {
                        inst.push((off, len, s, s, true));
                    }
                }
                _ => {}
            }
        }
        inst.into_iter()
            .map(|(o, l, d, u, read)| (o, l, d, if read { u } else { cp.steps.len() }))
            .collect()
    }

    /// The arena-aliasing guarantee, re-derived independently of the
    /// compiler's own audit: any two spans whose lifetimes overlap must
    /// be disjoint in the arena — the step-schedule analogue of the
    /// audit crate's `LiveRange` disjointness invariant.
    #[test]
    fn overlapping_lifetimes_get_disjoint_arena_spans() {
        for p in [plan(2, 6, 3, 4, true), plan(1, 0, 4, 3, true), plan(1, 5, 0, 0, false)] {
            let (_, cp) = compiled(&p);
            let spans = span_lifetimes(&cp);
            assert!(!spans.is_empty());
            for (i, &(o1, l1, d1, u1)) in spans.iter().enumerate() {
                assert!(o1 + l1 <= cp.arena_elems, "span past arena end");
                for &(o2, l2, d2, u2) in &spans[i + 1..] {
                    let lifetimes_overlap = d1 <= u2 && d2 <= u1;
                    let spans_overlap = o1 < o2 + l2 && o2 < o1 + l1;
                    assert!(
                        !(lifetimes_overlap && spans_overlap),
                        "live spans alias: [{o1},+{l1}) steps {d1}..={u1} vs \
                         [{o2},+{l2}) steps {d2}..={u2}"
                    );
                }
            }
        }
    }

    #[test]
    fn arena_reuse_beats_no_reuse_baseline() {
        let (_, cp) = compiled(&plan(4, 8, 4, 6, true));
        assert!(cp.peak_bytes < cp.total_bytes);
        assert!(cp.reuse_factor() > 2.0, "reuse factor {}", cp.reuse_factor());
        assert_eq!(cp.arena_elems, cp.peak_bytes / 4);
    }

    #[test]
    fn loss_heads_are_rejected_as_inference_only() {
        let mut p = plan(1, 6, 3, 4, true);
        p.n_mlm_targets = 2;
        p.n_mer_targets = 1;
        p.n_candidates = 4;
        let ir = lower_model_plan(&p).expect("plan lowers");
        match compile(&ir) {
            Err(ExecError::Unsupported(msg)) => {
                assert!(msg.contains("cross_entropy"), "unexpected message: {msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}
