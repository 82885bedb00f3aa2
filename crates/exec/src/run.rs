//! Executing a [`CompiledPlan`] against one pre-sized arena.

use crate::compile::{CompiledPlan, ExecError, Operand, StepKind};
use turl_tensor::{ops, quant_rows_cols, QuantBlocks};

/// A runtime source binding: a dense `f32` slice (any source), or
/// block-quantized weights — accepted only where the compiled schedule
/// has a quantized kernel (gather tables and plain-matmul rhs operands;
/// see [`SourceSpec::quantizable`](crate::SourceSpec::quantizable)).
#[derive(Debug, Clone, Copy)]
pub enum SourceValue<'a> {
    /// Dense row-major `f32` values.
    F32(&'a [f32]),
    /// Block-quantized int8 weights.
    I8Block(&'a QuantBlocks),
}

impl SourceValue<'_> {
    /// Logical element count of the binding.
    pub fn len(&self) -> usize {
        match self {
            SourceValue::F32(s) => s.len(),
            SourceValue::I8Block(q) => q.len(),
        }
    }

    /// True when the binding holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> From<&'a [f32]> for SourceValue<'a> {
    fn from(s: &'a [f32]) -> Self {
        SourceValue::F32(s)
    }
}

/// The executor's single flat buffer. Create once, reuse across calls:
/// after the first [`CompiledPlan::run`] warms it to the plan's peak
/// size, subsequent runs perform **zero** heap allocation — every
/// intermediate tensor (and every transpose scratch panel) is a span of
/// this buffer at an offset fixed at compile time.
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<f32>,
}

impl Arena {
    /// Empty arena; grows to a plan's peak size on first use.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Current capacity in elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first run.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Grow (never shrink) to at least `elems` elements.
    fn ensure(&mut self, elems: usize) {
        if self.buf.len() < elems {
            self.buf.resize(elems, 0.0);
        }
    }

    /// Read a span of the arena (diagnostics and output extraction).
    pub fn span(&self, off: usize, len: usize) -> &[f32] {
        &self.buf[off..off + len]
    }
}

impl CompiledPlan {
    /// Slice of the arena holding the plan output after a [`run`].
    ///
    /// [`run`]: CompiledPlan::run
    pub fn output_in<'a>(&self, arena: &'a Arena) -> &'a [f32] {
        match self.output {
            Operand::Arena { off, len } => arena.span(off, len),
            Operand::Source { .. } => &[],
        }
    }

    /// Execute the schedule.
    ///
    /// `sources` binds one [`SourceValue`] per
    /// [`SourceSpec`](crate::SourceSpec) in plan order (parameter
    /// tensors, the visibility mask, the mention-averaging matrix, zero
    /// constants); `gathers` supplies one index list per
    /// [`GatherSpec`](crate::GatherSpec) in plan order. All bindings are
    /// validated before any kernel runs — element counts, and for
    /// quantized bindings that the spec is quantizable and the block
    /// layout matches the spec shape — so a failed call leaves the arena
    /// contents unspecified but never reads out of bounds.
    pub fn run(
        &self,
        arena: &mut Arena,
        sources: &[SourceValue<'_>],
        gathers: &[&[usize]],
    ) -> Result<(), ExecError> {
        // --- validate bindings ----------------------------------------
        if sources.len() != self.sources.len() {
            return Err(ExecError::Binding(format!(
                "expected {} sources, got {}",
                self.sources.len(),
                sources.len()
            )));
        }
        for (spec, s) in self.sources.iter().zip(sources.iter()) {
            let want: usize = spec.shape.iter().product();
            if s.len() != want {
                return Err(ExecError::Binding(format!(
                    "source '{}': expected {} elements ({:?}), got {}",
                    spec.label,
                    want,
                    spec.shape,
                    s.len()
                )));
            }
            if let SourceValue::I8Block(q) = s {
                if !spec.quantizable {
                    return Err(ExecError::Binding(format!(
                        "source '{}': quantized binding, but the schedule reads this \
                         source through a dense-only kernel",
                        spec.label
                    )));
                }
                let (rows, cols) = quant_rows_cols(&spec.shape);
                if (q.rows(), q.cols()) != (rows, cols) {
                    return Err(ExecError::Binding(format!(
                        "source '{}': quantized layout [{}, {}] does not match shape \
                         {:?} (expected [{rows}, {cols}])",
                        spec.label,
                        q.rows(),
                        q.cols(),
                        spec.shape
                    )));
                }
            }
        }
        if gathers.len() != self.gathers.len() {
            return Err(ExecError::Binding(format!(
                "expected {} gather index lists, got {}",
                self.gathers.len(),
                gathers.len()
            )));
        }
        for (spec, g) in self.gathers.iter().zip(gathers.iter()) {
            if g.len() != spec.rows {
                return Err(ExecError::Binding(format!(
                    "gather '{}': expected {} indices, got {}",
                    spec.label,
                    spec.rows,
                    g.len()
                )));
            }
            if let Some(&bad) = g.iter().find(|&&i| i >= spec.table_rows) {
                return Err(ExecError::Binding(format!(
                    "gather '{}': index {} out of range (table has {} rows)",
                    spec.label, bad, spec.table_rows
                )));
            }
        }

        arena.ensure(self.arena_elems);
        if turl_obs::metrics_enabled() {
            turl_obs::gauge("exec.arena_bytes").set(self.peak_bytes as f64);
            turl_obs::gauge("exec.arena_reuse_factor").set(self.reuse_factor());
        }

        // --- execute --------------------------------------------------
        let base = arena.buf.as_mut_ptr();
        let cap = arena.buf.len();
        // Dense read view of an operand. SAFETY for arena operands:
        // compile() audited that every step's output (and scratch) span
        // is disjoint from all of its input spans, so a shared read view
        // never aliases the mutable spans carved below. Quantized sources
        // never reach this: validation restricts them to quantizable
        // specs, and every read of those dispatches through `quant_at`
        // first.
        fn view_at<'a>(
            op: &Operand,
            srcs: &[SourceValue<'a>],
            base: *mut f32,
            cap: usize,
        ) -> &'a [f32] {
            match *op {
                Operand::Arena { off, len } => {
                    debug_assert!(off + len <= cap);
                    let _ = cap;
                    unsafe { std::slice::from_raw_parts(base.add(off), len) }
                }
                Operand::Source { idx } => match srcs[idx] {
                    SourceValue::F32(s) => s,
                    SourceValue::I8Block(_) => {
                        unreachable!("quantized source read through a dense-only kernel")
                    }
                },
            }
        }
        // Quantized view of a source operand, if it was bound quantized.
        fn quant_at<'a>(op: &Operand, srcs: &[SourceValue<'a>]) -> Option<&'a QuantBlocks> {
            match *op {
                Operand::Source { idx } => match srcs[idx] {
                    SourceValue::I8Block(q) => Some(q),
                    SourceValue::F32(_) => None,
                },
                Operand::Arena { .. } => None,
            }
        }
        // Mutable view of an arena span (output or scratch). SAFETY: see
        // above — spans handed out mutably within one step are pairwise
        // disjoint and disjoint from all read views of that step.
        let view_mut = |op: &Operand| -> &mut [f32] {
            match *op {
                Operand::Arena { off, len } => {
                    debug_assert!(off + len <= cap);
                    unsafe { std::slice::from_raw_parts_mut(base.add(off), len) }
                }
                Operand::Source { .. } => unreachable!("steps never write sources"),
            }
        };

        for step in &self.steps {
            let out = view_mut(&step.out);
            match &step.kind {
                StepKind::Gather { table, gather, row_len } => match quant_at(table, sources) {
                    Some(q) => ops::gather_rows_q8_into(q, gathers[*gather], out),
                    None => ops::gather_rows_into(
                        view_at(table, sources, base, cap),
                        *row_len,
                        gathers[*gather],
                        out,
                    ),
                },
                StepKind::MatMul { a, b, bias, gelu, m, k, n } => {
                    match quant_at(b, sources) {
                        Some(q) => {
                            ops::matmul_q8_into(view_at(a, sources, base, cap), q, out, *m, *k, *n)
                        }
                        None => ops::matmul_into(
                            view_at(a, sources, base, cap),
                            view_at(b, sources, base, cap),
                            out,
                            *m,
                            *k,
                            *n,
                        ),
                    }
                    match (bias, gelu) {
                        (Some(bv), false) => {
                            ops::bias_add_inplace(out, view_at(bv, sources, base, cap))
                        }
                        (Some(bv), true) => {
                            ops::bias_gelu_inplace(out, view_at(bv, sources, base, cap))
                        }
                        (None, _) => {}
                    }
                }
                StepKind::MatMulNT { a, b, scratch, m, k, n } => {
                    ops::matmul_nt_into(
                        view_at(a, sources, base, cap),
                        view_at(b, sources, base, cap),
                        out,
                        view_mut(scratch),
                        *m,
                        *k,
                        *n,
                    );
                }
                StepKind::Bmm { a, b, bs, m, k, n } => {
                    ops::bmm_into(
                        view_at(a, sources, base, cap),
                        view_at(b, sources, base, cap),
                        out,
                        *bs,
                        *m,
                        *k,
                        *n,
                    );
                }
                StepKind::BmmNT { a, b, scratch, bs, m, k, n } => {
                    ops::bmm_nt_into(
                        view_at(a, sources, base, cap),
                        view_at(b, sources, base, cap),
                        out,
                        view_mut(scratch),
                        *bs,
                        *m,
                        *k,
                        *n,
                    );
                }
                StepKind::Add { a, b } => {
                    ops::add_into(
                        view_at(a, sources, base, cap),
                        view_at(b, sources, base, cap),
                        out,
                    );
                }
                StepKind::FusedSoftmax { x, scale, mask, row_len } => {
                    ops::fused_mask_softmax(
                        view_at(x, sources, base, cap),
                        *scale,
                        mask.as_ref().map(|m| view_at(m, sources, base, cap)),
                        out,
                        *row_len,
                    );
                }
                StepKind::FusedLayerNorm { x, gamma, beta, eps } => {
                    ops::fused_layer_norm(
                        view_at(x, sources, base, cap),
                        view_at(gamma, sources, base, cap),
                        view_at(beta, sources, base, cap),
                        *eps,
                        out,
                    );
                }
                StepKind::Scale { x, factor } => {
                    ops::scale_into(view_at(x, sources, base, cap), *factor, out);
                }
                StepKind::Gelu { x } => {
                    ops::gelu_into(view_at(x, sources, base, cap), out);
                }
                StepKind::CopyStrided { x, out_shape, read_strides } => {
                    ops::copy_strided_into(
                        view_at(x, sources, base, cap),
                        out,
                        out_shape,
                        read_strides,
                    );
                }
                StepKind::Memcpy { x } => {
                    out.copy_from_slice(view_at(x, sources, base, cap));
                }
                StepKind::ConcatRows { parts } => {
                    ops::concat_rows_into(
                        parts.iter().map(|p| view_at(p, sources, base, cap)),
                        out,
                    );
                }
                StepKind::ConcatCols { parts, rows } => {
                    ops::concat_cols_into(
                        parts.iter().map(|(p, cols)| (view_at(p, sources, base, cap), *cols)),
                        *rows,
                        out,
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use turl_audit::{lower_model_plan, ModelPlan, PlanNumerics};

    fn tiny_plan() -> CompiledPlan {
        let p = ModelPlan {
            n_layers: 1,
            d_model: 8,
            d_intermediate: 16,
            n_heads: 2,
            n_words: 12,
            n_entities: 6,
            max_position: 16,
            n_tokens: 4,
            n_seq_entities: 2,
            n_mention_tokens: 3,
            use_visibility: false,
            n_mlm_targets: 0,
            n_mer_targets: 0,
            n_candidates: 0,
            numerics: PlanNumerics::default(),
        };
        let ir = lower_model_plan(&p).expect("plan lowers");
        compile(&ir).expect("plan compiles")
    }

    /// Zero-filled source bindings of the plan's expected shapes.
    fn zero_sources(plan: &CompiledPlan) -> Vec<Vec<f32>> {
        plan.sources.iter().map(|s| vec![0.0; s.shape.iter().product()]).collect()
    }

    fn valid_gathers(plan: &CompiledPlan) -> Vec<Vec<usize>> {
        plan.gathers.iter().map(|g| vec![0usize; g.rows]).collect()
    }

    #[test]
    fn run_validates_bindings_before_touching_the_arena() {
        let plan = tiny_plan();
        let mut arena = Arena::new();
        let err = plan.run(&mut arena, &[], &[]).expect_err("missing sources");
        assert!(matches!(err, crate::ExecError::Binding(_)), "{err}");
        assert!(arena.is_empty(), "failed run must not size the arena");

        // Right source count, one slice too short:
        let mut srcs = zero_sources(&plan);
        srcs[0].pop();
        let views: Vec<SourceValue> = srcs.iter().map(|v| SourceValue::F32(v)).collect();
        let gs = valid_gathers(&plan);
        let gviews: Vec<&[usize]> = gs.iter().map(Vec::as_slice).collect();
        let err = plan.run(&mut arena, &views, &gviews).expect_err("short source");
        assert!(matches!(err, crate::ExecError::Binding(_)), "{err}");

        // Out-of-range gather index:
        let srcs = zero_sources(&plan);
        let views: Vec<SourceValue> = srcs.iter().map(|v| SourceValue::F32(v)).collect();
        let mut gs = valid_gathers(&plan);
        gs[0][0] = usize::MAX;
        let gviews: Vec<&[usize]> = gs.iter().map(Vec::as_slice).collect();
        let err = plan.run(&mut arena, &views, &gviews).expect_err("bad index");
        assert!(matches!(err, crate::ExecError::Binding(_)), "{err}");
    }

    #[test]
    fn run_executes_end_to_end_and_reuses_the_arena() {
        let plan = tiny_plan();
        let srcs = zero_sources(&plan);
        let views: Vec<SourceValue> = srcs.iter().map(|v| SourceValue::F32(v)).collect();
        let gs = valid_gathers(&plan);
        let gviews: Vec<&[usize]> = gs.iter().map(Vec::as_slice).collect();

        let mut arena = Arena::new();
        plan.run(&mut arena, &views, &gviews).expect("first run");
        assert_eq!(arena.len(), plan.arena_elems);
        let out = plan.output_in(&arena);
        assert_eq!(out.len(), plan.output_shape.iter().product::<usize>());
        // All-zero parameters: softmax rows are uniform, layer norm maps a
        // constant row to beta (= 0), so the output is finite everywhere.
        assert!(out.iter().all(|v| v.is_finite()), "non-finite output");

        // Second run on the warmed arena must not grow it.
        plan.run(&mut arena, &views, &gviews).expect("second run");
        assert_eq!(arena.len(), plan.arena_elems);
    }
}
