//! Symbolic validation and static analysis of a full TURL forward plan.
//!
//! [`analyze_model_plan`] lowers the plan to the typed dataflow IR
//! ([`crate::ir`]), runs value-range abstract interpretation over it
//! ([`crate::range`]) and plans the intermediate-buffer arena
//! ([`crate::liveness`]) — all from a config, without allocating a single
//! model-sized tensor. [`check_model_plan`] remains the original thin
//! entry point: it returns the [`PlanReport`] when every invariant is
//! proven and the first typed [`AuditError`] otherwise, so a
//! misconfigured model still fails in microseconds instead of panicking
//! deep inside a training step.

use crate::error::AuditError;
use crate::ir::{lower_model_plan, Ir};
use crate::liveness::{plan_arena, ArenaPlan};
use crate::range::ValueRange;

/// Numeric metadata the value-range analysis interprets a plan under:
/// everything about the model's arithmetic that is not a shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanNumerics {
    /// Layer-norm variance epsilon (`turl_nn::LayerNorm`).
    pub ln_eps: f64,
    /// Hard magnitude bound on embedding-table initialization. The
    /// default is the Box–Muller sampler's guarantee for the BERT-style
    /// `N(0, 0.02)` init (`turl_tensor::normal_init_bound`).
    pub embed_init_bound: f64,
    /// Additive penalty on visibility-masked attention pairs.
    pub mask_penalty: f64,
}

impl Default for PlanNumerics {
    fn default() -> Self {
        Self {
            ln_eps: 1e-5,
            embed_init_bound: f64::from(turl_tensor::normal_init_bound(0.02)),
            mask_penalty: -1e9,
        }
    }
}

/// Structural description of one forward pass, independent of weights.
///
/// `turl-core` adapts a `TurlConfig` plus corpus statistics into this
/// struct; keeping it plain data avoids a dependency cycle between the
/// model crate and the auditor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPlan {
    /// Encoder depth `N`.
    pub n_layers: usize,
    /// Hidden size `d`.
    pub d_model: usize,
    /// Feed-forward inner size `d_i`.
    pub d_intermediate: usize,
    /// Attention heads `h`.
    pub n_heads: usize,
    /// Word vocabulary size.
    pub n_words: usize,
    /// Entity vocabulary size (excluding the `[MASK]` row).
    pub n_entities: usize,
    /// Position embedding table size.
    pub max_position: usize,
    /// Token elements in the sequence being planned.
    pub n_tokens: usize,
    /// Entity elements in the sequence being planned.
    pub n_seq_entities: usize,
    /// Total mention tokens across the sequence's entities.
    pub n_mention_tokens: usize,
    /// Whether the §4.3 visibility mask is applied.
    pub use_visibility: bool,
    /// MLM target positions.
    pub n_mlm_targets: usize,
    /// MER target positions.
    pub n_mer_targets: usize,
    /// MER candidate-set size.
    pub n_candidates: usize,
    /// Init bounds, eps, and mask penalty for the value-range analysis.
    pub numerics: PlanNumerics,
}

/// Outcome of a clean plan check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanReport {
    /// Linearized sequence length.
    pub seq_len: usize,
    /// IR nodes (sources + computed ops).
    pub n_ops: usize,
    /// Largest single tensor, in elements (parameters included; not
    /// allocated).
    pub peak_elements: usize,
    /// Peak *intermediate* memory of one forward pass in bytes, from the
    /// liveness-planned arena (parameters excluded — they live in the
    /// store, not the per-step arena).
    pub peak_bytes: usize,
    /// How many times over the arena is reused across the pass
    /// (`total intermediate bytes / peak_bytes`).
    pub reuse_factor: f64,
}

/// Everything the static analyses derive from one plan.
#[derive(Debug, Clone)]
pub struct PlanAnalysis {
    /// The lowered op graph.
    pub ir: Ir,
    /// Abstract value per IR tensor (same indexing as the IR tape).
    pub ranges: Vec<ValueRange>,
    /// Every invariant the range analysis could not prove, in tape
    /// order. Empty for a healthy configuration.
    pub errors: Vec<AuditError>,
    /// Liveness-planned intermediate arena.
    pub arena: ArenaPlan,
    /// Provable upper bound on the attention weight any visibility-masked
    /// pair can receive (see [`crate::range::RangeAnalysis`]); `None`
    /// without a mask.
    pub masked_weight_bound: Option<f64>,
    /// Headline numbers.
    pub report: PlanReport,
}

fn bad(field: &'static str, detail: String) -> AuditError {
    AuditError::BadConfig { field, detail }
}

/// Validate the plan's scalar fields before lowering any ops.
pub(crate) fn check_plan_fields(p: &ModelPlan) -> Result<(), AuditError> {
    if p.n_layers == 0 {
        return Err(bad("n_layers", "encoder needs at least one block".into()));
    }
    if p.d_model == 0 || p.d_intermediate == 0 {
        return Err(bad("d_model/d_intermediate", "hidden sizes must be positive".into()));
    }
    if p.n_heads == 0 || !p.d_model.is_multiple_of(p.n_heads) {
        return Err(bad(
            "d_model % n_heads",
            format!("d_model {} not divisible by n_heads {}", p.d_model, p.n_heads),
        ));
    }
    if p.n_words == 0 {
        return Err(bad("n_words", "empty word vocabulary".into()));
    }
    if p.max_position == 0 {
        return Err(bad("max_position", "position table cannot be empty".into()));
    }
    if p.n_tokens + p.n_seq_entities == 0 {
        return Err(bad("sequence", "a plan needs tokens or entities".into()));
    }
    if p.n_mlm_targets > p.n_tokens {
        return Err(bad(
            "n_mlm_targets",
            format!("{} MLM targets but only {} tokens", p.n_mlm_targets, p.n_tokens),
        ));
    }
    if p.n_mer_targets > p.n_seq_entities {
        return Err(bad(
            "n_mer_targets",
            format!("{} MER targets but only {} entities", p.n_mer_targets, p.n_seq_entities),
        ));
    }
    if p.n_mer_targets > 0 && p.n_candidates == 0 {
        return Err(bad("n_candidates", "MER targets need a non-empty candidate set".into()));
    }
    Ok(())
}

/// Run every static analysis over `plan`: lower to IR, abstract-interpret
/// value ranges, and plan the intermediate arena.
///
/// Returns `Err` only for *structural* failures (invalid fields, shapes
/// that cannot combine). Unprovable numeric invariants — NaN
/// reachability, unbounded activations, degenerate normalizers — are
/// returned inside [`PlanAnalysis::errors`] so callers can inspect the
/// per-tensor ranges of a deliberately degenerate configuration instead
/// of losing everything to the first error.
pub fn analyze_model_plan(plan: &ModelPlan) -> Result<PlanAnalysis, AuditError> {
    analyze_model_plan_with(plan, &[])
}

/// [`analyze_model_plan`] with per-source range overrides (see
/// [`crate::analyze_ranges_with`]): the dtype-aware entry point. Callers
/// holding a quantized parameter set pass `(source label,
/// quantized_range(max_scale))` pairs so every downstream proof covers
/// the int8 forward's actual value envelope.
pub fn analyze_model_plan_with(
    plan: &ModelPlan,
    overrides: &[(String, crate::range::ValueRange)],
) -> Result<PlanAnalysis, AuditError> {
    let ir = lower_model_plan(plan)?;
    let ranges = crate::range::analyze_ranges_with(&ir, overrides);
    let arena = plan_arena(&ir);
    let report = PlanReport {
        seq_len: plan.n_tokens + plan.n_seq_entities,
        n_ops: ir.len(),
        peak_elements: ir.peak_elements(),
        peak_bytes: arena.peak_bytes,
        reuse_factor: arena.reuse_factor,
    };
    Ok(PlanAnalysis {
        ranges: ranges.ranges,
        errors: ranges.errors,
        masked_weight_bound: ranges.masked_weight_bound,
        arena,
        ir,
        report,
    })
}

/// Symbolically execute and verify the full forward pass described by
/// `plan`.
///
/// Thin wrapper over [`analyze_model_plan`] preserving the original
/// contract: any dimension the runtime would assert on *and* any numeric
/// invariant the abstract interpreter cannot prove surfaces as a typed
/// [`AuditError`]; a clean plan yields the [`PlanReport`].
pub fn check_model_plan(plan: &ModelPlan) -> Result<PlanReport, AuditError> {
    let analysis = analyze_model_plan(plan)?;
    if let Some(e) = analysis.errors.first() {
        return Err(e.clone());
    }
    Ok(analysis.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's TinyBERT configuration at a realistic sequence size.
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

    #[test]
    fn paper_configuration_checks_clean() {
        let report = check_model_plan(&paper_plan()).expect("paper config is valid");
        assert_eq!(report.seq_len, 44);
        // Four blocks plus embedding and both heads: a real tape.
        assert!(report.n_ops > 50);
        // The entity table [926136, 312] dominates the symbolic peak.
        assert!(report.peak_elements >= (926135 + 1) * 312);
        // Liveness finds real buffer reuse across the four blocks.
        assert!(report.reuse_factor > 1.0, "reuse {}", report.reuse_factor);
        assert!(report.peak_bytes > 0);
    }

    #[test]
    fn analysis_proves_paper_ranges_finite_and_nan_free() {
        let a = analyze_model_plan(&paper_plan()).expect("paper plan analyzes");
        assert!(a.errors.is_empty(), "unexpected: {:?}", a.errors);
        for (node, range) in a.ir.nodes().iter().zip(&a.ranges) {
            assert!(!range.can_be_nan, "NaN reachable at `{}`", node.label);
            assert!(!range.can_be_inf, "`{}` escapes f32: {range:?}", node.label);
        }
        // Masked logits provably vanish: even before dropout, a §4.3-masked
        // pair's softmax weight is bounded by exp(-1e9 + O(1e6)) ≈ 0.
        let bound = a.masked_weight_bound.expect("visibility mask present");
        assert_eq!(bound, 0.0, "exp(-1e9 + small) underflows to exactly 0");
        // Arena strictly beats allocate-everything.
        assert!(a.arena.peak_bytes < a.arena.total_bytes);
    }

    #[test]
    fn quantized_overrides_thread_through_the_analysis() {
        let plan = paper_plan();
        // A realistic post-training scale: the word embedding's values
        // dequantize into ±127·0.01 = ±1.27 — the proof must pick the
        // override up at the source and stay clean downstream.
        let tight = vec![("word_emb".to_string(), crate::range::quantized_range(0.01))];
        let a = analyze_model_plan_with(&plan, &tight).expect("plan analyzes");
        assert!(a.errors.is_empty(), "unexpected: {:?}", a.errors);
        let idx = a.ir.nodes().iter().position(|n| n.label == "word_emb").unwrap();
        assert!(a.ranges[idx].hi <= 1.27 + 1e-9, "range {:?}", a.ranges[idx]);
        assert!(a.ranges[idx].lo >= -1.27 - 1e-9);
        // An absurd scale must break the proofs, not silently pass:
        // 127·1e37 ≫ f32::MAX is an unbounded activation at the source.
        let huge = vec![("word_emb".to_string(), crate::range::quantized_range(1e37))];
        let b = analyze_model_plan_with(&plan, &huge).expect("still structurally valid");
        assert!(
            b.errors.iter().any(|e| matches!(e, AuditError::UnboundedActivation { .. })),
            "expected UnboundedActivation, got {:?}",
            b.errors
        );
        // Labels matching no source are ignored, not an error.
        let stray = vec![("no_such_param".to_string(), crate::range::quantized_range(0.5))];
        let c = analyze_model_plan_with(&plan, &stray).expect("plan analyzes");
        assert!(c.errors.is_empty());
    }

    #[test]
    fn zero_eps_is_a_degenerate_normalizer_not_a_panic() {
        let mut plan = paper_plan();
        plan.numerics.ln_eps = 0.0;
        match check_model_plan(&plan).expect_err("eps = 0 cannot be proven safe") {
            AuditError::DegenerateNormalizer { tensor, eps } => {
                assert_eq!(eps, 0.0);
                assert!(tensor.contains("ln_embed"), "first degenerate norm is `{tensor}`");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn huge_init_bound_is_an_unbounded_activation() {
        let mut plan = paper_plan();
        // 2e38 + 2e38 escapes f32::MAX ≈ 3.4e38 at the very first add.
        plan.numerics.embed_init_bound = 2e38;
        assert!(matches!(check_model_plan(&plan), Err(AuditError::UnboundedActivation { .. })));
    }

    #[test]
    fn infinite_mask_penalty_makes_nan_reachable_at_softmax() {
        let mut plan = paper_plan();
        // This is exactly why the runtime uses -1e9 instead of -inf: a row
        // whose visible set is empty would softmax all--inf logits into
        // exp(-inf + inf) = NaN. The analysis cannot prove row-level
        // visibility from shapes alone, so -inf penalties are rejected.
        plan.numerics.mask_penalty = f64::NEG_INFINITY;
        match check_model_plan(&plan).expect_err("-inf mask penalty is unprovable") {
            AuditError::NanReachable { op, tensor } => {
                assert_eq!(op, "softmax");
                assert!(tensor.contains("block0"), "first NaN origin is `{tensor}`");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn indivisible_heads_fail_before_any_ops() {
        let plan = ModelPlan { n_heads: 5, ..paper_plan() };
        match check_model_plan(&plan).expect_err("312 % 5 != 0") {
            AuditError::BadConfig { field, .. } => assert_eq!(field, "d_model % n_heads"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn too_many_targets_fail() {
        let plan = ModelPlan { n_mlm_targets: 25, ..paper_plan() };
        assert!(matches!(
            check_model_plan(&plan),
            Err(AuditError::BadConfig { field: "n_mlm_targets", .. })
        ));
        let plan = ModelPlan { n_mer_targets: 21, ..paper_plan() };
        assert!(matches!(
            check_model_plan(&plan),
            Err(AuditError::BadConfig { field: "n_mer_targets", .. })
        ));
    }

    #[test]
    fn mer_without_candidates_fails() {
        let plan = ModelPlan { n_candidates: 0, ..paper_plan() };
        assert!(matches!(
            check_model_plan(&plan),
            Err(AuditError::BadConfig { field: "n_candidates", .. })
        ));
    }

    #[test]
    fn token_only_and_entity_only_sequences_check() {
        let t =
            ModelPlan { n_seq_entities: 0, n_mention_tokens: 0, n_mer_targets: 0, ..paper_plan() };
        assert!(check_model_plan(&t).is_ok());
        let e = ModelPlan { n_tokens: 0, n_mlm_targets: 0, ..paper_plan() };
        assert!(check_model_plan(&e).is_ok());
        let empty = ModelPlan { n_tokens: 0, n_seq_entities: 0, ..t };
        assert!(check_model_plan(&empty).is_err());
    }

    #[test]
    fn empty_mentions_are_tolerated() {
        let plan = ModelPlan { n_mention_tokens: 0, ..paper_plan() };
        assert!(check_model_plan(&plan).is_ok());
    }
}
