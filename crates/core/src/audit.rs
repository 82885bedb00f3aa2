//! Adapters between [`TurlConfig`] and the `turl-audit` static analyzers.
//!
//! `turl-audit` deliberately knows nothing about this crate (the model
//! crate depends on the auditor, not vice versa), so this module
//! translates a [`TurlConfig`] plus corpus statistics into the plain
//! [`ModelPlan`] the symbolic checker consumes, and bundles the §4.4
//! ratio validation that every constructed model must pass.

use crate::config::TurlConfig;
use crate::input::EncodedInput;
use turl_audit::{
    check_model_plan, validate_masking_config, AuditError, ModelPlan, PlanNumerics, PlanReport,
};

/// Shape of the probe sequence used by [`validate_config`]'s plan check.
///
/// Small on purpose: the symbolic check is shape-generic, so a compact
/// sequence exercises every op without slowing model construction.
const PROBE_TOKENS: usize = 8;
const PROBE_ENTITIES: usize = 4;
const PROBE_MENTION_TOKENS: usize = 6;
const PROBE_MLM_TARGETS: usize = 2;
const PROBE_MER_TARGETS: usize = 2;
const PROBE_CANDIDATES: usize = 8;

/// The config-level forward plan: every [`ModelPlan`] field `cfg` and
/// the vocabulary sizes determine, with an empty sequence and no
/// pre-training heads. `n_entities` excludes the `[MASK]` row, matching
/// `TurlModel::new`. Callers fill the sequence from an input with
/// [`plan_for_input`], or name explicit numbers (and head sizes) with
/// struct update syntax.
pub fn model_plan(cfg: &TurlConfig, n_words: usize, n_entities: usize) -> ModelPlan {
    ModelPlan {
        n_layers: cfg.encoder.n_layers,
        d_model: cfg.encoder.d_model,
        d_intermediate: cfg.encoder.d_intermediate,
        n_heads: cfg.encoder.n_heads,
        n_words,
        n_entities,
        max_position: cfg.max_position,
        n_tokens: 0,
        n_seq_entities: 0,
        n_mention_tokens: 0,
        use_visibility: cfg.use_visibility,
        n_mlm_targets: 0,
        n_mer_targets: 0,
        n_candidates: 0,
        numerics: PlanNumerics {
            ln_eps: f64::from(cfg.encoder.ln_eps),
            // The runtime uses -1e9 (see EncodedInput::mask construction);
            // embedding tables keep the default N(0, 0.02) sampler bound.
            ..PlanNumerics::default()
        },
    }
}

/// `base` at the sequence shape of `input`. Masking follows the input,
/// not the config: the runtime applies a visibility mask exactly when
/// the input carries one.
pub fn plan_for_input(base: ModelPlan, input: &EncodedInput) -> ModelPlan {
    ModelPlan {
        n_tokens: input.token_ids.len(),
        n_seq_entities: input.entities.len(),
        n_mention_tokens: input.entities.iter().map(|e| e.mention.len()).sum(),
        use_visibility: input.mask.is_some(),
        ..base
    }
}

/// [`model_plan`] over the probe sequence with both pre-training heads
/// on: the smallest plan whose IR names every parameter of the model.
/// [`validate_config`] type-checks it, `bind_store` reads the parameter
/// shapes off it.
pub(crate) fn probe_plan(cfg: &TurlConfig, n_words: usize, n_entities: usize) -> ModelPlan {
    ModelPlan {
        n_tokens: PROBE_TOKENS,
        n_seq_entities: PROBE_ENTITIES,
        n_mention_tokens: PROBE_MENTION_TOKENS,
        n_mlm_targets: PROBE_MLM_TARGETS,
        n_mer_targets: PROBE_MER_TARGETS,
        n_candidates: PROBE_CANDIDATES.min(n_entities.max(1)),
        ..model_plan(cfg, n_words, n_entities)
    }
}

/// Statically validate `cfg` for a vocabulary of `n_words` words and
/// `n_entities` entities: the §4.4 masking ratios must be well-formed and
/// a full symbolic forward pass (both pre-training heads included) must
/// type-check. Runs in microseconds and allocates no tensors.
pub fn validate_config(
    cfg: &TurlConfig,
    n_words: usize,
    n_entities: usize,
) -> Result<PlanReport, AuditError> {
    validate_masking_config(
        cfg.pretrain.mlm_select_ratio,
        cfg.pretrain.mer_select_ratio,
        cfg.pretrain.mer_mention_keep_share,
    )?;
    check_model_plan(&probe_plan(cfg, n_words, n_entities))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stock_config_validates() {
        for cfg in [TurlConfig::paper(), TurlConfig::small(1), TurlConfig::tiny(1)] {
            let report = validate_config(&cfg, 1000, 500).expect("stock config must validate");
            assert_eq!(report.seq_len, PROBE_TOKENS + PROBE_ENTITIES);
        }
    }

    #[test]
    fn corrupted_ratio_is_caught() {
        let mut cfg = TurlConfig::tiny(1);
        cfg.pretrain.mer_select_ratio = 1.5;
        match validate_config(&cfg, 1000, 500) {
            Err(AuditError::RatioOutOfRange { field, .. }) => {
                assert_eq!(field, "mer_select_ratio");
            }
            other => panic!("expected ratio error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_head_count_is_caught() {
        let mut cfg = TurlConfig::tiny(1);
        cfg.encoder.n_heads = 3; // tiny d_model = 16, not divisible
        assert!(matches!(
            validate_config(&cfg, 1000, 500),
            Err(AuditError::BadConfig { field: "d_model % n_heads", .. })
        ));
    }
}
