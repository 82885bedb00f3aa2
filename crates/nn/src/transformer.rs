//! Hyper-parameters of the Transformer encoder (post-layer-norm, BERT
//! style). What a block computes is defined once, by the IR lowering in
//! `turl-audit`.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of a Transformer encoder stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Number of stacked blocks (`N` in the paper).
    pub n_layers: usize,
    /// Hidden dimension (`d_model`).
    pub d_model: usize,
    /// Feed-forward inner dimension (`d_intermediate`).
    pub d_intermediate: usize,
    /// Number of attention heads (`k`).
    pub n_heads: usize,
    /// Dropout probability used throughout.
    pub dropout: f32,
    /// Layer-norm variance epsilon. Defaults (also when absent from a
    /// serialized config) to the BERT-standard `1e-5`; the static range
    /// analysis proves the normalizer denominator nonzero from this
    /// value, so `0` is rejected at model construction.
    #[serde(default = "default_ln_eps")]
    pub ln_eps: f32,
}

fn default_ln_eps() -> f32 {
    1e-5
}

impl TransformerConfig {
    /// The paper's pre-training configuration (TinyBERT-sized):
    /// `N = 4, d_model = 312, d_intermediate = 1200, k = 12`.
    pub fn paper() -> Self {
        Self {
            n_layers: 4,
            d_model: 312,
            d_intermediate: 1200,
            n_heads: 12,
            dropout: 0.1,
            ln_eps: default_ln_eps(),
        }
    }

    /// A CPU-scale configuration used by the experiment harness.
    pub fn small() -> Self {
        Self {
            n_layers: 2,
            d_model: 64,
            d_intermediate: 128,
            n_heads: 4,
            dropout: 0.1,
            ln_eps: default_ln_eps(),
        }
    }

    /// A minimal configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            n_layers: 1,
            d_model: 16,
            d_intermediate: 32,
            n_heads: 2,
            dropout: 0.0,
            ln_eps: default_ln_eps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_4_4() {
        let c = TransformerConfig::paper();
        assert_eq!(c.n_layers, 4);
        assert_eq!(c.d_model, 312);
        assert_eq!(c.d_intermediate, 1200);
        assert_eq!(c.n_heads, 12);
    }
}
