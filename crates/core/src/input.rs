//! Model-ready encoded inputs.
//!
//! An [`EncodedInput`] is a linearized table after masking decisions have
//! been applied: integer ids for every embedding lookup plus the additive
//! visibility mask. Every encoding starts from a linearized table
//! ([`EncodedInput::from_instance`]): pre-training mutates a clean encoding
//! according to a [`crate::MaskPlan`], and the row population, cell
//! filling and schema augmentation queries are partial tables that go
//! through the same linearizer, their `[MASK]` cell or token added after.

use crate::config::TurlConfig;
use turl_audit::SourceKind;
use turl_data::{Table, TableInstance, TokenScope, VisibilityMatrix, Vocab};
use turl_tensor::Tensor;

/// One entity cell, ready for the embedding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityInput {
    /// Row in the entity-embedding table: `0` is the entity `[MASK]`,
    /// entity `e` sits at `e + 1`.
    pub emb_index: usize,
    /// Word ids of the mention; a masked mention is `[mask_word_id]`.
    pub mention: Vec<usize>,
    /// Entity type: 0 topic, 1 subject, 2 object.
    pub type_idx: usize,
}

/// A fully encoded model input.
#[derive(Debug, Clone)]
pub struct EncodedInput {
    /// Metadata token ids.
    pub token_ids: Vec<usize>,
    /// Token type ids (0 caption, 1 header) — `t` in Eqn. 1.
    pub token_types: Vec<usize>,
    /// Token positions within their caption/header — `p` in Eqn. 1.
    pub token_pos: Vec<usize>,
    /// Entity cells.
    pub entities: Vec<EntityInput>,
    /// Additive visibility mask (`[n, n]`), or `None` for full visibility.
    pub mask: Option<Tensor>,
}

/// Linearize and encode each table as `cfg` says (its `linearize` and
/// `use_visibility`), with no masking applied: the input pre-training,
/// probing and serving start from.
pub fn encode_tables(
    tables: &[Table],
    vocab: &Vocab,
    cfg: &TurlConfig,
) -> Vec<(TableInstance, EncodedInput)> {
    tables
        .iter()
        .map(|t| {
            let inst = TableInstance::from_table(t, vocab, &cfg.linearize);
            let enc = EncodedInput::from_instance(&inst, vocab, cfg.use_visibility);
            (inst, enc)
        })
        .collect()
}

impl EncodedInput {
    /// Encode a linearized table with no masking applied.
    ///
    /// With `use_visibility = false` the Figure-7a ablation (full
    /// visibility) is produced.
    pub fn from_instance(inst: &TableInstance, vocab: &Vocab, use_visibility: bool) -> Self {
        let mask_word = vocab.mask_id() as usize;
        let token_ids = inst.tokens.iter().map(|t| t.token as usize).collect();
        let token_types = inst
            .tokens
            .iter()
            .map(|t| match t.scope {
                TokenScope::Caption => 0,
                TokenScope::Header(_) => 1,
            })
            .collect();
        let token_pos = inst.tokens.iter().map(|t| t.position).collect();
        let entities = inst
            .entities
            .iter()
            .map(|e| EntityInput {
                emb_index: e.entity as usize + 1,
                mention: if e.mention_tokens.is_empty() {
                    vec![mask_word]
                } else {
                    e.mention_tokens.iter().map(|&t| t as usize).collect()
                },
                type_idx: e.type_index(),
            })
            .collect();
        let mask = use_visibility.then(|| {
            let vm = VisibilityMatrix::build(inst);
            Tensor::from_vec(vec![vm.n(), vm.n()], vm.to_additive_mask(-1e9))
        });
        Self { token_ids, token_types, token_pos, entities, mask }
    }

    /// Total sequence length.
    pub fn seq_len(&self) -> usize {
        self.token_ids.len() + self.entities.len()
    }

    /// Sequence row of entity `i`.
    pub fn entity_row(&self, i: usize) -> usize {
        self.token_ids.len() + i
    }

    /// Mask the linked entity of cell `i` (keep or mask the mention too).
    pub fn mask_entity(&mut self, i: usize, mask_mention: bool, mask_word_id: usize) {
        self.entities[i].emb_index = 0;
        if mask_mention {
            self.entities[i].mention = vec![mask_word_id];
        }
    }

    /// Replace the linked entity of cell `i` with another entity (the MER
    /// random-noise branch).
    pub fn replace_entity(&mut self, i: usize, entity: usize) {
        self.entities[i].emb_index = entity + 1;
    }

    /// Pre-flight validation against a model's vocabulary sizes.
    ///
    /// Serving code calls this before touching [`crate::CompiledForward`]
    /// so adversarial requests (empty tables, ids ≥ vocab, ragged or
    /// non-finite masks) are rejected with a typed message *before* a
    /// plan is compiled for their shape — a garbage request must not
    /// pollute the bounded plan cache. `n_words` is the word-vocabulary
    /// size and `n_entities` the entity count (embedding rows are
    /// `n_entities + 1`; `emb_index` 0 is the `[MASK]` row).
    pub fn validate(&self, n_words: usize, n_entities: usize) -> Result<(), String> {
        let n = self.seq_len();
        if n == 0 {
            return Err("empty input: at least one token or entity cell is required".into());
        }
        if self.token_types.len() != self.token_ids.len()
            || self.token_pos.len() != self.token_ids.len()
        {
            return Err(format!(
                "ragged token columns: {} ids, {} types, {} positions",
                self.token_ids.len(),
                self.token_types.len(),
                self.token_pos.len()
            ));
        }
        if let Some(&bad) = self.token_ids.iter().find(|&&t| t >= n_words) {
            return Err(format!("token id {bad} out of range for vocab of {n_words}"));
        }
        if let Some(&bad) = self.token_types.iter().find(|&&t| t >= 2) {
            return Err(format!("token type {bad} out of range (0 caption, 1 header)"));
        }
        for (i, e) in self.entities.iter().enumerate() {
            if e.emb_index > n_entities {
                return Err(format!(
                    "entity cell {i}: embedding index {} out of range for {n_entities} entities",
                    e.emb_index
                ));
            }
            if e.type_idx >= 3 {
                return Err(format!(
                    "entity cell {i}: type {} out of range (0 topic, 1 subject, 2 object)",
                    e.type_idx
                ));
            }
            if e.mention.is_empty() {
                return Err(format!("entity cell {i}: empty mention (mask it instead)"));
            }
            if let Some(&bad) = e.mention.iter().find(|&&w| w >= n_words) {
                return Err(format!(
                    "entity cell {i}: mention word {bad} out of range for vocab of {n_words}"
                ));
            }
        }
        if let Some(m) = &self.mask {
            if m.shape() != [n, n] {
                return Err(format!("visibility mask shape {:?} != [{n}, {n}]", m.shape()));
            }
            if m.data().iter().any(|v| !v.is_finite()) {
                return Err("visibility mask contains non-finite values".into());
            }
        }
        Ok(())
    }
}

/// What the forward IR's data-dependent nodes read from one
/// [`EncodedInput`]: the index list of every embedding gather and the
/// values of every source that is built per input rather than stored as
/// a parameter. Both executors — the tape in [`crate::TurlModel::encode`]
/// and the arena schedule in [`crate::CompiledForward`] — bind through
/// this one type, so they differ only in how a node is executed.
///
/// The buffers are scratch: a long-lived holder re-[`bind`](Self::bind)s
/// them per input without reallocating.
#[derive(Debug, Default)]
pub(crate) struct InputBinding {
    positions: Vec<usize>,
    entity_ids: Vec<usize>,
    entity_types: Vec<usize>,
    mention_words: Vec<usize>,
    avg_matrix: Vec<f32>,
    zeros: Vec<f32>,
}

impl InputBinding {
    /// Fill the buffers from `input` for a model configured by `cfg`.
    pub(crate) fn bind(&mut self, input: &EncodedInput, cfg: &TurlConfig) {
        self.positions.clear();
        self.positions.extend(input.token_pos.iter().map(|&p| p.min(cfg.max_position - 1)));
        self.entity_ids.clear();
        self.entity_ids.extend(input.entities.iter().map(|e| e.emb_index));
        self.entity_types.clear();
        self.entity_types.extend(input.entities.iter().map(|e| e.type_idx));
        self.mention_words.clear();
        self.mention_words.extend(input.entities.iter().flat_map(|e| e.mention.iter().copied()));

        // Mention-averaging matrix (Eqn. 3): row i holds 1/len(mention_i)
        // over its span of the flattened mention tokens, and stays zero
        // for a mention-less entity.
        let total = self.mention_words.len();
        self.avg_matrix.clear();
        self.avg_matrix.resize(input.entities.len() * total, 0.0);
        let mut off = 0usize;
        for (i, e) in input.entities.iter().enumerate() {
            let inv = 1.0 / e.mention.len().max(1) as f32;
            for _ in 0..e.mention.len() {
                self.avg_matrix[i * total + off] = inv;
                off += 1;
            }
        }
        // With no mention token at all the plan reads `[entities, d]`
        // zeros in place of the averaged rows.
        let zeros = if total == 0 { input.entities.len() * cfg.encoder.d_model } else { 0 };
        self.zeros.clear();
        self.zeros.resize(zeros, 0.0);
    }

    /// Index list of the gather node labelled `label`, if it is one of
    /// the embedding layer's.
    pub(crate) fn indices<'a>(
        &'a self,
        input: &'a EncodedInput,
        label: &str,
    ) -> Option<&'a [usize]> {
        Some(match label {
            "embed.words" => &input.token_ids,
            "embed.token_types" => &input.token_types,
            "embed.positions" => &self.positions,
            "embed.entities" => &self.entity_ids,
            "embed.mention_words" => &self.mention_words,
            "embed.ent_types" => &self.entity_types,
            _ => return None,
        })
    }

    /// The values of a per-input source of `kind`; `None` for a
    /// parameter source, or a mask the input does not carry.
    pub(crate) fn source<'a>(
        &'a self,
        input: &'a EncodedInput,
        kind: &SourceKind,
    ) -> Option<&'a [f32]> {
        match kind {
            SourceKind::Mask => input.mask.as_ref().map(Tensor::data),
            SourceKind::AvgMatrix => Some(&self.avg_matrix),
            SourceKind::ZeroConst => Some(&self.zeros),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_data::{Cell, EntityRef, LinearizeConfig, Table};

    fn instance() -> (TableInstance, Vocab) {
        let t = Table {
            id: "t".into(),
            page_title: "Films".into(),
            section_title: String::new(),
            caption: "by director".into(),
            topic_entity: Some(EntityRef { id: 7, mention: "topic guy".into() }),
            headers: vec!["film".into(), "director".into()],
            subject_column: 0,
            rows: vec![vec![Cell::linked(1, "alpha"), Cell::linked(2, "beta gamma")]],
        };
        let vocab = Vocab::build(
            ["films by director film alpha beta gamma topic guy"].iter().map(|s| &**s),
            1,
        );
        (TableInstance::from_table(&t, &vocab, &LinearizeConfig::default()), vocab)
    }

    #[test]
    fn encoding_layout() {
        let (inst, vocab) = instance();
        let enc = EncodedInput::from_instance(&inst, &vocab, true);
        assert_eq!(enc.token_ids.len(), inst.tokens.len());
        assert_eq!(enc.entities.len(), 3); // topic + 2 cells
        assert_eq!(enc.seq_len(), inst.seq_len());
        assert_eq!(enc.entities[0].type_idx, 0);
        assert_eq!(enc.entities[1].type_idx, 1);
        assert_eq!(enc.entities[2].type_idx, 2);
        // entity ids are shifted by one for the [MASK] row
        assert_eq!(enc.entities[1].emb_index, 2);
        let m = enc.mask.as_ref().unwrap();
        assert_eq!(m.shape(), &[enc.seq_len(), enc.seq_len()]);
    }

    #[test]
    fn token_types_and_positions() {
        let (inst, vocab) = instance();
        let enc = EncodedInput::from_instance(&inst, &vocab, false);
        assert!(enc.mask.is_none());
        // caption tokens first with type 0, then headers with type 1
        assert_eq!(enc.token_types[0], 0);
        assert_eq!(*enc.token_types.last().unwrap(), 1);
        assert_eq!(enc.token_pos[0], 0);
        assert_eq!(enc.token_pos[1], 1);
        // header positions restart at 0
        let first_header = enc.token_types.iter().position(|&t| t == 1).unwrap();
        assert_eq!(enc.token_pos[first_header], 0);
    }

    #[test]
    fn entity_masking_mutations() {
        let (inst, vocab) = instance();
        let mut enc = EncodedInput::from_instance(&inst, &vocab, true);
        let mask_word = vocab.mask_id() as usize;
        enc.mask_entity(1, true, mask_word);
        assert_eq!(enc.entities[1].emb_index, 0);
        assert_eq!(enc.entities[1].mention, vec![mask_word]);
        enc.mask_entity(2, false, mask_word);
        assert_eq!(enc.entities[2].emb_index, 0);
        assert_ne!(enc.entities[2].mention, vec![mask_word], "mention kept");
        enc.replace_entity(2, 5);
        assert_eq!(enc.entities[2].emb_index, 6);
    }

    #[test]
    fn multiword_mentions_encoded() {
        let (inst, vocab) = instance();
        let enc = EncodedInput::from_instance(&inst, &vocab, true);
        assert_eq!(enc.entities[2].mention.len(), 2); // "beta gamma"
    }
}
