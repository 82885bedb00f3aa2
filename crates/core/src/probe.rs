//! The §6.8 evaluation probe: object-entity prediction on the validation
//! set, used to compare pre-training variants (Figure 7a/7b).
//!
//! "Given a table in our validation set, we predict each object entity by
//! first masking the entity cell (both e^e and e^m) and obtaining a
//! contextualized representation of the `[MASK]` ... then applying Eqn. 6.
//! We compare the top-1 predicted entity with the ground truth."

use crate::input::EncodedInput;
use crate::model::TurlModel;
use crate::pretrain::build_candidates;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_data::{EntityPosition, TableInstance};
use turl_kb::CooccurrenceIndex;
use turl_nn::ParamStore;

/// Top-1 accuracy of object-entity prediction over pre-encoded validation
/// tables. `max_cells` bounds the probed cells for speed.
///
/// Encodes run through the compiled forward plan
/// ([`crate::CompiledForward`]) — graph-free and bit-exact with the
/// tape, so probe numbers are unchanged from the graph implementation
/// while each cell skips the tape/grad bookkeeping.
pub fn object_entity_accuracy(
    model: &TurlModel,
    store: &ParamStore,
    data: &[(TableInstance, EncodedInput)],
    cooccur: &CooccurrenceIndex,
    mask_word_id: usize,
    seed: u64,
    max_cells: usize,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cf = model.compiled();
    let mut correct = 0usize;
    let mut total = 0usize;
    'outer: for (inst, clean) in data {
        let candidates = build_candidates(&mut rng, inst, cooccur, &model.cfg, model.n_entities());
        for (i, item) in inst.entities.iter().enumerate() {
            // object entities only: non-subject content cells
            let is_object =
                matches!(item.position, EntityPosition::Cell { .. }) && !item.is_subject;
            if !is_object {
                continue;
            }
            let gold = item.entity as usize;
            let Some(gold_pos) = candidates.iter().position(|&c| c == gold) else {
                continue;
            };
            let mut enc = clean.clone();
            enc.mask_entity(i, true, mask_word_id);
            let h = cf.encode(model, store, &enc).expect("compiled probe encode");
            let logits = cf
                .mer_logits(model, store, &h, &[enc.entity_row(i)], &candidates)
                .expect("compiled probe mer head");
            let pred = logits.argmax();
            if pred == gold_pos {
                correct += 1;
            }
            total += 1;
            if total >= max_cells {
                break 'outer;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::input::encode_tables;
    use crate::pretrain::Pretrainer;
    use turl_data::Vocab;
    use turl_kb::{
        generate_corpus, identify_relational, CorpusConfig, KnowledgeBase, PipelineConfig,
        WorldConfig,
    };

    #[test]
    fn probe_runs_and_pretraining_helps() {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(17));
        let tables = identify_relational(
            generate_corpus(&kb, &CorpusConfig { n_tables: 30, ..CorpusConfig::tiny(18) }),
            &PipelineConfig::default(),
        );
        let vocab = Vocab::from_tables(&tables, []);
        let cfg = TurlConfig::tiny(3);
        let data = encode_tables(&tables, &vocab, &cfg);
        let cooccur = CooccurrenceIndex::build(&tables);
        let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let acc_before = object_entity_accuracy(
            &pt.model,
            &pt.store,
            &data,
            &cooccur,
            vocab.mask_id() as usize,
            0,
            60,
        );
        pt.train(&data, &cooccur, 8);
        let acc_after = object_entity_accuracy(
            &pt.model,
            &pt.store,
            &data,
            &cooccur,
            vocab.mask_id() as usize,
            0,
            60,
        );
        assert!(
            acc_after > acc_before,
            "probe accuracy did not improve: {acc_before} -> {acc_after}"
        );
    }
}
