//! Cell filling (§6.6): predict the object entity for a subject entity and
//! an object header. "Since cell filling is very similar to the MER
//! pre-training task, we do not fine-tune the model" — the pre-trained MER
//! head ranks the candidates directly.

use super::query_table;
use crate::compiled::rank_descending;
use crate::input::EncodedInput;
use crate::model::TurlModel;
use turl_data::{Cell, Table, TableInstance, Vocab};
use turl_kb::tasks::metrics::hit_at_k;
use turl_kb::tasks::CellFillingExample;
use turl_kb::KnowledgeBase;
use turl_nn::ParamStore;

/// Zero-shot cell filler built on the pre-trained MER head.
pub struct CellFiller<'a> {
    /// The pre-trained model.
    pub model: &'a TurlModel,
    /// Its parameters.
    pub store: &'a ParamStore,
}

impl<'a> CellFiller<'a> {
    /// Wrap a pre-trained model.
    pub fn new(model: &'a TurlModel, store: &'a ParamStore) -> Self {
        Self { model, store }
    }

    /// Build the query, a one-row table under the source table's caption:
    /// the subject cell under its header and a masked object cell under
    /// the target header. Returns the encoding and the masked cell.
    fn encode_query(
        &self,
        vocab: &Vocab,
        kb: &KnowledgeBase,
        table: &Table,
        ex: &CellFillingExample,
    ) -> (EncodedInput, usize) {
        let subj_header = table.headers.get(table.subject_column).cloned().unwrap_or_default();
        let headers = vec![subj_header, ex.target_header.clone()];
        // The object cell's entity and mention are masked below.
        let row = vec![Cell::linked(ex.subject, &kb.entity(ex.subject).name), Cell::linked(0, "")];
        let query = query_table(table.full_caption(), headers, vec![row]);
        let inst = TableInstance::from_table(&query, vocab, &self.model.cfg.linearize);
        let mut enc = EncodedInput::from_instance(&inst, vocab, false);
        enc.mask_entity(1, true, vocab.mask_id() as usize);
        (enc, 1)
    }

    /// Rank the example's candidates with Eqn. 6 (best first), in the
    /// order `turl serve` ranks the same logits ([`rank_descending`]).
    pub fn rank(
        &self,
        vocab: &Vocab,
        kb: &KnowledgeBase,
        tables: &[Table],
        ex: &CellFillingExample,
    ) -> Vec<u32> {
        if ex.candidates.is_empty() {
            return Vec::new();
        }
        let (enc, mask_cell) = self.encode_query(vocab, kb, &tables[ex.table_idx], ex);
        let mut cf = self.model.compiled();
        let h = cf.encode(self.model, self.store, &enc).expect("compiled query encode");
        let cands: Vec<usize> = ex.candidates.iter().map(|(e, _)| *e as usize).collect();
        let logits = cf
            .mer_logits(self.model, self.store, &h, &[enc.entity_row(mask_cell)], &cands)
            .expect("candidates are KB entities");
        rank_descending(logits.data()).into_iter().map(|i| ex.candidates[i].0).collect()
    }

    /// P@K over instances whose candidate set contains the gold entity
    /// (the Table 9 protocol).
    pub fn precision_at(
        &self,
        vocab: &Vocab,
        kb: &KnowledgeBase,
        tables: &[Table],
        examples: &[CellFillingExample],
        ks: &[usize],
    ) -> Vec<f64> {
        let mut hits = vec![0usize; ks.len()];
        let mut total = 0usize;
        for ex in examples {
            if !ex.gold_in_candidates() {
                continue;
            }
            total += 1;
            let ranked = self.rank(vocab, kb, tables, ex);
            for (i, &k) in ks.iter().enumerate() {
                if hit_at_k(&ranked, &ex.gold, k) {
                    hits[i] += 1;
                }
            }
        }
        ks.iter()
            .enumerate()
            .map(|(i, _)| if total == 0 { 0.0 } else { hits[i] as f64 / total as f64 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::pretrain::Pretrainer;
    use turl_kb::tasks::build_cell_filling;
    use turl_kb::{generate_splits, CooccurrenceIndex, CorpusConfig, PipelineConfig, WorldConfig};

    fn setup() -> (KnowledgeBase, Vocab, Vec<Table>, Vec<CellFillingExample>) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(63));
        let pcfg = PipelineConfig { max_eval_tables: 16, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 120, ..CorpusConfig::tiny(64) }, &pcfg);
        let vocab = Vocab::from_tables(&splits.train, []);
        let cooccur = CooccurrenceIndex::build(&splits.train);
        let examples = build_cell_filling(&splits.test, &cooccur, 3, true);
        assert!(!examples.is_empty());
        (kb, vocab, splits.test, examples)
    }

    #[test]
    fn query_encoding_is_pinned() {
        let (kb, splits, vocab, model, store) = crate::tasks::tests::golden_world();
        let cooccur = CooccurrenceIndex::build(&splits.train);
        let ex = &build_cell_filling(&splits.test, &cooccur, 3, true)[0];
        let query = CellFiller::new(&model, &store).encode_query(
            &vocab,
            &kb,
            &splits.test[ex.table_idx],
            ex,
        );
        assert_eq!(
            crate::tasks::tests::render_query(query),
            "[12, 48, 5, 6, 22, 163, 174] [0, 0, 0, 0, 1, 1, 1] [0, 1, 2, 3, 0, 0, 1] [(40, [164, 99], 1), (0, [2], 2)] @1"
        );
    }

    #[test]
    fn cell_filler_ranks_candidates() {
        let (kb, vocab, tables, examples) = setup();
        let cfg = TurlConfig::tiny(10);
        let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let filler = CellFiller::new(&pt.model, &pt.store);
        let ps = filler.precision_at(
            &vocab,
            &kb,
            &tables,
            &examples[..40.min(examples.len())],
            &[1, 3, 5, 10],
        );
        assert_eq!(ps.len(), 4);
        // P@K must be monotone in K
        for w in ps.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "P@K not monotone: {ps:?}");
        }
    }

    #[test]
    fn a_nan_score_is_ranked_not_a_panic() {
        let (kb, vocab, tables, examples) = setup();
        // Four candidates other than the subject, whose row the query embeds.
        let subject = examples[0].subject;
        let ex = &CellFillingExample {
            candidates: (0..5).filter(|&e| e != subject).map(|e| (e, Vec::new())).collect(),
            ..examples[0].clone()
        };
        let cfg = TurlConfig::tiny(10);
        let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let clean = CellFiller::new(&pt.model, &pt.store).rank(&vocab, &kb, &tables, ex);
        // Poison one candidate's embedding row: its logit becomes NaN.
        let poisoned = ex.candidates[1].0;
        let d = pt.model.d_model();
        let ent_emb = pt.store.value_mut(pt.model.ent_emb.weight);
        ent_emb.data_mut()[(poisoned as usize + 1) * d..][..d].fill(f32::NAN);
        let ranked = CellFiller::new(&pt.model, &pt.store).rank(&vocab, &kb, &tables, ex);
        // Every candidate is still ranked once, the finite ones in their
        // clean order.
        assert_eq!(ranked.len(), ex.candidates.len());
        let finite = |r: &[u32]| r.iter().copied().filter(|&e| e != poisoned).collect::<Vec<_>>();
        assert_eq!(finite(&ranked), finite(&clean));
        assert_eq!(ranked.iter().filter(|&&e| e == poisoned).count(), 1);
    }
}
