//! Row population (§6.5): rank candidate subject entities for a partial
//! table, scoring a `[MASK]` cell against candidate entity embeddings
//! (Eqn. 13).

use super::query_table;
use crate::compiled::rank_descending;
use crate::finetune::{train_batched, FinetuneConfig, FinetuneStats};
use crate::input::EncodedInput;
use crate::model::TurlModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_data::{Cell, TableInstance, Vocab};
use turl_kb::tasks::metrics::{average_precision, candidate_recall, mean_average_precision};
use turl_kb::tasks::RowPopulationExample;
use turl_kb::KnowledgeBase;
use turl_nn::{Forward, Linear, ParamStore};
use turl_tensor::{Tensor, Var};

/// TURL fine-tuned for row population.
pub struct RowPopulationModel {
    /// The (pre-trained) encoder.
    pub model: TurlModel,
    /// All parameters including the head.
    pub store: ParamStore,
    proj: Linear,
}

impl RowPopulationModel {
    /// Wrap a pre-trained model with the Eqn. 13 `LINEAR` head.
    pub fn new(model: TurlModel, mut store: ParamStore) -> Self {
        let mut rng = StdRng::seed_from_u64(model.cfg.seed ^ 0x509);
        let d = model.d_model();
        let proj = Linear::new(&mut store, &mut rng, "rp.proj", d, d, true);
        Self { model, store, proj }
    }

    /// Build the query, a one-column table under the example's caption: a
    /// subject cell per seed, then a masked subject cell whose
    /// representation ranks the candidates. Returns the encoding and the
    /// masked cell.
    fn encode_query(
        &self,
        vocab: &Vocab,
        kb: &KnowledgeBase,
        ex: &RowPopulationExample,
    ) -> (EncodedInput, usize) {
        let mut rows: Vec<Vec<Cell>> =
            ex.seeds.iter().map(|&s| vec![Cell::linked(s, &kb.entity(s).name)]).collect();
        rows.push(vec![Cell::linked(0, "")]);
        let query = query_table(ex.caption.clone(), Vec::new(), rows);
        let inst = TableInstance::from_table(&query, vocab, &self.model.cfg.linearize);
        let mut enc = EncodedInput::from_instance(&inst, vocab, false);
        enc.mask_entity(ex.seeds.len(), true, vocab.mask_id() as usize);
        (enc, ex.seeds.len())
    }

    fn candidate_scores(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        h: Var,
        row: usize,
        candidates: &[u32],
    ) -> Var {
        let sel = f.graph.index_select0(h, &[row]);
        let q = self.proj.forward(f, store, sel);
        let shifted: Vec<usize> = candidates.iter().map(|&c| c as usize + 1).collect();
        let cand = self.model.ent_emb.forward(f, store, &shifted);
        f.graph.matmul_nt(q, cand)
    }

    /// Fine-tune with the multi-label soft-margin objective of Eqn. 13.
    pub fn train(
        &mut self,
        vocab: &Vocab,
        kb: &KnowledgeBase,
        examples: &[RowPopulationExample],
        cfg: &FinetuneConfig,
    ) -> FinetuneStats {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x50A);
        let usable: Vec<&RowPopulationExample> =
            examples.iter().filter(|e| !e.candidates.is_empty()).collect();
        let mut store = std::mem::take(&mut self.store);
        let stats = train_batched(cfg, &mut store, usable.len(), |i, f, store| {
            let ex = usable[i];
            let (enc, mask_cell) = self.encode_query(vocab, kb, ex);
            let h = self.model.encode(f, store, &mut rng, &enc);
            let row = enc.entity_row(mask_cell);
            let logits = self.candidate_scores(f, store, h, row, &ex.candidates);
            let mut targets = Tensor::zeros(vec![1, ex.candidates.len()]);
            for (j, c) in ex.candidates.iter().enumerate() {
                if ex.gold.contains(c) {
                    targets.data_mut()[j] = 1.0;
                }
            }
            Some(f.graph.bce_with_logits(logits, targets))
        });
        self.store = store;
        stats
    }

    /// Rank an example's candidates (best first).
    pub fn rank(&self, vocab: &Vocab, kb: &KnowledgeBase, ex: &RowPopulationExample) -> Vec<u32> {
        if ex.candidates.is_empty() {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(0);
        let (enc, mask_cell) = self.encode_query(vocab, kb, ex);
        let mut f = Forward::inference(&self.store);
        let h = self.model.encode(&mut f, &self.store, &mut rng, &enc);
        let row = enc.entity_row(mask_cell);
        let logits = self.candidate_scores(&mut f, &self.store, h, row, &ex.candidates);
        let order = rank_descending(f.graph.value(logits).data());
        order.into_iter().map(|i| ex.candidates[i]).collect()
    }

    /// `(MAP, candidate recall)` over a split — the two columns of
    /// Table 8.
    pub fn evaluate(
        &self,
        vocab: &Vocab,
        kb: &KnowledgeBase,
        examples: &[RowPopulationExample],
    ) -> (f64, f64) {
        let mut aps = Vec::new();
        let mut recalls = Vec::new();
        for ex in examples {
            let ranked = self.rank(vocab, kb, ex);
            aps.push(average_precision(&ranked, &ex.gold));
            recalls.push(candidate_recall(&ex.candidates, &ex.gold));
        }
        (
            mean_average_precision(&aps),
            if recalls.is_empty() {
                0.0
            } else {
                recalls.iter().sum::<f64>() / recalls.len() as f64
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::pretrain::Pretrainer;
    use crate::tasks::clone_pretrained;
    use turl_kb::tasks::build_row_population;
    use turl_kb::{generate_splits, CorpusConfig, PipelineConfig, TableSearchIndex, WorldConfig};

    #[test]
    fn query_encoding_is_pinned() {
        let (kb, splits, vocab, model, store) = crate::tasks::tests::golden_world();
        let search = TableSearchIndex::build(&splits.train);
        let ex = &build_row_population(&splits.test, &search, 1, 3, 10)[0];
        let query = RowPopulationModel::new(model, store).encode_query(&vocab, &kb, ex);
        assert_eq!(
            crate::tasks::tests::render_query(query),
            "[12, 48, 5, 6] [0, 0, 0, 0] [0, 1, 2, 3] [(71, [175, 228], 1), (0, [2], 1)] @1"
        );
    }

    #[test]
    fn row_population_trains_and_ranks() {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(53));
        let pcfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 120, ..CorpusConfig::tiny(54) }, &pcfg);
        let vocab = Vocab::from_tables(&splits.train, []);
        let search = TableSearchIndex::build(&splits.train);
        let train_ex = build_row_population(&splits.train, &search, 1, 4, 10);
        let eval_ex = build_row_population(&splits.test, &search, 1, 5, 10);
        assert!(!train_ex.is_empty() && !eval_ex.is_empty());

        let cfg = TurlConfig::tiny(8);
        let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let (model, store) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
        let mut rp = RowPopulationModel::new(model, store);
        let n = train_ex.len().min(40);
        let stats = rp.train(
            &vocab,
            &kb,
            &train_ex[..n],
            &FinetuneConfig { epochs: 4, ..Default::default() },
        );
        assert!(stats.final_loss().is_finite());
        let (map, recall) = rp.evaluate(&vocab, &kb, &eval_ex);
        assert!((0.0..=1.0).contains(&map));
        assert!(recall > 0.0, "candidate recall must be positive");
        // ranked list is a permutation of candidates
        let r = rp.rank(&vocab, &kb, &eval_ex[0]);
        assert_eq!(r.len(), eval_ex[0].candidates.len());

        // A NaN score is ranked, not a panic: poison one candidate's
        // embedding row. The rest keep their order.
        let poisoned = eval_ex[0].candidates[1];
        let d = rp.model.d_model();
        let ent_emb = rp.store.value_mut(rp.model.ent_emb.weight);
        ent_emb.data_mut()[(poisoned as usize + 1) * d..][..d].fill(f32::NAN);
        let ranked = rp.rank(&vocab, &kb, &eval_ex[0]);
        let finite = |r: &[u32]| r.iter().copied().filter(|&e| e != poisoned).collect::<Vec<_>>();
        assert_eq!(finite(&ranked), finite(&r));
        assert_eq!(ranked.iter().filter(|&&e| e == poisoned).count(), 1);
    }
}
