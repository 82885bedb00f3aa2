//! Relation extraction (§6.4): multi-label classification of subject–
//! object column pairs with the Eqn. 12 head.

use super::{column_repr, encode_table_with_channels, multi_hot, predict_labels, InputChannels};
use crate::compiled::rank_descending;
use crate::finetune::{train_batched, FinetuneConfig, FinetuneStats};
use crate::model::TurlModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_data::{Table, Vocab};
use turl_kb::tasks::metrics::{average_precision, mean_average_precision, PrfAccumulator};
use turl_kb::tasks::RelationExample;
use turl_nn::{Forward, Linear, ParamStore};

/// TURL fine-tuned for relation extraction.
pub struct RelationModel {
    /// The (pre-trained) encoder.
    pub model: TurlModel,
    /// All parameters, including the task head.
    pub store: ParamStore,
    head: Linear,
    channels: InputChannels,
    n_labels: usize,
}

impl RelationModel {
    /// Wrap a pre-trained model with a fresh `4d → n_labels` head
    /// (`[h_c; h_c']` of Eqn. 12).
    pub fn new(
        model: TurlModel,
        mut store: ParamStore,
        n_labels: usize,
        channels: InputChannels,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(model.cfg.seed ^ 0xBE1);
        let d = model.d_model();
        let head = Linear::new(&mut store, &mut rng, "re.head", 4 * d, n_labels, true);
        Self { model, store, head, channels, n_labels }
    }

    fn logits(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        rng: &mut StdRng,
        tables: &[Table],
        vocab: &Vocab,
        ex: &RelationExample,
    ) -> turl_tensor::Var {
        let (inst, enc) = encode_table_with_channels(
            &tables[ex.table_idx],
            vocab,
            &self.model.cfg.linearize,
            self.model.cfg.use_visibility,
            self.channels,
        );
        let h = self.model.encode(f, store, rng, &enc);
        let d = self.model.d_model();
        let hc = column_repr(f, h, &inst, ex.subj_col, d);
        let hc2 = column_repr(f, h, &inst, ex.obj_col, d);
        let cat = f.graph.concat_cols(&[hc, hc2]);
        self.head.forward(f, store, cat)
    }

    /// Fine-tune with binary cross-entropy.
    pub fn train(
        &mut self,
        tables: &[Table],
        vocab: &Vocab,
        examples: &[RelationExample],
        cfg: &FinetuneConfig,
    ) -> FinetuneStats {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE2);
        let mut store = std::mem::take(&mut self.store);
        let stats = train_batched(cfg, &mut store, examples.len(), |i, f, store| {
            let ex = &examples[i];
            let logits = self.logits(f, store, &mut rng, tables, vocab, ex);
            let targets = multi_hot(&ex.labels, self.n_labels);
            Some(f.graph.bce_with_logits(logits, targets))
        });
        self.store = store;
        stats
    }

    /// Raw logits for one example (used by MAP evaluation).
    pub fn score(&self, tables: &[Table], vocab: &Vocab, ex: &RelationExample) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut f = Forward::inference(&self.store);
        let logits = self.logits(&mut f, &self.store, &mut rng, tables, vocab, ex);
        f.graph.value(logits).data().to_vec()
    }

    /// Micro P/R/F1 over a split.
    pub fn evaluate(
        &self,
        tables: &[Table],
        vocab: &Vocab,
        examples: &[RelationExample],
    ) -> PrfAccumulator {
        let mut acc = PrfAccumulator::new();
        for ex in examples {
            let scores = self.score(tables, vocab, ex);
            let t = turl_tensor::Tensor::from_vec(vec![1, scores.len()], scores);
            acc.add_sets(&predict_labels(&t), &ex.labels);
        }
        acc
    }

    /// Mean average precision over a split (the Figure 6 convergence
    /// metric).
    pub fn map(&self, tables: &[Table], vocab: &Vocab, examples: &[RelationExample]) -> f64 {
        let aps: Vec<f64> = examples
            .iter()
            .map(|ex| {
                let order = rank_descending(&self.score(tables, vocab, ex));
                average_precision(&order, &ex.labels)
            })
            .collect();
        mean_average_precision(&aps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::pretrain::Pretrainer;
    use crate::tasks::clone_pretrained;
    use turl_kb::tasks::build_relation_task;
    use turl_kb::{generate_splits, CorpusConfig, KnowledgeBase, PipelineConfig, WorldConfig};

    #[test]
    fn relation_finetune_learns() {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(33));
        let pcfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 80, ..CorpusConfig::tiny(34) }, &pcfg);
        let vocab = Vocab::from_tables(&splits.train, []);
        let task = build_relation_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 2);
        assert!(!task.train.is_empty());
        let eval_split = if task.test.is_empty() { &task.validation } else { &task.test };
        let eval_tables = if task.test.is_empty() { &splits.validation } else { &splits.test };
        assert!(!eval_split.is_empty());

        let cfg = TurlConfig::tiny(6);
        let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let (model, store) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
        let mut re =
            RelationModel::new(model, store, task.label_relations.len(), InputChannels::full());
        let n = task.train.len().min(40);
        let stats = re.train(
            &splits.train,
            &vocab,
            &task.train[..n],
            &FinetuneConfig { epochs: 6, ..Default::default() },
        );
        assert!(stats.final_loss() < stats.epoch_losses[0]);
        let map = re.map(eval_tables, &vocab, eval_split);
        assert!(map > 0.3, "MAP too low: {map}");

        // A NaN score is ranked, not a panic: poison one label's bias.
        let bias = re.head.bias.expect("the head has a bias");
        re.store.value_mut(bias).data_mut()[0] = f32::NAN;
        assert!(re.score(eval_tables, &vocab, &eval_split[0])[0].is_nan());
        let poisoned_map = re.map(eval_tables, &vocab, eval_split);
        assert!((0.0..=1.0).contains(&poisoned_map), "MAP {poisoned_map}");
    }
}
