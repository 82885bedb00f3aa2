//! The "BERT-based" relation-extraction baseline (§6.4): TURL's encoder
//! over the concatenated table metadata ("treating the concatenated table
//! metadata as a sentence, and the headers of the two columns as entity
//! mentions"), with no visibility mask and no table pre-training — the
//! Figure 6 / Table 7 comparison point.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use turl_core::{EncodedInput, TurlConfig, TurlModel};
use turl_data::{tokenize, Table, Vocab};
use turl_kb::tasks::metrics::{average_precision, mean_average_precision, PrfAccumulator};
use turl_kb::tasks::RelationExample;
use turl_nn::{Adam, AdamConfig, Forward, Linear, ParamStore, TransformerConfig};
use turl_tensor::Tensor;

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct BertReConfig {
    /// Encoder size (kept identical to TURL's for a fair comparison).
    pub encoder: TransformerConfig,
    /// Maximum input tokens.
    pub max_tokens: usize,
    /// Learning rate.
    pub lr: f32,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for BertReConfig {
    fn default() -> Self {
        Self {
            encoder: TransformerConfig::tiny(),
            max_tokens: 48,
            lr: 1e-3,
            batch_size: 8,
            seed: 0,
        }
    }
}

/// The baseline model.
pub struct BertStyleRe {
    cfg: BertReConfig,
    store: ParamStore,
    encoder: TurlModel,
    head: Linear,
    n_labels: usize,
    cls_id: usize,
}

impl BertStyleRe {
    /// Create the baseline for a token vocabulary and label space.
    pub fn new(cfg: BertReConfig, vocab: &Vocab, n_labels: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let turl = TurlConfig {
            encoder: cfg.encoder,
            max_position: cfg.max_tokens,
            use_visibility: false,
            ..TurlConfig::small(cfg.seed)
        };
        // No entity ever enters the sequence: the entity table is the
        // `[MASK]` row alone.
        let encoder = TurlModel::new(&mut store, &mut rng, turl, vocab.len(), 0);
        let d = cfg.encoder.d_model;
        let head = Linear::new(&mut store, &mut rng, "bert.head", d, n_labels, true);
        Self { cfg, store, encoder, head, n_labels, cls_id: vocab.cls_id() as usize }
    }

    /// `[CLS] caption subject-header object-header` as one sentence: token
    /// type 0 throughout, positions `0..n`, no entity cells, no mask.
    fn input(&self, vocab: &Vocab, tables: &[Table], ex: &RelationExample) -> EncodedInput {
        let t = &tables[ex.table_idx];
        let mut ids = vec![self.cls_id];
        let push_text = |text: &str, ids: &mut Vec<usize>| {
            for tok in tokenize(text) {
                ids.push(vocab.id_or_unk(&tok) as usize);
            }
        };
        push_text(&t.full_caption(), &mut ids);
        if let Some(h) = t.headers.get(ex.subj_col) {
            push_text(h, &mut ids);
        }
        if let Some(h) = t.headers.get(ex.obj_col) {
            push_text(h, &mut ids);
        }
        ids.truncate(self.cfg.max_tokens);
        EncodedInput {
            token_types: vec![0; ids.len()],
            token_pos: (0..ids.len()).collect(),
            token_ids: ids,
            entities: Vec::new(),
            mask: None,
        }
    }

    /// The head over the encoder's `[CLS]` row.
    fn logits(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        rng: &mut StdRng,
        input: &EncodedInput,
    ) -> turl_tensor::Var {
        let h = self.encoder.encode(f, store, rng, input);
        let cls = f.graph.index_select0(h, &[0]);
        self.head.forward(f, store, cls)
    }

    /// Train for `epochs`, optionally evaluating MAP on `eval` after every
    /// optimizer step (the Figure 6 convergence curve). Returns
    /// `(per-step MAP curve, steps)`.
    pub fn train_with_curve(
        &mut self,
        vocab: &Vocab,
        tables: &[Table],
        examples: &[RelationExample],
        epochs: usize,
        curve_eval: Option<(&[Table], &[RelationExample], usize)>,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xB0);
        let mut opt = Adam::new(AdamConfig { lr: self.cfg.lr, ..Default::default() });
        let mut curve = Vec::new();
        let mut step_count = 0usize;
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..examples.len()).collect();
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch_size) {
                let mut parts = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let ex = &examples[i];
                    let input = self.input(vocab, tables, ex);
                    let mut f = Forward::new(&self.store);
                    let logits = self.logits(&mut f, &self.store, &mut rng, &input);
                    let mut targets = Tensor::zeros(vec![1, self.n_labels]);
                    for &l in &ex.labels {
                        targets.data_mut()[l] = 1.0;
                    }
                    let loss = f.graph.bce_with_logits(logits, targets);
                    f.graph.backward(loss);
                    parts.push(f.take_grads());
                }
                let norm = self.store.reduce(&parts).grad_norm;
                if opt.step_clipped(&mut self.store, norm, 5.0).non_finite {
                    continue;
                }
                step_count += 1;
                if let Some((eval_tables, eval_ex, every)) = curve_eval {
                    if step_count.is_multiple_of(every) {
                        curve.push(self.map(vocab, eval_tables, eval_ex));
                    }
                }
            }
        }
        curve
    }

    /// Score one example.
    pub fn score(&self, vocab: &Vocab, tables: &[Table], ex: &RelationExample) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0);
        let input = self.input(vocab, tables, ex);
        let mut f = Forward::inference(&self.store);
        let logits = self.logits(&mut f, &self.store, &mut rng, &input);
        f.graph.value(logits).data().to_vec()
    }

    /// Micro P/R/F1.
    pub fn evaluate(
        &self,
        vocab: &Vocab,
        tables: &[Table],
        examples: &[RelationExample],
    ) -> PrfAccumulator {
        let mut acc = PrfAccumulator::new();
        for ex in examples {
            let scores = self.score(vocab, tables, ex);
            let mut pred: Vec<usize> = (0..scores.len()).filter(|&i| scores[i] > 0.0).collect();
            if pred.is_empty() {
                let best = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                pred.push(best);
            }
            acc.add_sets(&pred, &ex.labels);
        }
        acc
    }

    /// Mean average precision.
    pub fn map(&self, vocab: &Vocab, tables: &[Table], examples: &[RelationExample]) -> f64 {
        let aps: Vec<f64> = examples
            .iter()
            .map(|ex| {
                let scores = self.score(vocab, tables, ex);
                let mut order: Vec<usize> = (0..scores.len()).collect();
                order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
                average_precision(&order, &ex.labels)
            })
            .collect();
        mean_average_precision(&aps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_kb::tasks::build_relation_task;
    use turl_kb::{generate_splits, CorpusConfig, KnowledgeBase, PipelineConfig, WorldConfig};

    #[test]
    fn bert_re_learns_header_to_relation_mapping() {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(83));
        let pcfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 80, ..CorpusConfig::tiny(84) }, &pcfg);
        let vocab = Vocab::from_tables(&splits.train, []);
        let task = build_relation_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 2);
        assert!(!task.train.is_empty());
        let mut model =
            BertStyleRe::new(BertReConfig::default(), &vocab, task.label_relations.len());
        let n = task.train.len().min(60);
        let map_before = model.map(&vocab, &splits.train, &task.train[..n]);
        model.train_with_curve(&vocab, &splits.train, &task.train[..n], 8, None);
        let map_after = model.map(&vocab, &splits.train, &task.train[..n]);
        assert!(map_after > map_before, "training must help: {map_before} -> {map_after}");
        assert!(map_after > 0.4, "train MAP too low: {map_after}");

        // A NaN score is ranked, not a panic: poison one label's bias.
        let bias = model.store.find("bert.head.bias").expect("registered");
        model.store.value_mut(bias).data_mut()[0] = f32::NAN;
        assert!(model.score(&vocab, &splits.train, &task.train[0])[0].is_nan());
        assert!(model.map(&vocab, &splits.train, &task.train[..n]).is_finite());
        assert!(model.evaluate(&vocab, &splits.train, &task.train[..n]).f1().is_finite());
    }
}
