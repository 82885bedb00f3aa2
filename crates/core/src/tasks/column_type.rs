//! Column type annotation (§6.3): multi-label classification of entity
//! columns with the Eqn. 9/10 head.

use super::{column_repr, encode_table_with_channels, multi_hot, predict_labels, InputChannels};
use crate::finetune::{train_batched, FinetuneConfig, FinetuneStats};
use crate::model::TurlModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_data::{Table, Vocab};
use turl_kb::tasks::metrics::PrfAccumulator;
use turl_kb::tasks::ColumnTypeExample;
use turl_nn::{Forward, Linear, ParamStore};

/// TURL fine-tuned for column type annotation.
pub struct ColumnTypeModel {
    /// The (pre-trained) encoder.
    pub model: TurlModel,
    /// All parameters, including the task head.
    pub store: ParamStore,
    head: Linear,
    channels: InputChannels,
    n_labels: usize,
}

impl ColumnTypeModel {
    /// Wrap a pre-trained model with a fresh `2d → n_labels` head.
    pub fn new(
        model: TurlModel,
        mut store: ParamStore,
        n_labels: usize,
        channels: InputChannels,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(model.cfg.seed ^ 0xC01);
        let d = model.d_model();
        let head = Linear::new(&mut store, &mut rng, "ct.head", 2 * d, n_labels, true);
        Self { model, store, head, channels, n_labels }
    }

    fn logits(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        rng: &mut StdRng,
        tables: &[Table],
        vocab: &Vocab,
        ex: &ColumnTypeExample,
    ) -> turl_tensor::Var {
        let (inst, enc) = encode_table_with_channels(
            &tables[ex.table_idx],
            vocab,
            &self.model.cfg.linearize,
            self.model.cfg.use_visibility,
            self.channels,
        );
        let h = self.model.encode(f, store, rng, &enc);
        let hc = column_repr(f, h, &inst, ex.col, self.model.d_model());
        self.head.forward(f, store, hc)
    }

    /// Fine-tune on labeled columns with binary cross-entropy (Eqn. 11).
    pub fn train(
        &mut self,
        tables: &[Table],
        vocab: &Vocab,
        examples: &[ColumnTypeExample],
        cfg: &FinetuneConfig,
    ) -> FinetuneStats {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC02);
        let mut store = std::mem::take(&mut self.store);
        let stats = train_batched(cfg, &mut store, examples.len(), |i, store| {
            let ex = &examples[i];
            let mut f = Forward::new(store);
            let logits = self.logits(&mut f, store, &mut rng, tables, vocab, ex);
            let targets = multi_hot(&ex.labels, self.n_labels);
            let loss = f.graph.bce_with_logits(logits, targets);
            let out = f.graph.value(loss).item();
            f.backprop(loss, store);
            out
        });
        self.store = store;
        stats
    }

    /// Predicted label indices for one column.
    pub fn predict(&self, tables: &[Table], vocab: &Vocab, ex: &ColumnTypeExample) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut f = Forward::inference(&self.store);
        let logits = self.logits(&mut f, &self.store, &mut rng, tables, vocab, ex);
        predict_labels(f.graph.value(logits))
    }

    /// Micro P/R/F1 over a split.
    pub fn evaluate(
        &self,
        tables: &[Table],
        vocab: &Vocab,
        examples: &[ColumnTypeExample],
    ) -> PrfAccumulator {
        let mut acc = PrfAccumulator::new();
        for ex in examples {
            let pred = self.predict(tables, vocab, ex);
            acc.add_sets(&pred, &ex.labels);
        }
        acc
    }

    /// Per-label F1 for selected labels (Table 6 of the paper).
    pub fn per_label_f1(
        &self,
        tables: &[Table],
        vocab: &Vocab,
        examples: &[ColumnTypeExample],
        labels: &[usize],
    ) -> Vec<f64> {
        let mut accs = vec![PrfAccumulator::new(); labels.len()];
        for ex in examples {
            let pred = self.predict(tables, vocab, ex);
            for (ai, &l) in labels.iter().enumerate() {
                let p: Vec<usize> = pred.iter().copied().filter(|&x| x == l).collect();
                let g: Vec<usize> = ex.labels.iter().copied().filter(|&x| x == l).collect();
                accs[ai].add_sets(&p, &g);
            }
        }
        accs.iter().map(PrfAccumulator::f1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::pretrain::Pretrainer;
    use crate::tasks::clone_pretrained;
    use turl_kb::tasks::build_column_type_task;
    use turl_kb::{
        generate_corpus, identify_relational, partition, CorpusConfig, KnowledgeBase,
        PipelineConfig, WorldConfig,
    };

    struct Fixture {
        kb: KnowledgeBase,
        splits: turl_kb::CorpusSplits,
        vocab: Vocab,
        task: turl_kb::tasks::ColumnTypeTask,
    }

    fn fixture() -> Fixture {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(23));
        let pcfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
        let splits = partition(
            identify_relational(
                generate_corpus(&kb, &CorpusConfig { n_tables: 80, ..CorpusConfig::tiny(24) }),
                &pcfg,
            ),
            &pcfg,
        );
        let texts: Vec<String> = splits
            .train
            .iter()
            .flat_map(|t| {
                let mut v = vec![t.full_caption()];
                v.extend(t.headers.clone());
                v.extend(t.rows.iter().flatten().map(|c| c.text.clone()));
                v
            })
            .collect();
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        let task =
            build_column_type_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 3);
        assert!(!task.train.is_empty() && !task.test.is_empty());
        Fixture { kb, splits, vocab, task }
    }

    fn fresh_model(fx: &Fixture) -> ColumnTypeModel {
        let cfg = TurlConfig::tiny(5);
        let (n_words, n_entities) = (fx.vocab.len(), fx.kb.n_entities());
        let pt = Pretrainer::new(cfg, n_words, n_entities, fx.vocab.mask_id() as usize);
        let (model, store) = clone_pretrained(cfg, n_words, n_entities, &pt.store);
        ColumnTypeModel::new(model, store, fx.task.label_types.len(), InputChannels::full())
    }

    #[test]
    fn column_type_finetune_beats_chance() {
        let fx = fixture();
        let mut ct = fresh_model(&fx);
        let n_train = fx.task.train.len().min(40);
        let stats = ct.train(
            &fx.splits.train,
            &fx.vocab,
            &fx.task.train[..n_train],
            &FinetuneConfig { epochs: 6, ..Default::default() },
        );
        assert!(stats.final_loss() < stats.epoch_losses[0], "loss should drop");
        let acc = ct.evaluate(&fx.splits.test, &fx.vocab, &fx.task.test);
        assert!(acc.f1() > 0.3, "F1 too low: {}", acc.f1());
    }

    #[test]
    fn three_finetune_steps_keep_their_loss_bits() {
        // Fine-tuning accumulates every example's gradients straight into
        // the store (`Forward::backprop`): `linear` weights as deferred
        // `Xᵀ · dY` products, everything else as dense tensors. The
        // constants are what the commit before deferred products printed
        // for this run of three optimizer steps: the mean loss (two of the
        // batches saw updated weights) and a deferred weight after all
        // three updates. Neither moves with the last bits of the
        // arithmetic, so an FNV-1a digest over the bits of every parameter
        // pins those: it was recorded under the fused multiply-add kernels.
        let fx = fixture();
        let mut ct = fresh_model(&fx);
        let cfg = FinetuneConfig { epochs: 1, ..Default::default() };
        let stats = ct.train(&fx.splits.train, &fx.vocab, &fx.task.train[..24], &cfg);
        assert_eq!(stats.steps, 3);
        let fuse = ct.store.find("turl.fuse.weight").expect("registered");
        let got = (stats.final_loss().to_bits(), ct.store.value(fuse).norm().to_bits());
        assert_eq!(got, (0x3f37_3670, 0x4015_e056), "loss {:#010x} |fuse| {:#010x}", got.0, got.1);
        let bits =
            ct.store.ids().flat_map(|id| ct.store.value(id).data().iter().map(|x| x.to_bits()));
        let digest = bits.flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(digest, 0xdd43_62cb_8262_1bd3, "parameter digest {digest:#018x}");
    }
}
