//! Schema augmentation (§6.7): recommend headers from a header vocabulary
//! given a caption and zero or a few seed headers. "We concatenate the
//! table caption, seed headers and a `[MASK]` token as input ... the output
//! for `[MASK]` is then used to predict the headers."

use super::query_table;
use crate::compiled::rank_descending;
use crate::finetune::{train_batched, FinetuneConfig, FinetuneStats};
use crate::input::EncodedInput;
use crate::model::TurlModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_data::{TableInstance, TokenItem, TokenScope, Vocab};
use turl_kb::tasks::metrics::{average_precision, mean_average_precision};
use turl_kb::tasks::{HeaderVocab, SchemaAugExample};
use turl_nn::{Embedding, Forward, Linear, ParamStore};
use turl_tensor::{GradForm, Tensor, Var};

/// TURL fine-tuned for schema augmentation.
pub struct SchemaAugModel {
    /// The (pre-trained) encoder.
    pub model: TurlModel,
    /// All parameters including the head.
    pub store: ParamStore,
    header_emb: Embedding,
    proj: Linear,
    n_headers: usize,
}

impl SchemaAugModel {
    /// Wrap a pre-trained model with a learned header-embedding output
    /// layer over `vocab`.
    pub fn new(model: TurlModel, mut store: ParamStore, vocab_size: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(model.cfg.seed ^ 0x5AE);
        let d = model.d_model();
        let header_emb = Embedding::new(&mut store, &mut rng, "sa.header_emb", vocab_size, d);
        let proj = Linear::new(&mut store, &mut rng, "sa.proj", d, d, true);
        Self { model, store, header_emb, proj, n_headers: vocab_size }
    }

    /// Build the query, a table of the example's caption and seed headers
    /// and no rows, followed by a `[MASK]` token. Returns the encoding and
    /// the sequence row of the `[MASK]`.
    fn encode_query(
        &self,
        vocab: &Vocab,
        headers: &HeaderVocab,
        ex: &SchemaAugExample,
    ) -> (EncodedInput, usize) {
        let seed_headers = ex.seeds.iter().map(|&s| headers.header(s).to_string()).collect();
        let query = query_table(ex.caption.clone(), seed_headers, Vec::new());
        let mut inst = TableInstance::from_table(&query, vocab, &self.model.cfg.linearize);
        let mask = TokenItem { token: vocab.mask_id(), scope: TokenScope::Caption, position: 0 };
        inst.tokens.push(mask);
        (EncodedInput::from_instance(&inst, vocab, false), inst.tokens.len() - 1)
    }

    fn logits(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        rng: &mut StdRng,
        vocab: &Vocab,
        headers: &HeaderVocab,
        ex: &SchemaAugExample,
    ) -> Var {
        let (enc, mask_row) = self.encode_query(vocab, headers, ex);
        let h = self.model.encode(f, store, rng, &enc);
        let sel = f.graph.index_select0(h, &[mask_row]);
        let q = self.proj.forward(f, store, sel);
        let hw = f.param(store, self.header_emb.weight, GradForm::Dense);
        f.graph.matmul_nt(q, hw)
    }

    /// Fine-tune with binary cross-entropy over the header vocabulary.
    pub fn train(
        &mut self,
        vocab: &Vocab,
        headers: &HeaderVocab,
        examples: &[SchemaAugExample],
        cfg: &FinetuneConfig,
    ) -> FinetuneStats {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5AF);
        let mut store = std::mem::take(&mut self.store);
        let n_headers = self.n_headers;
        let stats = train_batched(cfg, &mut store, examples.len(), |i, f, store| {
            let ex = &examples[i];
            let logits = self.logits(f, store, &mut rng, vocab, headers, ex);
            let mut targets = Tensor::zeros(vec![1, n_headers]);
            for &g in &ex.gold {
                targets.data_mut()[g] = 1.0;
            }
            Some(f.graph.bce_with_logits(logits, targets))
        });
        self.store = store;
        stats
    }

    /// Rank the header vocabulary for a query (seeds excluded).
    pub fn rank(&self, vocab: &Vocab, headers: &HeaderVocab, ex: &SchemaAugExample) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut f = Forward::inference(&self.store);
        let logits = self.logits(&mut f, &self.store, &mut rng, vocab, headers, ex);
        let mut order = rank_descending(f.graph.value(logits).data());
        order.retain(|i| !ex.seeds.contains(i));
        order
    }

    /// MAP over a split (Table 10).
    pub fn map(&self, vocab: &Vocab, headers: &HeaderVocab, examples: &[SchemaAugExample]) -> f64 {
        let aps: Vec<f64> = examples
            .iter()
            .map(|ex| average_precision(&self.rank(vocab, headers, ex), &ex.gold))
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
    use turl_kb::tasks::{build_header_vocab, build_schema_augmentation};
    use turl_kb::{generate_splits, CorpusConfig, KnowledgeBase, PipelineConfig, WorldConfig};

    #[test]
    fn query_encoding_is_pinned() {
        let (_, splits, vocab, model, store) = crate::tasks::tests::golden_world();
        let headers = build_header_vocab(&splits.train, 2);
        let ex = &build_schema_augmentation(&splits.test, &headers, 2)[0];
        let query =
            SchemaAugModel::new(model, store, headers.len()).encode_query(&vocab, &headers, ex);
        assert_eq!(
            crate::tasks::tests::render_query(query),
            "[12, 48, 5, 6, 22, 163, 174, 2] [0, 0, 0, 0, 1, 1, 1, 0] [0, 1, 2, 3, 0, 0, 1, 0] [] @7"
        );
    }

    #[test]
    fn schema_augmentation_learns_caption_header_correlation() {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(73));
        let pcfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 100, ..CorpusConfig::tiny(74) }, &pcfg);
        let vocab = Vocab::from_tables(&splits.train, []);
        let headers = build_header_vocab(&splits.train, 2);
        let train_ex = build_schema_augmentation(&splits.train, &headers, 0);
        let eval_ex = build_schema_augmentation(&splits.test, &headers, 0);
        assert!(!train_ex.is_empty() && !eval_ex.is_empty());

        let cfg = TurlConfig::tiny(11);
        let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let (model, store) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
        let mut sa = SchemaAugModel::new(model, store, headers.len());
        let random_map = sa.map(&vocab, &headers, &eval_ex);
        let n = train_ex.len().min(60);
        sa.train(
            &vocab,
            &headers,
            &train_ex[..n],
            &FinetuneConfig { epochs: 8, ..Default::default() },
        );
        let trained_map = sa.map(&vocab, &headers, &eval_ex);
        assert!(trained_map > random_map, "training did not help: {random_map} -> {trained_map}");

        // A NaN score is ranked, not a panic: poison one header's
        // embedding. The rest keep their order.
        let clean = sa.rank(&vocab, &headers, &eval_ex[0]);
        let poisoned = clean[1];
        let d = sa.header_emb.dim;
        sa.store.value_mut(sa.header_emb.weight).data_mut()[poisoned * d..][..d].fill(f32::NAN);
        let ranked = sa.rank(&vocab, &headers, &eval_ex[0]);
        let finite = |r: &[usize]| r.iter().copied().filter(|&h| h != poisoned).collect::<Vec<_>>();
        assert_eq!(finite(&ranked), finite(&clean));
        assert_eq!(ranked.iter().filter(|&&h| h == poisoned).count(), 1);
    }
}
