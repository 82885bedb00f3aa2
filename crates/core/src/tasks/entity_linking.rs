//! Entity linking (§6.2): disambiguate cell mentions against candidate
//! entities represented by their KB name, description and types (Eqn. 8).

use super::{encode_table_with_channels, group_by_table, InputChannels};
use crate::finetune::{train_batched, FinetuneConfig, FinetuneStats};
use crate::model::TurlModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_data::{EntityPosition, Table, TableInstance, Vocab};
use turl_kb::tasks::metrics::PrfAccumulator;
use turl_kb::tasks::ElMention;
use turl_kb::KnowledgeBase;
use turl_nn::{Embedding, Forward, Linear, ParamStore};
use turl_tensor::{Tensor, Var};

/// Pre-tokenized candidate metadata from the target KB: names,
/// descriptions (both word ids) and type ids per entity.
#[derive(Debug, Clone)]
pub struct CandidateCatalog {
    /// Word ids of each entity's name.
    pub name_tokens: Vec<Vec<usize>>,
    /// Word ids of each entity's description.
    pub desc_tokens: Vec<Vec<usize>>,
    /// Type ids of each entity.
    pub type_ids: Vec<Vec<usize>>,
    /// Size of the type space.
    pub n_types: usize,
}

impl CandidateCatalog {
    /// Build from the knowledge base using the model vocabulary.
    pub fn build(kb: &KnowledgeBase, vocab: &Vocab) -> Self {
        let name_tokens = kb
            .entities
            .iter()
            .map(|e| vocab.encode(&e.name).into_iter().map(|t| t as usize).collect())
            .collect();
        let desc_tokens = kb
            .entities
            .iter()
            .map(|e| vocab.encode(&e.description).into_iter().map(|t| t as usize).collect())
            .collect();
        let type_ids = kb.entities.iter().map(|e| e.types.clone()).collect();
        Self { name_tokens, desc_tokens, type_ids, n_types: kb.schema.types.len() }
    }
}

/// TURL fine-tuned for entity linking.
pub struct EntityLinkingModel {
    /// The (pre-trained) encoder.
    pub model: TurlModel,
    /// All parameters including the head.
    pub store: ParamStore,
    proj: Linear,
    type_emb: Embedding,
    /// Use candidate descriptions (Table 4 ablation: "w/o entity
    /// description").
    pub use_description: bool,
    /// Use candidate types (Table 4 ablation: "w/o entity type").
    pub use_type: bool,
}

/// A mention with its position resolved inside the linearized table.
struct ResolvedMention<'a> {
    mention: &'a ElMention,
    entity_index: usize,
}

impl EntityLinkingModel {
    /// Wrap a pre-trained model with the Eqn. 8 head: a `d → 3d`
    /// projection plus learned type embeddings.
    pub fn new(
        model: TurlModel,
        mut store: ParamStore,
        n_types: usize,
        use_description: bool,
        use_type: bool,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(model.cfg.seed ^ 0xE1);
        let d = model.d_model();
        let proj = Linear::new(&mut store, &mut rng, "el.proj", d, 3 * d, true);
        let type_emb = Embedding::new(&mut store, &mut rng, "el.type_emb", n_types, d);
        Self { model, store, proj, type_emb, use_description, use_type }
    }

    /// Eqn. 8 candidate representations `[C, 3d]`.
    fn candidate_reprs(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        catalog: &CandidateCatalog,
        candidates: &[u32],
        d: usize,
    ) -> Var {
        let names: Vec<Vec<usize>> =
            candidates.iter().map(|&c| catalog.name_tokens[c as usize].clone()).collect();
        let descs: Vec<Vec<usize>> = candidates
            .iter()
            .map(|&c| {
                if self.use_description {
                    catalog.desc_tokens[c as usize].clone()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let types: Vec<Vec<usize>> = candidates
            .iter()
            .map(|&c| if self.use_type { catalog.type_ids[c as usize].clone() } else { Vec::new() })
            .collect();
        let name_part = mean_embedding_rows(f, store, &self.model.word_emb, &names, d);
        let desc_part = mean_embedding_rows(f, store, &self.model.word_emb, &descs, d);
        let type_part = mean_embedding_rows(f, store, &self.type_emb, &types, d);
        f.graph.concat_cols(&[name_part, desc_part, type_part])
    }

    fn resolve<'a>(inst: &TableInstance, mentions: &[&'a ElMention]) -> Vec<ResolvedMention<'a>> {
        mentions
            .iter()
            .filter_map(|m| {
                let entity_index = inst
                    .entities
                    .iter()
                    .position(|e| e.position == EntityPosition::Cell { row: m.row, col: m.col })?;
                Some(ResolvedMention { mention: m, entity_index })
            })
            .collect()
    }

    /// Fine-tune with per-mention cross-entropy over candidates.
    pub fn train(
        &mut self,
        tables: &[Table],
        vocab: &Vocab,
        catalog: &CandidateCatalog,
        mentions: &[ElMention],
        cfg: &FinetuneConfig,
    ) -> FinetuneStats {
        // group mentions by table so each table is encoded once per step
        let groups = group_by_table(
            mentions.iter().filter(|m| m.candidates.len() > 1).map(|m| (m.table_idx, m)),
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE2);
        let d = self.model.d_model();
        let mut store = std::mem::take(&mut self.store);
        let stats = train_batched(cfg, &mut store, groups.len(), |i, f, store| {
            let (table_idx, ms) = &groups[i];
            let (inst, enc) = encode_table_with_channels(
                &tables[*table_idx],
                vocab,
                &self.model.cfg.linearize,
                self.model.cfg.use_visibility,
                InputChannels::without_embedding(),
            );
            let resolved = Self::resolve(&inst, ms);
            if resolved.is_empty() {
                return None;
            }
            let h = self.model.encode(f, store, &mut rng, &enc);
            let mut losses = Vec::new();
            for r in &resolved {
                let row = inst.entity_seq_index(r.entity_index);
                let sel = f.graph.index_select0(h, &[row]);
                let q = self.proj.forward(f, store, sel);
                let cand = self.candidate_reprs(f, store, catalog, &r.mention.candidates, d);
                let logits = f.graph.matmul_nt(q, cand);
                let gold = r
                    .mention
                    .candidates
                    .iter()
                    .position(|&c| c == r.mention.gold)
                    .expect("training mentions include gold");
                losses.push(f.graph.cross_entropy(logits, &[gold]));
            }
            let mut loss = losses[0];
            for &l in &losses[1..] {
                loss = f.graph.add(loss, l);
            }
            let n = losses.len() as f32;
            Some(f.graph.scale(loss, 1.0 / n))
        });
        self.store = store;
        stats
    }

    /// Predict an entity for every mention (None when no candidates).
    pub fn predict(
        &self,
        tables: &[Table],
        vocab: &Vocab,
        catalog: &CandidateCatalog,
        mentions: &[ElMention],
    ) -> Vec<Option<u32>> {
        let mut rng = StdRng::seed_from_u64(0);
        let d = self.model.d_model();
        let mut out: Vec<Option<u32>> = vec![None; mentions.len()];
        for (table_idx, ms) in
            group_by_table(mentions.iter().enumerate().map(|(i, m)| (m.table_idx, (i, m))))
        {
            let (inst, enc) = encode_table_with_channels(
                &tables[table_idx],
                vocab,
                &self.model.cfg.linearize,
                self.model.cfg.use_visibility,
                InputChannels::without_embedding(),
            );
            let mut f = Forward::inference(&self.store);
            let h = self.model.encode(&mut f, &self.store, &mut rng, &enc);
            for (orig_idx, m) in ms {
                if m.candidates.is_empty() {
                    continue;
                }
                let Some(entity_index) = inst
                    .entities
                    .iter()
                    .position(|e| e.position == EntityPosition::Cell { row: m.row, col: m.col })
                else {
                    // cell truncated by linearization limits: fall back to
                    // the lookup service's top candidate
                    out[orig_idx] = m.candidates.first().copied();
                    continue;
                };
                let row = inst.entity_seq_index(entity_index);
                let sel = f.graph.index_select0(h, &[row]);
                let q = self.proj.forward(&mut f, &self.store, sel);
                let cand = self.candidate_reprs(&mut f, &self.store, catalog, &m.candidates, d);
                let logits = f.graph.matmul_nt(q, cand);
                let best = f.graph.value(logits).argmax();
                out[orig_idx] = Some(m.candidates[best]);
            }
        }
        out
    }

    /// F1/P/R over mentions (Table 4 protocol).
    pub fn evaluate(
        &self,
        tables: &[Table],
        vocab: &Vocab,
        catalog: &CandidateCatalog,
        mentions: &[ElMention],
    ) -> PrfAccumulator {
        let preds = self.predict(tables, vocab, catalog, mentions);
        let mut acc = PrfAccumulator::new();
        for (p, m) in preds.iter().zip(mentions) {
            acc.add_linking(*p, m.gold);
        }
        acc
    }
}

/// Mean embedding rows for a batch of id lists: `[lists.len(), d]`, zero
/// rows for empty lists.
fn mean_embedding_rows(
    f: &mut Forward,
    store: &ParamStore,
    emb: &Embedding,
    lists: &[Vec<usize>],
    d: usize,
) -> Var {
    let flat: Vec<usize> = lists.iter().flatten().copied().collect();
    if flat.is_empty() {
        return f.graph.constant(Tensor::zeros(vec![lists.len(), d]));
    }
    let rows = emb.forward(f, store, &flat);
    let mut avg = Tensor::zeros(vec![lists.len(), flat.len()]);
    let mut off = 0usize;
    for (i, l) in lists.iter().enumerate() {
        let inv = 1.0 / l.len().max(1) as f32;
        for _ in 0..l.len() {
            avg.data_mut()[i * flat.len() + off] = inv;
            off += 1;
        }
    }
    let a = f.graph.constant(avg);
    f.graph.matmul(a, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::pretrain::Pretrainer;
    use crate::tasks::clone_pretrained;
    use turl_kb::tasks::build_entity_linking;
    use turl_kb::{
        generate_splits, CorpusConfig, KnowledgeBase, LookupIndex, PipelineConfig, WorldConfig,
    };

    #[test]
    fn entity_linking_beats_lookup_top1_on_ambiguous_mentions() {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(43));
        let pcfg = PipelineConfig { max_eval_tables: 16, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 70, ..CorpusConfig::tiny(44) }, &pcfg);
        let vocab =
            Vocab::from_tables(&splits.train, kb.entities.iter().map(|e| e.description.as_str()));
        let index = LookupIndex::build(&kb);
        let train_ds = build_entity_linking(&splits.train, &index, 20, true);
        let eval_ds = build_entity_linking(&splits.test, &index, 20, false);
        assert!(!train_ds.mentions.is_empty() && !eval_ds.mentions.is_empty());

        let cfg = TurlConfig::tiny(7);
        let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let (model, store) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
        let catalog = CandidateCatalog::build(&kb, &vocab);
        let mut el = EntityLinkingModel::new(model, store, catalog.n_types, true, true);
        let n = train_ds.mentions.len().min(120);
        el.train(
            &splits.train,
            &vocab,
            &catalog,
            &train_ds.mentions[..n],
            &FinetuneConfig { epochs: 4, ..Default::default() },
        );
        let acc = el.evaluate(&splits.test, &vocab, &catalog, &eval_ds.mentions);
        assert!(acc.f1() > 0.3, "EL F1 too low: {}", acc.f1());
    }

    #[test]
    fn mean_embedding_rows_zero_for_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, &mut rng, "e", 10, 4);
        let mut f = Forward::inference(&store);
        let v = mean_embedding_rows(&mut f, &store, &emb, &[vec![], vec![1, 2]], 4);
        let val = f.graph.value(v);
        assert_eq!(val.shape(), &[2, 4]);
        assert!(val.row(0).iter().all(|&x| x == 0.0));
        assert!(val.row(1).iter().any(|&x| x != 0.0));
    }
}
