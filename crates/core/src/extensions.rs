//! Extensions beyond the published system — the paper's future-work
//! direction (2): "Incorporating the rich information contained in an
//! external KB into pre-training".
//!
//! [`AuxRelationObjective`] adds a third pre-training loss: for entity
//! pairs that sit in the same row (subject cell, object cell), predict the
//! KB relation holding between them (or "no relation") from their
//! contextualized representations. This injects explicit relational
//! supervision on top of the purely co-occurrence-driven MER signal.

use crate::input::EncodedInput;
use crate::pretrain::Pretrainer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use turl_data::{EntityPosition, TableInstance};
use turl_kb::KnowledgeBase;
use turl_nn::{Forward, Linear, ParamStore};
use turl_tensor::Var;

/// One labeled pair: indices (into `inst.entities`) of the subject and
/// object cells, and the relation label (`n_relations` = "no relation").
pub type RelationPair = (usize, usize, usize);

/// The auxiliary KB-relation-prediction objective.
pub struct AuxRelationObjective {
    head: Linear,
    pairs: HashMap<String, Vec<RelationPair>>,
    /// Loss weight relative to MLM + MER.
    pub weight: f32,
    n_classes: usize,
}

impl AuxRelationObjective {
    /// Extract labeled same-row pairs for one table: every
    /// (subject-cell, object-cell) row pair, labeled with the first KB
    /// relation that holds, or the "no relation" class. At most
    /// `max_pairs` pairs are kept (positives first).
    fn relation_pairs(
        inst: &TableInstance,
        kb: &KnowledgeBase,
        max_pairs: usize,
        rng: &mut StdRng,
    ) -> Vec<RelationPair> {
        let no_rel = kb.schema.relations.len();
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for (i, a) in inst.entities.iter().enumerate() {
            let EntityPosition::Cell { row: ra, .. } = a.position else {
                continue;
            };
            if !a.is_subject {
                continue;
            }
            for (j, b) in inst.entities.iter().enumerate() {
                let EntityPosition::Cell { row: rb, .. } = b.position else {
                    continue;
                };
                if i == j || b.is_subject || ra != rb {
                    continue;
                }
                let label =
                    kb.facts_of(a.entity).iter().find(|&&(_, o)| o == b.entity).map(|&(r, _)| r);
                match label {
                    Some(r) => positives.push((i, j, r)),
                    None => negatives.push((i, j, no_rel)),
                }
            }
        }
        positives.shuffle(rng);
        negatives.shuffle(rng);
        // keep a bounded, positive-heavy mix
        let n_pos = positives.len().min(max_pairs * 3 / 4 + 1);
        let n_neg = negatives.len().min(max_pairs.saturating_sub(n_pos));
        positives.truncate(n_pos);
        positives.extend(negatives.into_iter().take(n_neg));
        positives
    }

    /// Build the objective over a pre-encoded corpus and register its head
    /// in `store`.
    pub fn build(
        store: &mut ParamStore,
        d_model: usize,
        kb: &KnowledgeBase,
        data: &[(TableInstance, EncodedInput)],
        weight: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_classes = kb.schema.relations.len() + 1;
        let head = Linear::new(store, &mut rng, "aux_rel.head", 2 * d_model, n_classes, true);
        let mut pairs = HashMap::new();
        for (inst, _) in data {
            let p = Self::relation_pairs(inst, kb, 8, &mut rng);
            if !p.is_empty() {
                pairs.insert(inst.table_id.clone(), p);
            }
        }
        Self { head, pairs, weight, n_classes }
    }

    /// Number of output classes (relations + "no relation").
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Fraction of corpus tables that contribute labeled pairs.
    pub fn coverage(&self, n_tables: usize) -> f64 {
        self.pairs.len() as f64 / n_tables.max(1) as f64
    }

    /// Relation-prediction loss for one encoded table, if it has pairs.
    pub fn loss(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        h: Var,
        inst: &TableInstance,
        enc: &EncodedInput,
    ) -> Option<Var> {
        let pairs = self.pairs.get(&inst.table_id)?;
        let rows_s: Vec<usize> = pairs.iter().map(|&(i, _, _)| enc.entity_row(i)).collect();
        let rows_o: Vec<usize> = pairs.iter().map(|&(_, j, _)| enc.entity_row(j)).collect();
        let targets: Vec<usize> = pairs.iter().map(|&(_, _, r)| r).collect();
        let hs = f.graph.index_select0(h, &rows_s);
        let ho = f.graph.index_select0(h, &rows_o);
        let cat = f.graph.concat_cols(&[hs, ho]);
        let logits = self.head.forward(f, store, cat);
        let ce = f.graph.cross_entropy(logits, &targets);
        Some(f.graph.scale(ce, self.weight))
    }

    /// Relation-prediction accuracy over a held-out encoded split
    /// (evaluation of the extension).
    pub fn accuracy<R: Rng>(
        &self,
        pt: &Pretrainer,
        kb: &KnowledgeBase,
        data: &[(TableInstance, EncodedInput)],
        rng: &mut R,
        max_pairs: usize,
    ) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut pair_rng = StdRng::seed_from_u64(0);
        for (inst, enc) in data {
            let pairs = Self::relation_pairs(inst, kb, 8, &mut pair_rng);
            if pairs.is_empty() {
                continue;
            }
            let mut f = Forward::inference(&pt.store);
            let h = pt.model.encode(&mut f, &pt.store, rng, enc);
            for (i, j, r) in pairs {
                let rows = [enc.entity_row(i)];
                let hs = f.graph.index_select0(h, &rows);
                let rows_o = [enc.entity_row(j)];
                let ho = f.graph.index_select0(h, &rows_o);
                let cat = f.graph.concat_cols(&[hs, ho]);
                let logits = self.head.forward(&mut f, &pt.store, cat);
                if f.graph.value(logits).argmax() == r {
                    correct += 1;
                }
                total += 1;
                if total >= max_pairs {
                    return correct as f64 / total as f64;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::input::encode_tables;
    use turl_data::Vocab;
    use turl_kb::{
        generate_corpus, identify_relational, CooccurrenceIndex, CorpusConfig, PipelineConfig,
        WorldConfig,
    };

    fn setup() -> (KnowledgeBase, Vocab, Vec<(TableInstance, EncodedInput)>, CooccurrenceIndex) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(700));
        let tables = identify_relational(
            generate_corpus(&kb, &CorpusConfig { n_tables: 50, ..CorpusConfig::tiny(701) }),
            &PipelineConfig::default(),
        );
        let vocab = Vocab::from_tables(&tables, []);
        let cfg = TurlConfig::tiny(702);
        let data = encode_tables(&tables, &vocab, &cfg);
        let cooccur = CooccurrenceIndex::build(&tables);
        (kb, vocab, data, cooccur)
    }

    #[test]
    fn relation_pairs_are_correctly_labeled() {
        let (kb, _, data, _) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut n_pos = 0;
        for (inst, _) in &data {
            for (i, j, r) in AuxRelationObjective::relation_pairs(inst, &kb, 8, &mut rng) {
                let s = inst.entities[i].entity;
                let o = inst.entities[j].entity;
                if r < kb.schema.relations.len() {
                    assert!(kb.has_fact(s, r, o), "labeled pair must be a KB fact");
                    n_pos += 1;
                } else {
                    assert!(!kb.facts_of(s).iter().any(|&(_, obj)| obj == o));
                }
            }
        }
        assert!(n_pos > 10, "expected positive pairs in a generated corpus: {n_pos}");
    }

    #[test]
    fn aux_objective_trains_and_improves_relation_accuracy() {
        let (kb, vocab, data, cooccur) = setup();
        let cfg = TurlConfig::tiny(703);
        let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        let aux =
            AuxRelationObjective::build(&mut pt.store, pt.model.d_model(), &kb, &data, 0.5, 704);
        assert!(aux.coverage(data.len()) > 0.3, "coverage {}", aux.coverage(data.len()));
        let mut rng = StdRng::seed_from_u64(2);
        let acc0 = aux.accuracy(&pt, &kb, &data, &mut rng, 100);
        pt.set_aux_relations(aux);
        pt.train(&data, &cooccur, 8);
        let aux = pt.take_aux_relations().expect("aux objective still installed");
        let acc1 = aux.accuracy(&pt, &kb, &data, &mut rng, 100);
        assert!(
            acc1 > acc0,
            "auxiliary relation prediction did not improve: {acc0:.3} -> {acc1:.3}"
        );
    }
}
