//! Table retrieval over the pre-training corpus.
//!
//! Used as the shared candidate-generation module for row population
//! (§6.5: "formulates a search query using either the table caption or
//! seed entities and then retrieves tables"; we use tf-idf cosine in place
//! of BM25 — same role, same inputs) and as the kNN searcher of the schema
//! augmentation baseline (§6.7).

use crate::normalize;
use std::collections::{BTreeMap, HashMap};
use turl_data::{tokenize, EntityId, Table};

/// A sparse tf-idf vector: `(term, weight)` sorted by term, so every sum
/// over it runs in one fixed order and a score has the same bits in
/// every process (a `HashMap`'s order is seeded per process).
type TermVector = Vec<(String, f64)>;

/// tf-idf caption index + entity postings over a table corpus.
#[derive(Debug, Clone)]
pub struct TableSearchIndex {
    vectors: Vec<TermVector>,
    idf: HashMap<String, f64>,
    entity_postings: HashMap<EntityId, Vec<usize>>,
    subject_entities: Vec<Vec<EntityId>>,
    headers: Vec<Vec<String>>,
    captions: Vec<String>,
}

impl TableSearchIndex {
    /// Build the index over a corpus (typically the pre-training split).
    pub fn build(tables: &[Table]) -> Self {
        let n = tables.len().max(1);
        // document frequency
        let mut df: HashMap<String, usize> = HashMap::new();
        let token_sets: Vec<Vec<String>> = tables
            .iter()
            .map(|t| {
                let mut toks = tokenize(&t.full_caption());
                toks.sort();
                toks.dedup();
                toks
            })
            .collect();
        for toks in &token_sets {
            for t in toks {
                *df.entry(t.clone()).or_insert(0) += 1;
            }
        }
        let idf: HashMap<String, f64> = df
            .into_iter()
            .map(|(t, d)| (t, ((n as f64 + 1.0) / (d as f64 + 1.0)).ln() + 1.0))
            .collect();

        let mut vectors = Vec::with_capacity(tables.len());
        for t in tables {
            vectors.push(Self::vectorize_with(&idf, &t.full_caption()));
        }

        let mut entity_postings: HashMap<EntityId, Vec<usize>> = HashMap::new();
        let mut subject_entities = Vec::with_capacity(tables.len());
        for (i, t) in tables.iter().enumerate() {
            let subj: Vec<EntityId> = t.subject_entities().iter().map(|e| e.id).collect();
            for &e in &subj {
                entity_postings.entry(e).or_default().push(i);
            }
            subject_entities.push(subj);
        }
        let headers =
            tables.iter().map(|t| t.headers.iter().map(|h| normalize(h)).collect()).collect();
        let captions = tables.iter().map(|t| t.full_caption()).collect();
        Self { vectors, idf, entity_postings, subject_entities, headers, captions }
    }

    fn vectorize_with(idf: &HashMap<String, f64>, text: &str) -> TermVector {
        let mut tf: BTreeMap<String, f64> = BTreeMap::new();
        for tok in tokenize(text) {
            *tf.entry(tok).or_insert(0.0) += 1.0;
        }
        let mut v: TermVector = tf
            .into_iter()
            .map(|(t, f)| {
                let w = f * idf.get(&t).copied().unwrap_or(1.0);
                (t, w)
            })
            .collect();
        let norm = v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            v.iter_mut().for_each(|(_, w)| *w /= norm);
        }
        v
    }

    /// `⟨a, b⟩` over the terms both hold, summed in term order.
    fn dot(a: &TermVector, b: &TermVector) -> f64 {
        let (mut i, mut j, mut sum) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Number of indexed tables.
    pub fn n_tables(&self) -> usize {
        self.vectors.len()
    }

    /// Subject entities of an indexed table.
    pub fn subject_entities(&self, i: usize) -> &[EntityId] {
        &self.subject_entities[i]
    }

    /// Normalized headers of an indexed table.
    pub fn headers(&self, i: usize) -> &[String] {
        &self.headers[i]
    }

    /// Stored caption of an indexed table.
    pub fn caption(&self, i: usize) -> &str {
        &self.captions[i]
    }

    /// Top-`k` tables by caption tf-idf cosine similarity.
    pub fn query_caption(&self, caption: &str, k: usize) -> Vec<(usize, f64)> {
        let q = Self::vectorize_with(&self.idf, caption);
        let mut scored: Vec<(usize, f64)> = self
            .vectors
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                let s = Self::dot(&q, v);
                (s > 0.0).then_some((i, s))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Top-`k` tables sharing the most seed entities in their subject
    /// column (score = shared-seed count).
    pub fn query_entities(&self, seeds: &[EntityId], k: usize) -> Vec<(usize, f64)> {
        let mut counts: HashMap<usize, f64> = HashMap::new();
        for &s in seeds {
            if let Some(tables) = self.entity_postings.get(&s) {
                for &t in tables {
                    *counts.entry(t).or_insert(0.0) += 1.0;
                }
            }
        }
        let mut scored: Vec<(usize, f64)> = counts.into_iter().collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusConfig};
    use crate::pipeline::{identify_relational, PipelineConfig};
    use crate::world::{KnowledgeBase, WorldConfig};

    fn index() -> (Vec<Table>, TableSearchIndex) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(41));
        let tables = identify_relational(
            generate_corpus(&kb, &CorpusConfig::tiny(42)),
            &PipelineConfig::default(),
        );
        let idx = TableSearchIndex::build(&tables);
        (tables, idx)
    }

    #[test]
    fn self_query_ranks_self_first() {
        let (tables, idx) = index();
        let hits = idx.query_caption(&tables[0].full_caption(), 5);
        // identical captions occur in a generated corpus, and float-sum
        // order can perturb ties at the 1e-16 level: assert the semantic
        // property — the top hit's caption matches the query (cosine ~1)
        assert!((hits[0].1 - 1.0).abs() < 1e-9, "top score {}", hits[0].1);
        assert_eq!(
            idx.caption(hits[0].0),
            tables[0].full_caption(),
            "best match must have the query caption"
        );
    }

    #[test]
    fn entity_query_finds_tables_containing_seed() {
        let (tables, idx) = index();
        let t = tables.iter().position(|t| !t.subject_entities().is_empty()).unwrap();
        let seed = tables[t].subject_entities()[0].id;
        let hits = idx.query_entities(&[seed], 10);
        assert!(hits.iter().any(|&(i, _)| i == t));
        for &(i, _) in &hits {
            assert!(idx.subject_entities(i).contains(&seed));
        }
    }

    #[test]
    fn indexes_built_from_the_same_tables_score_bit_identically() {
        // Every sum runs in term order, so neither a second index in this
        // process nor one in another (a `HashMap` reseeds per instance)
        // can move a score by an ulp.
        let (tables, a) = index();
        let b = TableSearchIndex::build(&tables);
        for t in tables.iter().take(12) {
            let caption = t.full_caption();
            let bits = |idx: &TableSearchIndex| {
                let hits = idx.query_caption(&caption, 25);
                hits.into_iter().map(|(i, s)| (i, s.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "query `{caption}`");
        }
    }

    #[test]
    fn scores_descend() {
        let (tables, idx) = index();
        let hits = idx.query_caption(&tables[3].full_caption(), 20);
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn headers_are_normalized() {
        let (_, idx) = index();
        for i in 0..idx.n_tables() {
            for h in idx.headers(i) {
                assert_eq!(h, &normalize(h));
            }
        }
    }

    #[test]
    fn a_nan_weight_costs_its_table_not_the_query() {
        // One table's tf-idf vector poisoned: its score is NaN, which is
        // not a match; every other table still ranks, best first.
        let (tables, mut idx) = index();
        let caption = tables[3].full_caption();
        let clean = idx.query_caption(&caption, 20);
        let poisoned = clean[0].0;
        idx.vectors[poisoned].iter_mut().for_each(|(_, w)| *w = f64::NAN);
        let hits = idx.query_caption(&caption, 20);
        assert!(hits.iter().all(|&(i, s)| i != poisoned && s.is_finite()));
        // (ids only: hash-order float sums wobble in the last bit)
        let ids = |hits: &[(usize, f64)]| hits.iter().map(|h| h.0).collect::<Vec<_>>();
        assert_eq!(ids(&hits[..8]), ids(&clean[1..9]));
    }

    #[test]
    fn unknown_entity_query_is_empty() {
        let (_, idx) = index();
        assert!(idx.query_entities(&[999_999], 5).is_empty());
    }
}
