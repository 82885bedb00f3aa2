//! Row-population dataset (§6.5): given a partial table (caption and 0 or
//! more seed subject entities), rank candidate entities for the subject
//! column. All methods share the same candidate-generation module
//! ([`TableSearchIndex`]).

use crate::search::TableSearchIndex;
use std::collections::HashSet;
use turl_data::{EntityId, Table};

/// One row-population query.
#[derive(Debug, Clone)]
pub struct RowPopulationExample {
    /// Index of the table within its split.
    pub table_idx: usize,
    /// Table caption (the retrieval query when no seeds are given).
    pub caption: String,
    /// Seed subject entities (length = the experiment's `#seed`).
    pub seeds: Vec<EntityId>,
    /// Remaining subject entities to retrieve (the gold set).
    pub gold: Vec<EntityId>,
    /// Candidates from the shared candidate-generation module.
    pub candidates: Vec<EntityId>,
}

impl RowPopulationExample {
    /// Candidate-set recall against the gold set.
    pub fn recall(&self) -> f64 {
        super::metrics::candidate_recall(&self.candidates, &self.gold)
    }
}

/// Build queries from `tables` (a held-out split) using `search` built over
/// the pre-training corpus. Tables need more than `min_subject_entities`
/// subject entities; the first `n_seed` become seeds, the rest are gold.
pub fn build_row_population(
    tables: &[Table],
    search: &TableSearchIndex,
    n_seed: usize,
    min_subject_entities: usize,
    k_tables: usize,
) -> Vec<RowPopulationExample> {
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let subjects: Vec<EntityId> = t.subject_entities().iter().map(|e| e.id).collect();
        if subjects.len() < min_subject_entities || subjects.len() <= n_seed {
            continue;
        }
        let seeds: Vec<EntityId> = subjects[..n_seed].to_vec();
        let gold: Vec<EntityId> = subjects[n_seed..].to_vec();
        // query by caption, and additionally by seed entities when
        // available (the paper's module uses either; the union raises the
        // shared candidate recall for every ranker equally)
        let mut hits = search.query_caption(&t.full_caption(), k_tables);
        if !seeds.is_empty() {
            hits.extend(search.query_entities(&seeds, k_tables));
        }
        let mut candidates: Vec<EntityId> = Vec::new();
        let mut seen: HashSet<EntityId> = seeds.iter().copied().collect();
        for (tbl, _) in hits {
            for &e in search.subject_entities(tbl) {
                if seen.insert(e) {
                    candidates.push(e);
                }
            }
        }
        out.push(RowPopulationExample {
            table_idx: ti,
            caption: t.full_caption(),
            seeds,
            gold,
            candidates,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::pipeline::{generate_splits, PipelineConfig};
    use crate::world::{KnowledgeBase, WorldConfig};

    fn setup() -> (Vec<Table>, Vec<Table>, TableSearchIndex) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(81));
        let cfg = PipelineConfig { max_eval_tables: 40, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 250, ..CorpusConfig::tiny(82) }, &cfg);
        let search = TableSearchIndex::build(&splits.train);
        (splits.train, splits.test, search)
    }

    #[test]
    fn zero_seed_queries_use_caption() {
        let (_, test, search) = setup();
        let qs = build_row_population(&test, &search, 0, 4, 10);
        assert!(!qs.is_empty());
        for q in &qs {
            assert!(q.seeds.is_empty());
            assert!(!q.gold.is_empty());
        }
    }

    #[test]
    fn one_seed_queries_exclude_seed_from_gold_and_candidates() {
        let (_, test, search) = setup();
        let qs = build_row_population(&test, &search, 1, 4, 10);
        for q in &qs {
            assert_eq!(q.seeds.len(), 1);
            assert!(!q.gold.contains(&q.seeds[0]));
            assert!(!q.candidates.contains(&q.seeds[0]));
        }
    }

    #[test]
    fn candidates_have_nonzero_recall_overall() {
        let (_, test, search) = setup();
        let qs = build_row_population(&test, &search, 1, 4, 20);
        assert!(!qs.is_empty());
        let mean_recall: f64 = qs.iter().map(|q| q.recall()).sum::<f64>() / qs.len() as f64;
        assert!(mean_recall > 0.2, "candidate recall {mean_recall}");
    }

    #[test]
    fn candidates_are_deduplicated() {
        let (_, test, search) = setup();
        for q in build_row_population(&test, &search, 0, 4, 20) {
            let set: HashSet<_> = q.candidates.iter().collect();
            assert_eq!(set.len(), q.candidates.len());
        }
    }
}
