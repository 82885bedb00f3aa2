//! EntiTables (Zhang & Balog, SIGIR'17): a generative probabilistic
//! ranker for row population. Candidates are scored by caption-term
//! likelihood when no seeds are given, and by entity co-occurrence
//! similarity once seed entities are available (the strategy the paper
//! reports as working best on validation, §6.5).

use std::collections::{HashMap, HashSet};
use turl_data::{tokenize, EntityId, Table};

/// The EntiTables row-population ranker.
#[derive(Debug, Clone)]
pub struct EntiTables {
    /// entity -> set of train tables (by index) whose subject column has it
    tables_of: HashMap<EntityId, HashSet<usize>>,
    /// entity -> caption term counts aggregated over its tables
    term_counts: HashMap<EntityId, HashMap<String, f64>>,
    /// entity -> total caption terms
    term_totals: HashMap<EntityId, f64>,
    /// background term distribution (for Dirichlet smoothing)
    background: HashMap<String, f64>,
    background_total: f64,
    /// smoothing pseudo-count
    mu: f64,
}

impl EntiTables {
    /// Build statistics over the pre-training corpus.
    pub fn build(tables: &[Table]) -> Self {
        let mut tables_of: HashMap<EntityId, HashSet<usize>> = HashMap::new();
        let mut term_counts: HashMap<EntityId, HashMap<String, f64>> = HashMap::new();
        let mut term_totals: HashMap<EntityId, f64> = HashMap::new();
        let mut background: HashMap<String, f64> = HashMap::new();
        let mut background_total = 0.0;
        for (ti, t) in tables.iter().enumerate() {
            let terms = tokenize(&t.full_caption());
            for term in &terms {
                *background.entry(term.clone()).or_insert(0.0) += 1.0;
                background_total += 1.0;
            }
            for e in t.subject_entities() {
                tables_of.entry(e.id).or_default().insert(ti);
                let counts = term_counts.entry(e.id).or_default();
                for term in &terms {
                    *counts.entry(term.clone()).or_insert(0.0) += 1.0;
                }
                *term_totals.entry(e.id).or_insert(0.0) += terms.len() as f64;
            }
        }
        Self { tables_of, term_counts, term_totals, background, background_total, mu: 50.0 }
    }

    /// `P(term | entity)` with Dirichlet smoothing against the background
    /// caption language model.
    fn p_term(&self, e: EntityId, term: &str) -> f64 {
        let bg = self.background.get(term).copied().unwrap_or(0.0) / self.background_total.max(1.0);
        let cnt = self.term_counts.get(&e).and_then(|c| c.get(term)).copied().unwrap_or(0.0);
        let total = self.term_totals.get(&e).copied().unwrap_or(0.0);
        (cnt + self.mu * bg) / (total + self.mu)
    }

    /// Caption log-likelihood of an entity.
    fn caption_score(&self, e: EntityId, caption_terms: &[String]) -> f64 {
        caption_terms.iter().map(|t| self.p_term(e, t).max(1e-12).ln()).sum()
    }

    /// Co-occurrence similarity of a candidate to the seed set:
    /// `|T(seed) ∩ T(cand)| / |T(seed) ∪ T(cand)|` averaged over seeds.
    fn seed_similarity(&self, e: EntityId, seeds: &[EntityId]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let empty = HashSet::new();
        let te = self.tables_of.get(&e).unwrap_or(&empty);
        let mut sum = 0.0;
        for s in seeds {
            let ts = self.tables_of.get(s).unwrap_or(&empty);
            let inter = te.intersection(ts).count() as f64;
            let union = te.union(ts).count() as f64;
            if union > 0.0 {
                sum += inter / union;
            }
        }
        sum / seeds.len() as f64
    }

    /// Rank candidates: caption likelihood without seeds, entity
    /// similarity with seeds.
    pub fn rank(
        &self,
        caption: &str,
        seeds: &[EntityId],
        candidates: &[EntityId],
    ) -> Vec<EntityId> {
        let terms = tokenize(caption);
        let mut scored: Vec<(EntityId, f64)> = candidates
            .iter()
            .map(|&c| {
                let score = if seeds.is_empty() {
                    self.caption_score(c, &terms)
                } else {
                    self.seed_similarity(c, seeds)
                };
                (c, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.into_iter().map(|(e, _)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_data::Cell;

    fn table(id: &str, caption: &str, subjects: &[u32]) -> Table {
        Table {
            id: id.into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: caption.into(),
            topic_entity: None,
            headers: vec!["name".into()],
            subject_column: 0,
            rows: subjects.iter().map(|&e| vec![Cell::linked(e, format!("e{e}"))]).collect(),
        }
    }

    fn corpus() -> Vec<Table> {
        vec![
            table("a", "films by ray", &[1, 2, 3]),
            table("b", "films by ray classics", &[1, 2, 4]),
            table("c", "football players season", &[10, 11, 12]),
            table("d", "football players transfers", &[10, 11, 13]),
        ]
    }

    #[test]
    fn caption_scoring_prefers_topical_entities() {
        let et = EntiTables::build(&corpus());
        let ranked = et.rank("films by ray", &[], &[10, 1]);
        assert_eq!(ranked[0], 1, "film entity should outrank football entity");
    }

    #[test]
    fn seed_similarity_prefers_cooccurring() {
        let et = EntiTables::build(&corpus());
        let ranked = et.rank("anything", &[1], &[10, 2]);
        assert_eq!(ranked[0], 2, "entity co-occurring with seed should win");
    }

    #[test]
    fn nan_statistics_are_ranked_not_a_panic() {
        // A poisoned smoothing constant makes every term probability NaN;
        // the likelihood floor turns that into a tie, broken by id.
        let mut et = EntiTables::build(&corpus());
        et.mu = f64::NAN;
        assert_eq!(et.rank("films by ray", &[], &[10, 1, 4]), vec![1, 4, 10]);
        assert_eq!(et.rank("films by ray", &[1], &[10, 2]), vec![2, 10], "seeds never read mu");
    }

    #[test]
    fn unknown_candidates_rank_last() {
        let et = EntiTables::build(&corpus());
        let ranked = et.rank("anything", &[10], &[999, 11]);
        assert_eq!(ranked[0], 11);
    }

    #[test]
    fn p_term_is_smoothed_nonzero() {
        let et = EntiTables::build(&corpus());
        assert!(et.p_term(1, "football") > 0.0, "Dirichlet smoothing must avoid zeros");
        assert!(et.p_term(1, "films") > et.p_term(1, "football"));
    }
}
