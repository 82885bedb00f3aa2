//! The Exact / H2H / H2V cell-filling rankers (§6.6).
//!
//! All three score a candidate entity by the similarity between the
//! target header `h` and the candidate's source headers `h'`
//! (Eqn. 15: `P(e|h) = MAX(sim(h', h))`); they differ only in `sim`:
//! string equality (Exact), the corpus statistic `P(h'|h)` (H2H), or
//! cosine similarity of corpus-trained header embeddings (H2V).

use crate::table2vec::{SkipGram, SkipGramConfig};
use std::collections::HashMap;
use turl_data::{tokenize, EntityId, Table};
use turl_kb::tasks::CellFillingExample;
use turl_kb::CooccurrenceIndex;

fn rank_by<F: Fn(&str) -> f64>(ex: &CellFillingExample, sim: F) -> Vec<EntityId> {
    let mut scored: Vec<(EntityId, f64)> = ex
        .candidates
        .iter()
        .map(|(e, headers)| {
            let best = headers.iter().map(|h| sim(h)).fold(f64::NEG_INFINITY, f64::max);
            (*e, best)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().map(|(e, _)| e).collect()
}

/// Exact: `sim(h', h) = 1` iff the normalized headers match.
pub fn rank_exact(ex: &CellFillingExample) -> Vec<EntityId> {
    let target = tokenize(&ex.target_header).join(" ");
    rank_by(ex, |h| if tokenize(h).join(" ") == target { 1.0 } else { 0.0 })
}

/// H2H: `sim(h', h) = P(h'|h)` estimated from the pre-training corpus
/// (Eqn. 14).
pub fn rank_h2h(ex: &CellFillingExample, cooccur: &CooccurrenceIndex) -> Vec<EntityId> {
    rank_by(ex, |h| cooccur.p_header_given(h, &ex.target_header))
}

/// Header-embedding space for H2V: skip-gram over per-table header
/// sequences (the Table2Vec-style variant of \[11\]).
#[derive(Debug, Clone)]
pub struct HeaderSpace {
    sg: SkipGram,
    index: HashMap<String, usize>,
}

impl HeaderSpace {
    /// Train header embeddings on the pre-training corpus.
    pub fn train(tables: &[Table], cfg: &SkipGramConfig) -> Self {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut sequences = Vec::with_capacity(tables.len());
        for t in tables {
            let seq: Vec<usize> = t
                .headers
                .iter()
                .map(|h| {
                    let norm = tokenize(h).join(" ");
                    let next = index.len();
                    *index.entry(norm).or_insert(next)
                })
                .collect();
            if seq.len() > 1 {
                sequences.push(seq);
            }
        }
        let sg = SkipGram::train(&sequences, index.len().max(1), cfg);
        Self { sg, index }
    }

    /// Cosine similarity between two (raw) headers; 0 when unseen.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let na = tokenize(a).join(" ");
        let nb = tokenize(b).join(" ");
        if na == nb {
            return 1.0;
        }
        match (self.index.get(&na), self.index.get(&nb)) {
            (Some(&ia), Some(&ib)) => self.sg.cosine(ia, ib) as f64,
            _ => 0.0,
        }
    }
}

/// H2V: `sim(h', h)` is header-embedding cosine similarity.
pub fn rank_h2v(ex: &CellFillingExample, space: &HeaderSpace) -> Vec<EntityId> {
    rank_by(ex, |h| space.similarity(h, &ex.target_header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_data::Cell;

    fn example() -> CellFillingExample {
        CellFillingExample {
            table_idx: 0,
            subject: 1,
            target_header: "director".into(),
            gold: 10,
            candidates: vec![
                (9, vec!["language".to_string()]),
                (10, vec!["director".to_string()]),
                (11, vec!["directed by".to_string()]),
            ],
        }
    }

    #[test]
    fn a_nan_similarity_is_ranked_not_a_panic() {
        // A NaN never beats a number in the per-candidate max, so the
        // poisoned candidate keeps -inf and ranks last.
        let ranked = rank_by(&example(), |h| if h == "director" { f64::NAN } else { 0.5 });
        assert_eq!(ranked, vec![9, 11, 10]);
        // Every similarity NaN: all candidates tie, ids break the tie.
        assert_eq!(rank_by(&example(), |_| f64::NAN), vec![9, 10, 11]);
    }

    #[test]
    fn exact_ranks_matching_header_first() {
        let ranked = rank_exact(&example());
        assert_eq!(ranked[0], 10);
    }

    #[test]
    fn h2h_uses_corpus_statistics_for_synonyms() {
        // corpus where "director" and "directed by" report the same object
        let t = |id: &str, h: &str| Table {
            id: id.into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: String::new(),
            topic_entity: None,
            headers: vec!["film".into(), h.into()],
            subject_column: 0,
            rows: vec![vec![Cell::linked(1, "f"), Cell::linked(11, "d")]],
        };
        let cooccur = CooccurrenceIndex::build(&[t("a", "director"), t("b", "directed by")]);
        let mut ex = example();
        ex.candidates =
            vec![(9, vec!["language".to_string()]), (11, vec!["directed by".to_string()])];
        let ranked = rank_h2h(&ex, &cooccur);
        assert_eq!(ranked[0], 11, "synonym header should win via P(h'|h)");
    }

    #[test]
    fn h2v_similarity_identity_is_one() {
        let space = HeaderSpace::train(&[], &SkipGramConfig::default());
        assert_eq!(space.similarity("Director", "director"), 1.0);
        assert_eq!(space.similarity("director", "unknown header"), 0.0);
    }

    #[test]
    fn h2v_learns_cooccurring_headers() {
        let t = |id: &str, headers: &[&str]| Table {
            id: id.into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: String::new(),
            topic_entity: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            subject_column: 0,
            rows: vec![],
        };
        let mut tables = Vec::new();
        for i in 0..50 {
            tables.push(t(&format!("a{i}"), &["film", "director", "language"]));
            tables.push(t(&format!("b{i}"), &["player", "team", "city"]));
        }
        let space = HeaderSpace::train(
            &tables,
            &SkipGramConfig { dim: 16, epochs: 6, ..Default::default() },
        );
        let same_domain = space.similarity("film", "director");
        let cross_domain = space.similarity("film", "team");
        assert!(
            same_domain > cross_domain,
            "same-schema headers should be closer: {same_domain} vs {cross_domain}"
        );
    }
}
