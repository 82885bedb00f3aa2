//! The kNN schema-augmentation baseline (§6.7): encode the query caption
//! as tf-idf, find the top-10 most similar tables, and rank their headers
//! by aggregated cosine similarity; with seed headers, re-weight the
//! retrieved tables by schema overlap (Zhang & Balog [35]).

use std::collections::HashMap;
use turl_kb::tasks::{HeaderVocab, SchemaAugExample};
use turl_kb::TableSearchIndex;

/// Ranked headers plus the best supporting table (for the Table 11 case
/// study).
#[derive(Debug, Clone)]
pub struct KnnSchemaResult {
    /// Header indices (into the task's [`HeaderVocab`]), best first.
    pub ranked: Vec<usize>,
    /// Index (into the search corpus) of the most similar table.
    pub support_table: Option<usize>,
}

/// Header indices best first: descending by [`f64::total_cmp`], so a NaN
/// ranks by its sign instead of panicking, ties by ascending index.
fn rank_scores(scores: HashMap<usize, f64>) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(h, _)| h).collect()
}

/// The kNN schema-augmentation baseline.
pub struct KnnSchema<'a> {
    search: &'a TableSearchIndex,
    /// Number of neighbour tables aggregated (paper: top-10).
    pub k: usize,
}

impl<'a> KnnSchema<'a> {
    /// Create over a search index built from the pre-training corpus.
    pub fn new(search: &'a TableSearchIndex, k: usize) -> Self {
        Self { search, k }
    }

    /// Rank vocabulary headers for a query.
    pub fn rank(&self, vocab: &HeaderVocab, ex: &SchemaAugExample) -> KnnSchemaResult {
        let hits = self.search.query_caption(&ex.caption, self.k);
        let seed_headers: Vec<&str> = ex.seeds.iter().map(|&s| vocab.header(s)).collect();
        let mut scores: HashMap<usize, f64> = HashMap::new();
        let mut best: Option<(usize, f64)> = None;
        for (ti, sim) in hits {
            // re-weight by seed-schema overlap when seeds are present
            let weight = if seed_headers.is_empty() {
                sim
            } else {
                let overlap = self
                    .search
                    .headers(ti)
                    .iter()
                    .filter(|h| seed_headers.contains(&h.as_str()))
                    .count() as f64;
                sim * (1.0 + overlap)
            };
            if best.map(|(_, w)| weight > w).unwrap_or(true) {
                best = Some((ti, weight));
            }
            for h in self.search.headers(ti) {
                if let Some(id) = vocab.id(h) {
                    if !ex.seeds.contains(&id) {
                        *scores.entry(id).or_insert(0.0) += weight;
                    }
                }
            }
        }
        KnnSchemaResult { ranked: rank_scores(scores), support_table: best.map(|(t, _)| t) }
    }

    /// MAP over a split.
    pub fn map(&self, vocab: &HeaderVocab, examples: &[SchemaAugExample]) -> f64 {
        let aps: Vec<f64> = examples
            .iter()
            .map(|ex| {
                turl_kb::tasks::metrics::average_precision(&self.rank(vocab, ex).ranked, &ex.gold)
            })
            .collect();
        turl_kb::tasks::metrics::mean_average_precision(&aps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_data::{Cell, Table};
    use turl_kb::tasks::{build_header_vocab, build_schema_augmentation};

    fn table(id: &str, caption: &str, headers: &[&str]) -> Table {
        Table {
            id: id.into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: caption.into(),
            topic_entity: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            subject_column: 0,
            rows: vec![headers
                .iter()
                .enumerate()
                .map(|(i, _)| Cell::linked(i as u32, "x"))
                .collect()],
        }
    }

    fn corpus() -> Vec<Table> {
        vec![
            table("a", "santos fc season out", &["name", "moving to", "fee"]),
            table("b", "flamengo season out", &["name", "moving to", "fee"]),
            table("c", "radio stations in manila", &["name", "format", "owner"]),
            table("d", "radio stations am list", &["name", "format", "owner"]),
        ]
    }

    #[test]
    fn knn_recovers_similar_table_schema() {
        let tables = corpus();
        let search = TableSearchIndex::build(&tables);
        let vocab = build_header_vocab(&tables, 1);
        let knn = KnnSchema::new(&search, 3);
        // a query like the football tables
        let queries = build_schema_augmentation(
            &[table("q", "palmeiras fc season out", &["name", "moving to", "fee"])],
            &vocab,
            1,
        );
        let res = knn.rank(&vocab, &queries[0]);
        assert!(!res.ranked.is_empty());
        let top: Vec<&str> = res.ranked.iter().take(2).map(|&h| vocab.header(h)).collect();
        assert!(
            top.contains(&"moving to") || top.contains(&"fee"),
            "expected football headers, got {top:?}"
        );
        assert!(res.support_table.is_some());
    }

    #[test]
    fn nan_neighbour_weights_are_ranked_not_a_panic() {
        // `k = usize::MAX` makes the caption query's similarity cut-off
        // irrelevant; what is poisoned here is the aggregation itself: a
        // NaN-weighted neighbour makes every header it carries score NaN.
        let tables = corpus();
        let search = TableSearchIndex::build(&tables);
        let vocab = build_header_vocab(&tables, 1);
        let queries = build_schema_augmentation(
            &[table("q", "palmeiras fc season out", &["name", "moving to", "fee"])],
            &vocab,
            1,
        );
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for (h, w) in [(0, f64::NAN), (1, 0.5), (2, -f64::NAN), (3, 0.75)] {
            scores.insert(h, w);
        }
        assert_eq!(rank_scores(scores), vec![0, 3, 1, 2], "+NaN first, -NaN last");
        let res = KnnSchema::new(&search, usize::MAX).rank(&vocab, &queries[0]);
        assert!(!res.ranked.is_empty());
    }

    #[test]
    fn seeds_are_excluded_from_ranking() {
        let tables = corpus();
        let search = TableSearchIndex::build(&tables);
        let vocab = build_header_vocab(&tables, 1);
        let knn = KnnSchema::new(&search, 3);
        let queries = build_schema_augmentation(
            &[table("q", "radio stations fm list", &["name", "format", "owner"])],
            &vocab,
            1,
        );
        let res = knn.rank(&vocab, &queries[0]);
        assert!(!res.ranked.contains(&queries[0].seeds[0]));
    }

    #[test]
    fn map_in_unit_range() {
        let tables = corpus();
        let search = TableSearchIndex::build(&tables);
        let vocab = build_header_vocab(&tables, 1);
        let knn = KnnSchema::new(&search, 3);
        let queries = build_schema_augmentation(&tables, &vocab, 0);
        let map = knn.map(&vocab, &queries);
        assert!((0.0..=1.0).contains(&map));
        assert!(map > 0.5, "self-queries should score high: {map}");
    }
}
