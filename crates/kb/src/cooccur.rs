//! Row-co-occurrence statistics over the pre-training corpus.
//!
//! Backs the cell-filling task (§6.6): candidate value finding ("all
//! entities that appear in the same row with `e`"), the header-relevance
//! formula `P(h'|h) = n(h',h) / Σ n(h'',h)` (Eqn. 14), and entity
//! co-occurrence statistics used by MER candidate construction and the
//! EntiTables baseline.

use crate::normalize;
use std::collections::{HashMap, HashSet};
use turl_data::{EntityId, Table};

/// Co-occurrence index over a table corpus.
#[derive(Debug, Clone, Default)]
pub struct CooccurrenceIndex {
    /// subject → (object, source header) pairs observed in some row.
    row_pairs: HashMap<EntityId, Vec<(EntityId, String)>>,
    /// n(h', h): tables that contain the same object for the same subject
    /// under headers h' and h.
    header_pair_counts: HashMap<(String, String), usize>,
    /// Σ_h'' n(h'', h) per target header.
    header_totals: HashMap<String, usize>,
    /// entity → entities co-occurring in any row (symmetric).
    entity_cooccur: HashMap<EntityId, Vec<EntityId>>,
}

impl CooccurrenceIndex {
    /// Build from a corpus (typically the pre-training split).
    pub fn build(tables: &[Table]) -> Self {
        let mut row_pairs: HashMap<EntityId, Vec<(EntityId, String)>> = HashMap::new();
        // (subject, object) -> set of headers it was observed under
        let mut pair_headers: HashMap<(EntityId, EntityId), HashSet<String>> = HashMap::new();
        let mut entity_cooccur: HashMap<EntityId, HashSet<EntityId>> = HashMap::new();

        for t in tables {
            let sc = t.subject_column;
            for row in &t.rows {
                let linked: Vec<(usize, EntityId)> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(c, cell)| cell.entity.as_ref().map(|e| (c, e.id)))
                    .collect();
                for &(c1, e1) in &linked {
                    for &(c2, e2) in &linked {
                        if c1 != c2 {
                            entity_cooccur.entry(e1).or_default().insert(e2);
                        }
                    }
                }
                let Some(&(_, subj)) = linked.iter().find(|&&(c, _)| c == sc) else {
                    continue;
                };
                for &(c, obj) in &linked {
                    if c == sc {
                        continue;
                    }
                    let h = normalize(&t.headers[c]);
                    row_pairs.entry(subj).or_default().push((obj, h.clone()));
                    pair_headers.entry((subj, obj)).or_default().insert(h);
                }
            }
        }

        let mut header_pair_counts: HashMap<(String, String), usize> = HashMap::new();
        let mut header_totals: HashMap<String, usize> = HashMap::new();
        for headers in pair_headers.values() {
            for h1 in headers {
                for h2 in headers {
                    *header_pair_counts.entry((h1.clone(), h2.clone())).or_insert(0) += 1;
                    *header_totals.entry(h2.clone()).or_insert(0) += 1;
                }
            }
        }

        Self {
            row_pairs,
            header_pair_counts,
            header_totals,
            entity_cooccur: entity_cooccur
                .into_iter()
                .map(|(k, v)| {
                    let mut v: Vec<EntityId> = v.into_iter().collect();
                    v.sort_unstable();
                    (k, v)
                })
                .collect(),
        }
    }

    /// All `(object, source header)` pairs observed in rows led by `subject`.
    fn row_pairs_of(&self, subject: EntityId) -> &[(EntityId, String)] {
        self.row_pairs.get(&subject).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Entities that ever co-occurred (same row) with `e`.
    pub fn cooccurring(&self, e: EntityId) -> &[EntityId] {
        self.entity_cooccur.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Eqn. 14: `P(h'|h)` — relevance of source header `h_src` to target
    /// header `h_tgt`.
    pub fn p_header_given(&self, h_src: &str, h_tgt: &str) -> f64 {
        let h_src = normalize(h_src);
        let h_tgt = normalize(h_tgt);
        let n = self.header_pair_counts.get(&(h_src, h_tgt.clone())).copied().unwrap_or(0);
        let total = self.header_totals.get(&h_tgt).copied().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    }

    /// Cell-filling candidates for `(subject, target header)`:
    /// co-row entities whose source headers have `P(h'|h) > 0`, each with
    /// its observed source headers (§6.6 candidate value finding).
    pub fn candidates(
        &self,
        subject: EntityId,
        target_header: &str,
        filter_relevant: bool,
    ) -> Vec<(EntityId, Vec<String>)> {
        let mut per_entity: HashMap<EntityId, Vec<String>> = HashMap::new();
        for (obj, h) in self.row_pairs_of(subject) {
            if !filter_relevant || self.p_header_given(h, target_header) > 0.0 {
                let hs = per_entity.entry(*obj).or_default();
                if !hs.contains(h) {
                    hs.push(h.clone());
                }
            }
        }
        let mut out: Vec<(EntityId, Vec<String>)> = per_entity.into_iter().collect();
        out.sort_by_key(|(e, _)| *e);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_data::Cell;

    fn table(id: &str, headers: &[&str], rows: Vec<Vec<Cell>>) -> Table {
        Table {
            id: id.into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: String::new(),
            topic_entity: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows,
            subject_column: 0,
        }
    }

    fn corpus() -> Vec<Table> {
        vec![
            table(
                "t1",
                &["film", "director"],
                vec![
                    vec![Cell::linked(1, "f1"), Cell::linked(10, "d1")],
                    vec![Cell::linked(2, "f2"), Cell::linked(11, "d2")],
                ],
            ),
            table(
                "t2",
                &["film", "directed by"],
                vec![vec![Cell::linked(1, "f1"), Cell::linked(10, "d1")]],
            ),
            table(
                "t3",
                &["film", "language"],
                vec![vec![Cell::linked(1, "f1"), Cell::linked(30, "bengali")]],
            ),
        ]
    }

    #[test]
    fn row_pairs_collected() {
        let idx = CooccurrenceIndex::build(&corpus());
        let pairs = idx.row_pairs_of(1);
        assert_eq!(pairs.len(), 3); // d1 via "director", d1 via "directed by", bengali
        assert!(idx.row_pairs_of(999).is_empty());
    }

    #[test]
    fn header_relevance_links_synonyms() {
        let idx = CooccurrenceIndex::build(&corpus());
        // (1, 10) observed under both "director" and "directed by"
        assert!(idx.p_header_given("director", "directed by") > 0.0);
        assert!(idx.p_header_given("directed by", "director") > 0.0);
        // language never co-reports with director for the same object
        assert_eq!(idx.p_header_given("language", "director"), 0.0);
    }

    #[test]
    fn p_header_is_a_distribution() {
        let idx = CooccurrenceIndex::build(&corpus());
        let total: f64 = ["director", "directed by", "language"]
            .iter()
            .map(|h| idx.p_header_given(h, "director"))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
    }

    #[test]
    fn candidates_filter_irrelevant_headers() {
        let idx = CooccurrenceIndex::build(&corpus());
        let all = idx.candidates(1, "director", false);
        assert_eq!(all.len(), 2); // d1 and bengali
        let filtered = idx.candidates(1, "director", true);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].0, 10);
        assert!(filtered[0].1.iter().any(|h| h == "director"));
    }

    #[test]
    fn cooccurrence_is_symmetric() {
        let idx = CooccurrenceIndex::build(&corpus());
        assert!(idx.cooccurring(1).contains(&10));
        assert!(idx.cooccurring(10).contains(&1));
        assert!(idx.cooccurring(1).contains(&30));
    }
}
