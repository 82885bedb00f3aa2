//! Cell-filling dataset (§6.6): given a subject entity and an object
//! header, predict the object entity. Candidates come from row
//! co-occurrence in the pre-training corpus (Eqn. 14 filtering).

use crate::cooccur::CooccurrenceIndex;
use crate::normalize;
use turl_data::{EntityId, Table};

/// One cell-filling instance.
#[derive(Debug, Clone)]
pub struct CellFillingExample {
    /// Index of the table within its split.
    pub table_idx: usize,
    /// Subject entity of the row.
    pub subject: EntityId,
    /// Target object header (normalized).
    pub target_header: String,
    /// Gold object entity.
    pub gold: EntityId,
    /// Candidates: `(entity, source headers it was observed under)`.
    pub candidates: Vec<(EntityId, Vec<String>)>,
}

impl CellFillingExample {
    /// Whether the gold entity is in the candidate set.
    pub fn gold_in_candidates(&self) -> bool {
        self.candidates.iter().any(|(e, _)| *e == self.gold)
    }
}

/// Build instances from subject–object column pairs of `tables` having at
/// least `min_pairs` valid entity pairs, with candidates drawn from
/// `cooccur` (built over the pre-training corpus).
///
/// `filter_relevant` applies the paper's `P(h'|h) > 0` candidate filter.
pub fn build_cell_filling(
    tables: &[Table],
    cooccur: &CooccurrenceIndex,
    min_pairs: usize,
    filter_relevant: bool,
) -> Vec<CellFillingExample> {
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let sc = t.subject_column;
        for oc in 0..t.n_cols() {
            if oc == sc {
                continue;
            }
            let header = normalize(&t.headers[oc]);
            let pairs: Vec<(EntityId, EntityId)> = t
                .rows
                .iter()
                .filter_map(|r| {
                    let s = r.get(sc)?.entity.as_ref()?.id;
                    let o = r.get(oc)?.entity.as_ref()?.id;
                    Some((s, o))
                })
                .collect();
            if pairs.len() < min_pairs {
                continue;
            }
            for (s, o) in pairs {
                let candidates = cooccur.candidates(s, &header, filter_relevant);
                out.push(CellFillingExample {
                    table_idx: ti,
                    subject: s,
                    target_header: header.clone(),
                    gold: o,
                    candidates,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::pipeline::{generate_splits, PipelineConfig};
    use crate::world::{KnowledgeBase, WorldConfig};

    fn setup() -> (Vec<CellFillingExample>, Vec<CellFillingExample>) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(91));
        let cfg = PipelineConfig { max_eval_tables: 40, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 300, ..CorpusConfig::tiny(92) }, &cfg);
        let cooccur = CooccurrenceIndex::build(&splits.train);
        let unfiltered = build_cell_filling(&splits.test, &cooccur, 3, false);
        let filtered = build_cell_filling(&splits.test, &cooccur, 3, true);
        (unfiltered, filtered)
    }

    #[test]
    fn instances_exist_and_recall_positive() {
        let (unfiltered, _) = setup();
        assert!(!unfiltered.is_empty());
        let recall = unfiltered.iter().filter(|e| e.gold_in_candidates()).count() as f64
            / unfiltered.len() as f64;
        assert!(recall > 0.3, "unfiltered candidate recall {recall}");
    }

    #[test]
    fn relevance_filter_shrinks_candidates_slightly_lowering_recall() {
        let (unfiltered, filtered) = setup();
        let avg = |v: &[CellFillingExample]| {
            v.iter().map(|e| e.candidates.len()).sum::<usize>() as f64 / v.len().max(1) as f64
        };
        assert!(avg(&filtered) <= avg(&unfiltered), "filter must not grow candidate sets");
        let recall = |v: &[CellFillingExample]| {
            v.iter().filter(|e| e.gold_in_candidates()).count() as f64 / v.len().max(1) as f64
        };
        assert!(recall(&filtered) <= recall(&unfiltered) + 1e-12);
    }

    #[test]
    fn candidates_carry_source_headers() {
        let (unfiltered, _) = setup();
        for ex in unfiltered.iter().take(50) {
            for (_, headers) in &ex.candidates {
                assert!(!headers.is_empty());
            }
        }
    }

    #[test]
    fn headers_are_normalized() {
        let (unfiltered, _) = setup();
        for ex in unfiltered.iter().take(50) {
            assert_eq!(ex.target_header, normalize(&ex.target_header));
        }
    }
}
