//! Relation-extraction dataset (§6.4): annotate subject–object column
//! pairs with the KB relations shared by more than half of the entity
//! pairs.

use crate::schema::RelationId;
use crate::world::KnowledgeBase;
use std::collections::HashMap;
use turl_data::{EntityId, Table};

/// One column pair to label.
#[derive(Debug, Clone)]
pub struct RelationExample {
    /// Index of the table within its split.
    pub table_idx: usize,
    /// Subject column index.
    pub subj_col: usize,
    /// Object column index.
    pub obj_col: usize,
    /// Gold labels (indices into [`RelationTask::label_relations`]).
    pub labels: Vec<usize>,
    /// Row-aligned (subject, object) entity pairs.
    pub pairs: Vec<(EntityId, EntityId)>,
}

/// The relation-extraction task: label space plus per-split examples.
#[derive(Debug, Clone)]
pub struct RelationTask {
    /// Label space: KB relation per label index.
    pub label_relations: Vec<RelationId>,
    /// Human-readable relation names.
    pub label_names: Vec<String>,
    /// Training examples.
    pub train: Vec<RelationExample>,
    /// Validation examples.
    pub validation: Vec<RelationExample>,
    /// Test examples.
    pub test: Vec<RelationExample>,
}

/// `(table index, subject column, object column, entity pairs, relations)`
/// — one candidate column pair before label filtering.
type RawPair = (usize, usize, usize, Vec<(EntityId, EntityId)>, Vec<RelationId>);

fn raw_pairs(kb: &KnowledgeBase, tables: &[Table], min_pairs: usize) -> Vec<RawPair> {
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let sc = t.subject_column;
        for oc in 0..t.n_cols() {
            if oc == sc {
                continue;
            }
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
            let rels = kb.shared_relations(&pairs);
            if !rels.is_empty() {
                out.push((ti, sc, oc, pairs, rels));
            }
        }
    }
    out
}

/// Build the task with the paper's rules: relations kept only when they
/// have at least `min_label_count` training column pairs.
pub fn build_relation_task(
    kb: &KnowledgeBase,
    train_tables: &[Table],
    validation_tables: &[Table],
    test_tables: &[Table],
    min_pairs: usize,
    min_label_count: usize,
) -> RelationTask {
    let train_raw = raw_pairs(kb, train_tables, min_pairs);
    let mut counts: HashMap<RelationId, usize> = HashMap::new();
    for (_, _, _, _, rels) in &train_raw {
        for &r in rels {
            *counts.entry(r).or_insert(0) += 1;
        }
    }
    let mut label_relations: Vec<RelationId> =
        counts.into_iter().filter(|&(_, c)| c >= min_label_count).map(|(r, _)| r).collect();
    label_relations.sort_unstable();
    let index: HashMap<RelationId, usize> =
        label_relations.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let label_names =
        label_relations.iter().map(|&r| kb.schema.relations[r].name.clone()).collect();

    let project = |raw: Vec<RawPair>| {
        raw.into_iter()
            .filter_map(|(table_idx, subj_col, obj_col, pairs, rels)| {
                let labels: Vec<usize> =
                    rels.iter().filter_map(|r| index.get(r).copied()).collect();
                (!labels.is_empty()).then_some(RelationExample {
                    table_idx,
                    subj_col,
                    obj_col,
                    labels,
                    pairs,
                })
            })
            .collect()
    };

    RelationTask {
        train: project(train_raw),
        validation: project(raw_pairs(kb, validation_tables, min_pairs)),
        test: project(raw_pairs(kb, test_tables, min_pairs)),
        label_relations,
        label_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::pipeline::{generate_splits, PipelineConfig};
    use crate::world::WorldConfig;

    fn task() -> (KnowledgeBase, RelationTask) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(71));
        let cfg = PipelineConfig { max_eval_tables: 30, ..Default::default() };
        let splits = generate_splits(&kb, &CorpusConfig::tiny(72), &cfg);
        let task = build_relation_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 3);
        (kb, task)
    }

    #[test]
    fn task_nonempty() {
        let (_, t) = task();
        assert!(!t.label_relations.is_empty());
        assert!(!t.train.is_empty());
        assert!(!t.test.is_empty() || !t.validation.is_empty());
    }

    #[test]
    fn majority_rule_holds_on_gold() {
        let (kb, t) = task();
        for ex in t.train.iter().take(40) {
            for &l in &ex.labels {
                let rid = t.label_relations[l];
                let holding = ex.pairs.iter().filter(|&&(s, o)| kb.has_fact(s, rid, o)).count();
                assert!(
                    2 * holding > ex.pairs.len(),
                    "relation {rid} not shared by majority ({holding}/{})",
                    ex.pairs.len()
                );
            }
        }
    }

    #[test]
    fn subject_column_is_pair_source() {
        let (_, t) = task();
        for ex in &t.train {
            assert_ne!(ex.subj_col, ex.obj_col);
            assert!(ex.pairs.len() >= 3);
        }
    }
}
