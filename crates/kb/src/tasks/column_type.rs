//! Column-type annotation dataset (§6.3): multi-label typing of entity
//! columns, labeled with the common KB types of the column's entities.

use crate::schema::TypeId;
use crate::world::KnowledgeBase;
use std::collections::HashMap;
use turl_data::{EntityId, Table};

/// One column to type: source table/column plus gold label indices (into
/// [`ColumnTypeTask::label_types`]).
#[derive(Debug, Clone)]
pub struct ColumnTypeExample {
    /// Index of the table within its split.
    pub table_idx: usize,
    /// Column index.
    pub col: usize,
    /// Gold labels (indices into the task's label space).
    pub labels: Vec<usize>,
    /// The column's linked entities (for feature extraction).
    pub entities: Vec<EntityId>,
}

/// The column-type annotation task: a label space plus per-split examples.
#[derive(Debug, Clone)]
pub struct ColumnTypeTask {
    /// Label space: KB type per label index.
    pub label_types: Vec<TypeId>,
    /// Human-readable label names.
    pub label_names: Vec<String>,
    /// Training examples.
    pub train: Vec<ColumnTypeExample>,
    /// Validation examples.
    pub validation: Vec<ColumnTypeExample>,
    /// Test examples.
    pub test: Vec<ColumnTypeExample>,
}

fn raw_columns(
    kb: &KnowledgeBase,
    tables: &[Table],
    min_col_entities: usize,
) -> Vec<(usize, usize, Vec<EntityId>, Vec<TypeId>)> {
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        for c in 0..t.n_cols() {
            let ents: Vec<EntityId> = t
                .rows
                .iter()
                .filter_map(|r| r.get(c).and_then(|cell| cell.entity.as_ref()).map(|e| e.id))
                .collect();
            if ents.len() < min_col_entities {
                continue;
            }
            let types = kb.common_types(&ents);
            if !types.is_empty() {
                out.push((ti, c, ents, types));
            }
        }
    }
    out
}

/// Build the task: label space from the training split (types with at
/// least `min_label_count` training columns), examples from all splits.
pub fn build_column_type_task(
    kb: &KnowledgeBase,
    train_tables: &[Table],
    validation_tables: &[Table],
    test_tables: &[Table],
    min_col_entities: usize,
    min_label_count: usize,
) -> ColumnTypeTask {
    let train_raw = raw_columns(kb, train_tables, min_col_entities);
    let mut counts: HashMap<TypeId, usize> = HashMap::new();
    for (_, _, _, types) in &train_raw {
        for &t in types {
            *counts.entry(t).or_insert(0) += 1;
        }
    }
    let mut label_types: Vec<TypeId> =
        counts.into_iter().filter(|&(_, c)| c >= min_label_count).map(|(t, _)| t).collect();
    label_types.sort_unstable();
    let label_index: HashMap<TypeId, usize> =
        label_types.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let label_names = label_types.iter().map(|&t| kb.schema.types[t].name.clone()).collect();

    let project = |raw: Vec<(usize, usize, Vec<EntityId>, Vec<TypeId>)>| -> Vec<ColumnTypeExample> {
        raw.into_iter()
            .filter_map(|(table_idx, col, entities, types)| {
                let labels: Vec<usize> =
                    types.iter().filter_map(|t| label_index.get(t).copied()).collect();
                (!labels.is_empty()).then_some(ColumnTypeExample {
                    table_idx,
                    col,
                    labels,
                    entities,
                })
            })
            .collect()
    };

    ColumnTypeTask {
        train: project(train_raw),
        validation: project(raw_columns(kb, validation_tables, min_col_entities)),
        test: project(raw_columns(kb, test_tables, min_col_entities)),
        label_types,
        label_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::pipeline::{generate_splits, PipelineConfig};
    use crate::world::WorldConfig;

    fn task() -> (KnowledgeBase, ColumnTypeTask) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(61));
        let cfg = PipelineConfig { max_eval_tables: 30, ..Default::default() };
        let splits = generate_splits(&kb, &CorpusConfig::tiny(62), &cfg);
        let task =
            build_column_type_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 3);
        (kb, task)
    }

    #[test]
    fn task_has_examples_and_labels() {
        let (_, t) = task();
        assert!(!t.label_types.is_empty());
        assert!(!t.train.is_empty());
        assert!(!t.test.is_empty());
        assert_eq!(t.label_types.len(), t.label_names.len());
    }

    #[test]
    fn labels_within_range_and_multilabel_possible() {
        let (_, t) = task();
        let mut multi = false;
        for ex in t.train.iter().chain(t.test.iter()) {
            assert!(!ex.labels.is_empty());
            for &l in &ex.labels {
                assert!(l < t.label_types.len());
            }
            if ex.labels.len() > 1 {
                multi = true;
            }
        }
        // fine types imply their coarse parent: multi-label cases must exist
        assert!(multi, "expected some multi-label columns (fine + coarse type)");
    }

    #[test]
    fn gold_labels_are_truly_common_types() {
        let (kb, t) = task();
        for ex in t.train.iter().take(30) {
            for &l in &ex.labels {
                let ty = t.label_types[l];
                for &e in &ex.entities {
                    assert!(kb.entity(e).types.contains(&ty), "entity {e} lacks labeled type {ty}");
                }
            }
        }
    }

    #[test]
    fn min_entities_respected() {
        let (_, t) = task();
        for ex in &t.train {
            assert!(ex.entities.len() >= 3);
        }
    }
}
