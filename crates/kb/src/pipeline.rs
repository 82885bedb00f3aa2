//! The paper's §5.1 pre-processing pipeline: relational-table
//! identification, subject-column detection, filtering, and partitioning
//! into pre-training / validation / test splits.

use crate::corpus::{generate_corpus, CorpusConfig};
use crate::world::KnowledgeBase;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use turl_data::{Cell, Table};

/// Configuration of the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Headers that mark a column as noise ("note, comment, reference,
    /// digit numbers, etc." in the paper).
    pub illegal_headers: Vec<String>,
    /// Maximum number of columns (paper: 20).
    pub max_columns: usize,
    /// Minimum linked entities per table (paper: 3).
    pub min_entities: usize,
    /// Held-out criterion: minimum linked subject entities (paper: > 4).
    pub eval_min_subject_entities: usize,
    /// Held-out criterion: minimum entity columns (paper: >= 3).
    pub eval_min_entity_columns: usize,
    /// Held-out criterion: minimum linked-cell ratio (paper: > 0.5).
    pub eval_min_link_ratio: f64,
    /// Maximum number of held-out tables (paper: 10000).
    pub max_eval_tables: usize,
    /// Seed for the random held-out selection and val/test split.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            illegal_headers: ["no.", "notes", "note", "comment", "reference", "ref", "#"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            max_columns: 20,
            min_entities: 3,
            eval_min_subject_entities: 5,
            eval_min_entity_columns: 3,
            eval_min_link_ratio: 0.5,
            max_eval_tables: 10_000,
            seed: 0,
        }
    }
}

fn is_illegal_header(cfg: &PipelineConfig, h: &str) -> bool {
    let h = h.trim().to_lowercase();
    h.is_empty() || h.chars().all(|c| c.is_ascii_digit()) || cfg.illegal_headers.contains(&h)
}

/// Detect the subject column with the paper's heuristic: it must be one of
/// the first two columns and contain unique linked entities.
fn detect_subject_column(cfg: &PipelineConfig, table: &Table) -> Option<usize> {
    for col in 0..table.n_cols().min(2) {
        if is_illegal_header(cfg, &table.headers[col]) {
            continue;
        }
        let mut seen = HashSet::new();
        let mut linked = 0usize;
        let mut unique = true;
        for row in &table.rows {
            if let Some(e) = row.get(col).and_then(|c| c.entity.as_ref()) {
                linked += 1;
                if !seen.insert(e.id) {
                    unique = false;
                    break;
                }
            }
        }
        if unique && linked >= cfg.min_entities {
            return Some(col);
        }
    }
    None
}

/// Identify relational tables (§5.1): keep tables with a detectable subject
/// column, at least `min_entities` linked entities in legal entity columns,
/// and at most `max_columns` columns. Subject columns are (re)assigned.
pub fn identify_relational(tables: Vec<Table>, cfg: &PipelineConfig) -> Vec<Table> {
    tables
        .into_iter()
        .filter_map(|mut t| {
            if t.n_cols() > cfg.max_columns || t.rows.is_empty() {
                return None;
            }
            // Drop illegal-header columns from entity consideration by
            // unlinking their cells (the paper filters such columns out of
            // the entity-column set).
            let illegal: Vec<usize> =
                (0..t.n_cols()).filter(|&c| is_illegal_header(cfg, &t.headers[c])).collect();
            for row in &mut t.rows {
                for &c in &illegal {
                    if let Some(cell) = row.get_mut(c) {
                        if cell.is_linked() {
                            *cell = Cell::text(cell.text.clone());
                        }
                    }
                }
            }
            let subject = detect_subject_column(cfg, &t)?;
            t.subject_column = subject;
            if t.n_linked_entities() < cfg.min_entities {
                return None;
            }
            Some(t)
        })
        .collect()
}

/// The three corpus splits of §5.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSplits {
    /// Pre-training tables.
    pub train: Vec<Table>,
    /// Validation tables (held out).
    pub validation: Vec<Table>,
    /// Test tables (held out).
    pub test: Vec<Table>,
}

impl CorpusSplits {
    /// Total number of tables across splits.
    pub fn total(&self) -> usize {
        self.train.len() + self.validation.len() + self.test.len()
    }
}

/// Partition relational tables: a high-quality subset (subject entities,
/// entity columns and link-ratio thresholds) is held out and split ~1:1
/// into validation/test; everything else pre-trains.
pub fn partition(tables: Vec<Table>, cfg: &PipelineConfig) -> CorpusSplits {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut eval_idx: Vec<usize> = tables
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.subject_entities().len() >= cfg.eval_min_subject_entities
                && t.entity_columns().len() >= cfg.eval_min_entity_columns
                && t.linked_cell_ratio() > cfg.eval_min_link_ratio
        })
        .map(|(i, _)| i)
        .collect();
    eval_idx.shuffle(&mut rng);
    eval_idx.truncate(cfg.max_eval_tables);
    let eval_set: HashSet<usize> = eval_idx.iter().copied().collect();

    let mut train = Vec::new();
    let mut validation = Vec::new();
    let mut test = Vec::new();
    let half = eval_idx.len() / 2;
    let val_set: HashSet<usize> = eval_idx[..half].iter().copied().collect();
    for (i, t) in tables.into_iter().enumerate() {
        if !eval_set.contains(&i) {
            train.push(t);
        } else if val_set.contains(&i) {
            validation.push(t);
        } else {
            test.push(t);
        }
    }
    CorpusSplits { train, validation, test }
}

/// The whole §5.1 chain: generate a corpus from `kb`, keep its relational
/// tables and partition them.
pub fn generate_splits(
    kb: &KnowledgeBase,
    corpus: &CorpusConfig,
    pipeline: &PipelineConfig,
) -> CorpusSplits {
    partition(identify_relational(generate_corpus(kb, corpus), pipeline), pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use turl_data::EntityRef;

    fn relational() -> Vec<Table> {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(21));
        let raw = generate_corpus(&kb, &CorpusConfig::tiny(22));
        identify_relational(raw, &PipelineConfig::default())
    }

    #[test]
    fn identification_keeps_most_generated_tables() {
        let kept = relational();
        assert!(kept.len() > 60, "only {} tables survived", kept.len());
    }

    #[test]
    fn kept_tables_satisfy_invariants() {
        let cfg = PipelineConfig::default();
        for t in relational() {
            assert!(t.n_cols() <= cfg.max_columns);
            assert!(t.n_linked_entities() >= cfg.min_entities);
            assert!(t.subject_column < 2, "subject must be in first two columns");
            // subject entities unique
            let subj: Vec<_> = t.subject_entities().iter().map(|e| e.id).collect();
            let uniq: HashSet<_> = subj.iter().collect();
            assert_eq!(uniq.len(), subj.len(), "duplicate subject entities in {}", t.id);
            // no linked entities under illegal headers
            for (c, h) in t.headers.iter().enumerate() {
                if is_illegal_header(&cfg, h) {
                    for row in &t.rows {
                        assert!(!row[c].is_linked());
                    }
                }
            }
        }
    }

    #[test]
    fn junk_leading_column_does_not_become_subject() {
        let cfg = PipelineConfig::default();
        let t = Table {
            id: "x".into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: "c".into(),
            topic_entity: None,
            headers: vec!["no.".into(), "film".into()],
            subject_column: 0,
            rows: (0..4)
                .map(|i| {
                    vec![
                        Cell {
                            text: format!("{i}"),
                            entity: Some(EntityRef { id: 90 + i, mention: format!("{i}") }),
                        },
                        Cell::linked(i, format!("f{i}")),
                    ]
                })
                .collect(),
        };
        let kept = identify_relational(vec![t], &cfg);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].subject_column, 1);
    }

    #[test]
    fn non_unique_first_column_rejected_as_subject() {
        let cfg = PipelineConfig::default();
        let t = Table {
            id: "dup".into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: "c".into(),
            topic_entity: None,
            headers: vec!["film".into()],
            subject_column: 0,
            rows: vec![
                vec![Cell::linked(1, "a")],
                vec![Cell::linked(1, "a")],
                vec![Cell::linked(2, "b")],
            ],
        };
        assert!(identify_relational(vec![t], &cfg).is_empty());
    }

    #[test]
    fn partition_is_disjoint_and_deterministic() {
        let tables = relational();
        let n = tables.len();
        let cfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
        let s1 = partition(tables.clone(), &cfg);
        let s2 = partition(tables, &cfg);
        assert_eq!(s1.total(), n);
        assert_eq!(
            s1.validation.len() + s1.test.len(),
            20.min(s1.validation.len() + s1.test.len())
        );
        assert!(s1.validation.len() <= s1.test.len() + 1);
        let ids = |v: &[Table]| v.iter().map(|t| t.id.clone()).collect::<HashSet<_>>();
        assert!(ids(&s1.train).is_disjoint(&ids(&s1.validation)));
        assert!(ids(&s1.train).is_disjoint(&ids(&s1.test)));
        assert!(ids(&s1.validation).is_disjoint(&ids(&s1.test)));
        assert_eq!(ids(&s1.validation), ids(&s2.validation));
    }

    #[test]
    fn eval_tables_meet_quality_bar() {
        let cfg = PipelineConfig::default();
        let splits = partition(relational(), &cfg);
        for t in splits.validation.iter().chain(splits.test.iter()) {
            assert!(t.subject_entities().len() >= cfg.eval_min_subject_entities);
            assert!(t.entity_columns().len() >= cfg.eval_min_entity_columns);
            assert!(t.linked_cell_ratio() > cfg.eval_min_link_ratio);
        }
    }
}
