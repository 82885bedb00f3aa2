//! Corpus statistics (Table 3 of the paper).

use crate::model::Table;
use serde::{Deserialize, Serialize};

/// min / mean / median / max summary of one per-table metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitSummary {
    /// Minimum value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower of the two middle values for even counts).
    pub median: f64,
    /// Maximum value.
    pub max: f64,
}

impl SplitSummary {
    /// Summarize a list of per-table values.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self { min: 0.0, mean: 0.0, median: 0.0, max: 0.0 };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Self {
            min: sorted[0],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            median: sorted[(sorted.len() - 1) / 2],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Per-split dataset statistics: rows, entity columns and entities per
/// table — the three blocks of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Number of tables in the split.
    pub n_tables: usize,
    /// Rows per table.
    pub rows: SplitSummary,
    /// Entity columns per table.
    pub entity_columns: SplitSummary,
    /// Linked entities per table.
    pub entities: SplitSummary,
}

impl CorpusStats {
    /// Compute statistics over a split.
    pub fn compute(tables: &[Table]) -> Self {
        let rows: Vec<f64> = tables.iter().map(|t| t.n_rows() as f64).collect();
        let cols: Vec<f64> = tables.iter().map(|t| t.entity_columns().len() as f64).collect();
        let ents: Vec<f64> = tables.iter().map(|t| t.n_linked_entities() as f64).collect();
        Self {
            n_tables: tables.len(),
            rows: SplitSummary::of(&rows),
            entity_columns: SplitSummary::of(&cols),
            entities: SplitSummary::of(&ents),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cell, Table};

    fn table_with(rows: usize, linked_cols: usize) -> Table {
        let headers = (0..linked_cols.max(1)).map(|i| format!("h{i}")).collect();
        let rows_v = (0..rows)
            .map(|r| {
                (0..linked_cols.max(1))
                    .map(|c| {
                        if c < linked_cols {
                            Cell::linked((r * 10 + c) as u32, format!("e{r}{c}"))
                        } else {
                            Cell::text("x")
                        }
                    })
                    .collect()
            })
            .collect();
        Table {
            id: format!("t{rows}"),
            page_title: String::new(),
            section_title: String::new(),
            caption: String::new(),
            topic_entity: None,
            headers,
            rows: rows_v,
            subject_column: 0,
        }
    }

    #[test]
    fn summary_of_known_values() {
        let s = SplitSummary::of(&[1.0, 5.0, 3.0, 9.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.mean, 4.5);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = SplitSummary::of(&[]);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn stats_count_entity_columns_and_entities() {
        let tables = vec![table_with(2, 2), table_with(4, 3)];
        let s = CorpusStats::compute(&tables);
        assert_eq!(s.n_tables, 2);
        assert_eq!(s.rows.min, 2.0);
        assert_eq!(s.rows.max, 4.0);
        assert_eq!(s.entity_columns.min, 2.0);
        assert_eq!(s.entity_columns.max, 3.0);
        assert_eq!(s.entities.min, 4.0);
        assert_eq!(s.entities.max, 12.0);
    }
}
