//! Visibility-matrix linting (§4.3) and masking-ratio validation (§4.4).
//!
//! The linter re-derives the expected visibility relation directly from
//! the paper's rules — independently of `turl_data`'s own builder — and
//! compares a concrete [`VisibilityMatrix`] against it pair by pair.
//! Because the derivation is separate code, a bug in either
//! implementation shows up as a disagreement instead of being
//! self-consistent.

use crate::error::AuditError;
use turl_data::{EntityPosition, TableInstance, TokenScope, VisibilityMatrix};

/// Independent element classification, re-derived from the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Elem {
    Caption,
    Header(usize),
    Topic,
    Cell { row: usize, col: usize },
}

impl Elem {
    fn describe(self) -> String {
        match self {
            Elem::Caption => "caption".into(),
            Elem::Header(c) => format!("header(col {c})"),
            Elem::Topic => "topic".into(),
            Elem::Cell { row, col } => format!("cell({row}, {col})"),
        }
    }
}

/// §4.3 visibility relation: caption/topic are globally visible, headers
/// see the schema row plus their own column's entities, cell entities see
/// their own row and column.
fn expected_visible(a: Elem, b: Elem) -> bool {
    use Elem::*;
    match (a, b) {
        (Caption, _) | (_, Caption) | (Topic, _) | (_, Topic) => true,
        (Header(_), Header(_)) => true,
        (Header(c), Cell { col, .. }) | (Cell { col, .. }, Header(c)) => c == col,
        (Cell { row: r1, col: c1 }, Cell { row: r2, col: c2 }) => r1 == r2 || c1 == c2,
    }
}

fn classify(inst: &TableInstance) -> Vec<Elem> {
    inst.tokens
        .iter()
        .map(|t| match t.scope {
            TokenScope::Caption => Elem::Caption,
            TokenScope::Header(c) => Elem::Header(c),
        })
        .chain(inst.entities.iter().map(|e| match e.position {
            EntityPosition::Topic => Elem::Topic,
            EntityPosition::Cell { row, col } => Elem::Cell { row, col },
        }))
        .collect()
}

/// Summary of a clean visibility lint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilityReport {
    /// Sequence length of the linted matrix.
    pub n: usize,
    /// Fraction of visible pairs.
    pub density: f64,
}

/// Lint a visibility matrix against the §4.3 rules for its table.
///
/// Reports every deviation: asymmetry, a masked diagonal, pairs visible
/// that must be masked ([`AuditError::OverVisible`]) and pairs masked
/// that must be visible ([`AuditError::UnderVisible`]).
pub fn lint_visibility(
    inst: &TableInstance,
    m: &VisibilityMatrix,
) -> Result<VisibilityReport, Vec<AuditError>> {
    let elems = classify(inst);
    let n = elems.len();
    if m.n() != n {
        return Err(vec![AuditError::ShapeMismatch {
            op: "visibility_matrix",
            shapes: vec![vec![m.n(), m.n()], vec![n, n]],
            detail: format!(
                "matrix is {}x{} but the table linearizes to {n} elements",
                m.n(),
                m.n()
            ),
        }]);
    }
    let mut errors = Vec::new();
    for i in 0..n {
        if !m.visible(i, i) {
            errors.push(AuditError::UnderVisible {
                i,
                j: i,
                a: elems[i].describe(),
                b: "itself (diagonal)".into(),
            });
        }
        for j in (i + 1)..n {
            if m.visible(i, j) != m.visible(j, i) {
                errors.push(AuditError::AsymmetricVisibility { i, j });
                continue;
            }
            let want = expected_visible(elems[i], elems[j]);
            let got = m.visible(i, j);
            if got && !want {
                errors.push(AuditError::OverVisible {
                    i,
                    j,
                    a: elems[i].describe(),
                    b: elems[j].describe(),
                });
            } else if !got && want {
                errors.push(AuditError::UnderVisible {
                    i,
                    j,
                    a: elems[i].describe(),
                    b: elems[j].describe(),
                });
            }
        }
    }
    if errors.is_empty() {
        Ok(VisibilityReport { n, density: m.density() })
    } else {
        Err(errors)
    }
}

/// Lint a row-major additive attention mask of size `n * n`.
///
/// Entries must be exactly `0.0` (visible) or ≤ `-1e8` (masked), the
/// matrix must be symmetric, and the diagonal must be fully visible.
pub fn lint_additive_mask(mask: &[f32], n: usize) -> Result<(), Vec<AuditError>> {
    if mask.len() != n * n {
        return Err(vec![AuditError::ShapeMismatch {
            op: "additive_mask",
            shapes: vec![vec![mask.len()], vec![n, n]],
            detail: format!("{} entries cannot form an {n}x{n} mask", mask.len()),
        }]);
    }
    let mut errors = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let v = mask[i * n + j];
            let visible = v == 0.0;
            let masked = v <= -1e8;
            // NaN is neither visible nor masked and must be flagged.
            if !visible && !masked {
                errors.push(AuditError::BadMaskValue { i, j, value: v });
            }
        }
        if mask[i * n + i] != 0.0 {
            errors.push(AuditError::UnderVisible {
                i,
                j: i,
                a: format!("element {i}"),
                b: "itself (diagonal)".into(),
            });
        }
        for j in (i + 1)..n {
            let a = mask[i * n + j] == 0.0;
            let b = mask[j * n + i] == 0.0;
            if a != b {
                errors.push(AuditError::AsymmetricVisibility { i, j });
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Derived §4.4 masking branch fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskingRatios {
    /// Fraction of selected entities where mention and entity both stay.
    pub mer_keep_both: f64,
    /// Fraction where mention and entity are both masked.
    pub mer_mask_both: f64,
    /// Fraction where the mention stays but the entity is masked.
    pub mer_keep_mention: f64,
}

fn check_unit_open(field: &'static str, value: f64) -> Result<(), AuditError> {
    if !(value > 0.0 && value < 1.0 && value.is_finite()) {
        return Err(AuditError::RatioOutOfRange {
            field,
            value,
            expected: "the open interval (0, 1)",
        });
    }
    Ok(())
}

fn check_unit_closed(field: &'static str, value: f64) -> Result<(), AuditError> {
    if !(0.0..=1.0).contains(&value) {
        return Err(AuditError::RatioOutOfRange {
            field,
            value,
            expected: "the closed interval [0, 1]",
        });
    }
    Ok(())
}

/// Validate the §4.4 masking configuration.
///
/// `mlm_select_ratio` and `mer_select_ratio` choose which positions enter
/// the objective and must lie strictly inside `(0, 1)` — a ratio of `0`
/// starves the objective, a ratio of `1` leaves no clean context.
/// `mer_mention_keep_share` only splits MER's non-keep branch between
/// masking both the mention and the entity and keeping the mention, so
/// either end of `[0, 1]` starves nothing (`0`: always mask both, `1`:
/// always keep the mention; the mention-keep ablation runs at `0`). On
/// success the derived MER branch fractions are returned; with the paper
/// defaults (`0.6`, keep share `0.3`) they come out to 10% / 63% / 27%.
pub fn validate_masking_config(
    mlm_select_ratio: f64,
    mer_select_ratio: f64,
    mer_mention_keep_share: f64,
) -> Result<MaskingRatios, AuditError> {
    check_unit_open("mlm_select_ratio", mlm_select_ratio)?;
    check_unit_open("mer_select_ratio", mer_select_ratio)?;
    check_unit_closed("mer_mention_keep_share", mer_mention_keep_share)?;
    Ok(MaskingRatios {
        mer_keep_both: 0.1,
        mer_mask_both: 0.9 * (1.0 - mer_mention_keep_share),
        mer_keep_mention: 0.9 * mer_mention_keep_share,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_data::{Cell, EntityRef, LinearizeConfig, Table, Vocab};

    fn instance() -> TableInstance {
        let t = Table {
            id: "t".into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: "films".into(),
            topic_entity: Some(EntityRef { id: 50, mention: "topic".into() }),
            headers: vec!["year".into(), "director".into()],
            subject_column: 0,
            rows: vec![
                vec![Cell::linked(1, "a"), Cell::linked(2, "b")],
                vec![Cell::linked(3, "c"), Cell::linked(4, "d")],
            ],
        };
        let v = Vocab::build(["films year director topic a b c d"].iter().map(|s| &**s), 1);
        TableInstance::from_table(&t, &v, &LinearizeConfig::default())
    }

    #[test]
    fn built_matrix_passes_the_lint() {
        let inst = instance();
        let m = VisibilityMatrix::build(&inst);
        let report = lint_visibility(&inst, &m).expect("reference builder must satisfy §4.3");
        assert_eq!(report.n, inst.seq_len());
        assert!(report.density > 0.0 && report.density < 1.0);
    }

    #[test]
    fn allow_all_matrix_is_flagged_over_visible() {
        // Sequence layout: [0] caption, [1..3] headers, [3] topic,
        // [4..8] cell entities. allow_all leaks header->other-column pairs.
        let inst = instance();
        let m = VisibilityMatrix::allow_all(inst.seq_len());
        let errs = lint_visibility(&inst, &m).expect_err("dense matrix leaks");
        assert!(errs.iter().any(|e| matches!(e, AuditError::OverVisible { .. })));
        // The specific §4.3 violation: a header seeing another column's cell.
        assert!(errs.iter().any(|e| match e {
            AuditError::OverVisible { a, b, .. } =>
                a.starts_with("header") && b.starts_with("cell"),
            _ => false,
        }));
    }

    #[test]
    fn wrong_size_matrix_is_rejected() {
        let inst = instance();
        let m = VisibilityMatrix::allow_all(inst.seq_len() + 1);
        let errs = lint_visibility(&inst, &m).expect_err("size mismatch");
        assert!(matches!(errs[0], AuditError::ShapeMismatch { op: "visibility_matrix", .. }));
    }

    #[test]
    fn additive_mask_lint_accepts_reference_output() {
        let inst = instance();
        let m = VisibilityMatrix::build(&inst);
        let mask = m.to_additive_mask(-1e9);
        lint_additive_mask(&mask, m.n()).expect("reference mask is clean");
    }

    #[test]
    fn additive_mask_lint_catches_soft_values_and_asymmetry() {
        let n = 3;
        let mut mask = vec![0.0f32; n * n];
        mask[1] = -0.5; // soft value: neither 0 nor <= -1e8
        let errs = lint_additive_mask(&mask, n).expect_err("soft value");
        assert!(errs.iter().any(|e| matches!(e, AuditError::BadMaskValue { i: 0, j: 1, .. })));

        let mut asym = vec![0.0f32; n * n];
        asym[n + 2] = -1e9; // (1,2) masked but (2,1) visible
        let errs = lint_additive_mask(&asym, n).expect_err("asymmetric");
        assert!(errs.iter().any(|e| matches!(e, AuditError::AsymmetricVisibility { i: 1, j: 2 })));

        let mut diag = vec![0.0f32; n * n];
        diag[0] = -1e9;
        let errs = lint_additive_mask(&diag, n).expect_err("masked diagonal");
        assert!(errs.iter().any(|e| matches!(e, AuditError::UnderVisible { i: 0, j: 0, .. })));
    }

    #[test]
    fn paper_default_ratios_recover_10_63_27() {
        let r = validate_masking_config(0.2, 0.6, 0.3).expect("paper defaults are valid");
        assert!((r.mer_keep_both - 0.10).abs() < 1e-12);
        assert!((r.mer_mask_both - 0.63).abs() < 1e-12);
        assert!((r.mer_keep_mention - 0.27).abs() < 1e-12);
    }

    #[test]
    fn either_end_of_the_mention_keep_share_is_accepted() {
        // It only splits MER's non-keep branch: 0 masks both, 1 keeps the
        // mention, and neither starves an objective.
        let all_masked = validate_masking_config(0.2, 0.6, 0.0).expect("keep share 0");
        assert_eq!((all_masked.mer_mask_both, all_masked.mer_keep_mention), (0.9, 0.0));
        let all_kept = validate_masking_config(0.2, 0.6, 1.0).expect("keep share 1");
        assert_eq!((all_kept.mer_mask_both, all_kept.mer_keep_mention), (0.0, 0.9));
        for (mlm, mer) in [(0.0, 0.6), (1.0, 0.6), (0.2, 0.0), (0.2, 1.0)] {
            assert!(validate_masking_config(mlm, mer, 0.0).is_err(), "select ratios stay open");
        }
    }

    #[test]
    fn out_of_range_ratios_are_rejected_with_field_names() {
        for (mlm, mer, keep, field) in [
            (0.0, 0.6, 0.3, "mlm_select_ratio"),
            (0.2, 1.0, 0.3, "mer_select_ratio"),
            (0.2, 0.6, -0.1, "mer_mention_keep_share"),
            (0.2, 0.6, 1.5, "mer_mention_keep_share"),
            (0.2, 0.6, f64::NAN, "mer_mention_keep_share"),
        ] {
            match validate_masking_config(mlm, mer, keep) {
                Err(AuditError::RatioOutOfRange { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected RatioOutOfRange for {field}, got {other:?}"),
            }
        }
    }
}
