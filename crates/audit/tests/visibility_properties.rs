//! Property-based tests for the visibility linter: matrices built by
//! `turl-data` always pass, corrupted matrices and masks always fail.

use proptest::prelude::*;
use turl_audit::{lint_additive_mask, lint_visibility, AuditError};
use turl_data::{Cell, EntityRef, LinearizeConfig, Table, TableInstance, VisibilityMatrix, Vocab};

const NEG: f32 = -1e9;

fn arb_word() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn arb_table() -> impl Strategy<Value = Table> {
    (
        proptest::collection::vec(arb_word(), 0..5),
        proptest::collection::vec(arb_word(), 1..5),
        1usize..5,
        proptest::collection::vec(any::<bool>(), 1..25),
    )
        .prop_map(|(caption_words, headers, n_rows, link_flags)| {
            let n_cols = headers.len();
            let mut flag = link_flags.into_iter().cycle();
            let rows = (0..n_rows)
                .map(|r| {
                    (0..n_cols)
                        .map(|c| {
                            let id = (r * n_cols + c) as u32;
                            if flag.next().expect("cycled iterator never ends") {
                                Cell::linked(id, format!("ent{id}"))
                            } else {
                                Cell::text(format!("txt{id}"))
                            }
                        })
                        .collect()
                })
                .collect();
            Table {
                id: "prop".into(),
                page_title: String::new(),
                section_title: String::new(),
                caption: caption_words.join(" "),
                topic_entity: Some(EntityRef { id: 9999, mention: "topic".into() }),
                headers,
                rows,
                subject_column: 0,
            }
        })
}

fn instance(t: &Table) -> TableInstance {
    TableInstance::from_table(t, &Vocab::from_tables([t], ["topic"]), &LinearizeConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn built_matrices_always_pass_the_linter(table in arb_table()) {
        let inst = instance(&table);
        let m = VisibilityMatrix::build(&inst);
        let report = lint_visibility(&inst, &m);
        prop_assert!(report.is_ok(), "built matrix rejected: {:?}", report.err());
        let report = report.expect("checked above");
        prop_assert_eq!(report.n, inst.seq_len());

        let mask = m.to_additive_mask(NEG);
        prop_assert!(lint_additive_mask(&mask, m.n()).is_ok());
    }

    #[test]
    fn asymmetric_corruption_always_fails(table in arb_table(), pick in any::<u32>()) {
        let inst = instance(&table);
        let m = VisibilityMatrix::build(&inst);
        let n = m.n();
        prop_assume!(n >= 2);
        // Flip exactly one off-diagonal entry of the additive mask; the
        // mirror entry keeps its original value, so symmetry is broken.
        let i = (pick as usize) % n;
        let j = (i + 1 + (pick as usize / n) % (n - 1)) % n;
        prop_assert_ne!(i, j);
        let mut mask = m.to_additive_mask(NEG);
        let cell = &mut mask[i * n + j];
        *cell = if *cell == 0.0 { NEG } else { 0.0 };
        let errs = lint_additive_mask(&mask, n).expect_err("corruption must be caught");
        prop_assert!(
            errs.iter().any(|e| matches!(e, AuditError::AsymmetricVisibility { .. })),
            "expected an asymmetry error, got {errs:?}"
        );
    }

    #[test]
    fn out_of_band_values_always_fail(table in arb_table(), pick in any::<u32>(), bad in -0.9f32..0.9) {
        let inst = instance(&table);
        let m = VisibilityMatrix::build(&inst);
        let n = m.n();
        // A value that is neither 0.0 (visible) nor <= -1e8 (masked).
        let bad = if bad == 0.0 { 0.5 } else { bad };
        let idx = (pick as usize) % (n * n);
        let mut mask = m.to_additive_mask(NEG);
        mask[idx] = bad;
        let errs = lint_additive_mask(&mask, n).expect_err("bad value must be caught");
        prop_assert!(
            errs.iter().any(|e| matches!(e, AuditError::BadMaskValue { .. })),
            "expected a bad-value error, got {errs:?}"
        );
    }

    #[test]
    fn over_visible_matrices_fail_when_structure_is_nontrivial(table in arb_table()) {
        let inst = instance(&table);
        let truth = VisibilityMatrix::build(&inst);
        let n = truth.n();
        let has_masked_pair =
            (0..n).any(|i| (0..n).any(|j| !truth.visible(i, j)));
        // allow_all (the Figure 7a ablation) must be rejected whenever the
        // real §4.3 structure masks at least one pair.
        prop_assume!(has_masked_pair);
        let errs = lint_visibility(&inst, &VisibilityMatrix::allow_all(n))
            .expect_err("over-visible matrix must be caught");
        prop_assert!(
            errs.iter().any(|e| matches!(e, AuditError::OverVisible { .. })),
            "expected an over-visibility error, got {errs:?}"
        );
    }
}
