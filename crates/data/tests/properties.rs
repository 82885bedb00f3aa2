//! Property-based tests for the data model: tokenizer, vocabulary,
//! linearization and visibility-matrix invariants.

use proptest::prelude::*;
use turl_data::{
    tokenize, Cell, EntityRef, LinearizeConfig, Table, TableInstance, VisibilityMatrix, Vocab,
};

fn arb_word() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_word(), 0..6).prop_map(|ws| ws.join(" "))
}

fn arb_table() -> impl Strategy<Value = Table> {
    (
        arb_text(),
        proptest::collection::vec(arb_word(), 1..5),
        1usize..6,
        proptest::collection::vec(any::<bool>(), 1..25),
    )
        .prop_map(|(caption, headers, n_rows, link_flags)| {
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
                caption,
                topic_entity: Some(EntityRef { id: 9999, mention: "topic".into() }),
                headers,
                rows,
                subject_column: 0,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tokenize_is_idempotent_on_its_output(text in arb_text()) {
        let once = tokenize(&text);
        let twice = tokenize(&once.join(" "));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn tokenize_never_emits_empty_or_uppercase(text in "\\PC{0,40}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            // lowercase-normalized: re-lowercasing is a no-op (some chars,
            // e.g. squared Latin letters, are Other_Uppercase with no
            // lowercase mapping — those stay as-is)
            prop_assert_eq!(tok.clone(), tok.to_lowercase());
            prop_assert!(!tok.chars().any(|c| c.is_whitespace()));
            // ASCII output is strictly alphanumeric; non-ASCII lowercase
            // mappings may include combining marks, which is fine
            prop_assert!(tok.chars().filter(|c| c.is_ascii()).all(|c| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn vocab_encode_decode_consistent(words in proptest::collection::vec(arb_word(), 1..10)) {
        let text = words.join(" ");
        let vocab = Vocab::build(std::iter::once(text.as_str()), 1);
        let ids = vocab.encode(&text);
        prop_assert_eq!(vocab.decode(&ids), tokenize(&text).join(" "));
        // every in-vocab token id is stable
        for id in &ids {
            prop_assert!((*id as usize) < vocab.len());
        }
    }

    #[test]
    fn linearization_counts_match_table(table in arb_table()) {
        let vocab = Vocab::from_tables([&table], ["topic"]);
        let cfg = LinearizeConfig { max_rows: 100, ..Default::default() };
        let inst = TableInstance::from_table(&table, &vocab, &cfg);
        // one entity item per linked cell plus the topic entity
        prop_assert_eq!(inst.entities.len(), table.n_linked_entities() + 1);
        prop_assert_eq!(inst.seq_len(), inst.tokens.len() + inst.entities.len());
        // column helpers agree with the table
        for col in 0..table.n_cols() {
            let linked_in_col = table
                .rows
                .iter()
                .filter(|r| r.get(col).map(|c| c.is_linked()).unwrap_or(false))
                .count();
            prop_assert_eq!(inst.entities_in_column(col).len(), linked_in_col);
        }
    }

    #[test]
    fn visibility_matrix_invariants(table in arb_table()) {
        let vocab = Vocab::from_tables([&table], ["topic"]);
        let inst = TableInstance::from_table(&table, &vocab, &LinearizeConfig::default());
        let m = VisibilityMatrix::build(&inst);
        let n = m.n();
        prop_assert_eq!(n, inst.seq_len());
        for i in 0..n {
            // reflexive
            prop_assert!(m.visible(i, i));
            for j in 0..n {
                // symmetric
                prop_assert_eq!(m.visible(i, j), m.visible(j, i));
            }
        }
        // topic entity (first entity item) sees everything
        if !inst.entities.is_empty() {
            let topic_row = inst.entity_seq_index(0);
            for j in 0..n {
                prop_assert!(m.visible(topic_row, j));
            }
        }
        // the additive mask matches the boolean matrix
        let mask = m.to_additive_mask(-1e9);
        for i in 0..n {
            for j in 0..n {
                let expect = if m.visible(i, j) { 0.0 } else { -1e9 };
                prop_assert_eq!(mask[i * n + j], expect);
            }
        }
    }

    #[test]
    fn truncation_is_monotone(table in arb_table(), max_rows in 1usize..6) {
        let vocab = Vocab::from_tables([&table], ["topic"]);
        let small = TableInstance::from_table(
            &table,
            &vocab,
            &LinearizeConfig { max_rows, ..Default::default() },
        );
        let large = TableInstance::from_table(
            &table,
            &vocab,
            &LinearizeConfig { max_rows: max_rows + 3, ..Default::default() },
        );
        prop_assert!(small.entities.len() <= large.entities.len());
        prop_assert!(small.seq_len() <= large.seq_len());
    }
}
