//! Property tests for the §4.4 masking mechanics and candidate
//! construction: the statistical contract of `apply_mask_plan` and the
//! structural contract of `build_candidates`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_core::{apply_mask_plan, build_candidates, EncodedInput, TurlConfig};
use turl_data::{Cell, EntityRef, LinearizeConfig, Table, TableInstance, Vocab};
use turl_kb::CooccurrenceIndex;

fn table_with(n_rows: usize, n_cols: usize) -> (TableInstance, Vocab) {
    let headers: Vec<String> = (0..n_cols).map(|c| format!("h{c}")).collect();
    let rows: Vec<Vec<Cell>> = (0..n_rows)
        .map(|r| {
            (0..n_cols)
                .map(|c| Cell::linked((r * n_cols + c) as u32, format!("e{r}x{c}")))
                .collect()
        })
        .collect();
    let t = Table {
        id: "m".into(),
        page_title: "page".into(),
        section_title: String::new(),
        caption: "caption words here for masking".into(),
        topic_entity: Some(EntityRef { id: 900, mention: "topic".into() }),
        headers,
        rows,
        subject_column: 0,
    };
    let vocab = Vocab::from_tables([&t], []);
    let inst = TableInstance::from_table(&t, &vocab, &LinearizeConfig::default());
    (inst, vocab)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mask_plan_targets_are_recoverable(seed in 0u64..5000, rows in 2usize..6, cols in 2usize..4) {
        let (inst, vocab) = table_with(rows, cols);
        let cfg = TurlConfig::tiny(1);
        let clean = EncodedInput::from_instance(&inst, &vocab, true);
        let mut enc = clean.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = apply_mask_plan(&mut rng, &mut enc, &cfg, vocab.mask_id() as usize, vocab.len(), 1000);

        // sequence length never changes
        prop_assert_eq!(enc.seq_len(), clean.seq_len());
        // every MLM target records the ORIGINAL token at that position
        for &(pos, original) in &plan.mlm {
            prop_assert_eq!(clean.token_ids[pos], original);
        }
        // every MER target records the original (unshifted) entity
        for &(cell, original) in &plan.mer {
            prop_assert_eq!(clean.entities[cell].emb_index, original + 1);
        }
        // unselected positions are untouched
        let mlm_set: std::collections::HashSet<usize> = plan.mlm.iter().map(|&(p, _)| p).collect();
        for (p, (&a, &b)) in clean.token_ids.iter().zip(enc.token_ids.iter()).enumerate() {
            if !mlm_set.contains(&p) {
                prop_assert_eq!(a, b, "unselected token {} changed", p);
            }
        }
        let mer_set: std::collections::HashSet<usize> = plan.mer.iter().map(|&(c, _)| c).collect();
        for (c, (a, b)) in clean.entities.iter().zip(enc.entities.iter()).enumerate() {
            if !mer_set.contains(&c) {
                prop_assert_eq!(a, b, "unselected entity cell {} changed", c);
            }
        }
    }

    #[test]
    fn mask_plan_is_deterministic_in_seed(seed in 0u64..1000) {
        let (inst, vocab) = table_with(4, 3);
        let cfg = TurlConfig::tiny(1);
        let run = || {
            let mut enc = EncodedInput::from_instance(&inst, &vocab, true);
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = apply_mask_plan(&mut rng, &mut enc, &cfg, vocab.mask_id() as usize, vocab.len(), 1000);
            (enc.token_ids.clone(), plan.mlm, plan.mer)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn candidates_unique_and_within_vocab(seed in 0u64..1000) {
        let (inst, _) = table_with(4, 3);
        let cfg = TurlConfig::tiny(2);
        let cooccur = CooccurrenceIndex::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let n_entities = 1000;
        let cands = build_candidates(&mut rng, &inst, &cooccur, &cfg, n_entities);
        let set: std::collections::HashSet<usize> = cands.iter().copied().collect();
        prop_assert_eq!(set.len(), cands.len(), "duplicate candidates");
        for &c in &cands {
            prop_assert!(c < n_entities);
        }
        // all table entities present (default config)
        for e in &inst.entities {
            prop_assert!(set.contains(&(e.entity as usize)));
        }
    }
}
