//! The grouped pre-training step: `Pretrainer::train_step` deals a batch's
//! tables into one stacked tape per pool worker, so the pool width decides
//! which tables share a tape. A table's gradients must not see that: at
//! widths 1 (every table on one tape), 2 and 3 (at most three tables, one
//! per tape) two steps give the same loss bits, parameters and Adam
//! moments — with dropout on, tables that reach only one head, and with
//! and without the relation objective's per-table head.

use proptest::prelude::*;
use turl_core::{encode_tables, AuxRelationObjective, EncodedInput, Pretrainer, TurlConfig};
use turl_data::{TableInstance, Vocab};
use turl_kb::{
    generate_corpus, identify_relational, CooccurrenceIndex, CorpusConfig, KnowledgeBase,
    PipelineConfig, WorldConfig,
};
use turl_nn::snapshot_params;
use turl_tensor::pool;

type Fixture = (KnowledgeBase, Vocab, Vec<(TableInstance, EncodedInput)>, CooccurrenceIndex);

/// Each parameter's name and the bits of its value and Adam moments.
type StateBits = Vec<(String, [Vec<u32>; 3])>;

fn setup() -> Fixture {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(13));
    let tables = identify_relational(
        generate_corpus(&kb, &CorpusConfig { n_tables: 60, ..CorpusConfig::tiny(14) }),
        &PipelineConfig::default(),
    );
    let vocab = Vocab::from_tables(&tables, []);
    let data = encode_tables(&tables, &vocab, &config());
    let cooccur = CooccurrenceIndex::build(&tables);
    (kb, vocab, data, cooccur)
}

/// Two layers with dropout: every dropout site draws from a table's own
/// stream, on a stacked site as well as a per-table one.
fn config() -> TurlConfig {
    let mut cfg = TurlConfig::tiny(21);
    cfg.encoder.n_layers = 2;
    cfg.encoder.dropout = 0.1;
    cfg
}

/// Losses and `(value, m, v)` bits of every parameter after two steps over
/// `batch` at pool width `threads`.
fn two_steps(
    (kb, vocab, data, cooccur): &Fixture,
    batch: &[(TableInstance, EncodedInput)],
    relations: bool,
    threads: usize,
) -> (Vec<Option<u32>>, StateBits) {
    let mut pt = Pretrainer::new(config(), vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    if relations {
        let d = pt.cfg.encoder.d_model;
        let aux = AuxRelationObjective::build(&mut pt.store, d, kb, data, 0.5, 3);
        pt.set_aux_relations(aux);
    }
    let saved = pool::n_threads();
    pool::set_threads(threads);
    let losses = (0..2).map(|_| pt.train_step(batch, cooccur).loss().map(f32::to_bits)).collect();
    pool::set_threads(saved);
    let bits = |t: &turl_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect();
    let state = snapshot_params(&pt.store)
        .into_iter()
        .map(|r| {
            let moment = |t: &Option<std::sync::Arc<turl_tensor::Tensor>>| {
                t.as_deref().map_or_else(Vec::new, bits)
            };
            (r.name, [bits(&r.value), moment(&r.m), moment(&r.v)])
        })
        .collect();
    (losses, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn a_grouped_step_has_the_bits_of_a_tape_per_table(
        n_tables in 1usize..7,
        pick in proptest::collection::vec(0usize..1000, 6),
        relations in any::<bool>(),
    ) {
        let fixture = setup();
        let (_, _, data, _) = &fixture;
        let sized: Vec<&(TableInstance, EncodedInput)> =
            data.iter().filter(|(_, e)| (18..=46).contains(&e.seq_len())).collect();
        prop_assume!(sized.len() >= 6);
        let mut batch: Vec<(TableInstance, EncodedInput)> =
            pick[..n_tables].iter().map(|&i| sized[i % sized.len()].clone()).collect();
        // One table with no entity (no MER target) and one with no token
        // (no MLM target), when the batch has room for them; renamed, so
        // the relation objective has no pairs for the cells they lost.
        if n_tables >= 2 {
            for (inst, _) in &mut batch[..2] {
                inst.table_id = format!("{} without a head", inst.table_id);
            }
            batch[0].1 = EncodedInput { entities: Vec::new(), mask: None, ..batch[0].1.clone() };
            batch[1].1 = EncodedInput {
                token_ids: Vec::new(),
                token_types: Vec::new(),
                token_pos: Vec::new(),
                mask: None,
                ..batch[1].1.clone()
            };
        }
        let (losses, state) = two_steps(&fixture, &batch, relations, 1);
        prop_assert!(losses.iter().any(Option::is_some), "no step was taken");
        for threads in [2, 3] {
            let (wider_losses, wider_state) = two_steps(&fixture, &batch, relations, threads);
            prop_assert_eq!(&losses, &wider_losses, "loss bits at {} threads", threads);
            prop_assert_eq!(state.len(), wider_state.len());
            for ((name, want), (_, got)) in state.iter().zip(&wider_state) {
                for (what, (w, g)) in ["value", "m", "v"].iter().zip(want.iter().zip(got)) {
                    prop_assert!(w == g, "`{}` {} differs at {} threads", name, what, threads);
                }
            }
        }
    }
}
