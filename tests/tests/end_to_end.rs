//! End-to-end integration: world generation → §5.1 pipeline →
//! pre-training → weights file → fine-tuning, across all crates.

use turl_core::{bind_store, encode_tables, probe, Pretrainer, TurlConfig};
use turl_data::Vocab;
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, CorpusSplits, KnowledgeBase, PipelineConfig,
    WorldConfig,
};
use turl_nn::{export_artifact, load_artifact, ExportOptions, Forward};

struct World {
    kb: KnowledgeBase,
    splits: CorpusSplits,
    vocab: Vocab,
    cooccur: CooccurrenceIndex,
}

fn world(seed: u64) -> World {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(seed));
    let pcfg = PipelineConfig { max_eval_tables: 20, ..Default::default() };
    let splits = generate_splits(
        &kb,
        &CorpusConfig { n_tables: 150, ..CorpusConfig::tiny(seed + 1) },
        &pcfg,
    );
    let vocab = Vocab::from_tables(&splits.train, []);
    let cooccur = CooccurrenceIndex::build(&splits.train);
    World { kb, splits, vocab, cooccur }
}

#[test]
fn pretraining_is_deterministic_given_seed() {
    let w = world(100);
    let cfg = TurlConfig::tiny(5);
    let data = encode_tables(&w.splits.train[..20.min(w.splits.train.len())], &w.vocab, &cfg);
    let run = || {
        let mut pt =
            Pretrainer::new(cfg, w.vocab.len(), w.kb.n_entities(), w.vocab.mask_id() as usize);
        pt.train(&data, &w.cooccur, 2);
        let id = pt.store.find("turl.ent_emb.weight").unwrap();
        pt.store.value(id).data().to_vec()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bit-identical training");
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    let w = world(200);
    let cfg = TurlConfig::tiny(6);
    let data = encode_tables(&w.splits.train[..20.min(w.splits.train.len())], &w.vocab, &cfg);
    let mut pt = Pretrainer::new(cfg, w.vocab.len(), w.kb.n_entities(), w.vocab.mask_id() as usize);
    pt.train(&data, &w.cooccur, 2);

    let dir = std::env::temp_dir().join("turl_integration_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.artifact");
    export_artifact(&pt.store, &path, &ExportOptions::default()).unwrap();
    let loaded = load_artifact(&path).unwrap();

    let mut pt2 =
        Pretrainer::new(cfg, w.vocab.len(), w.kb.n_entities(), w.vocab.mask_id() as usize);
    bind_store(&pt2.model, &loaded).expect("the artifact holds this model's parameters");
    let copied = pt2.store.load_matching(&loaded);
    assert_eq!(copied, pt2.store.len(), "all parameters must be restored");

    // identical representation for the same input
    let (_, enc) = &data[0];
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(0);
    let mut f1 = Forward::inference(&pt.store);
    let h1 = pt.model.encode(&mut f1, &pt.store, &mut rng, enc);
    let mut rng2: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(0);
    let mut f2 = Forward::inference(&pt2.store);
    let h2 = pt2.model.encode(&mut f2, &pt2.store, &mut rng2, enc);
    let v1 = f1.graph.value(h1);
    let v2 = f2.graph.value(h2);
    for (a, b) in v1.data().iter().zip(v2.data().iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pretraining_improves_object_entity_probe() {
    let w = world(300);
    let cfg = TurlConfig::tiny(7);
    let train = encode_tables(&w.splits.train, &w.vocab, &cfg);
    let val = encode_tables(&w.splits.validation, &w.vocab, &cfg);
    let mut pt = Pretrainer::new(cfg, w.vocab.len(), w.kb.n_entities(), w.vocab.mask_id() as usize);
    let mask = w.vocab.mask_id() as usize;
    let before =
        probe::object_entity_accuracy(&pt.model, &pt.store, &val, &w.cooccur, mask, 0, 100);
    pt.train(&train, &w.cooccur, 8);
    let after = probe::object_entity_accuracy(&pt.model, &pt.store, &val, &w.cooccur, mask, 0, 100);
    assert!(
        after > before + 0.02,
        "pre-training must improve the probe: {before:.3} -> {after:.3}"
    );
}

#[test]
fn no_table_leaks_between_splits() {
    let w = world(400);
    let ids = |ts: &[turl_data::Table]| {
        ts.iter().map(|t| t.id.clone()).collect::<std::collections::HashSet<_>>()
    };
    let train = ids(&w.splits.train);
    let val = ids(&w.splits.validation);
    let test = ids(&w.splits.test);
    assert!(train.is_disjoint(&val));
    assert!(train.is_disjoint(&test));
    assert!(val.is_disjoint(&test));
}

#[test]
fn visibility_variant_changes_representations_but_not_interface() {
    let w = world(500);
    let cfg_vis = TurlConfig::tiny(8);
    let cfg_novis = TurlConfig { use_visibility: false, ..cfg_vis };
    let with_v = encode_tables(&w.splits.train[..1], &w.vocab, &cfg_vis);
    let without_v = encode_tables(&w.splits.train[..1], &w.vocab, &cfg_novis);
    assert!(with_v[0].1.mask.is_some());
    assert!(without_v[0].1.mask.is_none());
    let pt = Pretrainer::new(cfg_vis, w.vocab.len(), w.kb.n_entities(), w.vocab.mask_id() as usize);
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(0);
    let mut f = Forward::inference(&pt.store);
    let h1 = pt.model.encode(&mut f, &pt.store, &mut rng, &with_v[0].1);
    let mut rng2: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(0);
    let mut f2 = Forward::inference(&pt.store);
    let h2 = pt.model.encode(&mut f2, &pt.store, &mut rng2, &without_v[0].1);
    assert_eq!(f.graph.value(h1).shape(), f2.graph.value(h2).shape());
    // the visibility mask must actually change the computation
    let diff: f32 = f
        .graph
        .value(h1)
        .data()
        .iter()
        .zip(f2.graph.value(h2).data().iter())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(diff > 1e-3, "visibility matrix had no effect");
}
