//! Cross-crate integration for the six TUBE tasks: dataset builders from
//! `turl-kb`, heads from `turl-core`, baselines from `turl-baselines`,
//! all over one shared world.

use turl_baselines::{rank_exact, rank_h2h, EntiTables, KnnSchema, SkipGramConfig, Table2Vec};
use turl_core::tasks::cell_filling::CellFiller;
use turl_core::tasks::clone_pretrained;
use turl_core::tasks::row_population::RowPopulationModel;
use turl_core::{encode_tables, FinetuneConfig, Pretrainer, TurlConfig};
use turl_data::Vocab;
use turl_kb::tasks::metrics::{average_precision, mean_average_precision};
use turl_kb::tasks::{
    build_cell_filling, build_header_vocab, build_row_population, build_schema_augmentation,
};
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, CorpusSplits, KnowledgeBase, PipelineConfig,
    TableSearchIndex, WorldConfig,
};

fn setup() -> (KnowledgeBase, CorpusSplits, Vocab, CooccurrenceIndex, TableSearchIndex) {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(600));
    let pcfg = PipelineConfig { max_eval_tables: 30, ..Default::default() };
    let splits =
        generate_splits(&kb, &CorpusConfig { n_tables: 260, ..CorpusConfig::tiny(601) }, &pcfg);
    let vocab = Vocab::from_tables(&splits.train, []);
    let cooccur = CooccurrenceIndex::build(&splits.train);
    let search = TableSearchIndex::build(&splits.train);
    (kb, splits, vocab, cooccur, search)
}

#[test]
fn row_population_methods_share_candidates_and_produce_permutations() {
    let (kb, splits, vocab, cooccur, search) = setup();
    let eval = build_row_population(&splits.test, &search, 1, 5, 10);
    assert!(!eval.is_empty());

    let entitables = EntiTables::build(&splits.train);
    let t2v = Table2Vec::train(
        &splits.train,
        &SkipGramConfig { dim: 16, epochs: 2, ..Default::default() },
    );
    let cfg = TurlConfig::tiny(602);
    let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let turl = RowPopulationModel::new(m, s);

    for ex in eval.iter().take(5) {
        let a = entitables.rank(&ex.caption, &ex.seeds, &ex.candidates);
        let b = t2v.rank(&ex.seeds, &ex.candidates);
        let c = turl.rank(&vocab, &kb, ex);
        for ranked in [&a, &b, &c] {
            let mut sorted = (*ranked).clone();
            sorted.sort_unstable();
            let mut cands = ex.candidates.clone();
            cands.sort_unstable();
            assert_eq!(sorted, cands, "each method must rank exactly the shared candidates");
        }
    }
    let _ = cooccur;
}

#[test]
fn cell_filling_turl_and_baselines_agree_on_protocol() {
    let (kb, splits, vocab, cooccur, _) = setup();
    let eval = build_cell_filling(&splits.test, &cooccur, 3, true);
    assert!(!eval.is_empty());
    let cfg = TurlConfig::tiny(603);
    let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    let filler = CellFiller::new(&pt.model, &pt.store);
    let with_gold: Vec<_> = eval.iter().filter(|e| e.gold_in_candidates()).take(10).collect();
    for ex in with_gold {
        let exact = rank_exact(ex);
        let h2h = rank_h2h(ex, &cooccur);
        let turl = filler.rank(&vocab, &kb, &splits.test, ex);
        assert_eq!(exact.len(), ex.candidates.len());
        assert_eq!(h2h.len(), ex.candidates.len());
        assert_eq!(turl.len(), ex.candidates.len());
    }
}

#[test]
fn schema_augmentation_knn_and_turl_rank_same_space() {
    let (kb, splits, vocab, _, search) = setup();
    let headers = build_header_vocab(&splits.train, 2);
    let eval = build_schema_augmentation(&splits.test, &headers, 1);
    assert!(!eval.is_empty());
    let knn = KnnSchema::new(&search, 10);
    let cfg = TurlConfig::tiny(604);
    let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let mut turl = turl_core::tasks::schema_augmentation::SchemaAugModel::new(m, s, headers.len());
    let train_ex = build_schema_augmentation(&splits.train, &headers, 1);
    turl.train(
        &vocab,
        &headers,
        &train_ex[..60.min(train_ex.len())],
        &FinetuneConfig { epochs: 3, ..Default::default() },
    );
    for ex in eval.iter().take(5) {
        let knn_ranked = knn.rank(&headers, ex).ranked;
        let turl_ranked = turl.rank(&vocab, &headers, ex);
        for &h in knn_ranked.iter().chain(turl_ranked.iter()) {
            assert!(h < headers.len());
            assert!(!ex.seeds.contains(&h), "seeds must not be re-recommended");
        }
        // TURL ranks the full vocabulary (minus seeds)
        assert_eq!(turl_ranked.len(), headers.len() - ex.seeds.len());
    }
}

#[test]
fn fine_tuning_from_pretrained_beats_from_scratch_on_row_population() {
    let (kb, splits, vocab, cooccur, search) = setup();
    let cfg = TurlConfig::tiny(605);
    let data = encode_tables(&splits.train, &vocab, &cfg);
    let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    pt.train(&data, &cooccur, 6);

    let mut train_ex = build_row_population(&splits.train, &search, 1, 4, 10);
    train_ex.truncate(60);
    let eval = build_row_population(&splits.test, &search, 1, 5, 10);
    let ft = FinetuneConfig { epochs: 3, ..Default::default() };

    let run = |init_store: &turl_nn::ParamStore| {
        let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), init_store);
        let mut rp = RowPopulationModel::new(m, s);
        rp.train(&vocab, &kb, &train_ex, &ft);
        let aps: Vec<f64> =
            eval.iter().map(|ex| average_precision(&rp.rank(&vocab, &kb, ex), &ex.gold)).collect();
        mean_average_precision(&aps)
    };
    let scratch_store = Pretrainer::new(
        TurlConfig::tiny(606),
        vocab.len(),
        kb.n_entities(),
        vocab.mask_id() as usize,
    )
    .store;
    let map_scratch = run(&scratch_store);
    let map_pretrained = run(&pt.store);
    // at tiny scale this comparison is noisy; the quick-scale Table 8
    // experiment measures the real effect — here we only guard against
    // pre-training being catastrophically harmful
    assert!(
        map_pretrained > map_scratch - 0.05,
        "pre-training should not hurt: scratch {map_scratch:.3} vs pre-trained {map_pretrained:.3}"
    );
}
