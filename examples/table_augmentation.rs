//! Table augmentation: row population, cell filling and schema
//! augmentation — the §6.5–§6.7 tasks, i.e. the "intelligent assistance
//! while composing a table" scenario from the paper's introduction.
//!
//! Run with `cargo run -p turl-examples --bin table_augmentation`.

use turl_core::tasks::cell_filling::CellFiller;
use turl_core::tasks::clone_pretrained;
use turl_core::tasks::row_population::RowPopulationModel;
use turl_core::tasks::schema_augmentation::SchemaAugModel;
use turl_core::{encode_tables, FinetuneConfig, Pretrainer, TurlConfig};
use turl_data::Vocab;
use turl_kb::tasks::{
    build_cell_filling, build_header_vocab, build_row_population, build_schema_augmentation,
};
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, KnowledgeBase, PipelineConfig,
    TableSearchIndex, WorldConfig,
};

fn main() {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(31));
    let pcfg = PipelineConfig { max_eval_tables: 24, ..Default::default() };
    let splits =
        generate_splits(&kb, &CorpusConfig { n_tables: 260, ..CorpusConfig::tiny(32) }, &pcfg);
    let vocab = Vocab::from_tables(&splits.train, []);
    let cooccur = CooccurrenceIndex::build(&splits.train);
    let search = TableSearchIndex::build(&splits.train);

    let cfg = TurlConfig::tiny(33);
    let data = encode_tables(&splits.train, &vocab, &cfg);
    let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    println!("pre-training on {} tables ...", data.len());
    pt.train(&data, &cooccur, 8);
    let ft = FinetuneConfig { epochs: 5, ..Default::default() };

    // --- row population -----------------------------------------------------
    let mut rp_train = build_row_population(&splits.train, &search, 0, 4, 10);
    rp_train.extend(build_row_population(&splits.train, &search, 1, 4, 10));
    rp_train.truncate(250);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let mut rp = RowPopulationModel::new(m, s);
    rp.train(&vocab, &kb, &rp_train, &ft);
    let rp_eval = build_row_population(&splits.test, &search, 1, 5, 10);
    let (map, recall) = rp.evaluate(&vocab, &kb, &rp_eval);
    println!(
        "\n[row population]  MAP {:.1} (candidate recall {:.1}%) over {} queries",
        100.0 * map,
        100.0 * recall,
        rp_eval.len()
    );
    if let Some(q) = rp_eval.iter().find(|q| !q.candidates.is_empty()) {
        println!(
            "  query: \"{}\", seed {:?}",
            q.caption,
            q.seeds.iter().map(|&e| kb.entity(e).name.clone()).collect::<Vec<_>>()
        );
        let top: Vec<String> =
            rp.rank(&vocab, &kb, q).iter().take(3).map(|&e| kb.entity(e).name.clone()).collect();
        println!("  suggested next subject entities: {top:?}");
    }

    // --- cell filling --------------------------------------------------------
    let cf_eval = build_cell_filling(&splits.test, &cooccur, 3, true);
    let filler = CellFiller::new(&pt.model, &pt.store);
    let ps = filler.precision_at(&vocab, &kb, &splits.test, &cf_eval, &[1, 3]);
    println!(
        "\n[cell filling]    P@1 {:.1}  P@3 {:.1} over {} instances (no fine-tuning: MER head)",
        100.0 * ps[0],
        100.0 * ps[1],
        cf_eval.len()
    );
    if let Some(ex) = cf_eval.iter().find(|e| e.gold_in_candidates() && e.candidates.len() > 1) {
        let ranked = filler.rank(&vocab, &kb, &splits.test, ex);
        println!(
            "  \"{}\" + header \"{}\" -> predicted \"{}\" (gold \"{}\")",
            kb.entity(ex.subject).name,
            ex.target_header,
            kb.entity(ranked[0]).name,
            kb.entity(ex.gold).name
        );
    }

    // --- schema augmentation --------------------------------------------------
    let headers = build_header_vocab(&splits.train, 2);
    let mut sa_train = build_schema_augmentation(&splits.train, &headers, 0);
    sa_train.extend(build_schema_augmentation(&splits.train, &headers, 1));
    sa_train.truncate(250);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let mut sa = SchemaAugModel::new(m, s, headers.len());
    sa.train(&vocab, &headers, &sa_train, &FinetuneConfig { epochs: 10, ..ft });
    let sa_eval = build_schema_augmentation(&splits.test, &headers, 0);
    println!(
        "\n[schema augment]  MAP {:.1} over {} queries ({} header vocabulary)",
        100.0 * sa.map(&vocab, &headers, &sa_eval),
        sa_eval.len(),
        headers.len()
    );
    if let Some(q) = sa_eval.first() {
        let top: Vec<&str> =
            sa.rank(&vocab, &headers, q).iter().take(4).map(|&h| headers.header(h)).collect();
        let gold: Vec<&str> = q.gold.iter().map(|&h| headers.header(h)).collect();
        println!("  \"{}\" -> suggested headers {top:?} (gold {gold:?})", q.caption);
    }
}
