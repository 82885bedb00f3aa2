//! Table interpretation: entity linking, column type annotation and
//! relation extraction on held-out tables — the §6.2–§6.4 tasks.
//!
//! Pre-trains a small TURL model, fine-tunes the three interpretation
//! heads, and then walks through one concrete test table showing what each
//! head predicts.
//!
//! Run with `cargo run -p turl-examples --bin table_interpretation`.

use turl_core::tasks::column_type::ColumnTypeModel;
use turl_core::tasks::entity_linking::{CandidateCatalog, EntityLinkingModel};
use turl_core::tasks::relation_extraction::RelationModel;
use turl_core::tasks::{clone_pretrained, InputChannels};
use turl_core::{encode_tables, FinetuneConfig, Pretrainer, TurlConfig};
use turl_data::Vocab;
use turl_kb::tasks::{build_column_type_task, build_entity_linking, build_relation_task};
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, KnowledgeBase, LookupIndex, PipelineConfig,
    WorldConfig,
};

fn main() {
    // world + corpus
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(21));
    let pcfg = PipelineConfig { max_eval_tables: 24, ..Default::default() };
    let splits =
        generate_splits(&kb, &CorpusConfig { n_tables: 220, ..CorpusConfig::tiny(22) }, &pcfg);
    let vocab =
        Vocab::from_tables(&splits.train, kb.entities.iter().map(|e| e.description.as_str()));

    // pre-train
    let cfg = TurlConfig::tiny(23);
    let data = encode_tables(&splits.train, &vocab, &cfg);
    let cooccur = CooccurrenceIndex::build(&splits.train);
    let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    println!("pre-training on {} tables ...", data.len());
    pt.train(&data, &cooccur, 8);

    let ft = FinetuneConfig { epochs: 5, ..Default::default() };

    // --- entity linking ---------------------------------------------------
    let lookup = LookupIndex::build(&kb);
    let el_train = build_entity_linking(&splits.train, &lookup, 20, true);
    let el_eval = build_entity_linking(&splits.test, &lookup, 20, false);
    let catalog = CandidateCatalog::build(&kb, &vocab);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let mut el = EntityLinkingModel::new(m, s, catalog.n_types, true, true);
    let n = el_train.mentions.len().min(250);
    el.train(&splits.train, &vocab, &catalog, &el_train.mentions[..n], &ft);
    let acc = el.evaluate(&splits.test, &vocab, &catalog, &el_eval.mentions);
    println!(
        "\n[entity linking]      F1 {:.1} (P {:.1} / R {:.1}) over {} mentions",
        100.0 * acc.f1(),
        100.0 * acc.precision(),
        100.0 * acc.recall(),
        el_eval.mentions.len()
    );

    // --- column type annotation -------------------------------------------
    let ct_task =
        build_column_type_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 3);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let mut ct = ColumnTypeModel::new(m, s, ct_task.label_types.len(), InputChannels::full());
    let n = ct_task.train.len().min(250);
    ct.train(&splits.train, &vocab, &ct_task.train[..n], &ft);
    let acc = ct.evaluate(&splits.test, &vocab, &ct_task.test);
    println!(
        "[column types]        F1 {:.1} over {} columns ({} types)",
        100.0 * acc.f1(),
        ct_task.test.len(),
        ct_task.label_types.len()
    );

    // --- relation extraction ----------------------------------------------
    let re_task = build_relation_task(&kb, &splits.train, &splits.validation, &splits.test, 3, 3);
    let (m, s) = clone_pretrained(cfg, vocab.len(), kb.n_entities(), &pt.store);
    let mut re = RelationModel::new(m, s, re_task.label_relations.len(), InputChannels::full());
    let n = re_task.train.len().min(250);
    re.train(&splits.train, &vocab, &re_task.train[..n], &ft);
    let acc = re.evaluate(&splits.test, &vocab, &re_task.test);
    println!(
        "[relation extraction] F1 {:.1} over {} column pairs ({} relations)",
        100.0 * acc.f1(),
        re_task.test.len(),
        re_task.label_relations.len()
    );

    // --- walk through one table -------------------------------------------
    if let Some(ex) = ct_task.test.first() {
        let t = &splits.test[ex.table_idx];
        println!("\n=== interpreting table \"{}\" ===", t.full_caption());
        println!("headers: {:?}", t.headers);
        let pred = ct.predict(&splits.test, &vocab, ex);
        let names: Vec<&str> = pred.iter().map(|&l| ct_task.label_names[l].as_str()).collect();
        let gold: Vec<&str> = ex.labels.iter().map(|&l| ct_task.label_names[l].as_str()).collect();
        println!("column {} predicted types {:?} (gold {:?})", ex.col, names, gold);
    }
    if let Some(ex) = re_task.test.first() {
        let t = &splits.test[ex.table_idx];
        let scores = re.score(&splits.test, &vocab, ex);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        println!(
            "columns \"{}\" / \"{}\" -> relation {} (gold {:?})",
            t.headers[ex.subj_col],
            t.headers[ex.obj_col],
            re_task.label_names[best],
            ex.labels.iter().map(|&l| re_task.label_names[l].as_str()).collect::<Vec<_>>()
        );
    }
}
