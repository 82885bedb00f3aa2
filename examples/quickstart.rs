//! Quickstart: the whole TURL pipeline in one small program.
//!
//! 1. Generate a synthetic knowledge base and a Wikipedia-style table
//!    corpus, and run the paper's §5.1 pipeline.
//! 2. Pre-train TURL with the MLM + MER objectives.
//! 3. Inspect what pre-training learned: nearest neighbours in entity-
//!    embedding space and the object-entity prediction probe.
//!
//! Run with `cargo run -p turl-examples --bin quickstart`.

use turl_core::{encode_tables, probe, Pretrainer, TurlConfig};
use turl_data::Vocab;
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, KnowledgeBase, PipelineConfig, WorldConfig,
};

fn main() {
    // 1. A synthetic world and corpus ------------------------------------
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(1));
    println!(
        "knowledge base: {} entities, {} types, {} relations, {} facts",
        kb.n_entities(),
        kb.schema.types.len(),
        kb.schema.relations.len(),
        kb.facts().len()
    );
    let pcfg = PipelineConfig { max_eval_tables: 30, ..Default::default() };
    let splits =
        generate_splits(&kb, &CorpusConfig { n_tables: 250, ..CorpusConfig::tiny(2) }, &pcfg);
    println!(
        "corpus after the Section 5.1 pipeline: {} train / {} dev / {} test tables",
        splits.train.len(),
        splits.validation.len(),
        splits.test.len()
    );

    // show one table the way the model sees it
    let sample = &splits.train[0];
    println!("\nsample table: \"{}\"", sample.full_caption());
    println!("  headers: {:?}", sample.headers);
    if let Some(row) = sample.rows.first() {
        let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
        println!("  first row: {cells:?}");
    }

    // 2. Pre-train --------------------------------------------------------
    let vocab = Vocab::from_tables(&splits.train, []);
    let cfg = TurlConfig::tiny(3);
    let data = encode_tables(&splits.train, &vocab, &cfg);
    let val = encode_tables(&splits.validation, &vocab, &cfg);
    let cooccur = CooccurrenceIndex::build(&splits.train);
    let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    println!("\npre-training ({} tables, {} parameters)...", data.len(), pt.store.num_scalars());
    let acc0 = probe::object_entity_accuracy(
        &pt.model,
        &pt.store,
        &val,
        &cooccur,
        vocab.mask_id() as usize,
        0,
        150,
    );
    let stats = pt.train(&data, &cooccur, 10);
    println!(
        "loss: {:.3} -> {:.3} over {} epochs",
        stats.epoch_losses[0],
        stats.epoch_losses.last().expect("at least one epoch"),
        stats.epoch_losses.len()
    );

    // 3. What did it learn? ------------------------------------------------
    let acc1 = probe::object_entity_accuracy(
        &pt.model,
        &pt.store,
        &val,
        &cooccur,
        vocab.mask_id() as usize,
        0,
        150,
    );
    println!("object-entity prediction probe: {acc0:.3} (random init) -> {acc1:.3} (pre-trained)");

    // The probe above already runs encodes through the compiled forward
    // plan; here it is explicitly — graph-free, fused, one arena buffer,
    // bit-exact with the tape.
    if let Some((_, enc)) = val.first() {
        let mut cf = pt.model.compiled();
        let h = cf.encode(&pt.model, &pt.store, enc).expect("compiled encode");
        println!(
            "\ncompiled inference: encoded a {}-element table to {:?} without building a graph",
            enc.seq_len(),
            h.shape()
        );
    }

    // nearest neighbours of a popular entity in embedding space
    let emb = pt.model.entity_embedding_matrix(&pt.store);
    let d = pt.model.d_model();
    let target = kb.entities_of_type(kb.schema.type_by_name("film").expect("film type"))[0];
    let tv = &emb.data()[(target as usize + 1) * d..(target as usize + 2) * d];
    let mut sims: Vec<(u32, f32)> = (0..kb.n_entities() as u32)
        .filter(|&e| e != target)
        .map(|e| {
            let ev = &emb.data()[(e as usize + 1) * d..(e as usize + 2) * d];
            let dot: f32 = tv.iter().zip(ev).map(|(a, b)| a * b).sum();
            let na: f32 = tv.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = ev.iter().map(|x| x * x).sum::<f32>().sqrt();
            (e, if na * nb > 0.0 { dot / (na * nb) } else { 0.0 })
        })
        .collect();
    sims.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!(
        "\nnearest neighbours of \"{}\" ({}):",
        kb.entity(target).name,
        kb.schema.types[kb.entity(target).fine_type].name
    );
    for (e, s) in sims.iter().take(5) {
        println!(
            "  {s:.3}  {} ({})",
            kb.entity(*e).name,
            kb.schema.types[kb.entity(*e).fine_type].name
        );
    }
    println!("\nNext: see table_interpretation.rs and table_augmentation.rs for fine-tuning.");
}
