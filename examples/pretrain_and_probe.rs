//! Pre-training ablation probe: a miniature version of Figure 7.
//!
//! Pre-trains three variants — the full model, one without the visibility
//! matrix, and one with an extreme MER mask ratio — and compares the
//! object-entity prediction probe (§6.8) after every epoch.
//!
//! Run with `cargo run -p turl-examples --bin pretrain_and_probe`.

use turl_core::{encode_tables, probe, PretrainConfig, Pretrainer, TurlConfig};
use turl_data::Vocab;
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, KnowledgeBase, PipelineConfig, WorldConfig,
};

fn main() {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(41));
    let pcfg = PipelineConfig { max_eval_tables: 30, ..Default::default() };
    let splits =
        generate_splits(&kb, &CorpusConfig { n_tables: 220, ..CorpusConfig::tiny(42) }, &pcfg);
    let vocab = Vocab::from_tables(&splits.train, []);
    let cooccur = CooccurrenceIndex::build(&splits.train);

    let base = TurlConfig::tiny(43);
    let variants: Vec<(&str, TurlConfig)> = vec![
        ("full model (visibility, MER 0.6)", base),
        ("no visibility matrix", TurlConfig { use_visibility: false, ..base }),
        (
            "MER mask ratio 0.9",
            TurlConfig {
                pretrain: PretrainConfig { mer_select_ratio: 0.9, ..base.pretrain },
                ..base
            },
        ),
    ];

    let epochs = 8;
    println!("object-entity prediction accuracy per pre-training epoch\n");
    print!("{:<34}", "variant");
    for e in 1..=epochs {
        print!(" ep{e:<2}");
    }
    println!();
    for (name, cfg) in variants {
        let data = encode_tables(&splits.train, &vocab, &cfg);
        let val = encode_tables(&splits.validation, &vocab, &cfg);
        let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
        print!("{name:<34}");
        for _ in 0..epochs {
            pt.train(&data, &cooccur, 1);
            let acc = probe::object_entity_accuracy(
                &pt.model,
                &pt.store,
                &val,
                &cooccur,
                vocab.mask_id() as usize,
                0,
                120,
            );
            print!(" {:>4.2}", acc);
        }
        println!();
    }
    println!("\nExpected shape (paper Figure 7): the full model dominates the");
    println!("no-visibility variant; extreme mask ratios underperform moderate ones.");
}
