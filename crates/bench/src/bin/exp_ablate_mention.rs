//! Extra ablation (DESIGN.md §5): the entity-mention channel in MER.
//!
//! §4.4 keeps the mention visible for 30% of masked entities so the model
//! "builds a connection between entity embeddings and entity mentions".
//! This sweep varies that share (0%, 30%, 60%) and measures the probe.

use turl_bench::{ExperimentWorld, Scale};
use turl_core::{encode_tables, probe, PretrainConfig, Pretrainer, TurlConfig};

const SHARES: [f64; 3] = [0.0, 0.3, 0.6];

fn main() {
    let scale = Scale::from_env();
    let world = ExperimentWorld::build(scale);
    let epochs = scale.pretrain_epochs();
    let probe_cells = match scale {
        Scale::Smoke => 80,
        _ => 300,
    };

    println!("== Ablation: keep-mention share in MER masking (paper: 0.3) ==\n");
    for share in SHARES {
        let base = world.turl_config();
        let cfg = TurlConfig {
            pretrain: PretrainConfig { mer_mention_keep_share: share, ..base.pretrain },
            ..base
        };
        let data = encode_tables(&world.splits.train, &world.vocab, &cfg);
        let val = encode_tables(&world.splits.validation, &world.vocab, &cfg);
        let mut pt = Pretrainer::new(
            cfg,
            world.vocab.len(),
            world.kb.n_entities(),
            world.vocab.mask_id() as usize,
        );
        pt.train(&data, &world.cooccur, epochs);
        let acc = probe::object_entity_accuracy(
            &pt.model,
            &pt.store,
            &val,
            &world.cooccur,
            world.vocab.mask_id() as usize,
            0,
            probe_cells,
        );
        println!("keep-mention share {share:.1}   probe ACC {acc:.3}");
    }
    println!("\nthe mention channel mostly matters for mention-only downstream tasks;");
    println!("the probe (which masks both channels) should be fairly insensitive.");
}
