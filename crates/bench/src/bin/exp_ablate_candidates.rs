//! Extra ablation (DESIGN.md §5): MER candidate-set composition (Eqn. 6).
//!
//! The paper constructs the candidate set from (1) entities in the current
//! table, (2) co-occurring entities, (3) random negatives. This sweep
//! removes each source and measures the object-entity prediction probe.

use turl_bench::{ExperimentWorld, Scale};
use turl_core::{encode_tables, probe, CandidateConfig, Pretrainer, TurlConfig};

fn main() {
    let scale = Scale::from_env();
    let world = ExperimentWorld::build(scale);
    let epochs = scale.pretrain_epochs();
    let probe_cells = match scale {
        Scale::Smoke => 80,
        _ => 300,
    };

    let variants: [(&str, CandidateConfig); 3] = [
        ("table + co-occur + negatives (paper)", CandidateConfig::default()),
        (
            "table only",
            CandidateConfig { max_cooccurring: 0, n_random_negatives: 0, ..Default::default() },
        ),
        (
            "co-occur + negatives (no table ents)",
            CandidateConfig { use_table_entities: false, ..Default::default() },
        ),
    ];

    println!("== Ablation: MER candidate-set composition (Eqn. 6) ==\n");
    for (name, cand) in variants {
        let cfg = TurlConfig { candidates: cand, ..world.turl_config() };
        let data = encode_tables(&world.splits.train, &world.vocab, &cfg);
        let val = encode_tables(&world.splits.validation, &world.vocab, &cfg);
        let mut pt = Pretrainer::new(
            cfg,
            world.vocab.len(),
            world.kb.n_entities(),
            world.vocab.mask_id() as usize,
        );
        pt.train(&data, &world.cooccur, epochs);
        // probe always uses the full (paper) candidate construction so the
        // ranking problem is identical across variants
        let probe_cfg = world.turl_config();
        let mut probe_pt = Pretrainer::new(
            probe_cfg,
            world.vocab.len(),
            world.kb.n_entities(),
            world.vocab.mask_id() as usize,
        );
        probe_pt.store.load_matching(&pt.store);
        let acc = probe::object_entity_accuracy(
            &probe_pt.model,
            &probe_pt.store,
            &val,
            &world.cooccur,
            world.vocab.mask_id() as usize,
            0,
            probe_cells,
        );
        println!("{name:<40} probe ACC {acc:.3}");
    }
    println!("\nharder negatives (co-occurring entities) should beat table-only training.");
}
