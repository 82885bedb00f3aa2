//! Extension experiment (paper §7, future work 2): KB-enhanced
//! pre-training. Compares standard MLM+MER pre-training against
//! pre-training with the auxiliary KB-relation-prediction objective, on
//! the object-entity probe and zero-shot cell filling.

use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_bench::{ExperimentWorld, Scale};
use turl_core::tasks::cell_filling::CellFiller;
use turl_core::{encode_tables, probe, AuxRelationObjective, Pretrainer};
use turl_kb::tasks::build_cell_filling;

fn main() {
    let scale = Scale::from_env();
    let world = ExperimentWorld::build(scale);
    let cfg = world.turl_config();
    let epochs = scale.pretrain_epochs();
    let data = encode_tables(&world.splits.train, &world.vocab, &cfg);
    let val = encode_tables(&world.splits.validation, &world.vocab, &cfg);
    let cf_eval = build_cell_filling(&world.splits.test, &world.cooccur, 3, true);
    let probe_cells = match scale {
        Scale::Smoke => 80,
        _ => 300,
    };

    println!("== Extension: KB-enhanced pre-training (auxiliary relation prediction) ==\n");
    for (name, with_aux) in [("MLM + MER (paper)", false), ("MLM + MER + KB relations", true)] {
        let mut pt = Pretrainer::new(
            cfg,
            world.vocab.len(),
            world.kb.n_entities(),
            world.vocab.mask_id() as usize,
        );
        let aux = AuxRelationObjective::build(
            &mut pt.store,
            pt.model.d_model(),
            &world.kb,
            &data,
            0.5,
            900,
        );
        if with_aux {
            println!(
                "(aux objective covers {:.0}% of training tables, {} classes)",
                100.0 * aux.coverage(data.len()),
                aux.n_classes()
            );
            pt.set_aux_relations(aux);
        }
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
        let filler = CellFiller::new(&pt.model, &pt.store);
        let p1 =
            filler.precision_at(&world.vocab, &world.kb, &world.splits.test, &cf_eval, &[1])[0];
        // Without the auxiliary objective there is no relation head to score.
        let rel_acc = pt.take_aux_relations().map_or_else(
            || "—".to_string(),
            |aux| {
                let mut rng = StdRng::seed_from_u64(0);
                format!("{:.3}", aux.accuracy(&pt, &world.kb, &val, &mut rng, 200))
            },
        );
        println!(
            "{name:<28} probe ACC {acc:.3} | cell-filling P@1 {:.1} | rel-pred ACC {rel_acc}",
            100.0 * p1
        );
    }
    println!("\nexplicit relational supervision should help entity recovery most when");
    println!("row co-occurrence alone is ambiguous (several plausible same-row fills).");
}
