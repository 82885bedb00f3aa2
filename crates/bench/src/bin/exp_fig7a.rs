//! Figure 7a: ablation — effect of the visibility matrix.
//!
//! Pre-trains two models (with and without the structure-derived
//! visibility matrix) and tracks object-entity prediction accuracy on the
//! validation set after every epoch (§6.8).

use turl_bench::{ExperimentWorld, Scale};
use turl_core::{encode_tables, probe, Pretrainer, TurlConfig};

fn main() {
    let scale = Scale::from_env();
    let world = ExperimentWorld::build(scale);
    let epochs = scale.pretrain_epochs();
    let probe_cells = match scale {
        Scale::Smoke => 80,
        Scale::Quick => 300,
        Scale::Full => 800,
    };

    println!("== Figure 7a: effect of the visibility matrix ==");
    println!("object-entity prediction accuracy on validation, per pre-training epoch\n");
    println!("epoch | with visibility | w/o visibility");

    let variants: Vec<(bool, &str)> = vec![(true, "with"), (false, "without")];
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for (use_vis, _) in &variants {
        let cfg = TurlConfig { use_visibility: *use_vis, ..world.turl_config() };
        let data = encode_tables(&world.splits.train, &world.vocab, &cfg);
        let val = encode_tables(&world.splits.validation, &world.vocab, &cfg);
        let mut pt = Pretrainer::new(
            cfg,
            world.vocab.len(),
            world.kb.n_entities(),
            world.vocab.mask_id() as usize,
        );
        let mut curve = Vec::new();
        for _ in 0..epochs {
            pt.train(&data, &world.cooccur, 1);
            curve.push(probe::object_entity_accuracy(
                &pt.model,
                &pt.store,
                &val,
                &world.cooccur,
                world.vocab.mask_id() as usize,
                0,
                probe_cells,
            ));
        }
        curves.push(curve);
    }
    for (e, (with_vis, without)) in curves[0].iter().zip(curves[1].iter()).enumerate() {
        println!("{e:>5} | {with_vis:>15.3} | {without:>14.3}");
    }
    let last = epochs - 1;
    println!("\nfinal: with visibility {:.3} vs without {:.3}", curves[0][last], curves[1][last]);
    println!("(paper: the visibility matrix clearly dominates throughout pre-training)");
}
