//! Figure 7b: ablation — effect of the MER mask ratio.
//!
//! Pre-trains four models with MER select ratios {0.2, 0.4, 0.6, 0.8} and
//! tracks the object-entity prediction probe per epoch (§6.8). The paper
//! picks 0.6: 0.8 over-relies on metadata, 0.2 under-trains entity cells.

use turl_bench::{ExperimentWorld, Scale};
use turl_core::{encode_tables, probe, PretrainConfig, Pretrainer, TurlConfig};

const RATIOS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

fn main() {
    let scale = Scale::from_env();
    let world = ExperimentWorld::build(scale);
    let epochs = scale.pretrain_epochs();
    let probe_cells = match scale {
        Scale::Smoke => 80,
        Scale::Quick => 300,
        Scale::Full => 800,
    };

    println!("== Figure 7b: effect of the MER mask ratio ==");
    println!("object-entity prediction accuracy on validation, per pre-training epoch\n");

    let mut curves: Vec<Vec<f64>> = Vec::new();
    for ratio in RATIOS {
        let base = world.turl_config();
        let cfg = TurlConfig {
            pretrain: PretrainConfig { mer_select_ratio: ratio, ..base.pretrain },
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

    print!("epoch");
    for r in RATIOS {
        print!(" | ratio {r:.1}");
    }
    println!();
    for e in 0..epochs {
        print!("{e:>5}");
        for c in &curves {
            print!(" | {:>9.3}", c[e]);
        }
        println!();
    }
    print!("\nfinal:");
    for (r, c) in RATIOS.iter().zip(curves.iter()) {
        print!("  {r:.1} -> {:.3}", c.last().copied().unwrap_or(0.0));
    }
    println!("\n(paper: 0.8 degrades; mid ratios are best and results are not very");
    println!(" sensitive — 0.6 is chosen for the mismatch-with-fine-tuning argument)");
}
