//! Soundness of the plan-level abstract interpreter: on a real seeded
//! forward pass, every concrete value of every intermediate tensor must
//! lie within the abstract range predicted for the matching IR tensor.
//!
//! The harness builds a `TurlModel`, runs the same forward the
//! pre-trainer runs (encode + MLM head + MER head + summed loss),
//! aligns the autograd tape with the lowered IR node-by-node, and
//! checks containment element-by-element. Any transfer function that
//! under-approximates (a bound tighter than reality) fails here — and
//! so does any drift between the `TurlConfig → ModelPlan` adapter, the
//! lowering and the model: the alignment demands the same op count and
//! the same shape at every op.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_audit::{align_with_graph, analyze_ranges, lower_model_plan, ModelPlan};
use turl_core::audit::{model_plan, plan_for_input};
use turl_core::{EncodedInput, EntityInput, TurlConfig, TurlModel};
use turl_nn::{Forward, ParamStore};
use turl_tensor::Tensor;

const N_WORDS: usize = 50;
const N_KB_ENTITIES: usize = 20;
const N_TOKENS: usize = 5;
const N_SEQ_ENTITIES: usize = 3;
const N_MLM: usize = 2;
const N_MER: usize = 2;
const CANDIDATES: [usize; 3] = [0, 5, 9];

/// Deterministic input covering both embedding branches: `seed` varies
/// ids, mention lengths and the visibility pattern.
fn build_input(seed: u64, use_mask: bool) -> EncodedInput {
    let s = seed as usize;
    let entities: Vec<EntityInput> = (0..N_SEQ_ENTITIES)
        .map(|i| EntityInput {
            emb_index: (i * 7 + s) % (N_KB_ENTITIES + 1),
            mention: (0..(i + s) % 3).map(|k| (i * 3 + k + s) % N_WORDS).collect(),
            type_idx: i % 3,
        })
        .collect();
    let n = N_TOKENS + N_SEQ_ENTITIES;
    let mask = use_mask.then(|| {
        let mut m = Tensor::full(vec![n, n], -1e9);
        for i in 0..n {
            for j in 0..n {
                if i == j || (i + j + s).is_multiple_of(3) {
                    m.set2(i, j, 0.0);
                }
            }
        }
        m
    });
    EncodedInput {
        token_ids: (0..N_TOKENS).map(|i| (i * 11 + s) % N_WORDS).collect(),
        token_types: (0..N_TOKENS).map(|i| i % 2).collect(),
        token_pos: (0..N_TOKENS).collect(),
        entities,
        mask,
    }
}

/// Run the pre-trainer's forward (encode, both heads, summed loss) on
/// `input`, align its tape with the IR lowered from the adapted plan —
/// same computed-op count, same shape at every op — and assert every
/// aligned tensor's concrete values sit inside the abstract prediction.
/// `training` records the tape under `Forward::new` and backpropagates
/// through it; dropout must then be zero, since the IR does not model
/// its mask-multiply nodes.
fn assert_forward_within_ranges(cfg: TurlConfig, seed: u64, input: &EncodedInput, training: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let model = TurlModel::new(&mut store, &mut rng, cfg, N_WORDS, N_KB_ENTITIES);

    let plan = ModelPlan {
        n_mlm_targets: N_MLM,
        n_mer_targets: N_MER,
        n_candidates: CANDIDATES.len(),
        ..plan_for_input(model_plan(&cfg, N_WORDS, N_KB_ENTITIES), input)
    };
    let ir = lower_model_plan(&plan).expect("plan lowers");
    let analysis = analyze_ranges(&ir);
    assert!(analysis.errors.is_empty(), "plan must analyze clean, got {:?}", analysis.errors);

    let mut f = if training { Forward::new(&store) } else { Forward::inference(&store) };
    let h = model.encode(&mut f, &store, &mut rng, input);
    let mlm_logits = model.mlm_logits(&mut f, &store, h, &[0, 1]);
    let mlm = f.graph.cross_entropy(mlm_logits, &[3, 4]);
    let rows = [input.entity_row(0), input.entity_row(1)];
    let mer_logits = model.mer_logits(&mut f, &store, h, &rows, &CANDIDATES);
    let mer = f.graph.cross_entropy(mer_logits, &[0, 1]);
    let loss = f.graph.add(mlm, mer);
    if training {
        f.backprop(loss, &mut store);
    }

    let pairs = align_with_graph(&ir, &f.graph).expect("IR aligns with the real tape");
    assert_eq!(pairs.len(), ir.op_ids().count(), "every computed IR node pairs with a tape op");
    for (tid, var) in pairs {
        let node = ir.node_at(tid.index());
        let range = analysis.ranges[tid.index()];
        for (i, &v) in f.graph.value(var).data().iter().enumerate() {
            assert!(
                range.contains(v),
                "seed {seed}: `{}` element {i} = {v:e} escapes {range}",
                node.label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concrete_forward_stays_within_abstract_ranges(
        seed in 0u64..1000, use_mask in any::<bool>()
    ) {
        let cfg = TurlConfig { use_visibility: use_mask, ..TurlConfig::tiny(seed) };
        assert_forward_within_ranges(cfg, seed, &build_input(seed, use_mask), false);
    }
}

#[test]
fn empty_mentions_are_sound_too() {
    // All-empty mentions exercise the ZeroConst lowering branch, whose
    // runtime twin is a constant-zeros leaf rather than a matmul.
    let cfg = TurlConfig { use_visibility: false, ..TurlConfig::tiny(7) };
    let mut input = build_input(7, false);
    for e in &mut input.entities {
        e.mention.clear();
    }
    assert_forward_within_ranges(cfg, 7, &input, false);
}

#[test]
fn tiny_training_forward_matches_adapted_plan() {
    // `Forward::new` + backprop: the tape a pre-training step records.
    let mut cfg = TurlConfig::tiny(3);
    cfg.encoder.dropout = 0.0;
    assert_forward_within_ranges(cfg, 3, &build_input(3, true), true);
}

#[test]
fn small_inference_forward_matches_adapted_plan() {
    // The experiment harness's config: wider, deeper, more heads.
    assert_forward_within_ranges(TurlConfig::small(5), 5, &build_input(5, true), false);
}
