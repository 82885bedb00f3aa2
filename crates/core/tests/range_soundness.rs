//! Soundness of the plan-level abstract interpreter: on a real seeded
//! forward pass, every concrete value of every tensor must lie within
//! the abstract range predicted for its IR node.
//!
//! The harness builds a `TurlModel`, lowers the forward the pre-trainer
//! runs (encode + MLM head + MER head + summed loss), executes that IR
//! on the autograd tape with the reference executor
//! (`TurlModel::run_ir`, which returns one tape var per IR node outside
//! the attention regions, and one per region) and checks containment
//! element by element — sources included, so the init-derived parameter
//! bounds are checked too. A region's interior (head splits, scores,
//! scaled and masked logits, probabilities, contexts, merges), which the
//! tape records as one node, is recomputed from the region's inputs
//! through the kernel library and checked the same way, its output
//! against the tape's bit for bit, and every masked pair's weight
//! against the analysis's masked-weight bound. Any transfer function
//! that under-approximates (a bound tighter than reality) fails here.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_audit::{analyze_ranges, lower_model_plan, Ir, ModelPlan, OpKind, TensorId};
use turl_core::audit::{model_plan, plan_for_input};
use turl_core::{EncodedInput, EntityInput, TapeTable, TurlConfig, TurlModel};
use turl_nn::{Forward, ParamStore};
use turl_tensor::{ops, Tensor};

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

/// Execute the pre-trainer's forward (encode, both heads, summed loss)
/// for `input` on the tape and assert every node's concrete values sit
/// inside the abstract prediction. `training` records the tape under
/// `Forward::new` and backpropagates through it. The ranges describe
/// the inference function, so a training case keeps dropout at zero:
/// an active keep mask rescales its site by `1/keep`.
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

    let mlm_rows = [0, 1];
    let mer_rows = [input.entity_row(0), input.entity_row(1)];
    // Candidate ids sit one past the entity `[MASK]` row.
    let shifted = CANDIDATES.map(|c| c + 1);
    let heads: [(&str, &[usize]); 5] = [
        ("mlm.rows", &mlm_rows),
        ("mlm.loss", &[3, 4]),
        ("mer.rows", &mer_rows),
        ("mer.candidates", &shifted),
        ("mer.loss", &[0, 1]),
    ];
    let mut f = if training { Forward::new(&store) } else { Forward::inference(&store) };
    let tables = [TapeTable { input, heads: &heads }];
    let vars = model.run_ir(&mut f, &store, std::slice::from_mut(&mut rng), &ir, &tables);
    assert_eq!(vars.len(), ir.len(), "one entry per IR node");

    // Every node's value: the tape's, or for an attention region's
    // interior, which the tape records as one node, recomputed here.
    let mut values: Vec<Option<Tensor>> =
        vars.iter().map(|v| v.map(|v| f.graph.value(v).clone())).collect();
    for region in ir.attention_regions() {
        for i in region.nodes.clone() {
            let value = interior_value(&ir, i, &values);
            if let Some(tape) = &values[i] {
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(tape),
                    bits(&value),
                    "the fused `{}` vs its chain",
                    ir.node_at(i).label
                );
            }
            values[i] = Some(value);
        }
    }
    let penalty = ir.numerics.mask_penalty as f32;
    for (i, (node, range)) in ir.nodes().iter().zip(&analysis.ranges).enumerate() {
        let value = values[i].as_ref().expect("every node has a value");
        assert_eq!(value.shape(), node.shape, "`{}`", node.label);
        for (e, &v) in value.data().iter().enumerate() {
            assert!(
                range.contains(v),
                "seed {seed}: `{}` element {e} = {v:e} escapes {range}",
                node.label
            );
        }
        // A masked pair's attention weight stays under the analysis's
        // bound for it.
        let masked = |t: &TensorId| ir.node_at(t.index()).kind == OpKind::Mask;
        let Some(logits) = node.inputs.first().filter(|t| masked(t)) else { continue };
        let mask = values[ir.node_at(logits.index()).inputs[1].index()].as_ref().expect("mask");
        let bound = analysis.masked_weight_bound.expect("a masked softmax has a bound");
        for (e, &v) in value.data().iter().enumerate() {
            if mask.data()[e % mask.len()] == penalty {
                assert!(
                    f64::from(v) <= bound,
                    "`{}` masked weight {v:e} above {bound:e}",
                    node.label
                );
            }
        }
    }

    if training {
        f.graph.backward(vars.last().copied().flatten().expect("the loss node"));
        store.reduce(&[f.take_grads()]);
        let wid = store.find("turl.word_emb.weight").expect("registered");
        assert!(store.grad(wid).is_some_and(|g| g.norm() > 0.0), "backward reaches the embeddings");
    }
}

/// Node `i` of an attention region recomputed through the kernel
/// library from the values of its inputs, each a tape value or an
/// interior node recomputed before it.
fn interior_value(ir: &Ir, i: usize, values: &[Option<Tensor>]) -> Tensor {
    let node = ir.node_at(i);
    let ins: Vec<&Tensor> =
        node.inputs.iter().map(|t| values[t.index()].as_ref().expect("inputs precede")).collect();
    let mut out = Tensor::zeros(node.shape.clone());
    match &node.kind {
        OpKind::Gather => {
            let rows = ir.slice_rows(TensorId::from_index(i)).expect("a region gathers a slice");
            let row_len = node.shape[1];
            let indices: Vec<usize> = rows.collect();
            ops::gather_rows_into(ins[0].data(), row_len, &indices, out.data_mut());
        }
        OpKind::Reshape => out = ins[0].reshape(node.shape.clone()).expect("element count"),
        OpKind::Permute { axes } => out = ins[0].permute(axes),
        OpKind::BmmNT => out = ops::bmm_nt(ins[0], ins[1]),
        OpKind::Bmm => out = ops::bmm(ins[0], ins[1]),
        OpKind::Scale { factor } => ops::scale_into(ins[0].data(), *factor as f32, out.data_mut()),
        OpKind::Mask => ops::add_into(ins[0].data(), ins[1].data(), out.data_mut()),
        OpKind::Softmax => {
            out.data_mut().copy_from_slice(ins[0].data());
            let row_len = *node.shape.last().expect("rank ≥ 1");
            out.data_mut().chunks_exact_mut(row_len).for_each(ops::softmax_row_inplace);
        }
        OpKind::ConcatRows => ops::concat_rows_into(ins.iter().map(|t| t.data()), out.data_mut()),
        other => panic!("`{}`: {} is not lowered in an attention region", node.label, other.name()),
    }
    out
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
    // All-empty mentions exercise the ZeroConst lowering branch: a
    // constant-zeros source in place of the averaging matmul.
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
    let cfg = TurlConfig::tiny(3);
    assert_eq!(cfg.encoder.dropout, 0.0, "ranges describe the dropout-free function");
    assert_forward_within_ranges(cfg, 3, &build_input(3, true), true);
}

#[test]
fn small_inference_forward_matches_adapted_plan() {
    // The experiment harness's config: wider, deeper, more heads.
    assert_forward_within_ranges(TurlConfig::small(5), 5, &build_input(5, true), false);
}
