//! Soundness of the plan-level abstract interpreter: on a real seeded
//! forward pass, every concrete value of every tensor must lie within
//! the abstract range predicted for its IR node.
//!
//! The harness takes the freshly initialized models and inputs of the
//! fixture corpus (`support`, the cases the executor contract table
//! runs), lowers the forward the pre-trainer runs (encode, the MLM and
//! MER heads the input has rows for, summed loss), executes that IR
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

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{Case, N_ENTITIES, N_WORDS};
use turl_audit::{analyze_ranges, lower_model_plan, Ir, ModelPlan, OpKind, TensorId};
use turl_core::audit::{model_plan, plan_for_input};
use turl_core::{EncodedInput, TapeTable, TurlModel};
use turl_nn::{Forward, ParamStore};
use turl_tensor::{ops, Tensor};

const CANDIDATES: [usize; 3] = [0, 5, 9];

/// Execute the pre-trainer's forward (encode, the heads the input has
/// rows for — up to two MLM and two MER targets — and their summed loss)
/// for `input` on the tape and assert every node's concrete values sit
/// inside the abstract prediction. `training` records the tape under
/// `Forward::new` and backpropagates through it. The ranges describe
/// the inference function, so a training case keeps dropout at zero:
/// an active keep mask rescales its site by `1/keep`.
fn assert_forward_within_ranges(
    model: &TurlModel,
    store: &mut ParamStore,
    input: &EncodedInput,
    training: bool,
) {
    let n_mlm = input.token_ids.len().min(2);
    let n_mer = input.entities.len().min(2);
    let plan = ModelPlan {
        n_mlm_targets: n_mlm,
        n_mer_targets: n_mer,
        n_candidates: if n_mer > 0 { CANDIDATES.len() } else { 0 },
        ..plan_for_input(model_plan(&model.cfg, N_WORDS, N_ENTITIES), input)
    };
    let ir = lower_model_plan(&plan).expect("plan lowers");
    let analysis = analyze_ranges(&ir);
    assert!(analysis.errors.is_empty(), "plan must analyze clean, got {:?}", analysis.errors);

    let mlm_rows: Vec<usize> = (0..n_mlm).collect();
    let mer_rows: Vec<usize> = (0..n_mer).map(|e| input.entity_row(e)).collect();
    // Candidate ids sit one past the entity `[MASK]` row.
    let shifted = CANDIDATES.map(|c| c + 1);
    let heads: [(&str, &[usize]); 5] = [
        ("mlm.rows", &mlm_rows),
        ("mlm.loss", &[3, 4][..n_mlm]),
        ("mer.rows", &mer_rows),
        ("mer.candidates", &shifted),
        ("mer.loss", &[0, 1][..n_mer]),
    ];
    let mut f = if training { Forward::new(store) } else { Forward::inference(store) };
    let tables = [TapeTable { input, heads: &heads }];
    let mut rngs = [StdRng::seed_from_u64(0)];
    let vars = model.run_ir(&mut f, store, &mut rngs, &ir, &tables);
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
            assert!(range.contains(v), "`{}` element {e} = {v:e} escapes {range}", node.label);
        }
        // A masked pair's attention weight stays under the analysis's
        // bound for it, in every row that sees some element (the bound's
        // premise, which the linearizer's masks meet by keeping the
        // diagonal visible; a fully masked row degrades to uniform
        // weights).
        let masked = |t: &TensorId| ir.node_at(t.index()).kind == OpKind::Mask;
        let Some(logits) = node.inputs.first().filter(|t| masked(t)) else { continue };
        let mask = values[ir.node_at(logits.index()).inputs[1].index()].as_ref().expect("mask");
        let n = mask.shape()[0];
        let bound = analysis.masked_weight_bound.expect("a masked softmax has a bound");
        for (e, &v) in value.data().iter().enumerate() {
            let (row, col) = ((e / n) % n, e % n);
            let sees = |r: usize| mask.data()[r * n..(r + 1) * n].iter().any(|&m| m != penalty);
            if mask.data()[row * n + col] == penalty && sees(row) {
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

/// Every member of every case of the fixture corpus: the named corners
/// and the config-space sweep (heads, layers, `ln_eps`, masks).
#[test]
fn concrete_forward_stays_within_abstract_ranges() {
    for mut case in support::corpus() {
        for input in &case.inputs {
            assert_forward_within_ranges(&case.model, &mut case.store, input, false);
        }
    }
}

#[test]
fn empty_mentions_are_sound_too() {
    // Mention-less cells exercise the ZeroConst lowering branch: a
    // constant-zeros source in place of the averaging matmul.
    let mut case = support::case_named("no mention token (ZeroConst branch)");
    let input = &case.inputs[0];
    assert!(input.entities.iter().all(|e| e.mention.is_empty()));
    assert_forward_within_ranges(&case.model, &mut case.store, input, false);
}

#[test]
fn tiny_training_forward_matches_adapted_plan() {
    // `Forward::new` + backprop: the tape a pre-training step records.
    let mut case = support::case_named("a fully masked row");
    assert_eq!(case.model.cfg.encoder.dropout, 0.0, "ranges describe the dropout-free function");
    assert_forward_within_ranges(&case.model, &mut case.store, &case.inputs[0], true);
}

#[test]
fn small_inference_forward_matches_adapted_plan() {
    // The experiment harness's config: wider, deeper, more heads.
    let Case { model, mut store, inputs, .. } =
        support::case_named("small config: the kernels fan out at pool width 2");
    assert_eq!(model.cfg.encoder.d_model, turl_core::TurlConfig::small(0).encoder.d_model);
    for input in &inputs {
        assert_forward_within_ranges(&model, &mut store, input, false);
    }
}
