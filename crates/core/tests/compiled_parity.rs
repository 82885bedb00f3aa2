//! Compiled-vs-graph equivalence suite (the forward-plan compiler's
//! correctness pins).
//!
//! 1. A property test over the config/input space — sequence lengths,
//!    head counts, layer counts, `ln_eps`, visibility masks including
//!    fully-masked rows — asserting the compiled arena executor is
//!    **bit-identical** (`f32::to_bits`) to the tape-based `Graph`
//!    forward. Every fused kernel is reassociation-free, so exact
//!    equality is the contract, not a tolerance.
//! 2. Named degenerate inputs — no mention token at all, a lone token,
//!    a lone entity, a position past `max_position` — on which the
//!    compiled schedule must cover the IR exactly and tape and compiled
//!    encodes must agree on every bit. (Batched encodes are pinned
//!    against both by `batch::tests` in the crate.)
//! 3. A re-check of the range analysis (PR 5) against *executed* fused
//!    outputs: values produced by the compiled path must lie inside the
//!    statically derived interval of the IR's output node.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use turl_audit::{analyze_ranges, lower_model_plan};
use turl_core::audit::{model_plan, plan_for_input};
use turl_core::{EncodedInput, EntityInput, TurlConfig, TurlModel};
use turl_exec::compile;
use turl_nn::{Forward, ParamStore};
use turl_tensor::Tensor;

const N_WORDS: usize = 40;
const N_KB_ENTITIES: usize = 15;

struct Case {
    cfg: TurlConfig,
    input: EncodedInput,
}

#[allow(clippy::too_many_arguments)]
fn build_case(
    seed: u64,
    tokens: usize,
    ents: usize,
    n_heads: usize,
    n_layers: usize,
    ln_eps: f32,
    masked: bool,
    fully_masked_row: bool,
    mention_lens: &[usize],
) -> Case {
    let mut cfg = TurlConfig::tiny(seed);
    cfg.encoder.n_heads = n_heads;
    cfg.encoder.n_layers = n_layers;
    cfg.encoder.ln_eps = ln_eps;
    cfg.use_visibility = masked;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    let entities: Vec<EntityInput> = (0..ents)
        .map(|i| EntityInput {
            emb_index: rng.gen_range(0..=N_KB_ENTITIES),
            mention: (0..mention_lens[i % mention_lens.len()])
                .map(|_| rng.gen_range(0..N_WORDS))
                .collect(),
            type_idx: i % 3,
        })
        .collect();
    let n = tokens + ents;
    let mask = masked.then(|| {
        let mut m = Tensor::zeros(vec![n, n]);
        for v in m.data_mut().iter_mut() {
            if rng.gen::<f32>() < 0.4 {
                *v = -1e9;
            }
        }
        if fully_masked_row && n > 0 {
            // An element no other element may attend to: the fused
            // softmax must agree with the graph on the degenerate row.
            for j in 0..n {
                m.set2(0, j, -1e9);
            }
        }
        m
    });
    let input = EncodedInput {
        token_ids: (0..tokens).map(|_| rng.gen_range(0..N_WORDS)).collect(),
        token_types: (0..tokens).map(|i| i % 2).collect(),
        token_pos: (0..tokens).collect(),
        entities,
        mask,
    };
    Case { cfg, input }
}

/// Graph-path reference: one inference-mode tape encode.
fn graph_encode(case: &Case, store: &ParamStore, model: &TurlModel) -> Tensor {
    let mut rng = StdRng::seed_from_u64(0);
    let mut f = Forward::inference(store);
    let h = model.encode(&mut f, store, &mut rng, &case.input);
    f.graph.value(h).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_encode_is_bit_identical_to_graph(
        seed in 0u64..1_000,
        tokens in 0usize..9,
        ents in 0usize..6,
        head_pick in 0usize..3,
        n_layers in 1usize..3,
        eps_pick in 0usize..2,
        masked in any::<bool>(),
        fully_masked_row in any::<bool>(),
        mention_lens in proptest::collection::vec(0usize..4, 5),
    ) {
        prop_assume!(tokens + ents > 0);
        let n_heads = [1usize, 2, 4][head_pick];
        let ln_eps = [1e-5f32, 1e-3][eps_pick];
        let case = build_case(
            seed, tokens, ents, n_heads, n_layers, ln_eps, masked,
            fully_masked_row, &mention_lens,
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model =
            TurlModel::new(&mut store, &mut rng, case.cfg, N_WORDS, N_KB_ENTITIES);
        let want = graph_encode(&case, &store, &model);

        let mut cf = model.compiled();
        let got = cf.encode(&model, &store, &case.input).expect("compiled encode");
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (a, b)) in got.data().iter().zip(want.data().iter()).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "bit divergence at element {} ({} vs {})", i, a, b
            );
        }
    }
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} diverges at element {i}");
    }
}

/// The corners of the input space, by name: the schedule covers the IR
/// exactly (no dropped, duplicated or reordered node) and the two
/// executors — tape and compiled — agree on every bit.
#[test]
fn degenerate_inputs_are_bit_identical_across_executors() {
    let case = |tokens, ents, mention_lens: &[usize]| {
        build_case(7, tokens, ents, 2, 2, 1e-5, true, false, mention_lens)
    };
    let mut past_max = case(4, 2, &[1, 2]);
    past_max.input.token_pos[3] = past_max.cfg.max_position + 5;
    let cases = [
        ("no mention token (ZeroConst branch)", case(6, 3, &[0])),
        ("two mention-less entities", case(2, 2, &[0])),
        ("one token, no entity", case(1, 0, &[1])),
        ("no token, one entity", case(0, 1, &[2])),
        ("no token, entities with and without mentions", case(0, 4, &[1, 2, 0])),
        // n_heads == seq len: the head split is a `[2, 2, dh]` permute
        // whose axes cannot be read off its shapes.
        ("seq len equal to the head count", case(1, 1, &[1])),
        ("position past max_position (clamped)", past_max),
    ];
    let cfg = cases[0].1.cfg;
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let model = TurlModel::new(&mut store, &mut rng, cfg, N_WORDS, N_KB_ENTITIES);
    let mut cf = model.compiled();

    let mut solo = Vec::new();
    for (name, case) in &cases {
        let plan = plan_for_input(model_plan(&cfg, N_WORDS, N_KB_ENTITIES), &case.input);
        let ir = lower_model_plan(&plan).expect("plan lowers");
        compile(&ir).expect("plan compiles").verify_covers(&ir).expect("schedule covers IR");

        let tape = graph_encode(case, &store, &model);
        let compiled = cf.encode(&model, &store, &case.input).expect("compiled encode");
        assert_same_bits(&compiled, &tape, name);
        solo.push(compiled);
    }
    // The clamp is observable: the clamped row equals the same input at
    // the last valid position.
    let mut at_max = case(4, 2, &[1, 2]);
    at_max.input.token_pos[3] = cfg.max_position - 1;
    assert_same_bits(&graph_encode(&at_max, &store, &model), &solo[6], "clamp");
}

/// The PR-5 value-range analysis, re-checked against *executed* fused
/// kernels: every element the compiled path produces must lie inside
/// the statically proven interval of the IR output node (which also
/// proves NaN-freedom for freshly initialized parameters).
#[test]
fn compiled_outputs_lie_within_statically_analyzed_ranges() {
    for (tokens, ents, masked) in [(6, 3, true), (4, 2, false)] {
        let case = build_case(13, tokens, ents, 2, 2, 1e-5, masked, masked, &[2, 1, 3]);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let model = TurlModel::new(&mut store, &mut rng, case.cfg, N_WORDS, N_KB_ENTITIES);

        let plan = plan_for_input(model_plan(&case.cfg, N_WORDS, N_KB_ENTITIES), &case.input);
        let ir = lower_model_plan(&plan).expect("plan lowers");
        let analysis = analyze_ranges(&ir);
        let out_range = &analysis.ranges[ir.len() - 1];
        assert!(!out_range.can_be_nan, "encode output must be provably NaN-free");

        let mut cf = model.compiled();
        let got = cf.encode(&model, &store, &case.input).expect("compiled encode");
        for (i, &v) in got.data().iter().enumerate() {
            assert!(v.is_finite(), "non-finite compiled output at {i}");
            assert!(
                out_range.contains(v),
                "compiled output {v} at {i} escapes proven range {out_range}"
            );
        }
    }
}
