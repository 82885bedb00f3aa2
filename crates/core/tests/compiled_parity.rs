//! Compiled-vs-graph equivalence pins (the forward-plan compiler's
//! correctness), on inputs from the fixture corpus (`support`).
//!
//! 1. A property test over the config/input space — sequence lengths,
//!    head counts, layer counts, `ln_eps`, visibility masks including
//!    fully-masked rows — asserting the compiled arena executor is
//!    **bit-identical** (`f32::to_bits`) to the tape-based `Graph`
//!    forward. Where the contract table (`tests/contract.rs`) runs a
//!    fixed seeded sweep, this draws fresh points of the same space.
//! 2. Named degenerate inputs — no mention token at all, a lone token,
//!    a lone entity, a position past `max_position` — on which the
//!    compiled schedule must cover the IR exactly and tape and compiled
//!    encodes must agree on every bit.
//! 3. The range analysis re-checked against *executed* fused outputs:
//!    values produced by the compiled path must lie inside the
//!    statically derived interval of the IR's output node.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{Shape, N_ENTITIES, N_WORDS};
use turl_audit::{analyze_ranges, lower_model_plan};
use turl_core::audit::{model_plan, plan_for_input};
use turl_core::{EncodedInput, TurlConfig, TurlModel};
use turl_exec::compile;
use turl_nn::{Forward, ParamStore};
use turl_tensor::Tensor;

/// Graph-path reference: one inference-mode tape encode.
fn graph_encode(model: &TurlModel, store: &ParamStore, input: &EncodedInput) -> Tensor {
    let mut f = Forward::inference(store);
    let h = model.encode(&mut f, store, &mut StdRng::seed_from_u64(0), input);
    f.graph.value(h).clone()
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} diverges at element {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_encode_is_bit_identical_to_graph(
        seed in 0u64..1_000,
        tokens in 0usize..9,
        entities in 0usize..6,
        head_pick in 0usize..3,
        n_layers in 1usize..3,
        eps_pick in 0usize..2,
        masked in any::<bool>(),
        fully_masked_row in any::<bool>(),
        mentions in proptest::collection::vec(0usize..4, 5),
    ) {
        prop_assume!(tokens + entities > 0);
        let mut cfg = TurlConfig::tiny(seed);
        cfg.encoder.n_heads = [1, 2, 4][head_pick];
        cfg.encoder.n_layers = n_layers;
        cfg.encoder.ln_eps = [1e-5, 1e-3][eps_pick];
        cfg.use_visibility = masked;
        let (store, model) = support::model(cfg, seed);
        let shape = Shape { mentions, masked, fully_masked_row, ..Shape::new(tokens, entities) };
        let input = support::input(seed, &shape);
        let want = graph_encode(&model, &store, &input);

        let got = model.compiled().encode(&model, &store, &input).expect("compiled encode");
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "bit divergence at element {} ({} vs {})", i, a, b
            );
        }
    }
}

/// The corners of the input space, by name: the schedule covers the IR
/// exactly (no dropped, duplicated or reordered node) and the two
/// executors — tape and compiled — agree on every bit.
#[test]
fn degenerate_inputs_are_bit_identical_across_executors() {
    for name in [
        "no mention token (ZeroConst branch)",
        "two mention-less entities",
        "one token, no entity",
        "no token, one entity",
        "no token, entities with and without mentions",
        "seq len equal to the head count",
        "positions past max_position (clamped)",
    ] {
        let case = support::case_named(name);
        let (model, store, input) = (&case.model, &case.store, &case.inputs[0]);
        let plan = plan_for_input(model_plan(&model.cfg, N_WORDS, N_ENTITIES), input);
        let ir = lower_model_plan(&plan).expect("plan lowers");
        compile(&ir).expect("plan compiles").verify_covers(&ir).expect("schedule covers IR");

        let tape = graph_encode(model, store, input);
        let compiled = model.compiled().encode(model, store, input).expect("compiled encode");
        assert_same_bits(&compiled, &tape, name);

        // The clamp is observable: the clamped rows equal the same input
        // at the last valid position.
        let last = model.cfg.max_position - 1;
        if input.token_pos.iter().any(|&p| p > last) {
            let at_max = EncodedInput {
                token_pos: input.token_pos.iter().map(|&p| p.min(last)).collect(),
                ..input.clone()
            };
            assert_same_bits(&graph_encode(model, store, &at_max), &compiled, "clamp");
        }
    }
}

/// The value-range analysis, re-checked against *executed* fused
/// kernels: every element the compiled path produces must lie inside
/// the statically proven interval of the IR output node (which also
/// proves NaN-freedom for freshly initialized parameters).
#[test]
fn compiled_outputs_lie_within_statically_analyzed_ranges() {
    for name in ["a fully masked row", "unmasked"] {
        let case = support::case_named(name);
        let (model, store, input) = (&case.model, &case.store, &case.inputs[0]);
        let plan = plan_for_input(model_plan(&model.cfg, N_WORDS, N_ENTITIES), input);
        let ir = lower_model_plan(&plan).expect("plan lowers");
        let analysis = analyze_ranges(&ir);
        let out_range = &analysis.ranges[ir.len() - 1];
        assert!(!out_range.can_be_nan, "encode output must be provably NaN-free");

        let got = model.compiled().encode(model, store, input).expect("compiled encode");
        for (i, &v) in got.data().iter().enumerate() {
            assert!(v.is_finite(), "{name}: non-finite compiled output at {i}");
            assert!(
                out_range.contains(v),
                "{name}: compiled output {v} at {i} escapes proven range {out_range}"
            );
        }
    }
}
