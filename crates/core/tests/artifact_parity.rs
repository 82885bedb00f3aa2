//! Artifact round-trip parity at the model level.
//!
//! The `turl export` wire format promises two things the nn-level tests
//! can't check on their own:
//!
//! 1. An f32 artifact is a *perfect* serialization: binding the loaded
//!    store into `CompiledForward` reproduces the in-memory outputs
//!    bit-for-bit (`f32::to_bits`).
//! 2. A quantized store run through the compiled path is bit-identical
//!    to running the *dequantized* weights through the same path — the
//!    q8 kernels dequantize in-register and accumulate in the same
//!    association as the dense kernels, so quantization error enters
//!    through the weights once, never through the execution route.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use turl_core::{EncodedInput, EntityInput, TurlConfig, TurlModel};
use turl_nn::{export_artifact, load_artifact, ExportOptions, ParamStore};

const N_WORDS: usize = 48;
const N_KB_ENTITIES: usize = 17;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("turl-core-artifact-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn build_input(seed: u64, tokens: usize, ents: usize) -> EncodedInput {
    let mut rng = StdRng::seed_from_u64(seed);
    EncodedInput {
        token_ids: (0..tokens).map(|_| rng.gen_range(0..N_WORDS)).collect(),
        token_types: (0..tokens).map(|i| i % 2).collect(),
        token_pos: (0..tokens).collect(),
        entities: (0..ents)
            .map(|i| EntityInput {
                emb_index: rng.gen_range(0..=N_KB_ENTITIES),
                mention: (0..(i % 3)).map(|_| rng.gen_range(0..N_WORDS)).collect(),
                type_idx: i % 3,
            })
            .collect(),
        mask: None,
    }
}

fn fresh_model(seed: u64) -> (ParamStore, TurlModel) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TurlConfig::tiny(seed);
    let model = TurlModel::new(&mut store, &mut rng, cfg, N_WORDS, N_KB_ENTITIES);
    (store, model)
}

/// Encode with both stores and assert bit-identical outputs.
fn assert_encodes_bit_equal(
    model: &TurlModel,
    a: &ParamStore,
    b: &ParamStore,
    input: &EncodedInput,
) {
    let mut cf_a = model.compiled();
    let mut cf_b = model.compiled();
    let out_a = cf_a.encode(model, a, input).expect("encode with store a");
    let out_b = cf_b.encode(model, b, input).expect("encode with store b");
    assert_eq!(out_a.shape(), out_b.shape());
    for (i, (x, y)) in out_a.data().iter().zip(out_b.data().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "bit divergence at element {i} ({x} vs {y})");
    }
}

#[test]
fn f32_artifact_reproduces_compiled_outputs_bit_exactly() {
    let (store, model) = fresh_model(41);
    let dir = tmp_dir("f32");
    let path = dir.join("model.artifact");
    let summary =
        export_artifact(&store, &path, &ExportOptions::default()).expect("export f32 artifact");
    assert_eq!(summary.quantized, 0, "--f32 export must not quantize");

    let loaded = load_artifact(&path).expect("load artifact");
    assert_eq!(loaded.len(), store.len());
    for id in store.ids() {
        assert_eq!(store.name(id), loaded.name(id), "ParamId order must survive the round-trip");
    }

    for (seed, tokens, ents) in [(1u64, 7, 3), (2, 5, 0), (3, 0, 4)] {
        let input = build_input(seed, tokens, ents);
        assert_encodes_bit_equal(&model, &store, &loaded, &input);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantized_store_matches_dequantized_weights_bit_exactly() {
    let (store, model) = fresh_model(43);

    // Mirror the export policy: quantize dense rank-2 tensors above the
    // element floor (use 0 here so every matrix takes the q8 route).
    let mut quant = ParamStore::new();
    let mut dequant = ParamStore::new();
    let mut n_quantized = 0usize;
    for id in store.ids() {
        let v = store.value(id);
        let (q, d) = if v.shape().len() == 2 {
            n_quantized += 1;
            let qv = v.quantize_i8();
            let dv = qv.dequantize();
            (qv, dv)
        } else {
            (v.clone(), v.clone())
        };
        quant.register(store.name(id).to_string(), q);
        dequant.register(store.name(id).to_string(), d);
    }
    assert!(n_quantized > 0, "model must have rank-2 params to exercise q8");

    for (seed, tokens, ents) in [(5u64, 6, 2), (6, 3, 3)] {
        let input = build_input(seed, tokens, ents);
        assert_encodes_bit_equal(&model, &quant, &dequant, &input);
    }
}

#[test]
fn int8_artifact_round_trips_through_the_compiled_path() {
    let (store, model) = fresh_model(47);
    let dir = tmp_dir("int8");
    let path = dir.join("model-int8.artifact");
    let opts = ExportOptions { quantize: true, min_quant_elems: 1 };
    let summary = export_artifact(&store, &path, &opts).expect("export int8 artifact");
    assert!(summary.quantized > 0, "int8 export must quantize something");

    let loaded = load_artifact(&path).expect("load artifact");
    assert_eq!(loaded.len(), store.len());

    // The loaded quantized store must encode successfully and stay close
    // to the f32 reference: every weight is off by at most half a
    // quantization step, so a tiny model's outputs stay within a loose
    // absolute tolerance (the tight accuracy gate lives in the CLI probe).
    let input = build_input(9, 6, 3);
    let mut cf_ref = model.compiled();
    let mut cf_q = model.compiled();
    let want = cf_ref.encode(&model, &store, &input).expect("f32 encode");
    let got = cf_q.encode(&model, &loaded, &input).expect("int8 encode");
    assert_eq!(want.shape(), got.shape());
    for (i, (x, y)) in want.data().iter().zip(got.data().iter()).enumerate() {
        assert!(y.is_finite(), "non-finite int8 output at {i}");
        assert!((x - y).abs() <= 0.35, "int8 output drifted at {i}: {x} vs {y}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
