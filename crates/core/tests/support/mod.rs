//! The fixture corpus the executor contracts run on.
//!
//! A [`Case`] is a config, a freshly initialized store and model, and
//! the member tables of one batch (1–5 of them), all built from a seed
//! and named. [`corpus`] is every case: the named corners of the input
//! space ([`named`]) and a seeded sweep over the config space
//! ([`generated`]). This module is the one place a test builds an
//! `EncodedInput` field by field (`scripts/lint_input_path.sh` keeps it
//! so); a test that needs another shape adds a [`Shape`] or a case here.
#![allow(dead_code)] // each test binary uses its own part of the corpus

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use turl_core::{EncodedInput, EntityInput, TurlConfig, TurlModel};
use turl_nn::{export_artifact, load_artifact, ExportOptions, ParamStore};
use turl_tensor::Tensor;

/// Word vocabulary size of every case's model.
pub const N_WORDS: usize = 40;
/// Entity vocabulary size (the `[MASK]` row excluded).
pub const N_ENTITIES: usize = 15;

/// One member table's shape; its contents come from a seed.
#[derive(Clone)]
pub struct Shape {
    /// Metadata tokens.
    pub tokens: usize,
    /// Entity cells.
    pub entities: usize,
    /// Mention lengths, cycled over the entity cells. A 0 is a
    /// mention-less cell: the embedding's `ZeroConst` branch.
    pub mentions: Vec<usize>,
    /// Carry a random visibility mask (~40 % of the pairs masked).
    pub masked: bool,
    /// Mask every pair of row 0 as well: a row with nothing to attend to.
    pub fully_masked_row: bool,
    /// The first token's position; the rest count up from it, so a start
    /// near `max_position` runs past it (the input binding clamps).
    pub first_position: usize,
}

impl Shape {
    /// `tokens` tokens and `entities` one-token mentions, unmasked.
    pub fn new(tokens: usize, entities: usize) -> Self {
        Self {
            tokens,
            entities,
            mentions: vec![1],
            masked: false,
            fully_masked_row: false,
            first_position: 0,
        }
    }
}

/// A member table of `shape`, its ids and mask drawn from `seed`.
pub fn input(seed: u64, shape: &Shape) -> EncodedInput {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    let entities = (0..shape.entities)
        .map(|i| EntityInput {
            emb_index: rng.gen_range(0..=N_ENTITIES),
            mention: (0..shape.mentions[i % shape.mentions.len()])
                .map(|_| rng.gen_range(0..N_WORDS))
                .collect(),
            type_idx: i % 3,
        })
        .collect();
    let n = shape.tokens + shape.entities;
    let mask = shape.masked.then(|| {
        let mut m = Tensor::zeros(vec![n, n]);
        for v in m.data_mut() {
            if rng.gen::<f32>() < 0.4 {
                *v = -1e9;
            }
        }
        if shape.fully_masked_row && n > 0 {
            (0..n).for_each(|j| m.set2(0, j, -1e9));
        }
        m
    });
    EncodedInput {
        token_ids: (0..shape.tokens).map(|_| rng.gen_range(0..N_WORDS)).collect(),
        token_types: (0..shape.tokens).map(|i| i % 2).collect(),
        token_pos: (0..shape.tokens).map(|i| shape.first_position + i).collect(),
        entities,
        mask,
    }
}

/// A freshly initialized model of `cfg` and the store holding it.
pub fn model(cfg: TurlConfig, seed: u64) -> (ParamStore, TurlModel) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = TurlModel::new(&mut store, &mut rng, cfg, N_WORDS, N_ENTITIES);
    (store, model)
}

/// One fixture: a model (its config is `model.cfg`) and the member
/// tables of one batch.
pub struct Case {
    /// What the case is there for.
    pub name: String,
    /// The model's freshly initialized weights.
    pub store: ParamStore,
    /// The model.
    pub model: TurlModel,
    /// The members of one batch, in row order; each also runs alone.
    pub inputs: Vec<EncodedInput>,
}

impl Case {
    /// A `cfg` model seeded by `seed` over one member per shape.
    pub fn new(name: impl Into<String>, seed: u64, cfg: TurlConfig, shapes: &[Shape]) -> Self {
        let (store, model) = self::model(cfg, seed);
        let inputs = (shapes.iter().enumerate())
            .map(|(i, shape)| input(seed * 8 + i as u64, shape))
            .collect();
        Self { name: name.into(), store, model, inputs }
    }
}

/// The tiny config at `n_heads` heads, `n_layers` layers and `ln_eps`.
fn tiny(seed: u64, n_heads: usize, n_layers: usize, ln_eps: f32) -> TurlConfig {
    let mut cfg = TurlConfig::tiny(seed);
    cfg.encoder.n_heads = n_heads;
    cfg.encoder.n_layers = n_layers;
    cfg.encoder.ln_eps = ln_eps;
    cfg
}

/// The corners of the input space, by name: empty token and entity
/// sides, mention-less cells, fully masked and unmasked inputs, one head
/// and as many heads as rows, positions past `max_position`, a config
/// wide enough that the kernels fan out at pool width 2, and batches of
/// same-shape and of mixed members.
fn named() -> Vec<Case> {
    let cfg = tiny(7, 2, 2, 1e-5);
    let masked = |tokens, entities, mentions: &[usize]| Shape {
        mentions: mentions.to_vec(),
        masked: true,
        ..Shape::new(tokens, entities)
    };
    let past_max = |first_position, shape| Shape { first_position, ..shape };
    let fully_masked = |shape| Shape { fully_masked_row: true, ..shape };
    let unmasked = TurlConfig { use_visibility: false, ..cfg };
    let cases = [
        ("no mention token (ZeroConst branch)", cfg, vec![masked(6, 3, &[0])]),
        ("two mention-less entities", cfg, vec![masked(2, 2, &[0])]),
        ("one token, no entity", cfg, vec![masked(1, 0, &[1])]),
        ("no token, one entity", cfg, vec![masked(0, 1, &[2])]),
        ("no token, entities with and without mentions", cfg, vec![masked(0, 4, &[1, 2, 0])]),
        // The head split is a `[2, 2, dh]` permute whose axes cannot be
        // read off its shapes.
        ("seq len equal to the head count", cfg, vec![masked(1, 1, &[1])]),
        (
            "positions past max_position (clamped)",
            cfg,
            vec![past_max(cfg.max_position - 2, masked(4, 2, &[1, 2]))],
        ),
        ("a fully masked row", cfg, vec![fully_masked(masked(6, 3, &[2, 1, 3]))]),
        ("unmasked", unmasked, vec![Shape { mentions: vec![2, 1, 3], ..Shape::new(4, 2) }]),
        ("one head", tiny(10, 1, 1, 1e-5), vec![masked(5, 3, &[1, 0, 2])]),
        (
            "small config: the kernels fan out at pool width 2",
            TurlConfig::small(11),
            vec![masked(12, 8, &[1, 2, 0]), masked(7, 5, &[2])],
        ),
        ("three same-shape members", cfg, vec![masked(4, 2, &[1]); 3]),
        (
            "five mixed members",
            cfg,
            vec![
                masked(5, 3, &[1, 0]),
                Shape::new(2, 0),
                masked(0, 4, &[2]),
                past_max(cfg.max_position, masked(3, 1, &[0])),
                fully_masked(masked(1, 2, &[1])),
            ],
        ),
    ];
    (cases.into_iter().zip(1..))
        .map(|((name, cfg, shapes), seed)| Case::new(name, seed, cfg, &shapes))
        .collect()
}

/// Case `i` of the config-space sweep: `i` mod 24 picks one of heads
/// {1, 2, 4} × layers {1, 2} × both `ln_eps` × masked or not, `i` mod 5
/// the member count (1–5), and `i / 5` whether the members share one
/// shape (what serve coalesces) or each draw their own. Shapes, ids and
/// masks come from `i`: token and entity sides that may be empty,
/// mention-less cells, fully masked rows and positions past
/// `max_position`, with some members of a masked case left unmasked.
fn generated(i: u64) -> Case {
    let k = i as usize;
    let n_heads = [1, 2, 4][k % 3];
    let n_layers = 1 + (k / 3) % 2;
    let ln_eps = [1e-5, 1e-3][(k / 6) % 2];
    let masked = (k / 12).is_multiple_of(2);
    let cfg = TurlConfig { use_visibility: masked, ..tiny(i, n_heads, n_layers, ln_eps) };
    let mut rng = StdRng::seed_from_u64(i ^ 0xC0DE);
    let mut draw = || {
        let tokens = rng.gen_range(0..9usize);
        let entities = rng.gen_range(0..6usize);
        let row_masked = masked && rng.gen_bool(0.75);
        Shape {
            tokens: tokens.max(usize::from(tokens + entities == 0)),
            entities,
            mentions: (0..rng.gen_range(1..3usize)).map(|_| rng.gen_range(0..4)).collect(),
            masked: row_masked,
            fully_masked_row: row_masked && rng.gen_bool(0.3),
            first_position: if rng.gen_bool(0.2) { cfg.max_position - 1 } else { 0 },
        }
    };
    let n_members = 1 + k % 5;
    let same_shape = (k / 5).is_multiple_of(2);
    let first = draw();
    let shapes: Vec<Shape> =
        (0..n_members).map(|m| if same_shape || m == 0 { first.clone() } else { draw() }).collect();
    let name = format!(
        "generated {i}: {n_heads} heads, {n_layers} layers, ln_eps {ln_eps:e}, masked {masked}, \
         {n_members} {} members",
        if same_shape { "same-shape" } else { "mixed" }
    );
    Case::new(name, i + 100, cfg, &shapes)
}

/// Every case: the named corners, then 32 cases of the config-space
/// sweep (every point of its 24-point grid, and 32 batches).
pub fn corpus() -> Vec<Case> {
    let mut cases = named();
    cases.extend((0..32).map(generated));
    cases
}

/// The named case `name`.
///
/// # Panics
/// Panics when no named case has that name.
pub fn case_named(name: &str) -> Case {
    named().into_iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no case `{name}`"))
}

/// `store` exported to an artifact (block-quantized to int8 when
/// `quantize`, every rank-2 tensor) and loaded back.
pub fn reload(store: &ParamStore, quantize: bool) -> ParamStore {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "turl-core-fixture-{}-{}.artifact",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let opts = ExportOptions { quantize, min_quant_elems: 0 };
    let summary = export_artifact(store, &path, &opts).expect("artifact export");
    assert_eq!(summary.quantized > 0, quantize, "an int8 export quantizes, an f32 one does not");
    let loaded = load_artifact(&path).expect("artifact load");
    let _ = std::fs::remove_file(&path);
    let names = |s: &ParamStore| s.ids().map(|id| s.name(id).to_string()).collect::<Vec<_>>();
    assert_eq!(names(&loaded), names(store), "the parameter order survives the round trip");
    loaded
}

/// The f32 twin of a (possibly quantized) store: every value
/// dequantized, under the same names in the same order.
pub fn dequantized(store: &ParamStore) -> ParamStore {
    let mut dense = ParamStore::new();
    for id in store.ids() {
        dense.register(store.name(id).to_string(), store.value(id).dequantize());
    }
    dense
}
