//! Set-up shared by the workloads: the synthetic world and corpus, the
//! paper-config model behind an exported-then-loaded artifact, the
//! pre-serialised request bodies and the in-process daemon.
//!
//! Everything is derived from the workload seed; the program under
//! test receives only the generated inputs.

use crate::load::MIX;
use crate::spans::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use turl_core::{TurlConfig, TurlModel};
use turl_data::{Table, TokenScope, Vocab};
use turl_kb::{
    generate_corpus, identify_relational, CorpusConfig, KnowledgeBase, PipelineConfig, WorldConfig,
};
use turl_nn::{export_artifact, load_artifact, ExportOptions, ParamStore};
use turl_serve::{
    ColumnRequest, RankRequest, RelationRequest, RowPopulationRequest, ServeOptions, ServerHandle,
    Session, TableRequest,
};

/// Tables generated per corpus. About 95 % survive `identify_relational`,
/// so a cache-miss workload can send ~5 700 distinct tables — eight
/// times what the daemon answers in one window today — before the pool
/// is exhausted, which is an error, never a wrap.
const CORPUS_TABLES: usize = 6000;

/// Candidate ids carried by every rank request.
const RANK_CANDIDATES: usize = 50;

/// The generated knowledge base and relational tables.
pub struct World {
    /// Synthetic knowledge base (3 000 entities).
    pub kb: KnowledgeBase,
    /// Relational tables, in generation order.
    pub tables: Vec<Table>,
}

/// Generate the world and corpus for `seed`.
pub fn build_world(seed: u64, rec: &Recorder, parent: Option<u32>) -> World {
    let (kb, _) =
        rec.time("kb.world_gen", parent, 0, |_| KnowledgeBase::generate(&WorldConfig::small(seed)));
    let (tables, _) = rec.time("kb.corpus_gen", parent, 0, |_| {
        let cfg = CorpusConfig { n_tables: CORPUS_TABLES, ..CorpusConfig::small(seed + 1) };
        identify_relational(generate_corpus(&kb, &cfg), &PipelineConfig::default())
    });
    World { kb, tables }
}

/// Word vocabulary over the corpus text and entity descriptions, as the
/// CLI's `setup` builds it.
pub fn build_vocab(world: &World, rec: &Recorder, parent: Option<u32>) -> Vocab {
    rec.time("data.vocab_build", parent, 0, |_| {
        let texts: Vec<String> = world
            .tables
            .iter()
            .flat_map(|t| {
                let mut v = vec![t.full_caption()];
                v.extend(t.headers.clone());
                v.extend(t.rows.iter().flatten().map(|c| c.text.clone()));
                v
            })
            .chain(world.kb.entities.iter().map(|e| e.description.clone()))
            .collect();
        Vocab::build(texts.iter().map(String::as_str), 1)
    })
    .0
}

/// A randomly initialised paper-config model (speed does not depend on
/// training) and its trainable store.
pub fn build_model(
    seed: u64,
    n_words: usize,
    n_entities: usize,
    rec: &Recorder,
    parent: Option<u32>,
) -> (TurlModel, ParamStore) {
    rec.time("core.model_init", parent, 0, |_| {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let model = TurlModel::new(&mut store, &mut rng, TurlConfig::paper(), n_words, n_entities);
        (model, store)
    })
    .0
}

/// Export `store` as an artifact (f32, or int8 with `quantize`) and load
/// it back, as `turl export` followed by `turl serve --artifact` does.
/// Returns the loaded inference store and the artifact's size in bytes.
pub fn roundtrip_artifact(
    store: &ParamStore,
    quantize: bool,
    path: &Path,
    rec: &Recorder,
    parent: Option<u32>,
) -> Result<(ParamStore, u64), String> {
    let (export, load) = if quantize {
        ("nn.artifact_export_i8", "nn.artifact_load_i8")
    } else {
        ("nn.artifact_export_f32", "nn.artifact_load_f32")
    };
    let opts = ExportOptions { quantize, ..ExportOptions::default() };
    rec.time(export, parent, 0, |_| export_artifact(store, path, &opts))
        .0
        .map_err(|e| format!("export {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).map_err(|e| e.to_string())?;
    let loaded = rec
        .time(load, parent, 0, |_| load_artifact(path))
        .0
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    std::fs::remove_file(path).map_err(|e| e.to_string())?;
    Ok((loaded, bytes))
}

/// Run `build` `setups` times under a `setup` span, handing each result
/// but the last to `dispose` before the next build, and return the last
/// result with the median build time in seconds — the `setup_s` metric.
pub fn median_setup<T>(
    setups: usize,
    rec: &Recorder,
    mut build: impl FnMut(Option<u32>) -> Result<T, String>,
    dispose: impl Fn(T),
) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = last.take() {
            dispose(previous);
        }
        let (built, ns) = rec.time("setup", None, 0, &mut build);
        last = Some(built?);
        seconds.push(ns as f64 / 1e9);
    }
    Ok((last.expect("at least one set-up ran"), crate::stats::median(&seconds)))
}

/// One pre-serialised request.
pub struct Request {
    /// Index into [`MIX`].
    pub endpoint: usize,
    /// JSON body.
    pub body: String,
}

impl Request {
    /// The endpoint path.
    pub fn path(&self) -> &'static str {
        MIX[self.endpoint].0
    }
}

/// Serialise one request per entry of `endpoints`, entry `i` over table
/// `i`. Parameters are chosen so that every request is valid: the target
/// cell exists, the column has rows to pool over. A table that cannot
/// serve its endpoint (no caption tokens, no entity cells) is sent to
/// `/v1/encode` instead; the count of such swaps is returned.
pub fn build_requests(
    session: &Session,
    world: &World,
    endpoints: &[usize],
    rng: &mut StdRng,
) -> Result<(Vec<Request>, usize), String> {
    if endpoints.len() > world.tables.len() {
        return Err(format!(
            "{} requests wanted but the corpus holds {} relational tables",
            endpoints.len(),
            world.tables.len()
        ));
    }
    let n_entities = session.n_entities() as u32;
    let candidates = |rng: &mut StdRng| -> Vec<u32> {
        (0..RANK_CANDIDATES).map(|_| rng.gen_range(0..n_entities)).collect()
    };
    let mut swapped = 0;
    let mut out = Vec::with_capacity(endpoints.len());
    for (table, &wanted) in world.tables.iter().zip(endpoints) {
        let (inst, enc) = session.encode_table(table).map_err(|e| e.to_json())?;
        let servable = match MIX[wanted].0 {
            "/v1/entity_linking" | "/v1/cell_filling" => !enc.entities.is_empty(),
            "/v1/column_type" | "/v1/relation_extraction" => {
                !inst.entities_in_column(table.subject_column).is_empty()
            }
            "/v1/schema_augmentation" => inst.tokens.iter().any(|t| t.scope == TokenScope::Caption),
            _ => true,
        };
        let endpoint = if servable {
            wanted
        } else {
            swapped += 1;
            0
        };
        let table = table.clone();
        let body = match MIX[endpoint].0 {
            "/v1/entity_linking" | "/v1/cell_filling" => {
                let cell = rng.gen_range(0..enc.entities.len());
                serde_json::to_string(&RankRequest { table, cell, candidates: candidates(rng) })
            }
            "/v1/row_population" => {
                serde_json::to_string(&RowPopulationRequest { table, candidates: candidates(rng) })
            }
            "/v1/column_type" => {
                let column = table.subject_column;
                serde_json::to_string(&ColumnRequest { table, column })
            }
            "/v1/relation_extraction" => {
                let others: Vec<usize> = table
                    .entity_columns()
                    .into_iter()
                    .filter(|&c| c != table.subject_column)
                    .collect();
                let object_column = match others.len() {
                    0 => table.subject_column,
                    n => others[rng.gen_range(0..n)],
                };
                serde_json::to_string(&RelationRequest { table, object_column })
            }
            _ => serde_json::to_string(&TableRequest { table }),
        };
        out.push(Request { endpoint, body: body.map_err(|e| e.to_string())? });
    }
    Ok((out, swapped))
}

/// A booted daemon over a loaded artifact, with its request pool.
pub struct ServeFixture {
    /// The session the daemon serves (also the parity reference).
    pub session: Arc<Session>,
    /// The running daemon.
    pub server: ServerHandle,
    /// Its resolved loopback address.
    pub addr: String,
    /// The options it was started with (defaults but for the address).
    pub opts: ServeOptions,
    /// Pre-serialised requests, entry `i` over table `i`.
    pub requests: Vec<Request>,
    /// Requests moved to `/v1/encode` because their table could not
    /// serve the endpoint the mix assigned.
    pub swapped: usize,
}

/// Build the whole serve fixture: world → vocabulary → model → artifact
/// round trip → session → request bodies → daemon, then one `/healthz`
/// round trip to prove it answers. `endpoints(world)` assigns an
/// endpoint to each table that gets a request.
pub fn build_serve(
    seed: u64,
    quantize: bool,
    endpoints: &dyn Fn(&World, &mut StdRng) -> Vec<usize>,
    artifact_path: &Path,
    rec: &Recorder,
    parent: Option<u32>,
) -> Result<(ServeFixture, World), String> {
    let world = build_world(seed, rec, parent);
    let vocab = build_vocab(&world, rec, parent);
    let (model, store) = build_model(seed, vocab.len(), world.kb.n_entities(), rec, parent);
    let (loaded, _) = roundtrip_artifact(&store, quantize, artifact_path, rec, parent)?;
    drop(store);
    let session = Arc::new(Session::new(model, loaded, vocab, true));
    let mut rng = StdRng::seed_from_u64(seed + 3);
    let endpoints = endpoints(&world, &mut rng);
    let (built, _) = rec.time("serve.request_bodies", parent, 0, |_| {
        build_requests(&session, &world, &endpoints, &mut rng)
    });
    let (requests, swapped) = built?;
    let opts = ServeOptions { addr: "127.0.0.1:0".into(), ..ServeOptions::default() };
    let (server, _) =
        rec.time("serve.boot", parent, 0, |_| -> Result<(ServerHandle, String), String> {
            let server = turl_serve::start(Arc::clone(&session), &opts)?;
            let addr = server.addr().to_string();
            let (status, body) = turl_serve::Client::new(&addr).get("/healthz")?;
            if status != 200 {
                return Err(format!("/healthz answered {status}: {body}"));
            }
            Ok((server, addr))
        });
    let (server, addr) = server?;
    Ok((ServeFixture { session, server, addr, opts, requests, swapped }, world))
}
