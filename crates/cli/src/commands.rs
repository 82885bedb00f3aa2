//! CLI command implementations.

use crate::args::Options;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use turl_core::tasks::cell_filling::CellFiller;
use turl_core::{
    bind_store, encode_tables, probe as probe_mod, CheckpointPolicy, EncodedInput, Pretrainer,
    TurlConfig, TurlModel,
};
use turl_data::{CorpusStats, LinearizeConfig, TableInstance, Vocab};
use turl_kb::tasks::build_cell_filling;
use turl_kb::{
    generate_splits, CooccurrenceIndex, CorpusConfig, CorpusSplits, KnowledgeBase, PipelineConfig,
    WorldConfig,
};
use turl_nn::ParamStore;
use turl_obs::{info, warn};

/// Top-level usage text.
pub const USAGE: &str = "turl — TURL reproduction CLI

USAGE:
  turl world    [--entities N] [--seed S]
  turl corpus   [--entities N] [--tables N] [--seed S] [--out corpus.json]
  turl pretrain [--entities N] [--tables N] [--epochs E] [--seed S] [--out model.artifact]
                [--checkpoint-dir DIR] [--checkpoint-every N] [--checkpoint-keep K]
                [--resume] [--metrics-out run.jsonl]
  turl probe    [--entities N] [--tables N] [--epochs E] [--seed S] [--artifact model.artifact]
  turl fill     [--entities N] [--tables N] [--epochs E] [--seed S] [--artifact model.artifact]
  turl infer    [--entities N] [--tables N] [--seed S] [--reps N]
                [--artifact model.artifact [--reference f32.artifact [--tolerance T]]]
  turl export   [--entities N] [--tables N] [--epochs E] [--seed S] [--artifact model.artifact]
                [--out model-int8.artifact] [--dtype f32|int8] [--min-quant-elems N]
  turl audit    [--entities N] [--tables N] [--seed S]
  turl plan     [--words N] [--plan-entities N] [--tokens N] [--seq-entities N]
                [--mention-tokens N] [--mlm N] [--mer N] [--candidates N]
                [--eps F] [--int8-scale S]
  turl bench    [--quick] [--threads 1,2,4] [--out BENCH_pretrain.json]
                [--baseline FILE [--factor 2.0]]
  turl serve    [--entities N] [--tables N] [--seed S] [--artifact model.artifact]
                [--addr 127.0.0.1:7433] [--workers N] [--conns N]
                [--max-batch N] [--max-wait-us U] [--queue-depth N]
                [--cache-cap N] [--plan-cache-cap N]
                [--trace-out traces.jsonl] [--no-trace]
  turl client   [--addr HOST:PORT] [--requests N] [--concurrency C]
                [--check-parity --artifact F] [--shutdown]
  turl top      [--addr HOST:PORT] [--interval-ms MS] [--iters N]
  turl report   <run.jsonl>

Every command also accepts a global `--threads N` to size the worker
pool (default: TURL_THREADS, then the number of available cores), and
a global `--metrics-out FILE` that records structured telemetry as one
JSON object per line: run lifecycle, per-step loss/grad-norm/phase
timings, §4.4 mask-selection counts, checkpoint latencies, per-op
kernel timings and worker-pool stats. Instrumentation never perturbs
training: a run with --metrics-out is bit-identical to one without.

`report` summarizes a --metrics-out file: step-time breakdown
(prepare/forward/backward/reduce/optimizer/checkpoint), observed
MLM/MER mask ratios vs the §4.4 20%/60% targets, kernel and pool
profiles, and flags anomalies (loss spikes, ratio drift, pool
starvation, non-finite skips). It exits non-zero on schema violations
or when the file records no events or spans.

`pretrain --out` writes the trained weights as an f32 model artifact,
the one weights file every other command takes as --artifact (a file
that does not hold the model's parameters at the model's shapes is
refused at load, naming the parameter). With --checkpoint-dir it also
writes a crash-safe trainer checkpoint (parameters, Adam state, RNG,
epoch progress) every --checkpoint-every optimizer steps (default 25),
keeping the newest --checkpoint-keep files (default 3). --resume
restores the newest valid checkpoint from the directory — corrupt or
truncated files are skipped with a warning — and continues until
--epochs total epochs, bit-identical to a run that was never
interrupted.

`infer` runs the compiled graph-free inference path: the forward plan
is lowered through the audit IR, fused (mask+softmax, layer norm,
bias+GELU), and executed out of one liveness-planned arena with no
autograd tape and no per-op allocation. The command first proves the
compiled path bit-exact against the graph forward on every validation
table, then reports tokens/sec for both paths and the speedup. --reps
controls the timing loop; --artifact runs it on pre-trained f32 weights
instead of fresh parameters.

`export` rewrites a model artifact (--artifact; without it a model is
pre-trained first): one checksummed frame (same FNV-1a header
discipline as trainer checkpoints) holding every parameter in a binary
little-endian layout. --dtype int8 block-quantizes rank-2 tensors of at
least --min-quant-elems elements (32-wide blocks, one f32 scale each —
1.125 bytes/weight, ~3.5x smaller than f32); biases and layer-norm
parameters always stay f32.

`infer --artifact` with an int8 artifact binds it directly into the
compiled executor — quantized weights stream through in-register-
dequant int8 kernels, nothing is densified up front — and re-proves
the quantized parameters through the plan-level range analysis with
their exact ±127·scale dequantization bounds. With --reference (the
f32 artifact it was exported from) it also gates accuracy: the §6.8
object-entity probe must stay within --tolerance (default 0.05) of the
f32 weights'.

`serve` runs a long-lived HTTP/JSON inference daemon over the compiled
graph-free forward: POST a table (corpus JSON schema) to /v1/encode,
/v1/entity_linking, /v1/cell_filling, /v1/row_population,
/v1/column_type, /v1/relation_extraction or /v1/schema_augmentation;
GET /healthz for liveness, /metrics for Prometheus text exposition
(per-endpoint latency and per-stage time histograms, queue and cache
gauges, turl_build_info), /metrics.json for the same summary as JSON,
and /admin/traces for tail-sampled request traces as JSONL. Same-shape
requests arriving within --max-wait-us are coalesced into one batched
forward (up to --max-batch tables) behind a --queue-depth-bounded
queue (overflow answers 503); responses stay bit-identical to offline
`turl infer`. Repeated tables are answered from a --cache-cap LRU
keyed on canonical input bytes, and each worker's compiled-plan cache
is bounded by --plan-cache-cap. Malformed requests get typed 4xx JSON
errors; SIGTERM (or POST /admin/shutdown) drains in-flight work before
exit.

Every request is traced: a span timeline (decode, queue_wait,
batch_assemble, forward, encode, write) is attributed per request even
under micro-batching, a trace id (the x-request-id header, or a
generated one) is echoed on every response, and a bounded reservoir
tail-samples the slowest traces plus a uniform sample. --trace-out
dumps the reservoir as schema-valid JSONL on shutdown (readable by
`turl report`); --no-trace disables reservoir sampling (stage and
endpoint histograms stay on). Tracing never changes responses: bytes
are bit-identical with tracing on or off.

`top` is a live dashboard over a daemon's /metrics: RPS, per-endpoint
and per-stage p50/p99, batch occupancy, cache hit rate, queue depth,
and overload rejects, refreshed every --interval-ms (default 1000)
for --iters frames (default 0 = until interrupted).

`client` drives a running daemon with --requests concurrent /v1/encode
calls over the validation split — each client thread holds one
kept-alive connection and the achieved connection-reuse rate is
reported — then prints the server's /metrics.json summary.
--check-parity recomputes every response locally (from the same
--artifact the server loaded) and fails unless each one matches
bit-for-bit; --shutdown asks the daemon to exit afterwards.

`plan --int8-scale S` runs the same abstract interpreter with every
embedding table and linear weight bounded by its int8 dequantization
envelope ±127·S instead of the init-time bound.

`plan` lowers the paper configuration to a typed dataflow IR and runs
the plan-level abstract interpreter over it: per-tensor value ranges
with NaN/Inf flow (masked attention logits must provably vanish after
softmax, every layer-norm denominator must be provably nonzero) and a
buffer-liveness pass that packs intermediates into a reusable arena,
reporting peak bytes and the reuse factor vs naive allocation. --eps
overrides the layer-norm epsilon to explore degenerate configurations;
any violation exits non-zero.

`audit` statically checks the configuration (§4.4 masking ratios) and
its symbolic model forward plan (shape-flow, arena liveness), then
lints every generated table's §4.3 visibility matrix and additive
mask. It trains nothing, and exits non-zero if any invariant is
violated.

`bench` times the matmul kernel family, encoder forward/backward and
full pre-training steps across the requested thread counts (those above
the machine's core count are skipped) and writes
JSON rows {op, size, dtype, body, threads, ns_per_iter, tokens_per_sec},
`body` being the matmul kernel the CPU selected (avx512f, avx2 or
portable). With --baseline it exits non-zero if any 1-thread measurement
regressed by more than --factor (default 2.0) against the baseline row
of the same body — or, where the baseline has none, of the widest
narrower body; multi-thread rows are recorded, not gated.

Defaults: --entities 800, --tables 400, --epochs 6, --seed 0.
All commands regenerate the deterministic synthetic world from the seed;
the artifact `pretrain --out` writes is what `probe`, `fill`, `infer`,
`export`, `serve` and `client` take as --artifact.";

struct Setup {
    kb: KnowledgeBase,
    splits: CorpusSplits,
    vocab: Vocab,
    cooccur: CooccurrenceIndex,
    cfg: TurlConfig,
}

fn setup(opts: &Options) -> Result<Setup, String> {
    let entities = opts.get_usize("entities", 800)?;
    let tables = opts.get_usize("tables", 400)?;
    let seed = opts.get_u64("seed", 0)?;
    let kb =
        KnowledgeBase::generate(&WorldConfig { n_entities: entities, ..WorldConfig::small(seed) });
    let pcfg = PipelineConfig { max_eval_tables: (tables / 8).max(10), ..Default::default() };
    let splits = generate_splits(
        &kb,
        &CorpusConfig { n_tables: tables, ..CorpusConfig::small(seed + 1) },
        &pcfg,
    );
    let vocab =
        Vocab::from_tables(&splits.train, kb.entities.iter().map(|e| e.description.as_str()));
    let cooccur = CooccurrenceIndex::build(&splits.train);
    let cfg = TurlConfig::tiny(seed);
    Ok(Setup { kb, splits, vocab, cooccur, cfg })
}

/// The model `s` describes, its parameters registered into `store`
/// with the initialization `Pretrainer::new` gives them.
fn new_model(s: &Setup, store: &mut ParamStore) -> TurlModel {
    let mut rng = StdRng::seed_from_u64(s.cfg.seed);
    TurlModel::new(store, &mut rng, s.cfg, s.vocab.len(), s.kb.n_entities())
}

/// The weights of an artifact file, for `model`. The one place a weights
/// file enters a command: whatever [`bind_store`] does not accept for
/// this model is refused here, before any forward.
fn load_weights(model: &TurlModel, artifact: &str) -> Result<ParamStore, String> {
    let store =
        turl_nn::load_artifact(Path::new(artifact)).map_err(|e| format!("{artifact}: {e}"))?;
    bind_store(model, &store).map_err(|e| {
        format!(
            "{artifact} does not fit the model: {e} — \
             was it written with the same --entities/--tables/--seed?"
        )
    })?;
    let bytes = std::fs::metadata(artifact).map(|m| m.len()).unwrap_or(0);
    info(format!(
        "loaded artifact {artifact}: {} tensors ({} quantized), {bytes} bytes",
        store.len(),
        n_quantized(&store)
    ));
    Ok(store)
}

/// The model `s` describes over the weights of an artifact file.
fn load_model(s: &Setup, artifact: &str) -> Result<(TurlModel, ParamStore), String> {
    // Only the model is kept: the store it registers into goes at once,
    // so initial values, gradients and Adam moments are never resident
    // next to the loaded weights.
    let model = new_model(s, &mut ParamStore::new());
    let store = load_weights(&model, artifact)?;
    Ok((model, store))
}

fn n_quantized(store: &ParamStore) -> usize {
    store.ids().filter(|&id| store.value(id).quantized().is_some()).count()
}

/// The `--artifact` weights when given, a model pre-trained here and now
/// otherwise.
fn model_and_store(s: &Setup, opts: &Options) -> Result<(TurlModel, ParamStore), String> {
    let artifact = opts.get("artifact", "");
    if !artifact.is_empty() {
        return load_model(s, &artifact);
    }
    let mut pt =
        Pretrainer::new(s.cfg, s.vocab.len(), s.kb.n_entities(), s.vocab.mask_id() as usize);
    let epochs = opts.get_usize("epochs", 6)?;
    let data = encode_tables(&s.splits.train, &s.vocab, &s.cfg);
    info(format!("pre-training: {} tables x {epochs} epochs ...", data.len()));
    let stats = pt.train(&data, &s.cooccur, epochs);
    info(format!(
        "loss {:.3} -> {:.3}",
        stats.epoch_losses.first().copied().unwrap_or(f32::NAN),
        stats.epoch_losses.last().copied().unwrap_or(f32::NAN)
    ));
    Ok((pt.model, pt.store))
}

/// `turl world`: print the synthetic world summary.
pub fn world(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    info(format!(
        "entities: {}   types: {}   relations: {}   facts: {}",
        s.kb.n_entities(),
        s.kb.schema.types.len(),
        s.kb.schema.relations.len(),
        s.kb.facts().len()
    ));
    for (t, def) in s.kb.schema.types.iter().enumerate() {
        let n = s.kb.entities_of_type(t).len();
        let parent = def.parent.map(|p| s.kb.schema.types[p].name.as_str()).unwrap_or("-");
        info(format!("  type {:<14} parent {:<14} entities {:>5}", def.name, parent, n));
    }
    Ok(())
}

/// `turl corpus`: generate, partition, summarize (and optionally save).
pub fn corpus(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    for (name, split) in
        [("train", &s.splits.train), ("dev", &s.splits.validation), ("test", &s.splits.test)]
    {
        let st = CorpusStats::compute(split);
        info(format!(
            "{name:>5}: {} tables | rows mean {:.1} | entity-cols mean {:.1} | entities mean {:.1}",
            st.n_tables, st.rows.mean, st.entity_columns.mean, st.entities.mean
        ));
    }
    let out = opts.get("out", "");
    if !out.is_empty() {
        let json = serde_json::to_string(&s.splits).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        info(format!("wrote corpus splits to {out}"));
    }
    Ok(())
}

/// `turl pretrain`: pre-train and write the weights as an f32 model
/// artifact, optionally crash-safe (periodic trainer checkpoints + exact
/// resume).
pub fn pretrain(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let epochs = opts.get_usize("epochs", 6)?;
    let mut pt =
        Pretrainer::new(s.cfg, s.vocab.len(), s.kb.n_entities(), s.vocab.mask_id() as usize);

    let ckpt_dir = opts.get("checkpoint-dir", "");
    let resume = opts.get_bool("resume")?;
    let policy = if ckpt_dir.is_empty() {
        if resume {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        None
    } else {
        Some(CheckpointPolicy {
            dir: PathBuf::from(&ckpt_dir),
            every_steps: opts.get_u64("checkpoint-every", 25)?,
            keep_last: opts.get_usize("checkpoint-keep", 3)?,
        })
    };
    if resume {
        let rec = turl_nn::recover_latest(Path::new(&ckpt_dir))
            .map_err(|e| format!("checkpoint directory {ckpt_dir}: {e}"))?;
        for (path, err) in &rec.rejected {
            warn(format!("warning: skipping corrupt checkpoint {}: {err}", path.display()));
        }
        match rec.checkpoint {
            Some((path, ckpt)) => {
                let (epoch, step) = (ckpt.progress.epoch, ckpt.progress.steps);
                pt.restore(ckpt).map_err(|e| e.to_string())?;
                info(format!("resumed from {} (epoch {epoch}, step {step})", path.display()));
            }
            None => info(format!("no usable checkpoint in {ckpt_dir}; starting fresh")),
        }
    }

    let data = encode_tables(&s.splits.train, &s.vocab, &s.cfg);
    info(format!(
        "pre-training: {} tables until {epochs} total epochs ({} kernel) ...",
        data.len(),
        turl_tensor::ops::kernel_body()
    ));
    let stats = pt
        .train_until(&data, &s.cooccur, epochs, policy.as_ref())
        .map_err(|e| format!("checkpoint in {ckpt_dir}: {e}"))?;
    let first = stats.epoch_losses.first().copied().unwrap_or(f32::NAN);
    let last = stats.epoch_losses.last().copied().unwrap_or(f32::NAN);
    info(format!("loss {first:.3} -> {last:.3} over {} optimizer steps", stats.steps));
    if stats.non_finite_skips > 0 {
        warn(format!(
            "warning: skipped {} batch(es) with non-finite gradients",
            stats.non_finite_skips
        ));
    }
    // Machine-checkable summary for the CI resume-parity gate; the byte
    // layout of this line is part of the scripts/ci_resume_parity.sh
    // contract and must not change.
    info(format!("final loss {last:.6} bits {:#010x}", last.to_bits()));

    let out = opts.get("out", "turl-model.artifact");
    turl_nn::export_artifact(&pt.store, Path::new(&out), &turl_nn::ExportOptions::default())
        .map_err(|e| format!("{out}: {e}"))?;
    info(format!("wrote model artifact {out} ({} parameters)", pt.store.num_scalars()));
    Ok(())
}

/// `turl probe`: object-entity prediction accuracy on validation.
pub fn probe(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let (model, store) = model_and_store(&s, opts)?;
    let val = encode_tables(&s.splits.validation, &s.vocab, &s.cfg);
    let acc = probe_mod::object_entity_accuracy(
        &model,
        &store,
        &val,
        &s.cooccur,
        s.vocab.mask_id() as usize,
        0,
        300,
    );
    info(format!("object-entity prediction accuracy (validation): {acc:.3}"));
    Ok(())
}

/// `turl infer`: the compiled graph-free inference path. Verifies the
/// fused arena executor is **bit-exact** against the tape-based graph
/// forward on every validation table, then times both paths and reports
/// tokens/sec plus the compiled speedup. With `--metrics-out`, the
/// per-fused-kernel timings and the arena high-water mark land in the
/// metrics stream for `turl report`.
pub fn infer(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let artifact = opts.get("artifact", "");
    let (model, store) = if artifact.is_empty() {
        let mut store = ParamStore::new();
        (new_model(&s, &mut store), store)
    } else {
        load_model(&s, &artifact)?
    };
    let (model, store) = (&model, &store);
    let reps = opts.get_usize("reps", 10)?;
    let data = encode_tables(&s.splits.validation, &s.vocab, &s.cfg);
    if data.is_empty() {
        return Err("validation split is empty".to_string());
    }
    let quantized = n_quantized(store) > 0;
    let mut rng = StdRng::seed_from_u64(0);
    let mut cf = model.compiled();

    // 1. Correctness. The tape reads f32 only, so an int8 store has no
    //    graph twin to compare with and gets the quantized gates instead.
    if quantized {
        quantized_gates(&s, opts, model, store, &data)?;
    } else {
        for (i, (_, enc)) in data.iter().enumerate() {
            let mut f = turl_nn::Forward::inference(store);
            let h = model.encode(&mut f, store, &mut rng, enc);
            let want = f.graph.value(h);
            let got = cf.encode(model, store, enc).map_err(|e| e.to_string())?;
            let equal = got.shape() == want.shape()
                && got
                    .data()
                    .iter()
                    .zip(want.data().iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !equal {
                return Err(format!("compiled forward diverged from graph on table {i}"));
            }
        }
        info(format!(
            "parity: {} tables bit-exact (graph vs compiled), {} plan shape(s) compiled",
            data.len(),
            cf.compiled_shapes()
        ));
        let plan = cf.plan_for(model, store, &data[0].1).map_err(|e| e.to_string())?;
        info(format!(
            "arena: peak {} bytes | naive total {} bytes | reuse factor {:.2}x | {} fused steps",
            plan.peak_bytes,
            plan.total_bytes,
            plan.reuse_factor(),
            plan.steps.len()
        ));
    }

    // 2. Throughput: identical work through both paths (quantized
    //    weights stream through the in-register-dequant q8 kernels;
    //    nothing is densified up front).
    let graph_secs = (!quantized).then(|| {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            for (_, enc) in &data {
                let mut f = turl_nn::Forward::inference(store);
                let h = model.encode(&mut f, store, &mut rng, enc);
                std::hint::black_box(f.graph.value(h).data().first().copied());
            }
        }
        t0.elapsed().as_secs_f64()
    });
    let t1 = std::time::Instant::now();
    for _ in 0..reps {
        let span = turl_obs::span("infer_rep").field("tables", data.len() as u64);
        for (_, enc) in &data {
            let out = cf.encode(model, store, enc).map_err(|e| e.to_string())?;
            std::hint::black_box(out.data().first().copied());
        }
        drop(span);
    }
    let compiled_secs = t1.elapsed().as_secs_f64();
    if turl_obs::metrics_enabled() {
        // Land the fused-kernel timers and arena gauges in the stream
        // so `turl report` can break the compiled step down.
        turl_obs::emit_metrics_events();
        turl_obs::emit_profile_events();
    }

    let work = (reps * data.iter().map(|(_, enc)| enc.seq_len()).sum::<usize>()) as f64;
    let rate = |secs: f64| format!("{:>10.0} tokens/sec ({:.1} ms total)", work / secs, secs * 1e3);
    match graph_secs {
        Some(graph_secs) => {
            info(format!("graph:    {}", rate(graph_secs)));
            info(format!("compiled: {}", rate(compiled_secs)));
            info(format!("speedup:  {:.2}x", graph_secs / compiled_secs));
        }
        None => info(format!("compiled (int8): {}", rate(compiled_secs))),
    }
    Ok(())
}

/// `turl export`: write the model's parameters as a single-file,
/// checksummed artifact, optionally block-quantizing the big matrices
/// to int8. With `--artifact` it rewrites a pre-trained model's weights;
/// without it, a fresh model is pre-trained first (same as `probe`).
pub fn export(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let (_, store) = model_and_store(&s, opts)?;
    let quantize = match opts.get("dtype", "f32").as_str() {
        "f32" => false,
        "int8" | "i8b32" => true,
        other => return Err(format!("--dtype expects `f32` or `int8`, got `{other}`")),
    };
    let min_quant_elems = opts.get_usize("min-quant-elems", 1024)?;
    let out = opts.get("out", "turl-model.artifact");
    let summary = turl_nn::export_artifact(
        &store,
        Path::new(&out),
        &turl_nn::ExportOptions { quantize, min_quant_elems },
    )
    .map_err(|e| e.to_string())?;
    info(format!(
        "wrote {out}: {} tensors ({} quantized), {} payload bytes, {:.2}x smaller than dense f32",
        summary.tensors,
        summary.quantized,
        summary.payload_bytes,
        summary.compression()
    ));
    Ok(())
}

/// Map an artifact's quantized parameters to abstract-interpreter range
/// overrides: param `turl.{label}[.weight]` becomes the IR source
/// `label` with the exact dequantization bound `±127 · max_scale`.
fn quant_range_overrides(store: &turl_nn::ParamStore) -> Vec<(String, turl_audit::ValueRange)> {
    let mut overrides = Vec::new();
    for id in store.ids() {
        if let Some(q) = store.value(id).quantized() {
            let r = turl_audit::quantized_range(q.max_scale() as f64);
            if let Some(rest) = store.name(id).strip_prefix("turl.") {
                overrides.push((rest.to_string(), r));
                if let Some(table) = rest.strip_suffix(".weight") {
                    overrides.push((table.to_string(), r));
                }
            }
        }
    }
    overrides
}

/// The correctness gates of `turl infer` on an int8 artifact. The
/// quantized parameters are threaded through the plan-level range
/// analysis with their `±127·scale` dequantization bounds, so the
/// NaN/overflow/normalizer proofs cover the int8 forward; with
/// `--reference` (the f32 artifact of the same weights) the §6.8
/// object-entity probe must stay within `--tolerance` of the f32 accuracy.
fn quantized_gates(
    s: &Setup,
    opts: &Options,
    model: &TurlModel,
    store: &ParamStore,
    data: &[(TableInstance, EncodedInput)],
) -> Result<(), String> {
    let plan = turl_core::audit::plan_for_input(
        turl_core::audit::model_plan(&s.cfg, model.word_emb.vocab, model.n_entities()),
        &data[0].1,
    );
    let overrides = quant_range_overrides(store);
    let analysis =
        turl_audit::analyze_model_plan_with(&plan, &overrides).map_err(|e| e.to_string())?;
    if !analysis.errors.is_empty() {
        for e in &analysis.errors {
            warn(format!("range violation: {e}"));
        }
        return Err(format!(
            "quantized range analysis found {} violation(s)",
            analysis.errors.len()
        ));
    }
    info(format!(
        "ranges: ok — proofs hold with {} quantized source bound(s) of ±127·scale",
        overrides.len()
    ));

    let reference = opts.get("reference", "");
    if reference.is_empty() {
        return Ok(());
    }
    let store_f32 = load_weights(model, &reference)?;
    let tolerance: f64 = {
        let t = opts.get("tolerance", "0.05");
        t.parse().map_err(|_| format!("--tolerance expects a number, got `{t}`"))?
    };
    let mask_id = s.vocab.mask_id() as usize;
    let acc_f32 =
        probe_mod::object_entity_accuracy(model, &store_f32, data, &s.cooccur, mask_id, 0, 300);
    let acc_int8 =
        probe_mod::object_entity_accuracy(model, store, data, &s.cooccur, mask_id, 0, 300);
    let delta = (acc_f32 - acc_int8).abs();
    info(format!(
        "probe: f32 {acc_f32:.3} vs int8 {acc_int8:.3} (|delta| {delta:.3}, \
         tolerance {tolerance})"
    ));
    if delta > tolerance {
        return Err(format!(
            "int8 probe accuracy drifted {delta:.3} from f32 (tolerance {tolerance})"
        ));
    }
    Ok(())
}

/// Build the paper-scale [`turl_audit::ModelPlan`] that `turl plan`
/// analyzes: the paper encoder over a representative WikiTable sequence
/// (24 metadata tokens, 20 entity cells) with both pre-training heads
/// attached.
fn paper_scale_plan(opts: &Options) -> Result<turl_audit::ModelPlan, String> {
    let words = opts.get_usize("words", 30_522)?;
    let entities = opts.get_usize("plan-entities", 926_135)?;
    let mut plan = turl_audit::ModelPlan {
        n_tokens: opts.get_usize("tokens", 24)?,
        n_seq_entities: opts.get_usize("seq-entities", 20)?,
        n_mention_tokens: opts.get_usize("mention-tokens", 40)?,
        n_mlm_targets: opts.get_usize("mlm", 5)?,
        n_mer_targets: opts.get_usize("mer", 12)?,
        n_candidates: opts.get_usize("candidates", 64)?.min(entities.max(1)),
        ..turl_core::audit::model_plan(&TurlConfig::paper(), words, entities)
    };
    let eps = opts.get("eps", "");
    if !eps.is_empty() {
        plan.numerics.ln_eps =
            eps.parse().map_err(|_| format!("--eps expects a number, got `{eps}`"))?;
    }
    Ok(plan)
}

/// `turl plan`: lower the paper configuration to the typed dataflow IR,
/// run the abstract interpreter (value ranges + NaN/Inf flow) and the
/// buffer-liveness arena planner over it, and print all three. Exits
/// non-zero if any range-analysis error (reachable NaN, activation
/// escaping f32, degenerate normalizer) is found.
pub fn plan(opts: &Options) -> Result<(), String> {
    let plan = paper_scale_plan(opts)?;
    let ir = turl_audit::lower_model_plan(&plan).map_err(|e| e.to_string())?;
    // --int8-scale S: analyze the quantized-weight variant of the plan,
    // where every embedding table and linear weight dequantizes from
    // int8 blocks with per-block scale ≤ S — i.e. values in ±127·S.
    let scale_s = opts.get("int8-scale", "");
    let overrides: Vec<(String, turl_audit::ValueRange)> = if scale_s.is_empty() {
        Vec::new()
    } else {
        let scale: f64 = scale_s
            .parse()
            .map_err(|_| format!("--int8-scale expects a number, got `{scale_s}`"))?;
        let r = turl_audit::quantized_range(scale);
        ir.nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    turl_audit::OpKind::Source(
                        turl_audit::SourceKind::Table | turl_audit::SourceKind::Weight { .. }
                    )
                )
            })
            .map(|n| (n.label.clone(), r))
            .collect()
    };
    if !overrides.is_empty() {
        info(format!(
            "dtype: i8b32 weights, {} source(s) bounded by ±127·{scale_s}",
            overrides.len()
        ));
    }
    let analysis = turl_audit::analyze_ranges_with(&ir, &overrides);
    let arena = turl_audit::plan_arena(&ir);

    info(format!(
        "plan: {} layers, d_model {}, {} heads, ln_eps {:e}, mask penalty {:e}",
        plan.n_layers, plan.d_model, plan.n_heads, plan.numerics.ln_eps, plan.numerics.mask_penalty
    ));
    info(format!("ir: {} nodes", ir.len()));
    info(format!("  {:>4}  {:<26} {:<12} {:<16} value range", "id", "tensor", "op", "shape"));
    for (i, node) in ir.nodes().iter().enumerate() {
        info(format!(
            "  {:>4}  {:<26} {:<12} {:<16} {}",
            i,
            node.label,
            node.kind.name(),
            format!("{:?}", node.shape),
            analysis.ranges[i]
        ));
    }
    if let Some(bound) = analysis.masked_weight_bound {
        info(format!(
            "masked attention weight bound after softmax: {bound:e} \
             (invisible pairs provably contribute nothing)"
        ));
    }
    info(format!(
        "arena: {} slots | peak {} bytes | naive total {} bytes | reuse factor {:.2}x",
        arena.slots.len(),
        arena.peak_bytes,
        arena.total_bytes,
        arena.reuse_factor
    ));
    for (i, slot) in arena.slots.iter().enumerate().take(12) {
        let tenants: Vec<&str> =
            slot.tenants.iter().map(|id| ir.node_at(id.index()).label.as_str()).collect();
        info(format!(
            "  slot {:>3}: {:>12} bytes, {} tenant(s): {}",
            i,
            slot.bytes,
            tenants.len(),
            tenants.join(", ")
        ));
    }
    if arena.slots.len() > 12 {
        info(format!("  ... and {} more slots", arena.slots.len() - 12));
    }
    if analysis.errors.is_empty() {
        info("ranges: ok — no reachable NaN, no activation escapes f32, all normalizers sound");
        Ok(())
    } else {
        for e in &analysis.errors {
            warn(format!("range violation: {e}"));
        }
        Err(format!("plan analysis found {} violation(s)", analysis.errors.len()))
    }
}

/// `turl audit`: the two structural checks no test makes on the
/// generated world — the configuration ratios plus the symbolic forward
/// plan, and the §4.3 visibility lint over every table of every split.
/// Trains nothing. Exits non-zero (via `Err`) if any §4.3/§4.4 or
/// structural invariant is violated.
pub fn audit(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let mut violations: Vec<String> = Vec::new();

    // 1. Configuration ratios + symbolic forward plan (no tensors).
    match turl_core::audit::validate_config(&s.cfg, s.vocab.len(), s.kb.n_entities()) {
        Ok(report) => info(format!(
            "plan: ok — {} symbolic ops, probe seq {}, peak {} elements / {} arena bytes \
             (reuse {:.2}x)",
            report.n_ops,
            report.seq_len,
            report.peak_elements,
            report.peak_bytes,
            report.reuse_factor
        )),
        Err(e) => violations.push(format!("config/plan: {e}")),
    }

    // 2. §4.3 visibility matrices for every table in every split.
    let mut n_tables = 0usize;
    for split in [&s.splits.train, &s.splits.validation, &s.splits.test] {
        for t in split.iter() {
            let inst = TableInstance::from_table(t, &s.vocab, &LinearizeConfig::default());
            let m = turl_data::VisibilityMatrix::build(&inst);
            if let Err(errs) = turl_audit::lint_visibility(&inst, &m) {
                for e in errs {
                    violations.push(format!("table {}: {e}", t.id));
                }
            }
            if let Err(errs) = turl_audit::lint_additive_mask(&m.to_additive_mask(-1e9), m.n()) {
                for e in errs {
                    violations.push(format!("table {} (additive mask): {e}", t.id));
                }
            }
            n_tables += 1;
        }
    }
    info(format!("visibility: linted {n_tables} tables across all splits"));

    if violations.is_empty() {
        info("audit: all invariants hold");
        Ok(())
    } else {
        for v in violations.iter().take(20) {
            warn(format!("violation: {v}"));
        }
        Err(format!("audit found {} violation(s)", violations.len()))
    }
}

/// `turl bench`: throughput benchmark across thread counts, written as
/// JSON rows `{op, size, dtype, body, threads, ns_per_iter, tokens_per_sec}`.
pub fn bench(opts: &Options) -> Result<(), String> {
    let quick = opts.get_bool("quick")?;
    let spec = opts.get("threads", "1,2,4");
    let thread_counts: Vec<usize> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("--threads expects integers like `1,2,4`, got `{spec}`"))
        })
        .collect::<Result<_, _>>()?;
    if thread_counts.is_empty() {
        return Err("--threads list is empty".to_string());
    }
    // A width above the core count measures oversubscription, not scaling.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (thread_counts, skipped): (Vec<usize>, Vec<usize>) =
        thread_counts.into_iter().partition(|&t| t <= cores);
    if !skipped.is_empty() {
        warn(format!("skipping thread counts {skipped:?}: only {cores} core(s) available"));
    }
    if thread_counts.is_empty() {
        return Err(format!("no requested thread count fits the {cores} available core(s)"));
    }
    info(format!(
        "benchmarking ({}) across {:?} threads on {cores} available core(s), {} kernel ...",
        if quick { "quick" } else { "full" },
        thread_counts,
        turl_tensor::ops::kernel_body(),
    ));
    let entries = turl_bench::throughput::run_suite(quick, &thread_counts);
    info(turl_bench::throughput::summarize(&entries).trim_end());

    let out = opts.get("out", "BENCH_pretrain.json");
    turl_bench::throughput::write_json(Path::new(&out), &entries)?;
    info(format!("wrote {} measurements to {out}", entries.len()));

    let baseline = opts.get("baseline", "");
    if !baseline.is_empty() {
        let factor_s = opts.get("factor", "2.0");
        let factor: f64 =
            factor_s.parse().map_err(|_| format!("--factor expects a number, got `{factor_s}`"))?;
        let base = turl_bench::throughput::read_json(Path::new(&baseline))?;
        match turl_bench::throughput::check_regressions(&entries, &base, factor) {
            Ok(compared) => {
                info(format!("baseline {baseline}: {compared} measurements within {factor}x"))
            }
            Err(regressions) => {
                for r in &regressions {
                    warn(format!("regression: {r}"));
                }
                return Err(format!(
                    "{} measurement(s) regressed more than {factor}x vs {baseline}",
                    regressions.len()
                ));
            }
        }
    }
    Ok(())
}

/// `turl report <run.jsonl>`: summarize a `--metrics-out` file.
///
/// Renders the step-time breakdown, observed §4.4 mask ratios vs their
/// targets, kernel/pool profiles, and any detected anomalies. Returns
/// `Err` (non-zero exit) on malformed lines, schema violations, or a
/// stream that recorded no events or spans — the `obs-smoke` CI gate.
pub fn report(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err(format!("usage: turl report <run.jsonl> (got {} argument(s))", args.len()));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = turl_obs::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let summary = turl_obs::summarize(&events).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", turl_obs::render(&summary));
    Ok(())
}

/// `turl fill`: zero-shot cell filling on the test split.
pub fn fill(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let (model, store) = model_and_store(&s, opts)?;
    let examples = build_cell_filling(&s.splits.test, &s.cooccur, 3, true);
    let filler = CellFiller::new(&model, &store);
    let ps = filler.precision_at(&s.vocab, &s.kb, &s.splits.test, &examples, &[1, 3, 5, 10]);
    info(format!(
        "cell filling over {} instances: P@1 {:.1}  P@3 {:.1}  P@5 {:.1}  P@10 {:.1}",
        examples.len(),
        100.0 * ps[0],
        100.0 * ps[1],
        100.0 * ps[2],
        100.0 * ps[3]
    ));
    for ex in examples.iter().filter(|e| e.candidates.len() > 1).take(3) {
        let ranked = filler.rank(&s.vocab, &s.kb, &s.splits.test, ex);
        info(format!(
            "  {} + \"{}\" -> {} (gold: {})",
            s.kb.entity(ex.subject).name,
            ex.target_header,
            ranked.first().map(|&e| s.kb.entity(e).name.as_str()).unwrap_or("-"),
            s.kb.entity(ex.gold).name
        ));
    }
    Ok(())
}

/// `turl serve`: the long-running HTTP/JSON inference daemon. Loads
/// parameters from a model artifact (`pretrain --out` or `turl export`,
/// f32 or int8 — refused before `listen` if it does not fit the model)
/// or by pre-training fresh, then serves
/// the TUBE task endpoints plus `/healthz` and `/metrics` until SIGTERM
/// or `POST /admin/shutdown`. Responses are bit-identical to offline
/// `turl infer` on the same tables, including under concurrent
/// micro-batched load.
pub fn serve(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let (model, store) = model_and_store(&s, opts)?;
    let defaults = turl_serve::ServeOptions::default();
    let sopts = turl_serve::ServeOptions {
        addr: opts.get("addr", &defaults.addr),
        workers: opts.get_usize("workers", defaults.workers)?.max(1),
        conns: opts.get_usize("conns", defaults.conns)?.max(1),
        max_batch: opts.get_usize("max-batch", defaults.max_batch)?.max(1),
        max_wait_us: opts.get_u64("max-wait-us", defaults.max_wait_us)?,
        queue_depth: opts.get_usize("queue-depth", defaults.queue_depth)?,
        cache_cap: opts.get_usize("cache-cap", defaults.cache_cap)?,
        plan_cache_cap: opts.get_usize("plan-cache-cap", defaults.plan_cache_cap)?,
        tracing: !opts.get_bool("no-trace")?,
        trace_out: match opts.get("trace-out", "").as_str() {
            "" => None,
            path => Some(PathBuf::from(path)),
        },
    };
    let session = turl_serve::Session::new(model, store, s.vocab, s.cfg.use_visibility);
    turl_serve::run(session, &sopts)
}

/// `turl client`: exercise a running `turl serve` daemon with
/// concurrent `/v1/encode` requests over the validation split, then
/// summarize the server's `/metrics`. With `--check-parity` every
/// response is compared bit-for-bit against a locally computed compiled
/// forward using the same `--artifact` the server loaded — the CI smoke
/// gate for serving parity.
pub fn client(opts: &Options) -> Result<(), String> {
    let s = setup(opts)?;
    let addr = opts.get("addr", "127.0.0.1:7433");
    let n_requests = opts.get_usize("requests", 16)?.max(1);
    let concurrency = opts.get_usize("concurrency", 4)?.max(1);
    let check_parity = opts.get_bool("check-parity")?;
    if s.splits.validation.is_empty() {
        return Err("validation split is empty".to_string());
    }

    // Fail fast with a useful message when nothing is listening.
    let (status, body) = turl_serve::client::get(&addr, "/healthz")
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("{addr}/healthz answered {status}: {body}"));
    }
    let health: turl_serve::HealthResponse =
        serde_json::from_str(&body).map_err(|e| format!("bad /healthz body: {e}"))?;
    info(format!(
        "server {addr}: {} words, {} entities, d_model {}",
        health.n_words, health.n_entities, health.dim
    ));

    // One request body per validation table, reused round-robin.
    let bodies: Vec<String> = s
        .splits
        .validation
        .iter()
        .map(|t| serde_json::to_string(t).map(|j| format!("{{\"table\":{j}}}")))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    // Local bit-exact references, computed the same way the server's
    // session encodes: linearize, encode, compiled forward.
    let expected: Vec<Vec<u32>> = if check_parity {
        let artifact = opts.get("artifact", "");
        if artifact.is_empty() {
            return Err("--check-parity needs the server's parameters: pass the same \
                 --artifact the daemon was started with"
                .to_string());
        }
        let (model, store) = load_model(&s, &artifact)?;
        let mut cf = model.compiled();
        let data = encode_tables(&s.splits.validation, &s.vocab, &s.cfg);
        data.iter()
            .map(|(_, enc)| {
                cf.encode(&model, &store, enc)
                    .map(|h| h.data().iter().map(|v| v.to_bits()).collect())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    let failures = std::sync::Mutex::new(Vec::<String>::new());
    let done = std::sync::atomic::AtomicUsize::new(0);
    let sent = std::sync::atomic::AtomicU64::new(0);
    let connects = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..concurrency {
            let addr = &addr;
            let bodies = &bodies;
            let expected = &expected;
            let failures = &failures;
            let done = &done;
            let sent = &sent;
            let connects = &connects;
            scope.spawn(move || {
                let fail = |msg: String| {
                    if let Ok(mut f) = failures.lock() {
                        f.push(msg);
                    }
                };
                // One kept-alive connection per client thread.
                let mut http = turl_serve::Client::new(addr);
                for i in (worker..n_requests).step_by(concurrency) {
                    let tab = i % bodies.len();
                    match http.post("/v1/encode", &bodies[tab]) {
                        Ok((200, body)) => {
                            done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if expected.is_empty() {
                                continue;
                            }
                            match serde_json::from_str::<turl_serve::EncodeResponse>(&body) {
                                Ok(resp) => {
                                    let got: Vec<u32> =
                                        resp.data.iter().map(|v| v.to_bits()).collect();
                                    if got != expected[tab] {
                                        fail(format!(
                                            "request {i} (table {tab}): response diverges \
                                             from the local compiled forward"
                                        ));
                                    }
                                }
                                Err(e) => fail(format!("request {i}: bad response body: {e}")),
                            }
                        }
                        Ok((code, body)) => fail(format!("request {i}: status {code}: {body}")),
                        Err(e) => fail(format!("request {i}: {e}")),
                    }
                }
                sent.fetch_add(http.requests(), std::sync::atomic::Ordering::Relaxed);
                connects.fetch_add(http.connects(), std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let ok = done.load(std::sync::atomic::Ordering::Relaxed);
    info(format!(
        "{ok}/{n_requests} requests ok across {concurrency} client thread(s){}",
        if check_parity { ", every response bit-identical to the local forward" } else { "" }
    ));
    let sent = sent.load(std::sync::atomic::Ordering::Relaxed);
    let connects = connects.load(std::sync::atomic::Ordering::Relaxed);
    if sent > 0 {
        info(format!(
            "connection reuse: {:.0}% ({sent} request(s) over {connects} connection(s))",
            100.0 * (sent - connects.min(sent)) as f64 / sent as f64
        ));
    }

    let (status, body) = turl_serve::client::get(&addr, "/metrics.json")?;
    if status != 200 {
        return Err(format!("{addr}/metrics.json answered {status}: {body}"));
    }
    let m: turl_serve::MetricsResponse =
        serde_json::from_str(&body).map_err(|e| format!("bad /metrics.json body: {e}"))?;
    info(format!(
        "server metrics: {} requests ({} ok, {} 4xx, {} 5xx) | p50 {:.0}us p99 {:.0}us | \
         {:.1} rps | batch occupancy {:.2} | cache hit rate {:.2} | {} resident plan(s), \
         {} eviction(s)",
        m.requests,
        m.ok,
        m.client_errors,
        m.server_errors,
        m.latency_p50_us,
        m.latency_p99_us,
        m.rps,
        m.batch_occupancy,
        m.cache_hit_rate,
        m.plan_cache_size,
        m.plan_evictions
    ));

    if opts.get_bool("shutdown")? {
        let (status, _) = turl_serve::client::post(&addr, "/admin/shutdown", "{}")?;
        if status != 200 {
            return Err(format!("/admin/shutdown answered {status}"));
        }
        info("requested server shutdown");
    }

    let failures = failures.into_inner().unwrap_or_else(|p| p.into_inner());
    if failures.is_empty() {
        Ok(())
    } else {
        for f in failures.iter().take(10) {
            warn(format!("failure: {f}"));
        }
        Err(format!("{} of {n_requests} request(s) failed", failures.len()))
    }
}

/// `turl top`: a live terminal dashboard over a daemon's Prometheus
/// `/metrics` endpoint — RPS, per-endpoint p50/p99, per-stage p50/p99,
/// batch occupancy, cache hit rate, queue depth, and overload rejects,
/// refreshed every `--interval-ms` for `--iters` frames (0 = forever).
pub fn top(opts: &Options) -> Result<(), String> {
    let addr = opts.get("addr", "127.0.0.1:7433");
    let iters = opts.get_usize("iters", 0)?;
    let interval_ms = opts.get_u64("interval-ms", 1000)?.max(50);
    let mut http = turl_serve::Client::new(&addr);
    let mut prev_requests: Option<f64> = None;
    let mut frame = 0usize;
    loop {
        let (status, text) =
            http.get("/metrics").map_err(|e| format!("cannot reach {addr}: {e}"))?;
        if status != 200 {
            return Err(format!("{addr}/metrics answered {status}"));
        }
        let samples = turl_obs::parse_exposition(&text)
            .map_err(|e| format!("{addr}/metrics is not valid Prometheus exposition: {e}"))?;
        let gauge = |name: &str| turl_obs::sample_value(&samples, name, &[]).unwrap_or(0.0);

        let requests = gauge("serve_requests");
        // RPS over the poll interval beats the lifetime average once we
        // have two frames.
        let rps = match prev_requests {
            Some(p) => (requests - p).max(0.0) * 1000.0 / interval_ms as f64,
            None => gauge("serve_rps"),
        };
        prev_requests = Some(requests);

        let mut out = String::with_capacity(2048);
        out.push_str("\x1b[2J\x1b[H"); // clear screen, home cursor
        out.push_str(&format!(
            "turl top — {addr}   uptime {:.0}s   {:.1} rps   {} reqs ({} ok / {} 4xx / {} 5xx)\n",
            gauge("serve_uptime_seconds"),
            rps,
            requests as u64,
            gauge("serve_responses_ok") as u64,
            gauge("serve_responses_client_error") as u64,
            gauge("serve_responses_server_error") as u64,
        ));
        out.push_str(&format!(
            "batch occupancy {:.2}   cache hit rate {:.2}   queue {} (max {})   \
             rejected {}   plans {}\n\n",
            gauge("serve_batch_occupancy"),
            gauge("serve_cache_hit_rate"),
            gauge("serve_queue_depth") as u64,
            gauge("serve_queue_depth_max") as u64,
            gauge("serve_rejected_overload") as u64,
            gauge("serve_plan_cache_size") as u64,
        ));

        out.push_str(&format!("{:<22} {:>9} {:>12} {:>12}\n", "endpoint", "count", "p50", "p99"));
        for ep in [
            "encode",
            "entity_linking",
            "cell_filling",
            "row_population",
            "column_type",
            "relation_extraction",
            "schema_augmentation",
        ] {
            let labels = [("endpoint", ep)];
            let count =
                turl_obs::sample_value(&samples, "serve_latency_us_count", &labels).unwrap_or(0.0);
            if count == 0.0 {
                continue;
            }
            let p50 = turl_obs::histogram_quantile(&samples, "serve_latency_us", &labels, 0.50);
            let p99 = turl_obs::histogram_quantile(&samples, "serve_latency_us", &labels, 0.99);
            out.push_str(&format!(
                "{ep:<22} {:>9} {:>12} {:>12}\n",
                count as u64,
                fmt_us(p50),
                fmt_us(p99)
            ));
        }

        out.push_str(&format!("\n{:<22} {:>9} {:>12} {:>12}\n", "stage", "count", "p50", "p99"));
        for stage in ["decode", "queue_wait", "batch_assemble", "forward", "encode", "write"] {
            let labels = [("stage", stage)];
            let count =
                turl_obs::sample_value(&samples, "serve_stage_us_count", &labels).unwrap_or(0.0);
            let p50 = turl_obs::histogram_quantile(&samples, "serve_stage_us", &labels, 0.50);
            let p99 = turl_obs::histogram_quantile(&samples, "serve_stage_us", &labels, 0.99);
            out.push_str(&format!(
                "{stage:<22} {:>9} {:>12} {:>12}\n",
                count as u64,
                fmt_us(p50),
                fmt_us(p99)
            ));
        }
        print!("{out}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();

        frame += 1;
        if iters > 0 && frame >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Format a histogram-bucket quantile (µs upper bound) for `turl top`.
fn fmt_us(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(us) if us >= 1_000.0 => format!("≤{:.1}ms", us / 1_000.0),
        Some(us) => format!("≤{us:.0}us"),
    }
}
