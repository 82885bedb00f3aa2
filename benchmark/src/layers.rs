//! Per-layer measurements of a traced run: timed calls into each crate's
//! public functions, from outside, over the workload's own tables, and
//! the roofline of the compiled forward computed from its public plan.
//!
//! Every call is wrapped in a span named `<crate>.<call>`; a metric is
//! the median duration of its spans, so the trace file and the printed
//! numbers cannot disagree.

use crate::fixture::{build_model, build_requests, build_vocab, roundtrip_artifact, World};
use crate::load::mix_blocks;
use crate::metrics::Metrics;
use crate::spans::{Recorder, Span};
use crate::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use turl_core::{
    apply_mask_plan, build_candidates, EncodedInput, Pretrainer, TableBatch, TurlConfig,
};
use turl_data::{LinearizeConfig, TableInstance};
use turl_exec::{CompiledPlan, Operand, StepKind};
use turl_kb::CooccurrenceIndex;
use turl_nn::{Adam, AdamConfig, Forward};
use turl_serve::cache::{canonical_bytes, fnv1a, EncodeCache};
use turl_serve::{Client, Head, ServeOptions, Session};
use turl_tensor::{normal_init, ops, Tensor};

/// Tables for the microsecond-scale calls.
const CHEAP_CALLS: usize = 256;
/// Requests pushed through the f32 compiled forward (each costs a plan
/// compile plus two ~26 ms forwards).
const FORWARD_CALLS: usize = 32;
/// Of those, how many also run on the int8 store, the batched forward,
/// the tape forward and the tape forward + backward.
const I8_CALLS: usize = 16;
const BATCH2_CALLS: usize = 6;
const TAPE_CALLS: usize = 6;
const TAPE_BWD_CALLS: usize = 4;
/// Keep-alive `GET /healthz` round trips (each waits out a delayed ACK).
const WIRE_CALLS: usize = 20;

/// Median duration, in nanoseconds, of the spans called `name`.
fn median_ns(spans: &[Span], name: &str) -> f64 {
    let v: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).collect();
    median(&v)
}

/// Time `reps` calls of `f` under spans called `name`.
fn repeat(
    rec: &Recorder,
    name: &'static str,
    parent: Option<u32>,
    reps: usize,
    mut f: impl FnMut(),
) {
    for i in 0..reps {
        rec.time(name, parent, i as u64, |_| f());
    }
}

fn operand_len(plan: &CompiledPlan, op: &Operand) -> usize {
    match *op {
        Operand::Arena { len, .. } => len,
        Operand::Source { idx } => plan.sources[idx].shape.iter().product(),
    }
}

/// `(kind name, multiply-accumulates, f32 elements read)` of one step,
/// computed from the step's public fields.
fn step_cost(plan: &CompiledPlan, kind: &StepKind) -> (&'static str, usize, usize) {
    let len = |op: &Operand| operand_len(plan, op);
    match kind {
        // A gather reads only the rows it selects, not the whole table.
        StepKind::Gather { gather, row_len, .. } => {
            ("Gather", 0, plan.gathers[*gather].rows * row_len)
        }
        StepKind::MatMul { a, b, bias, m, k, n, .. } => {
            ("MatMul", m * k * n, len(a) + len(b) + bias.as_ref().map_or(0, len))
        }
        StepKind::MatMulNT { a, b, m, k, n, .. } => ("MatMulNT", m * k * n, len(a) + len(b)),
        StepKind::Bmm { a, b, bs, m, k, n } => ("Bmm", bs * m * k * n, len(a) + len(b)),
        StepKind::BmmNT { a, b, bs, m, k, n, .. } => ("BmmNT", bs * m * k * n, len(a) + len(b)),
        StepKind::Add { a, b } => ("Add", 0, len(a) + len(b)),
        StepKind::FusedSoftmax { x, mask, .. } => {
            ("FusedSoftmax", 0, len(x) + mask.as_ref().map_or(0, len))
        }
        StepKind::FusedLayerNorm { x, gamma, beta, .. } => {
            ("FusedLayerNorm", 0, len(x) + len(gamma) + len(beta))
        }
        StepKind::Scale { x, .. } => ("Scale", 0, len(x)),
        StepKind::Gelu { x } => ("Gelu", 0, len(x)),
        StepKind::CopyStrided { x, .. } => ("CopyStrided", 0, len(x)),
        StepKind::Memcpy { x } => ("Memcpy", 0, len(x)),
        StepKind::ConcatRows { parts } => ("ConcatRows", 0, parts.iter().map(len).sum()),
        StepKind::ConcatCols { parts, .. } => {
            ("ConcatCols", 0, parts.iter().map(|(p, _)| len(p)).sum())
        }
    }
}

/// Roofline from outside: MACs and bytes per step kind of `plan`, next
/// to the time the matmul microbenchmark's rate would need for them.
fn roofline(plan: &CompiledPlan, forward_ms: f64, ceiling_gmacs: f64, m: &mut Metrics) {
    let mut rows: Vec<(&'static str, usize, usize, usize)> = Vec::new();
    for step in &plan.steps {
        let (name, macs, read) = step_cost(plan, &step.kind);
        let bytes = 4 * (read + operand_len(plan, &step.out));
        match rows.iter_mut().find(|r| r.0 == name) {
            Some(r) => {
                r.1 += 1;
                r.2 += macs;
                r.3 += bytes;
            }
            None => rows.push((name, 1, macs, bytes)),
        }
    }
    let macs: usize = rows.iter().map(|r| r.2).sum();
    let bytes: usize = rows.iter().map(|r| r.3).sum();
    let copies: usize = rows
        .iter()
        .filter(|r| matches!(r.0, "CopyStrided" | "Memcpy" | "ConcatRows" | "ConcatCols"))
        .map(|r| r.1)
        .sum();
    m.insert("exec.plan_steps", plan.steps.len() as f64);
    m.insert("exec.plan_copy_steps", copies as f64);
    m.insert("exec.arena_bytes", plan.peak_bytes as f64);
    m.insert("exec.reuse_factor", plan.reuse_factor());
    m.insert("exec.forward_macs", macs as f64);
    m.insert("exec.forward_bytes", bytes as f64);
    let achieved = macs as f64 / (forward_ms * 1e6);
    m.insert("exec.achieved_gmacs", achieved);

    println!("roofline of the median-shape plan, output {:?} (MACs and bytes computed from the plan, not measured):", plan.output_shape);
    println!(
        "  {:<16}{:>6}{:>12}{:>12}{:>16}",
        "step kind", "steps", "MMAC", "KB moved", "ms at ceiling"
    );
    for (name, count, macs, bytes) in &rows {
        println!(
            "  {name:<16}{count:>6}{:>12.3}{:>12.1}{:>16.3}",
            *macs as f64 / 1e6,
            *bytes as f64 / 1024.0,
            *macs as f64 / (ceiling_gmacs * 1e6)
        );
    }
    println!(
        "  total {:.1} MMAC, {:.1} KB: {:.2} ms at the {ceiling_gmacs:.2} GMAC/s matmul ceiling, {forward_ms:.2} ms measured = {achieved:.2} GMAC/s achieved",
        macs as f64 / 1e6,
        bytes as f64 / 1024.0,
        macs as f64 / (ceiling_gmacs * 1e6)
    );
}

/// Kernel microbenchmarks: the 256³ ceilings and the forward's real
/// small-`m` shapes at the corpus's median sequence length of 28 rows.
fn tensor_kernels(rec: &Recorder, parent: Option<u32>, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut rand = |rows: usize, cols: usize| normal_init(&mut rng, vec![rows, cols], 0.0, 1.0);
    let (a, b) = (rand(256, 256), rand(256, 256));
    let mut out = vec![0.0f32; 256 * 256];
    repeat(rec, "tensor.matmul_256", parent, 40, || {
        ops::matmul_into(a.data(), b.data(), &mut out, 256, 256, 256);
        std::hint::black_box(out[0]);
    });
    repeat(rec, "tensor.matmul_tn_256", parent, 40, || {
        std::hint::black_box(ops::matmul_tn(&a, &b));
    });
    for (name, k, n) in [
        ("tensor.matmul_m28_k312_n312", 312, 312),
        ("tensor.matmul_m28_k312_n1200", 312, 1200),
        ("tensor.matmul_m28_k1200_n312", 1200, 312),
    ] {
        let (x, w) = (rand(28, k), rand(k, n));
        let mut out = vec![0.0f32; 28 * n];
        repeat(rec, name, parent, 100, || {
            ops::matmul_into(x.data(), w.data(), &mut out, 28, k, n);
            std::hint::black_box(out[0]);
        });
    }
    let (x, w) = (rand(28, 312), rand(312, 312).quantize_i8());
    let blocks = w.quantized().expect("quantize_i8 yields quantized storage");
    let mut out = vec![0.0f32; 28 * 312];
    repeat(rec, "tensor.matmul_q8_m28_k312_n312", parent, 100, || {
        ops::matmul_q8_into(x.data(), blocks, &mut out, 28, 312, 312);
        std::hint::black_box(out[0]);
    });
    // One layer's attention logits and one layer-norm at 28 rows.
    let (logits, mask) = (rand(12 * 28, 28), rand(28, 28));
    let mut probs = vec![0.0f32; 12 * 28 * 28];
    repeat(rec, "tensor.fused_mask_softmax", parent, 200, || {
        ops::fused_mask_softmax(logits.data(), 0.196, Some(mask.data()), &mut probs, 28);
        std::hint::black_box(probs[0]);
    });
    let (x, gamma, beta) = (rand(28, 312), rand(1, 312), rand(1, 312));
    let mut normed = vec![0.0f32; 28 * 312];
    repeat(rec, "tensor.fused_layer_norm", parent, 200, || {
        ops::fused_layer_norm(x.data(), gamma.data(), beta.data(), 1e-12, &mut normed);
        std::hint::black_box(normed[0]);
    });

    let spans = rec.snapshot();
    let gmacs = |name| 256.0 * 256.0 * 256.0 / median_ns(&spans, name);
    m.insert("tensor.matmul_256_gmacs", gmacs("tensor.matmul_256"));
    m.insert("tensor.matmul_tn_256_gmacs", gmacs("tensor.matmul_tn_256"));
}

/// Catalogue name → span name, for every metric that is simply the
/// median duration of a span. The unit suffix selects the scale.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("kb.world_gen_ms", "kb.world_gen"),
    ("kb.corpus_gen_ms", "kb.corpus_gen"),
    ("data.vocab_build_ms", "data.vocab_build"),
    ("data.linearize_us", "data.linearize"),
    ("nn.artifact_export_f32_ms", "nn.artifact_export_f32"),
    ("nn.artifact_export_i8_ms", "nn.artifact_export_i8"),
    ("nn.artifact_load_f32_ms", "nn.artifact_load_f32"),
    ("nn.artifact_load_i8_ms", "nn.artifact_load_i8"),
    ("nn.adam_step_paper_ms", "nn.adam_step"),
    ("core.model_init_ms", "core.model_init"),
    ("core.encode_input_us", "core.encode_input"),
    ("core.forward_f32_ms", "core.forward_f32"),
    ("core.forward_i8_ms", "core.forward_i8"),
    ("core.forward_miss_ms", "core.forward_miss"),
    ("core.forward_tape_ms", "core.forward_tape"),
    ("core.tape_fwd_bwd_paper_ms", "core.tape_fwd_bwd"),
    ("core.mask_plan_us", "core.mask_plan"),
    ("core.train_step_small_ms", "core.train_step_small"),
    ("tensor.matmul_m28_k312_n312_us", "tensor.matmul_m28_k312_n312"),
    ("tensor.matmul_m28_k312_n1200_us", "tensor.matmul_m28_k312_n1200"),
    ("tensor.matmul_m28_k1200_n312_us", "tensor.matmul_m28_k1200_n312"),
    ("tensor.matmul_q8_m28_k312_n312_us", "tensor.matmul_q8_m28_k312_n312"),
    ("tensor.fused_mask_softmax_us", "tensor.fused_mask_softmax"),
    ("tensor.fused_layer_norm_us", "tensor.fused_layer_norm"),
    ("serve.build_job_us", "serve.build_job"),
    ("serve.cache_key_us", "serve.cache_key"),
    ("serve.cache_get_hit_us", "serve.cache_get_hit"),
    ("serve.cache_put_us", "serve.cache_put"),
    ("serve.apply_head_encode_us", "serve.apply_head_encode"),
    ("serve.apply_head_rank_us", "serve.apply_head_rank"),
    ("serve.apply_head_repr_us", "serve.apply_head_repr"),
    ("serve.wire_floor_us", "serve.wire_floor"),
    ("obs.metrics_scrape_ms", "obs.metrics_scrape"),
];

/// Measure every layer and fill `m`. `world` is the workload's own
/// world; everything else is built here so that the measurements are
/// the same whichever workload the traced run belongs to.
pub fn run(
    world: &World,
    seed: u64,
    out_dir: &Path,
    rec: &Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let (result, _) = rec.time("layers", None, 0, |p| measure(world, seed, out_dir, rec, p, m));
    result?;
    let spans = rec.snapshot();
    for &(metric, span) in SPAN_METRICS {
        let scale = if metric.ends_with("_ms") { 1e6 } else { 1e3 };
        m.insert(metric, median_ns(&spans, span) / scale);
    }
    m.insert("core.forward_batch2_ms_per_table", median_ns(&spans, "core.forward_batch2") / 2e6);
    Ok(())
}

fn measure(
    world: &World,
    seed: u64,
    out_dir: &Path,
    rec: &Recorder,
    p: Option<u32>,
    m: &mut Metrics,
) -> Result<(), String> {
    let vocab = build_vocab(world, rec, p);
    let n_entities = world.kb.n_entities();
    let (model, mut train_store) = build_model(seed, vocab.len(), n_entities, rec, p);
    let artifact = out_dir.join(format!("layers-{}.artifact", std::process::id()));
    let (f32_store, f32_bytes) = roundtrip_artifact(&train_store, false, &artifact, rec, p)?;
    let (i8_store, i8_bytes) = roundtrip_artifact(&train_store, true, &artifact, rec, p)?;
    m.insert("nn.artifact_bytes_f32", f32_bytes as f64);
    m.insert("nn.artifact_bytes_i8", i8_bytes as f64);

    // ---- nn: one Adam step over every paper-config parameter ------------
    let mut adam = Adam::new(AdamConfig::paper_pretrain());
    for i in 0..3 {
        let zero_grads = train_store
            .ids()
            .map(|id| (id, Tensor::zeros(train_store.value(id).shape().to_vec())))
            .collect();
        train_store.accumulate(zero_grads); // marks every parameter as touched
        rec.time("nn.adam_step", p, i, |_| adam.step(&mut train_store));
    }

    // ---- data, core: linearize, encode, mask ----------------------------
    let lin = LinearizeConfig::default();
    let cfg = TurlConfig::paper();
    let cooccur = rec.time("kb.cooccur_build", p, 0, |_| CooccurrenceIndex::build(&world.tables)).0;
    let mut mask_rng = StdRng::seed_from_u64(seed + 5);
    let mut encoded: Vec<(TableInstance, EncodedInput)> = Vec::new();
    for (i, table) in world.tables.iter().take(CHEAP_CALLS).enumerate() {
        let id = i as u64;
        let inst =
            rec.time("data.linearize", p, id, |_| TableInstance::from_table(table, &vocab, &lin)).0;
        let enc = rec
            .time("core.encode_input", p, id, |_| EncodedInput::from_instance(&inst, &vocab, true))
            .0;
        let mut masked = enc.clone();
        rec.time("core.mask_plan", p, id, |_| {
            let mask_word = vocab.mask_id() as usize;
            let plan = apply_mask_plan(
                &mut mask_rng,
                &mut masked,
                &cfg,
                mask_word,
                vocab.len(),
                n_entities,
            );
            let candidates = build_candidates(&mut mask_rng, &inst, &cooccur, &cfg, n_entities);
            std::hint::black_box((plan, candidates));
        });
        encoded.push((inst, enc));
    }

    // ---- core: one train_step at the experiment harness's config --------
    let small = TurlConfig::small(seed);
    let mut pt = Pretrainer::new(small, vocab.len(), n_entities, vocab.mask_id() as usize);
    for step in 0..5 {
        let b = &encoded[step * 8..step * 8 + 8];
        // The first step allocates the tape scratch and is not recorded.
        let quiet = Recorder::new(false);
        let r = if step == 0 { &quiet } else { rec };
        r.time("core.train_step_small", p, step as u64, |_| pt.train_step(b, &cooccur));
    }
    drop(pt);

    // ---- serve, core: the request path, call by call --------------------
    let session = Arc::new(Session::new(model, f32_store, vocab, true));
    let mut rng = StdRng::seed_from_u64(seed + 3);
    let endpoints = mix_blocks(&mut rng, CHEAP_CALLS);
    let (requests, _) = build_requests(&session, world, &endpoints, &mut rng)?;
    let cache = EncodeCache::new(CHEAP_CALLS);
    let mut jobs: Vec<(EncodedInput, Head)> = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let id = i as u64;
        let job = rec
            .time("serve.build_job", p, id, |_| session.build_job(request.path(), &request.body))
            .0;
        let (input, head) = job.map_err(|e| e.to_json())?;
        let (key, hash) = rec
            .time("serve.cache_key", p, id, |_| {
                let key = canonical_bytes(&input);
                let hash = fnv1a(&key);
                (key, hash)
            })
            .0;
        let h = Arc::new(Tensor::zeros(vec![input.seq_len(), session.d_model()]));
        rec.time("serve.cache_put", p, id, |_| cache.put(hash, key.clone(), h));
        rec.time("serve.cache_get_hit", p, id, |_| {
            std::hint::black_box(cache.get(hash, &key).is_some())
        });
        jobs.push((input, head));
    }

    let mut by_len: Vec<usize> = (0..FORWARD_CALLS).collect();
    by_len.sort_by_key(|&i| jobs[i].0.seq_len());
    let median_shape = by_len[FORWARD_CALLS / 2];
    let mut median_plan = None;
    let mut compile_ns = Vec::new();
    for (i, (input, head)) in jobs.iter().take(FORWARD_CALLS).enumerate() {
        let id = i as u64;
        // A fresh context per request: its first call compiles the plan.
        let mut cf = session.model().compiled();
        let (model, store) = (session.model(), session.store());
        let (first, miss_ns) =
            rec.time("core.forward_miss", p, id, |_| cf.encode(model, store, input));
        first.map_err(|e| e.to_string())?;
        let (h, hit_ns) = rec.time("core.forward_f32", p, id, |_| cf.encode(model, store, input));
        let h = h.map_err(|e| e.to_string())?;
        // Paired on the same input, so that the ~1 ms compile is not lost
        // in the spread of forward times across table sizes.
        compile_ns.push(miss_ns as f64 - hit_ns as f64);
        let head_span = match head {
            Head::Encode => "serve.apply_head_encode",
            Head::Rank { .. } => "serve.apply_head_rank",
            Head::Pool { .. } => "serve.apply_head_repr",
        };
        rec.time(head_span, p, id, |_| session.apply_head(&cf, head, &h, false))
            .0
            .map_err(|e| e.to_json())?;
        if i == median_shape {
            median_plan =
                Some(cf.plan_for(model, store, input).map_err(|e| e.to_string())?.clone());
        }
        if i < I8_CALLS {
            let mut cf8 = model.compiled();
            cf8.encode(model, &i8_store, input).map_err(|e| e.to_string())?;
            rec.time("core.forward_i8", p, id, |_| cf8.encode(model, &i8_store, input))
                .0
                .map_err(|e| e.to_string())?;
        }
        if i < BATCH2_CALLS && input.mask.is_some() {
            let pair = [input, input];
            let warm = TableBatch::build(&pair).map_err(|e| e.to_string())?;
            cf.encode(model, store, warm.input()).map_err(|e| e.to_string())?;
            rec.time("core.forward_batch2", p, id, |_| -> Result<(), String> {
                let batch = TableBatch::build(&pair).map_err(|e| e.to_string())?;
                let hb = cf.encode(model, store, batch.input()).map_err(|e| e.to_string())?;
                std::hint::black_box((batch.extract(0, &hb), batch.extract(1, &hb)));
                Ok(())
            })
            .0?;
        }
        if i < TAPE_CALLS {
            rec.time("core.forward_tape", p, id, |_| {
                let mut f = Forward::inference(store);
                let h = model.encode(&mut f, store, &mut StdRng::seed_from_u64(2), input);
                std::hint::black_box(f.graph.value(h).data()[0]);
            });
        }
    }
    drop(i8_store);
    m.insert("core.plan_compile_ms", median(&compile_ns) / 1e6);
    for (i, (input, _)) in jobs.iter().take(TAPE_BWD_CALLS).enumerate() {
        // Backward needs trainable parameters: the original store.
        let model = session.model();
        rec.time("core.tape_fwd_bwd", p, i as u64, |_| {
            let mut f = Forward::new(&train_store);
            let h = model.encode(&mut f, &train_store, &mut StdRng::seed_from_u64(2), input);
            let loss = f.graph.mean_all(h);
            f.graph.backward(loss);
            std::hint::black_box(f.take_param_grads().len());
        });
    }

    // ---- tensor, exec ---------------------------------------------------
    tensor_kernels(rec, p, m);
    let spans = rec.snapshot();
    let plan = median_plan.expect("the median-shape request is among the forward calls");
    roofline(&plan, median_ns(&spans, "core.forward_f32") / 1e6, m["tensor.matmul_256_gmacs"], m);

    // ---- serve, obs: the wire ------------------------------------------
    let opts = ServeOptions { addr: "127.0.0.1:0".into(), ..ServeOptions::default() };
    let server = turl_serve::start(Arc::clone(&session), &opts)?;
    let mut client = Client::new(&server.addr().to_string());
    client.get("/healthz")?; // opens the connection
    for i in 0..WIRE_CALLS {
        rec.time("serve.wire_floor", p, i as u64, |_| client.get("/healthz")).0?;
    }
    for i in 0..5 {
        rec.time("obs.metrics_scrape", p, i, |_| client.get("/metrics")).0?;
    }
    drop(client);
    server.shutdown();
    Ok(())
}
