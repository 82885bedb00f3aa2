//! Throughput driver behind `turl bench`.
//!
//! Times the matmul kernel family, the fused GELU epilogue, the
//! structure-aware encoder forward/backward, and full data-parallel
//! pre-training steps across a sweep of thread counts, and serializes the
//! measurements to `BENCH_pretrain.json` so the performance trajectory is
//! tracked in-repo from PR to PR.
//!
//! JSON schema (one array of objects):
//!
//! ```json
//! {"op": "encoder_fwd_bwd", "size": "seq=94,d=64,layers=2",
//!  "dtype": "f32", "body": "avx2", "threads": 4, "available_cores": 4,
//!  "ns_per_iter": 1234567, "tokens_per_sec": 76123.4,
//!  "runq_wait_ns": 1200000, "involuntary_switches": 3, "minor_faults": 0}
//! ```
//!
//! `body` is the compilation of the block kernel the recording process ran
//! ([`ops::kernel_body`]): the tracked file holds one set of rows per body
//! it was recorded under, and the regression gate compares like with like.
//! The last three fields are the process's own contention over the row's
//! window, read from `/proc`: what says whether a slow row was slow code
//! or a busy host. The gate ignores them.
//!
//! `tokens_per_sec` is sequence rows (tokens + entity cells) per second
//! for model-level ops, and output rows per second for raw kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use turl_core::{encode_tables, EncodedInput, Pretrainer, TurlConfig};
use turl_data::{TableInstance, Vocab};
use turl_kb::{
    generate_corpus, identify_relational, CooccurrenceIndex, CorpusConfig, KnowledgeBase,
    PipelineConfig, WorldConfig,
};
use turl_nn::Forward;
use turl_tensor::{normal_init, ops, pool, AttentionTable, Graph, Tensor, Var};

/// One measurement row of `BENCH_pretrain.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEntry {
    /// What was measured (e.g. `matmul`, `encoder_fwd_bwd`, `pretrain_step`).
    pub op: String,
    /// Problem-size descriptor, e.g. `m=192,k=192,n=192`.
    pub size: String,
    /// Parameter dtype the measurement ran with (`f32` or `i8b32`).
    /// Cross-dtype timings are not comparable — int8 trades precision
    /// for bandwidth — so the regression gate only matches like-dtype
    /// rows.
    pub dtype: String,
    /// The block-kernel body the recording process ran
    /// ([`ops::kernel_body`]); every row of one run shares it. A wider
    /// body is a different machine as far as a kernel timing goes, so the
    /// regression gate matches rows on it.
    pub body: String,
    /// Pool width the measurement ran with.
    pub threads: usize,
    /// Cores available on the recording machine: what a multi-thread
    /// row's scaling has to be read against.
    pub available_cores: usize,
    /// Median wall-clock nanoseconds of one iteration.
    pub ns_per_iter: u64,
    /// Work rate: sequence rows per second for model ops, output rows per
    /// second for kernels.
    pub tokens_per_sec: f64,
    /// Nanoseconds the process's threads spent runnable but waiting on a
    /// run queue over the row's window: field 2 of every
    /// `/proc/self/task/*/schedstat`, summed (`/proc/self/schedstat` is
    /// the main thread's alone).
    pub runq_wait_ns: u64,
    /// Times a thread was switched out while it could still run, over the
    /// window: `nonvoluntary_ctxt_switches` of every
    /// `/proc/self/task/*/status`, summed.
    pub involuntary_switches: u64,
    /// Minor page faults of the process over the window: field 10 of
    /// `/proc/self/stat`.
    pub minor_faults: u64,
}

// Manual impl (the vendored serde derive has no `default` attribute):
// baseline files written before the dtype and body columns existed
// deserialize with `dtype: "f32"` and `body: "avx2"`, which is what every
// such row in this repository measured; rows written before the
// contention columns, with zeros there.
impl Deserialize for BenchEntry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| serde::DeError::new(format!("missing field `{key}`")))
        };
        let count = |key: &str| v.get(key).map_or(Ok(0), Deserialize::from_value);
        Ok(Self {
            op: Deserialize::from_value(field("op")?)?,
            size: Deserialize::from_value(field("size")?)?,
            dtype: match v.get("dtype") {
                Some(d) => Deserialize::from_value(d)?,
                None => "f32".to_string(),
            },
            body: match v.get("body") {
                Some(b) => Deserialize::from_value(b)?,
                None => "avx2".to_string(),
            },
            threads: Deserialize::from_value(field("threads")?)?,
            available_cores: Deserialize::from_value(field("available_cores")?)?,
            ns_per_iter: Deserialize::from_value(field("ns_per_iter")?)?,
            tokens_per_sec: Deserialize::from_value(field("tokens_per_sec")?)?,
            runq_wait_ns: count("runq_wait_ns")?,
            involuntary_switches: count("involuntary_switches")?,
            minor_faults: count("minor_faults")?,
        })
    }
}

/// The process's own contention counters behind a [`BenchEntry`]'s last
/// three fields, read from `/proc` (zeros where a file cannot be read):
/// nothing here tunes or samples the host, it only reads what the kernel
/// keeps for this process.
#[derive(Clone, Copy, Default)]
struct Contention {
    runq_wait_ns: u64,
    involuntary_switches: u64,
    minor_faults: u64,
}

impl Contention {
    /// The counters now. Threads that exited take their counts with them,
    /// so a window's difference covers the threads alive at its end.
    fn read() -> Self {
        let mut c = Self::default();
        for task in std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
            let read = |file: &str| std::fs::read_to_string(task.path().join(file));
            let schedstat = read("schedstat").unwrap_or_default();
            c.runq_wait_ns += schedstat.split_whitespace().nth(1).map_or(0, parse);
            let status = read("status").unwrap_or_default();
            let switches =
                status.lines().find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"));
            c.involuntary_switches += switches.map_or(0, parse);
        }
        // The fields after the parenthesised command name start at field 3.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        c.minor_faults = after_name.split_whitespace().nth(10 - 3).map_or(0, parse);
        c
    }

    /// What the counters grew by since `before`.
    fn since(self, before: Self) -> Self {
        Self {
            runq_wait_ns: self.runq_wait_ns.saturating_sub(before.runq_wait_ns),
            involuntary_switches: self
                .involuntary_switches
                .saturating_sub(before.involuntary_switches),
            minor_faults: self.minor_faults.saturating_sub(before.minor_faults),
        }
    }
}

fn parse(field: &str) -> u64 {
    field.trim().parse().unwrap_or(0)
}

/// Rows of the forward-shape kernel measurements: the benchmark corpus's
/// median linearized table length.
const FWD_ROWS: usize = 28;

/// Rows per table of the weight-gradient reduce measurements (the mean
/// linearized length of the benchmark's 4-table batches).
const WGRAD_ROWS: usize = 31;

/// The tables of the `attention` rows: the corpus's median linearized
/// length and a long one, stacked as a pool worker's tape stacks them.
const ATT_TABLES: [usize; 2] = [28, 46];

/// Heads of the paper encoder (§4.3), whose `d = 312` they split into 26
/// columns each.
const ATT_HEADS: usize = 12;

/// Batches each `pretrain_step` row cycles through: one batch is bounded
/// by its longest table, so a row that timed one would time that table.
const STEP_CYCLE: usize = 4;

/// Rows of the stacked-group kernel measurements: two tables' worth, as
/// the training step stacks them per pool worker at the benchmark's
/// 4-table batches on two threads. 63 is not a multiple of any tile
/// height, so a remainder tile runs too.
const STACKED_ROWS: usize = 63;

/// One row's window: the median ns of one call, and the process's
/// contention over the timed calls.
#[derive(Clone, Copy)]
struct Window {
    ns: u64,
    contention: Contention,
}

/// Time `f`: one warmup call, then timed calls until `min_total_ms`
/// elapses (at least 3). The median, not the mean, is what the regression
/// gate compares, so one slow call (a cold page cache, a preempted
/// thread) does not trip it.
fn time_ns<F: FnMut()>(mut f: F, min_total_ms: u64) -> Window {
    f(); // warmup
    let min_total = std::time::Duration::from_millis(min_total_ms);
    let before = Contention::read();
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < min_total || samples.len() < 3 {
        let call = Instant::now();
        f();
        samples.push(call.elapsed().as_nanos() as u64);
    }
    let contention = Contention::read().since(before);
    samples.sort_unstable();
    Window { ns: samples[samples.len() / 2], contention }
}

fn entry(op: &str, size: String, threads: usize, w: Window, rows_per_iter: usize) -> BenchEntry {
    entry_dtyped(op, size, "f32", threads, w, rows_per_iter)
}

fn entry_dtyped(
    op: &str,
    size: String,
    dtype: &str,
    threads: usize,
    w: Window,
    rows_per_iter: usize,
) -> BenchEntry {
    BenchEntry {
        op: op.to_string(),
        size,
        dtype: dtype.to_string(),
        body: ops::kernel_body().to_string(),
        threads,
        available_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        ns_per_iter: w.ns,
        tokens_per_sec: rows_per_iter as f64 * 1e9 / w.ns.max(1) as f64,
        runq_wait_ns: w.contention.runq_wait_ns,
        involuntary_switches: w.contention.involuntary_switches,
        minor_faults: w.contention.minor_faults,
    }
}

/// The paper encoder's attention at its own shape: `q`, `k`, `v` over the
/// stacked [`ATT_TABLES`] at `d = 312`, each table under a visibility mask
/// (about 40 % of its pairs hidden), and per table the dropout keep-mask
/// of a training step (`p = 0.1`).
struct AttentionStack {
    qkv: [Tensor; 3],
    masks: Vec<Tensor>,
    keeps: Vec<Tensor>,
}

impl AttentionStack {
    fn new(rng: &mut StdRng) -> Self {
        let rows = ATT_TABLES.iter().sum();
        let qkv = [0, 1, 2].map(|_| normal_init(rng, vec![rows, 312], 0.0, 1.0));
        let mut draw = |shape: Vec<usize>, hit: f32, value: f32| {
            let len = shape.iter().product();
            let x = (0..len).map(|_| if rng.gen::<f32>() < hit { value } else { 0.0 }).collect();
            Tensor::from_vec(shape, x)
        };
        let masks = ATT_TABLES.iter().map(|&n| draw(vec![n, n], 0.4, -1e9)).collect();
        let keeps =
            ATT_TABLES.iter().map(|&n| draw(vec![ATT_HEADS, n, n], 0.9, 1.0 / 0.9)).collect();
        Self { qkv, masks, keeps }
    }

    /// Record the stack's attention on `g` as one node. `train` records a
    /// training step's: `q`, `k`, `v` need a gradient and each table's
    /// probabilities are multiplied by its keep-mask.
    fn record(&self, g: &mut Graph, train: bool) -> Var {
        let qkv = self.qkv.clone().map(|t| g.leaf(t, train));
        let mut start = 0;
        let tables = (ATT_TABLES.iter().zip(&self.masks).zip(&self.keeps))
            .map(|((&n, mask), keep)| {
                start += n;
                let mask = Some(g.constant(mask.clone()));
                AttentionTable { rows: start - n..start, mask, keep: train.then(|| keep.clone()) }
            })
            .collect();
        g.attention(qkv, ATT_HEADS, 1.0 / (26.0f32).sqrt(), tables)
    }
}

/// Deterministic micro-world used by the encoder / pretrain benchmarks.
struct BenchWorld {
    pt: Pretrainer,
    data: Vec<(TableInstance, EncodedInput)>,
    cooccur: CooccurrenceIndex,
    /// Sequence rows (tokens + entity cells) per table.
    rows: Vec<usize>,
    /// The vocabulary's `[MASK]` id.
    mask_word: usize,
}

fn build_world(quick: bool) -> BenchWorld {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(5));
    let n_tables = if quick { 40 } else { 120 };
    let tables = identify_relational(
        generate_corpus(&kb, &CorpusConfig { n_tables, ..CorpusConfig::tiny(6) }),
        &PipelineConfig::default(),
    );
    let vocab = Vocab::from_tables(&tables, []);
    let cfg = TurlConfig::small(3);
    let data = encode_tables(&tables, &vocab, &cfg);
    let cooccur = CooccurrenceIndex::build(&tables);
    let rows = data.iter().map(|(_, e)| e.token_ids.len() + e.entities.len()).collect::<Vec<_>>();
    let mask_word = vocab.mask_id() as usize;
    let pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), mask_word);
    BenchWorld { pt, data, cooccur, rows, mask_word }
}

/// Run the full suite across `thread_counts`, returning all measurements.
///
/// `quick` trims problem sizes and timing windows to a seconds-level run
/// for CI smoke jobs; the default profile is the tracked baseline.
pub fn run_suite(quick: bool, thread_counts: &[usize]) -> Vec<BenchEntry> {
    let saved_threads = pool::n_threads();
    let window_ms: u64 = if quick { 60 } else { 300 };
    let mm_dim: usize = if quick { 128 } else { 256 };
    let heads: usize = 8;
    let hd: usize = if quick { 96 } else { 160 };

    let mut rng = StdRng::seed_from_u64(11);
    let a = normal_init(&mut rng, vec![mm_dim, mm_dim], 0.0, 1.0);
    let b = normal_init(&mut rng, vec![mm_dim, mm_dim], 0.0, 1.0);
    let ba = normal_init(&mut rng, vec![heads, hd, hd], 0.0, 1.0);
    let bb = normal_init(&mut rng, vec![heads, hd, hd], 0.0, 1.0);
    // The paper forward's own matmul shapes (§4.3: d=312, FFN 1200) at
    // the corpus's median table length of 28 rows, dense and int8.
    // Per shape: the activations `x [28, k]`, the weight `w [k, n]`, and
    // `w` block-quantized.
    let fwd_shapes: Vec<(Tensor, Tensor, Tensor)> = [(312, 312), (312, 1200), (1200, 312)]
        .into_iter()
        .map(|(k, n)| {
            let x = normal_init(&mut rng, vec![FWD_ROWS, k], 0.0, 1.0);
            let w = normal_init(&mut rng, vec![k, n], 0.0, 1.0);
            let wq = w.quantize_i8();
            (x, w, wq)
        })
        .collect();

    // One step's reduce of an FFN weight gradient: four tables' `(x, dy)`
    // factors of 31 rows each, for `lin1 [312, 1200]` and `lin2 [1200, 312]`.
    let wgrad_parts: Vec<Vec<(Tensor, Tensor)>> = [(312, 1200), (1200, 312)]
        .into_iter()
        .map(|(m, n)| {
            let mut part = |cols| normal_init(&mut rng, vec![WGRAD_ROWS, cols], 0.0, 1.0);
            (0..4).map(|_| (part(m), part(n))).collect()
        })
        .collect();

    // The FFN's GELU epilogue at the forward's shape: the `lin1` output
    // `[28, 1200]` and its bias.
    let ffn_pre = normal_init(&mut rng, vec![FWD_ROWS, 1200], 0.0, 1.0);
    let ffn_bias = normal_init(&mut rng, vec![1200], 0.0, 1.0);
    // The forward shapes over a stacked group's activations, per `k`
    // (drawn last, so every other row keeps its inputs).
    let stacked: Vec<Tensor> = fwd_shapes
        .iter()
        .map(|(_, w, _)| normal_init(&mut rng, vec![STACKED_ROWS, w.shape()[0]], 0.0, 1.0))
        .collect();
    let attention = AttentionStack::new(&mut rng);
    let att_size = format!("tables={}+{},d=312,heads={ATT_HEADS}", ATT_TABLES[0], ATT_TABLES[1]);
    let att_rows: usize = ATT_TABLES.iter().sum();

    let mut world = build_world(quick);
    // The batches the `pretrain_step` rows cycle through, and their mean
    // rows per batch.
    let cycle = |size: usize| {
        let batches: Vec<Vec<(TableInstance, EncodedInput)>> =
            world.data.chunks_exact(size).take(STEP_CYCLE).map(<[_]>::to_vec).collect();
        assert_eq!(batches.len(), STEP_CYCLE, "the corpus holds {STEP_CYCLE} batches of {size}");
        let rows: usize = world.rows[..STEP_CYCLE * size].iter().sum();
        (batches, rows / STEP_CYCLE)
    };
    let (step_batches, batch_rows) = cycle(8);
    let (paper_batches, paper_rows) = cycle(4);
    let enc_input = world.data[0].1.clone();
    let enc_rows = world.rows[0];
    let cfg = world.pt.cfg;

    // Paper-dimension trainer (d=312, 4 layers, 12 heads) over the same
    // synthetic vocabulary. Its encoder gives the graph forward vs the
    // compiled arena executor at the model size the §1.5x acceptance gate
    // targets, its `train_step` the paper-config step.
    let paper_cfg = TurlConfig::paper();
    let mut paper_pt = Pretrainer::new(
        paper_cfg,
        world.pt.model.word_emb.vocab,
        world.pt.model.n_entities(),
        world.mask_word,
    );
    // Inference-only twin of the paper store with the int8 export policy
    // applied in place (same registration order, so `ParamId`s line up):
    // rank-2 tensors of ≥1024 elements quantize, everything else stays
    // dense.
    let mut quant_store = turl_nn::ParamStore::new();
    for id in paper_pt.store.ids() {
        let v = paper_pt.store.value(id);
        let stored =
            if v.shape().len() == 2 && v.len() >= 1024 { v.quantize_i8() } else { v.clone() };
        quant_store.register(paper_pt.store.name(id).to_string(), stored);
    }

    let mut out = Vec::new();
    for &t in thread_counts {
        pool::set_threads(t);
        let kernel_size = format!("m={mm_dim},k={mm_dim},n={mm_dim}");
        type Kern = fn(&Tensor, &Tensor) -> Tensor;
        let kernels: [(&str, Kern); 3] =
            [("matmul", ops::matmul), ("matmul_nt", ops::matmul_nt), ("matmul_tn", ops::matmul_tn)];
        for (name, kern) in kernels {
            let ns = time_ns(
                || {
                    std::hint::black_box(kern(&a, &b));
                },
                window_ms,
            );
            out.push(entry(name, kernel_size.clone(), t, ns, mm_dim));
        }
        for ((x, w, wq), xs) in fwd_shapes.iter().zip(&stacked) {
            let (k, n) = (w.shape()[0], w.shape()[1]);
            let mut y = vec![0.0f32; STACKED_ROWS * n];
            for (rows, x) in [(FWD_ROWS, x), (STACKED_ROWS, xs)] {
                let y = &mut y[..rows * n];
                let ns = time_ns(
                    || {
                        ops::matmul_into(x.data(), w.data(), y, rows, k, n);
                        std::hint::black_box(y[0]);
                    },
                    window_ms,
                );
                out.push(entry("matmul", format!("m={rows},k={k},n={n}"), t, ns, rows));
            }
            let y = &mut y[..FWD_ROWS * n];
            let blocks = wq.quantized().expect("quantize_i8 yields quantized storage");
            let ns = time_ns(
                || {
                    ops::matmul_q8_into(x.data(), blocks, y, FWD_ROWS, k, n);
                    std::hint::black_box(y[0]);
                },
                window_ms,
            );
            let size = format!("m={FWD_ROWS},k={k},n={n}");
            out.push(entry_dtyped("matmul", size, "i8b32", t, ns, FWD_ROWS));
        }
        // The fused bias + GELU epilogue the compiled forward runs after
        // `lin1` (the `tanh` pass, fanned out over the pool like a
        // matmul). It works in place, so each iteration first copies the
        // pre-activation back in (a few per cent of the row).
        let mut y = vec![0.0f32; ffn_pre.len()];
        let ns = time_ns(
            || {
                y.copy_from_slice(ffn_pre.data());
                ops::bias_gelu_inplace(&mut y, ffn_bias.data());
                std::hint::black_box(y[0]);
            },
            window_ms,
        );
        out.push(entry("gelu", format!("m={FWD_ROWS},n=1200"), t, ns, FWD_ROWS));
        // The FFN weight gradient of the training backward: xᵀ · dy.
        let (x, dy) = (&fwd_shapes[0].0, &fwd_shapes[2].0);
        let ns = time_ns(
            || {
                std::hint::black_box(ops::matmul_tn(x, dy));
            },
            window_ms,
        );
        out.push(entry("matmul_tn", format!("k={FWD_ROWS},m=312,n=1200"), t, ns, 312));
        // The same gradient as the training step forms it: every table's
        // product added into the store's tensor by one call.
        for operands in &wgrad_parts {
            let (m, n) = (operands[0].0.shape()[1], operands[0].1.shape()[1]);
            let parts: Vec<(&[f32], &[f32])> =
                operands.iter().map(|(x, dy)| (x.data(), dy.data())).collect();
            let mut grad = vec![0.0f32; m * n];
            let ns = time_ns(
                || {
                    ops::matmul_tn_acc_into(&mut grad, m, n, &parts);
                    std::hint::black_box(grad[0]);
                },
                window_ms,
            );
            let size = format!("parts={},k={WGRAD_ROWS},m={m},n={n}", parts.len());
            out.push(entry("matmul_tn_acc", size, t, ns, m));
        }
        // The FFN input gradients of the same backward, `dy · wᵀ` against
        // each FFN weight as stored: a table's or a stacked group's rows
        // against a far taller `w`, the orientation `matmul_nt` runs as
        // `Cᵀ = w · dyᵀ`.
        for (dy, w) in [
            (&fwd_shapes[2].0, &fwd_shapes[1].1),
            (&fwd_shapes[0].0, &fwd_shapes[2].1),
            (&stacked[2], &fwd_shapes[1].1),
            (&stacked[0], &fwd_shapes[2].1),
        ] {
            let ns = time_ns(
                || {
                    std::hint::black_box(ops::matmul_nt(dy, w));
                },
                window_ms,
            );
            let rows = dy.shape()[0];
            let size = format!("m={rows},k={},n={}", w.shape()[1], w.shape()[0]);
            out.push(entry("matmul_nt", size, t, ns, rows));
        }
        // The paper encoder's attention layer as the training tape records
        // it, one node over the stacked tables: forward, then forward and
        // backward under dropout.
        let ns = time_ns(
            || {
                let mut g = Graph::new();
                let out = attention.record(&mut g, false);
                std::hint::black_box(g.value(out).data()[0]);
            },
            window_ms,
        );
        out.push(entry("attention", att_size.clone(), t, ns, att_rows));
        let ns = time_ns(
            || {
                let mut g = Graph::new();
                let out = attention.record(&mut g, true);
                let l = g.mean_all(out);
                g.backward(l);
                std::hint::black_box(g.len());
            },
            window_ms,
        );
        out.push(entry("attention_fwd_bwd", att_size.clone(), t, ns, att_rows));
        let bmm_size = format!("b={heads},m={hd},k={hd},n={hd}");
        let bkernels: [(&str, Kern); 3] =
            [("bmm", ops::bmm), ("bmm_nt", ops::bmm_nt), ("bmm_tn", ops::bmm_tn)];
        for (name, kern) in bkernels {
            let ns = time_ns(
                || {
                    std::hint::black_box(kern(&ba, &bb));
                },
                window_ms,
            );
            out.push(entry(name, bmm_size.clone(), t, ns, heads * hd));
        }

        // Encoder forward (inference) and forward+backward (training).
        let enc_size =
            format!("seq={enc_rows},d={},layers={}", cfg.encoder.d_model, cfg.encoder.n_layers);
        let store = &world.pt.store;
        let model = &world.pt.model;
        let ns = time_ns(
            || {
                let mut f = Forward::inference(store);
                let mut r = StdRng::seed_from_u64(2);
                let h = model.encode(&mut f, store, &mut r, &enc_input);
                std::hint::black_box(f.graph.value(h).sum());
            },
            window_ms,
        );
        out.push(entry("encoder_fwd", enc_size.clone(), t, ns, enc_rows));
        let ns = time_ns(
            || {
                let mut f = Forward::new(store);
                let mut r = StdRng::seed_from_u64(2);
                let h = model.encode(&mut f, store, &mut r, &enc_input);
                let l = f.graph.mean_all(h);
                f.graph.backward(l);
                std::hint::black_box(f.take_param_grads().len());
            },
            window_ms,
        );
        out.push(entry("encoder_fwd_bwd", enc_size.clone(), t, ns, enc_rows));

        // Compiled graph-free inference at the small config: one full
        // `infer` step (plan-cache lookup, runtime bindings, fused arena
        // execution, output copy), directly comparable to encoder_fwd.
        let mut cf = model.compiled();
        let mut out_t = cf.encode(model, store, &enc_input).expect("compiled encode");
        let ns = time_ns(
            || {
                cf.encode_into(model, store, &enc_input, &mut out_t).expect("compiled encode");
                std::hint::black_box(out_t.data().first().copied());
            },
            window_ms,
        );
        out.push(entry("infer_step", enc_size, t, ns, enc_rows));

        // Cross-request micro-batching (the `turl serve` fast path): 4
        // tables stacked as row segments through one compiled forward
        // (row-wise ops once over all rows, attention per table),
        // including the per-batch assembly and per-member output
        // extraction the server performs. Directly comparable to 4x the
        // `infer_step` row above.
        let micro: Vec<&EncodedInput> = world.data.iter().take(4).map(|(_, e)| e).collect();
        let micro_rows: usize = world.rows.iter().take(4).sum();
        let micro_size = format!(
            "tables=4,rows={micro_rows},d={},layers={}",
            cfg.encoder.d_model, cfg.encoder.n_layers
        );
        let mut bcf = model.compiled();
        let ns = time_ns(
            || {
                let tb = turl_core::TableBatch::build(&micro).expect("batch build");
                let h = bcf.encode(model, store, tb.input()).expect("batched encode");
                for i in 0..tb.len() {
                    std::hint::black_box(tb.extract(i, &h).data().first().copied());
                }
            },
            window_ms,
        );
        out.push(entry("infer_step_batched", micro_size, t, ns, micro_rows));

        // Paper-dimension encoder: graph forward vs compiled executor.
        let paper_size = format!(
            "seq={enc_rows},d={},layers={}",
            paper_cfg.encoder.d_model, paper_cfg.encoder.n_layers
        );
        let (paper_model, paper_store) = (&paper_pt.model, &paper_pt.store);
        let ns = time_ns(
            || {
                let mut f = Forward::inference(paper_store);
                let mut r = StdRng::seed_from_u64(2);
                let h = paper_model.encode(&mut f, paper_store, &mut r, &enc_input);
                std::hint::black_box(f.graph.value(h).sum());
            },
            window_ms,
        );
        out.push(entry("encoder_fwd", paper_size.clone(), t, ns, enc_rows));
        let mut pcf = paper_model.compiled();
        let mut pout = pcf.encode(paper_model, paper_store, &enc_input).expect("compiled");
        let ns = time_ns(
            || {
                pcf.encode_into(paper_model, paper_store, &enc_input, &mut pout)
                    .expect("compiled encode");
                std::hint::black_box(pout.data().first().copied());
            },
            window_ms,
        );
        out.push(entry("encoder_fwd_compiled", paper_size.clone(), t, ns, enc_rows));

        // The same compiled encoder with the `turl export --dtype int8`
        // weight layout: embedding tables and matmul weights block-
        // quantized, biases and layer-norm parameters dense. The q8
        // kernels dequantize in-register, reading 1 byte of weight per
        // MAC instead of 4.
        let mut qcf = paper_model.compiled();
        let mut qout = qcf.encode(paper_model, &quant_store, &enc_input).expect("compiled q8");
        let ns = time_ns(
            || {
                qcf.encode_into(paper_model, &quant_store, &enc_input, &mut qout)
                    .expect("compiled q8 encode");
                std::hint::black_box(qout.data().first().copied());
            },
            window_ms,
        );
        out.push(entry_dtyped("encoder_fwd_compiled", paper_size, "i8b32", t, ns, enc_rows));

        // Full data-parallel pre-training steps over 8-table batches, one
        // call per batch of the cycle in turn.
        let step_size = format!("batch=8,cycle={STEP_CYCLE},d={}", cfg.encoder.d_model);
        let pt = &mut world.pt;
        let cooccur = &world.cooccur;
        let mut steps = step_batches.iter().cycle();
        let ns = time_ns(
            || {
                let batch = steps.next().expect("a cycle");
                std::hint::black_box(pt.train_step(batch, cooccur));
            },
            window_ms,
        );
        out.push(entry("pretrain_step", step_size, t, ns, batch_rows));

        // The same steps at the paper's dimensions over 4-table batches,
        // the benchmark of record's `pretrain` workload in miniature.
        let paper_step = format!(
            "batch=4,cycle={STEP_CYCLE},d={},layers={}",
            paper_cfg.encoder.d_model, paper_cfg.encoder.n_layers
        );
        let mut steps = paper_batches.iter().cycle();
        let ns = time_ns(
            || {
                let batch = steps.next().expect("a cycle");
                std::hint::black_box(paper_pt.train_step(batch, cooccur));
            },
            window_ms,
        );
        out.push(entry("pretrain_step", paper_step, t, ns, paper_rows));

        // Per-request tracing overhead (the `turl serve` telemetry hot
        // path with tracing enabled): generate a trace id, stamp all
        // six stages into a StageCell, fold the cell into a
        // RequestTrace, and offer it to a full tail-sampling reservoir.
        // This is everything tracing adds per served request; the
        // disabled path is a single bool read. Compare against the
        // `infer_step` row to see the overhead is far below 2% of a
        // request's compute.
        let reservoir = turl_obs::TraceReservoir::new(32, 128);
        let mut req_i = 0u64;
        let ns = time_ns(
            || {
                let id = turl_obs::next_trace_id();
                let cell = turl_obs::StageCell::new();
                for (j, stage) in turl_obs::Stage::ALL.iter().enumerate() {
                    cell.record(*stage, (j as u64 + 1) * 1_000);
                }
                cell.set_batch(4, 3);
                let mut stage_ns = [0u64; 6];
                for s in turl_obs::Stage::ALL {
                    stage_ns[s as usize] = cell.get(s);
                }
                // Monotonic total keeps the slow bucket churning — the
                // worst-case (always-inserting) reservoir path.
                req_i += 1;
                reservoir.offer(turl_obs::RequestTrace {
                    id,
                    endpoint: "/v1/encode".to_string(),
                    status: 200,
                    stage_ns,
                    batch_size: cell.batch_size(),
                    peers: cell.peers(),
                    n_tokens: 25,
                    n_entities: 9,
                    cached: false,
                    total_ns: stage_ns.iter().sum::<u64>() + req_i,
                });
                std::hint::black_box(reservoir.seen());
            },
            window_ms,
        );
        out.push(entry("serve_traced", "stages=6,reservoir=32+128".to_string(), t, ns, 1));
    }
    pool::set_threads(saved_threads);
    if !quick {
        out.extend(weights_io_rows(&paper_pt, window_ms));
    }
    out
}

/// What one `--checkpoint-every` save, a `--resume`, a `pretrain --out`
/// and an `--artifact` load cost at the paper trainer's parameter volume
/// (its Adam moments are populated by the `pretrain_step` rows above):
/// `ckpt_save` is the whole `Pretrainer::save_checkpoint` (snapshot,
/// encode, fsync, rename, sweep, prune). None of it runs on the pool, so
/// each is recorded once, as a 1-thread row; the rate is scalars/s.
fn weights_io_rows(pt: &Pretrainer, window_ms: u64) -> Vec<BenchEntry> {
    let dir = std::env::temp_dir().join(format!("turl-bench-io-{}", std::process::id()));
    let policy = turl_core::CheckpointPolicy { dir: dir.clone(), every_steps: 0, keep_last: 1 };
    let ckpt = dir.join(turl_nn::checkpoint_file_name(pt.progress().steps));
    let artifact = dir.join("model.artifact");
    let scalars = pt.store.num_scalars();
    let size = format!("scalars={scalars}");
    let mut rows = Vec::new();
    let mut row = |op: &str, f: &mut dyn FnMut()| {
        rows.push(entry(op, size.clone(), 1, time_ns(f, window_ms), scalars));
    };
    row("ckpt_save", &mut || pt.save_checkpoint(&policy).expect("checkpoint save"));
    row("ckpt_load", &mut || {
        std::hint::black_box(turl_nn::load_trainer_checkpoint(&ckpt).expect("checkpoint load"));
    });
    row("artifact_export", &mut || {
        turl_nn::export_artifact(&pt.store, &artifact, &turl_nn::ExportOptions::default())
            .expect("artifact export");
    });
    row("artifact_load", &mut || {
        std::hint::black_box(turl_nn::load_artifact(&artifact).expect("artifact load"));
    });
    std::fs::remove_dir_all(&dir).ok();
    rows
}

/// Serialize entries to the tracked JSON file.
pub fn write_json(path: &std::path::Path, entries: &[BenchEntry]) -> Result<(), String> {
    // The vendored serde implements Serialize for Vec, not bare slices.
    let json = serde_json::to_string(&entries.to_vec()).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Load and validate a benchmark JSON file (errors on malformed schema).
pub fn read_json(path: &std::path::Path) -> Result<Vec<BenchEntry>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let entries: Vec<BenchEntry> =
        serde_json::from_str(&raw).map_err(|e| format!("malformed {}: {e}", path.display()))?;
    for e in &entries {
        if e.op.is_empty() || e.threads == 0 || e.ns_per_iter == 0 {
            return Err(format!(
                "malformed {}: entry {:?} has empty op or zero threads/ns",
                path.display(),
                e
            ));
        }
    }
    Ok(entries)
}

/// Compare a fresh run against a tracked baseline: any 1-thread
/// op/size/dtype cell slower than `factor`× its baseline is a
/// regression (dtype must match exactly — an int8 row is never gated
/// against an f32 baseline or vice versa). A cell is compared with the
/// baseline cell recorded under the same kernel body; where the baseline
/// has none, with the one of the widest *narrower* body — wider vectors
/// must not lose to narrower ones, so a tile the compiler spills (a 10×
/// cliff, DESIGN §5f) fails on a runner whose body was never recorded.
/// Entries missing from either side are ignored (sizes legitimately
/// change as the suite evolves), as are cells the baseline only has for
/// wider bodies.
/// Multi-thread rows are measured and written but never gated: a
/// neighbour taking a core mid-window moves a short 2-thread row past
/// any fixed factor, and a core count neither side controls is not a
/// regression in this code.
pub fn check_regressions(
    new: &[BenchEntry],
    baseline: &[BenchEntry],
    factor: f64,
) -> Result<usize, Vec<String>> {
    let width = |body: &str| ops::KERNEL_BODIES.iter().position(|&b| b == body);
    let mut compared = 0usize;
    let mut errors = Vec::new();
    for n in new.iter().filter(|n| n.threads == 1) {
        let Some(b) = baseline
            .iter()
            .filter(|b| {
                b.op == n.op && b.size == n.size && b.dtype == n.dtype && b.threads == n.threads
            })
            .filter(|b| width(&b.body) <= width(&n.body))
            .max_by_key(|b| width(&b.body))
        else {
            continue;
        };
        compared += 1;
        let ratio = n.ns_per_iter as f64 / b.ns_per_iter.max(1) as f64;
        if ratio > factor {
            errors.push(format!(
                "{} [{}] ({}, {}) @{}t regressed {ratio:.2}x vs the {} baseline ({} -> {} ns/iter)",
                n.op, n.size, n.dtype, n.body, n.threads, b.body, b.ns_per_iter, n.ns_per_iter
            ));
        }
    }
    if errors.is_empty() {
        Ok(compared)
    } else {
        Err(errors)
    }
}

/// Human-readable speedup table: for each op, ns/iter per thread count
/// and the speedup of the widest setting over 1 thread.
pub fn summarize(entries: &[BenchEntry]) -> String {
    let mut ops: Vec<(&str, &str, &str)> = Vec::new();
    for e in entries {
        if !ops.iter().any(|&(o, s, d)| o == e.op && s == e.size && d == e.dtype) {
            ops.push((&e.op, &e.size, &e.dtype));
        }
    }
    let mut s = String::new();
    for (op, size, dtype) in ops {
        let mut cells: Vec<(usize, u64, f64)> = entries
            .iter()
            .filter(|e| e.op == op && e.size == size && e.dtype == dtype)
            .map(|e| (e.threads, e.ns_per_iter, e.tokens_per_sec))
            .collect();
        cells.sort_unstable_by_key(|&(t, _, _)| t);
        let base = cells.iter().find(|&&(t, _, _)| t == 1).map(|&(_, ns, _)| ns);
        let tag = if dtype == "f32" { String::new() } else { format!(" {dtype}") };
        s.push_str(&format!("{op:>16} [{size}]{tag}"));
        for (t, ns, _) in &cells {
            s.push_str(&format!("  {t}t: {:.2}ms", *ns as f64 / 1e6));
        }
        if let (Some(b), Some(&(tmax, ns, _))) = (base, cells.last()) {
            if tmax > 1 {
                s.push_str(&format!("  ({:.2}x @ {tmax}t)", b as f64 / ns as f64));
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(op: &str, threads: usize, ns: u64) -> BenchEntry {
        ec(op, threads, 8, ns)
    }

    fn ec(op: &str, threads: usize, cores: usize, ns: u64) -> BenchEntry {
        BenchEntry {
            op: op.into(),
            size: "s".into(),
            dtype: "f32".into(),
            body: "avx2".into(),
            threads,
            available_cores: cores,
            ns_per_iter: ns,
            tokens_per_sec: 1.0,
            runq_wait_ns: 0,
            involuntary_switches: 0,
            minor_faults: 0,
        }
    }

    #[test]
    fn regression_check_flags_slowdowns() {
        let base = vec![e("matmul", 1, 100)];
        let ok = vec![e("matmul", 1, 150)];
        let bad = vec![e("matmul", 1, 250)];
        assert_eq!(check_regressions(&ok, &base, 2.0), Ok(1));
        assert!(check_regressions(&bad, &base, 2.0).is_err());
        // unmatched entries are ignored, not errors
        assert_eq!(check_regressions(&[e("other", 1, 9)], &base, 2.0), Ok(0));
    }

    #[test]
    fn multi_thread_rows_are_recorded_but_never_gated() {
        // A 2-thread cell that regressed 5x is not compared, whatever
        // core count either side recorded; the 1-thread cell is gated.
        for cores in [1, 2, 8] {
            let base = vec![ec("matmul", 1, cores, 100), ec("matmul", 2, cores, 100)];
            let new = vec![ec("matmul", 1, cores, 120), ec("matmul", 2, cores, 500)];
            assert_eq!(check_regressions(&new, &base, 2.0), Ok(1));
            let slow_1t = vec![ec("matmul", 1, cores, 500), ec("matmul", 2, cores, 100)];
            assert!(check_regressions(&slow_1t, &base, 2.0).is_err());
        }
    }

    #[test]
    fn regression_gate_only_compares_like_dtype_rows() {
        let base = vec![e("encoder_fwd_compiled", 1, 100)];
        let mut int8 = e("encoder_fwd_compiled", 1, 500);
        int8.dtype = "i8b32".into();
        // A 5x-slower int8 row must NOT be gated against the f32 baseline.
        assert_eq!(check_regressions(&[int8.clone()], &base, 2.0), Ok(0));
        // Against an int8 baseline it is compared (and flagged).
        let mut int8_base = e("encoder_fwd_compiled", 1, 100);
        int8_base.dtype = "i8b32".into();
        assert!(check_regressions(&[int8], &[int8_base], 2.0).is_err());
    }

    #[test]
    fn regression_gate_compares_within_a_body_or_against_a_narrower_one() {
        let on = |body: &str, ns: u64| BenchEntry { body: body.into(), ..e("matmul", 1, ns) };
        let base = vec![on("avx2", 100), on("avx512f", 60)];
        // Same body: the narrower body's slower row is not the yardstick.
        assert_eq!(check_regressions(&[on("avx512f", 110)], &base, 2.0), Ok(1));
        assert!(check_regressions(&[on("avx512f", 130)], &base, 2.0).is_err());
        assert_eq!(check_regressions(&[on("avx2", 190)], &base, 2.0), Ok(1));
        // A body the baseline never recorded is held to the widest
        // narrower one: the spilled-tile cliff fails, parity passes.
        let narrow = vec![on("portable", 300), on("avx2", 100)];
        assert_eq!(check_regressions(&[on("avx512f", 150)], &narrow, 2.0), Ok(1));
        let cliff = check_regressions(&[on("avx512f", 1000)], &narrow, 2.0).unwrap_err();
        assert!(cliff[0].contains("vs the avx2 baseline"), "{cliff:?}");
        // Only wider baselines: nothing to hold the row to.
        assert_eq!(check_regressions(&[on("portable", 1000)], &base, 2.0), Ok(0));
    }

    #[test]
    fn pre_dtype_baselines_deserialize_as_f32() {
        // Baseline files written before the dtype column existed must
        // still load, defaulting every row to f32.
        let json = r#"[{"op":"matmul","size":"m=8","threads":1,
                        "available_cores":4,"ns_per_iter":42,"tokens_per_sec":1.0}]"#;
        let rows: Vec<BenchEntry> = serde_json::from_str(json).unwrap();
        assert_eq!(rows[0].dtype, "f32");
        assert_eq!(rows[0].body, "avx2");
        // And a tagged row round-trips its tag.
        let mut tagged = e("matmul", 1, 42);
        tagged.dtype = "i8b32".into();
        let back: Vec<BenchEntry> =
            serde_json::from_str(&serde_json::to_string(&vec![tagged]).unwrap()).unwrap();
        assert_eq!(back[0].dtype, "i8b32");
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let dir = std::env::temp_dir().join("turl-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let entries = vec![e("matmul", 2, 123)];
        write_json(&path, &entries).unwrap();
        let back = read_json(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].op, "matmul");
        std::fs::write(&path, "{not json").unwrap();
        assert!(read_json(&path).unwrap_err().contains("malformed"));
    }

    #[test]
    fn quick_suite_produces_all_ops_per_thread_count() {
        let entries = run_suite(true, &[1]);
        let ops = [
            "matmul",
            "matmul_nt",
            "matmul_tn",
            "bmm",
            "bmm_nt",
            "bmm_tn",
            "encoder_fwd",
            "encoder_fwd_bwd",
            "infer_step",
            "infer_step_batched",
            "encoder_fwd_compiled",
            "pretrain_step",
            "attention",
            "attention_fwd_bwd",
        ];
        for op in ops {
            assert!(entries.iter().any(|e| e.op == op && e.threads == 1), "missing op {op}");
        }
        // The forward's own matmul shapes are measured at both dtypes.
        for dtype in ["f32", "i8b32"] {
            assert!(entries
                .iter()
                .any(|e| e.op == "matmul" && e.size == "m=28,k=312,n=1200" && e.dtype == dtype));
        }
        assert!(entries.iter().any(|e| e.op == "matmul_tn" && e.size == "k=28,m=312,n=1200"));
        assert!(entries.iter().any(|e| e.op == "gelu" && e.size == "m=28,n=1200"));
        for size in ["parts=4,k=31,m=312,n=1200", "parts=4,k=31,m=1200,n=312"] {
            assert!(entries.iter().any(|e| e.op == "matmul_tn_acc" && e.size == size), "{size}");
        }
        // The compiled paper-dim encoder is measured at both dtypes.
        assert!(entries
            .iter()
            .any(|e| e.op == "encoder_fwd_compiled" && e.dtype == "i8b32" && e.threads == 1));
        assert!(entries
            .iter()
            .any(|e| e.op == "encoder_fwd_compiled" && e.dtype == "f32" && e.threads == 1));
    }
}
