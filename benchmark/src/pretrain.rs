//! The `pretrain` workload: real `Pretrainer::train_step` calls at the
//! paper configuration — the same `tensor` kernels as the serve
//! workloads, reached through the autograd tape, the backward pass,
//! gradient reduction and Adam instead of the compiled arena.

use crate::fixture::{build_vocab, build_world, median_setup, World};
use crate::spans::Recorder;
use crate::stats::{describe_ms, median, quantile_sorted, sorted};
use crate::Outcome;
use std::time::Duration;
use turl_core::{EncodedInput, Pretrainer, StepOutcome, TurlConfig};
use turl_data::{LinearizeConfig, TableInstance};
use turl_kb::CooccurrenceIndex;

/// Encoded tables the batches cycle over.
const TRAIN_TABLES: usize = 512;

/// Tables per optimizer step.
const BATCH: usize = 4;

/// Steps taken before the window (first-touch allocation of the tape
/// scratch and Adam state). They are also the steps the determinism
/// replay repeats.
const WARMUP_STEPS: usize = 2;

/// The step whose loss bits are printed for run-to-run comparison; every
/// run gets at least this far.
const LOSS_PROBE_STEP: usize = 8;

struct TrainFixture {
    pt: Pretrainer,
    data: Vec<(TableInstance, EncodedInput)>,
    cooccur: CooccurrenceIndex,
    n_words: usize,
    mask_word: usize,
}

fn build_train(seed: u64, rec: &Recorder, parent: Option<u32>) -> (TrainFixture, World) {
    let world = build_world(seed, rec, parent);
    let vocab = build_vocab(&world, rec, parent);
    let cfg = TurlConfig { seed: seed + 2, ..TurlConfig::paper() };
    let (data, _) = rec.time("core.encode_tables", parent, 0, |_| {
        world
            .tables
            .iter()
            .take(TRAIN_TABLES)
            .map(|t| {
                let inst = TableInstance::from_table(t, &vocab, &LinearizeConfig::default());
                let enc = EncodedInput::from_instance(&inst, &vocab, cfg.use_visibility);
                (inst, enc)
            })
            .collect::<Vec<_>>()
    });
    let (cooccur, _) =
        rec.time("kb.cooccur_build", parent, 0, |_| CooccurrenceIndex::build(&world.tables));
    let (pt, _) = rec.time("core.model_init", parent, 0, |_| {
        Pretrainer::new(cfg, vocab.len(), world.kb.n_entities(), vocab.mask_id() as usize)
    });
    let (n_words, mask_word) = (vocab.len(), vocab.mask_id() as usize);
    (TrainFixture { pt, data, cooccur, n_words, mask_word }, world)
}

/// The `step`-th batch of the fixed cyclic sequence.
fn batch(data: &[(TableInstance, EncodedInput)], step: usize) -> &[(TableInstance, EncodedInput)] {
    let start = (step * BATCH) % (data.len() / BATCH * BATCH);
    &data[start..start + BATCH]
}

/// Run the workload: `setups` timed set-ups (the last one is kept),
/// warm-up, then `train_step` back to back for `seconds`.
pub fn run(
    seed: u64,
    seconds: f64,
    setups: usize,
    rec: &Recorder,
) -> Result<(Outcome, World), String> {
    let mut out = Outcome::default();
    let ((mut fx, world), setup_s) =
        median_setup(setups, rec, |p| Ok(build_train(seed, rec, p)), drop)?;
    if fx.data.len() < TRAIN_TABLES {
        return Err(format!("corpus holds {} tables, {TRAIN_TABLES} needed", fx.data.len()));
    }
    out.e2e.insert("setup_s", setup_s);
    println!(
        "setup: {TRAIN_TABLES} encoded tables in batches of {BATCH}, paper config, nproc {}, pool width {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        turl_tensor::pool::n_threads(),
    );

    let mut losses: Vec<Option<f32>> = Vec::new();
    for step in 0..WARMUP_STEPS {
        losses.push(fx.pt.train_step(batch(&fx.data, step), &fx.cooccur).loss());
    }

    // ---- the measured window -------------------------------------------
    let window = Duration::from_secs_f64(seconds);
    let t0 = rec.now_ns();
    let mut step_ms = Vec::new();
    // Milliseconds per sequence row, (untraced, traced): per row, because
    // the two sides see different batches.
    let mut row_ms = (Vec::new(), Vec::new());
    let mut rows = 0usize;
    let mut failed = 0u64;
    while rec.now_ns() - t0 < window.as_nanos() as u64 {
        let step = losses.len();
        let b = batch(&fx.data, step);
        // Spans are recorded on alternate steps of a traced run, so that
        // one run holds both sides of the overhead comparison.
        let traced = rec.enabled() && step % 2 == 1;
        let start = rec.now_ns();
        let outcome = fx.pt.train_step(b, &fx.cooccur);
        let end = rec.now_ns();
        if traced {
            rec.record("core.train_step", None, step as u64, start, end);
        }
        let ms = (end - start) as f64 / 1e6;
        match outcome {
            StepOutcome::Stepped(loss) if loss.is_finite() => {
                let batch_rows: usize = b.iter().map(|(_, e)| e.seq_len()).sum();
                rows += batch_rows;
                step_ms.push(ms);
                if traced { &mut row_ms.1 } else { &mut row_ms.0 }.push(ms / batch_rows as f64);
            }
            _ => failed += 1,
        }
        losses.push(outcome.loss());
    }
    let elapsed_s = (rec.now_ns() - t0) as f64 / 1e9;
    out.attempted = (losses.len() - WARMUP_STEPS) as u64;
    out.failed = failed;
    if step_ms.is_empty() {
        return Err("no training step succeeded".into());
    }
    let s = sorted(step_ms);
    out.e2e.insert("throughput_per_s", rows as f64 / elapsed_s);
    out.e2e.insert("latency_p50_ms", quantile_sorted(&s, 0.5));
    out.e2e.insert("latency_p95_ms", quantile_sorted(&s, 0.95));
    println!(
        "train_step back to back, {elapsed_s:.2} s: attempted {} succeeded {} failed {failed}; {rows} sequence rows; step {}",
        out.attempted,
        s.len(),
        describe_ms(&s)
    );
    if rec.enabled() && !row_ms.1.is_empty() {
        out.layer.insert("obs.trace_overhead_ratio", median(&row_ms.0) / median(&row_ms.1));
    }
    out.require(failed == 0, "a training step did not step or lost finiteness");

    // ---- determinism: a second trainer from the same seed must repeat
    // the first steps bit for bit --------------------------------------
    let mut twin = Pretrainer::new(fx.pt.cfg, fx.n_words, world.kb.n_entities(), fx.mask_word);
    let replay: Vec<Option<u32>> = (0..WARMUP_STEPS)
        .map(|step| twin.train_step(batch(&fx.data, step), &fx.cooccur).loss().map(f32::to_bits))
        .collect();
    let first: Vec<Option<u32>> =
        losses[..WARMUP_STEPS].iter().map(|l| l.map(f32::to_bits)).collect();
    println!("determinism: first {WARMUP_STEPS} losses {first:x?}, replayed {replay:x?}");
    out.require(first == replay, "a trainer rebuilt from the same seed took different steps");
    match losses.get(LOSS_PROBE_STEP).copied().flatten() {
        Some(loss) => println!(
            "pretrain.loss_bits_step{LOSS_PROBE_STEP} {:#010x} (loss {loss})",
            loss.to_bits()
        ),
        None => out.require(false, "the run ended before the loss-probe step"),
    }
    Ok((out, world))
}
