//! What a steady-state pre-training step allocates: no `linear` weight's
//! gradient per table, and no `[n_entities + 1, d]` gradient of a table
//! that is only gathered from — while `word_emb`, which the tied MLM head
//! multiplies by, still gets its dense one.
//!
//! A counting global allocator records the largest single allocation of
//! the second `train_step`, on the trainer thread and every pool worker.
//! It sees every allocation in the process, so this binary holds only
//! these tests and runs them one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use turl_core::{encode_tables, EncodedInput, Pretrainer, TurlConfig};
use turl_data::{TableInstance, Vocab};
use turl_kb::{
    generate_corpus, identify_relational, CooccurrenceIndex, CorpusConfig, KnowledgeBase,
    PipelineConfig, WorldConfig,
};
use turl_nn::TrainerCheckpoint;
use turl_tensor::Tensor;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; `note` touches two
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by each test, so no other test's allocations land in its window.
static SERIAL: Mutex<()> = Mutex::new(());

/// The largest single allocation `f` makes on any thread, in `f32`s (a
/// pool task's allocations are all in before `f` returns).
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst) / std::mem::size_of::<f32>()
}

type Fixture = (KnowledgeBase, Vocab, Vec<(TableInstance, EncodedInput)>, CooccurrenceIndex);

fn setup() -> Fixture {
    let kb = KnowledgeBase::generate(&WorldConfig::tiny(13));
    let tables = identify_relational(
        generate_corpus(&kb, &CorpusConfig { n_tables: 40, ..CorpusConfig::tiny(14) }),
        &PipelineConfig::default(),
    );
    let vocab = Vocab::from_tables(&tables, []);
    let cfg = TurlConfig::tiny(1);
    let data = encode_tables(&tables, &vocab, &cfg);
    let cooccur = CooccurrenceIndex::build(&tables);
    (kb, vocab, data, cooccur)
}

/// A one-layer model of width `d` before and after two steps over four
/// tables each, and the largest allocation of the second step.
fn two_steps(
    (kb, vocab, data, cooccur): &Fixture,
    d: usize,
) -> (TrainerCheckpoint, TrainerCheckpoint, usize) {
    let mut cfg = TurlConfig::tiny(3);
    cfg.encoder = turl_nn::TransformerConfig {
        n_layers: 1,
        d_model: d,
        d_intermediate: d,
        n_heads: 4,
        ..cfg.encoder
    };
    let mut pt = Pretrainer::new(cfg, vocab.len(), kb.n_entities(), vocab.mask_id() as usize);
    let before = pt.snapshot();
    pt.train_step(&data[..4], cooccur).loss().expect("stepped");
    let largest = largest_allocation(|| {
        pt.train_step(&data[4..8], cooccur).loss().expect("stepped");
    });
    (before, pt.snapshot(), largest)
}

fn value<'a>(ckpt: &'a TrainerCheckpoint, name: &str) -> &'a Tensor {
    &ckpt.params.iter().find(|p| p.name == name).expect("registered").value
}

#[test]
fn a_training_step_draws_no_weight_sized_buffer() {
    // `d_model` above both vocabularies (250 words, 301 entity rows), so
    // everything a step may still allocate — activations, logits, kernel
    // scratch, the embedding tables' dense gradients — is smaller than the
    // smallest `linear` weight: one weight gradient formed per table would
    // be the largest allocation of the step.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let fixture = setup();
    let (kb, vocab, ..) = &fixture;
    let d = 384;
    assert!(vocab.len() < d && kb.n_entities() + 1 < d);
    let (_, after, largest) = two_steps(&fixture, d);
    assert!(largest < d * d, "a step drew {largest} elements");
    assert!(value(&after, "turl.fuse.weight").norm() > 0.0 && after.adam_steps == 2);
}

#[test]
fn a_training_step_draws_no_entity_table_sized_buffer() {
    // The twin of the test above for the gathered tables: a narrow model
    // over the same 301 entity rows, so `ent_emb` is the largest tensor in
    // sight — activations, attention scores, logits, and `word_emb`'s
    // dense `[250, d]` gradient (the tied MLM head multiplies by it) are
    // all smaller. One `[vocab, d]` gradient formed for a gather would be
    // the largest allocation of the step.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let fixture = setup();
    let (kb, vocab, ..) = &fixture;
    let d = 128;
    assert!(vocab.len() < kb.n_entities());
    let (before, after, largest) = two_steps(&fixture, d);
    let table = kb.n_entities() * d;
    assert!(largest < table, "a step drew {largest} elements");
    assert!(largest >= vocab.len() * d, "word_emb's gradient is still dense");
    let ent = "turl.ent_emb.weight";
    assert!(value(&after, ent) != value(&before, ent), "the row lists never reached `ent_emb`");
}
