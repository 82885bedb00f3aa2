//! What the weights cost in memory: a framed file is written and read a
//! record at a time, so export, checkpoint save and artifact load never
//! hold a second, payload-sized copy of the weights; and a store holds
//! its values alone until it trains, its gradients and Adam moments
//! allocated on first use.
//!
//! A counting global allocator tracks the bytes live in the process and
//! their high-water mark. It sees every allocation, so this binary holds
//! only these tests and runs them one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use turl_nn::{
    export_artifact, load_artifact, save_trainer_checkpoint, snapshot_params, Adam, AdamConfig,
    ExportOptions, ParamStore, ProgressState, RngStateRepr, TrainerCheckpoint, CHECKPOINT_VERSION,
};
use turl_tensor::{GradPart, Tensor};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by each test, so no other test's allocations land in its window.
static SERIAL: Mutex<()> = Mutex::new(());

const MIB: usize = 1 << 20;

/// Bytes live now.
fn live() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// Run `f`; return its result and the high-water mark of live bytes
/// while it ran, above the bytes live when it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = live();
    PEAK.store(start, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - start)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("turl-io-memory-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Twelve `[256, 512]` matrices (512 KiB each, 6 MiB in all) and a bias.
fn store() -> ParamStore {
    let mut store = ParamStore::new();
    for k in 0..12 {
        let data = (0..256 * 512).map(|i| ((i * 37 + k) % 113) as f32 / 17.0 - 3.0).collect();
        store.register(format!("layer{k}.w"), Tensor::from_vec(vec![256, 512], data));
    }
    store.register("layer.b", Tensor::from_vec(vec![4], vec![0.5, -0.25, 1.0, 0.0]));
    store
}

/// The largest record: one matrix's data.
const RECORD: usize = 256 * 512 * 4;

#[test]
fn export_and_checkpoint_save_hold_one_record_at_a_time() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmp_dir("save");
    let store = store();
    for quantize in [false, true] {
        let opts = ExportOptions { quantize, ..ExportOptions::default() };
        let path = dir.join("model.artifact");
        let (written, peak) = peak_above_start(|| export_artifact(&store, &path, &opts));
        written.unwrap();
        assert!(peak <= RECORD + MIB, "export (int8: {quantize}) peaked {peak} B above the store");
    }
    // A trainer's save, snapshot included, over a store that has stepped:
    // the records share its values and Adam moments, so nothing but the
    // record being written is ever held twice.
    let mut store = store;
    let ids: Vec<_> = store.ids().collect();
    let parts = ids.iter().map(|&id| {
        let shape = store.value(id).shape().to_vec();
        (id, GradPart::Dense(Tensor::full(shape, 0.5)))
    });
    let norm = store.reduce(&[parts.collect()]).grad_norm;
    let mut opt = Adam::new(AdamConfig::default());
    opt.step_clipped(&mut store, norm, 1.0);
    let path = dir.join("ckpt-000000000001.ckpt");
    let (saved, peak) = peak_above_start(|| {
        let ckpt = TrainerCheckpoint {
            version: CHECKPOINT_VERSION,
            adam: opt.config,
            adam_steps: opt.steps(),
            rng: RngStateRepr::from_words([1, 2, 3, 4]),
            schedule: None,
            progress: ProgressState::default(),
            params: snapshot_params(&store),
        };
        save_trainer_checkpoint(&ckpt, &path)
    });
    saved.unwrap();
    assert!(peak <= RECORD + MIB, "checkpoint save peaked {peak} B above the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_load_holds_the_loaded_tensors_and_one_record() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmp_dir("load");
    let path = dir.join("model.artifact");
    for quantize in [false, true] {
        let opts = ExportOptions { quantize, ..ExportOptions::default() };
        export_artifact(&store(), &path, &opts).unwrap();
        let start = live();
        let (loaded, peak) = peak_above_start(|| load_artifact(&path));
        let loaded = loaded.unwrap();
        let kept = live() - start;
        assert!(kept >= loaded.value_bytes(), "the loaded store holds its tensors");
        assert!(
            peak <= kept + RECORD + MIB,
            "load (int8: {quantize}) peaked {peak} B for a store of {kept} B"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_holds_its_values_until_it_steps() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // N = 2^20 f32 scalars in four tensors.
    const N: usize = 1 << 20;
    let slack = 64 * 1024;
    let start = live();
    let mut store = ParamStore::new();
    let ids: Vec<_> = (0..4)
        .map(|k| store.register(format!("p{k}"), Tensor::full(vec![512, 512], k as f32)))
        .collect();
    let held = live() - start;
    assert!((4 * N..4 * N + slack).contains(&held), "a never-stepped store holds {held} B");
    assert_eq!((store.value_bytes(), store.state_bytes()), (4 * N, 0));

    let parts = ids.iter().map(|&id| (id, GradPart::Dense(Tensor::full(vec![512, 512], 0.5))));
    let norm = store.reduce(&[parts.collect()]).grad_norm;
    Adam::new(AdamConfig::default()).step_clipped(&mut store, norm, 1.0);
    let held = live() - start;
    assert!((16 * N..16 * N + MIB).contains(&held), "a stepped store holds {held} B");
    assert_eq!(store.state_bytes(), 12 * N);
}
