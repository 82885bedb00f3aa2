//! The bytes of every framed file kind, pinned: an f32 artifact, an int8
//! artifact, a checkpoint after two Adam steps and a checkpoint of a
//! store that never stepped, each written from a fixed store and hashed
//! whole (header line included) with FNV-1a 64.
//!
//! The values come from closed-form formulas and the gradients are given,
//! not computed, so no libm function reaches a pinned byte. A change to
//! how the files are written — buffered or streamed, state allocated up
//! front or on first use — must leave every digest where it is.

use std::path::{Path, PathBuf};
use turl_nn::{
    export_artifact, save_trainer_checkpoint, snapshot_params, Adam, AdamConfig, ExportOptions,
    LinearDecaySchedule, ParamId, ParamStore, ProgressState, RngStateRepr, TrainerCheckpoint,
    CHECKPOINT_VERSION,
};
use turl_tensor::{GradPart, Tensor};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn file_digest(path: &Path) -> u64 {
    fnv1a64(&std::fs::read(path).expect("a written file"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("turl-framed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Four parameters: a matrix big enough to quantize, a bias, a matrix
/// too small to, and a frozen vector.
fn fixed_store() -> (ParamStore, [ParamId; 4]) {
    let mut store = ParamStore::new();
    let big = (0..48 * 40).map(|i| ((i * 37 % 113) as f32 - 56.0) / 17.0).collect();
    let w = store.register("enc.w", Tensor::from_vec(vec![48, 40], big));
    let b = store.register("enc.b", Tensor::from_vec(vec![5], vec![0.5, -0.25, 1.0, 0.0, 2.0]));
    let small = (0..16).map(|i| i as f32 / 10.0 - 0.75).collect();
    let head = store.register("head.w", Tensor::from_vec(vec![4, 4], small));
    let frozen = store.register("frozen", Tensor::from_vec(vec![3], vec![1.0, -1.0, 0.125]));
    store.set_frozen(frozen, true);
    (store, [w, b, head, frozen])
}

/// `head.w` never gets a gradient; the frozen vector gets one but never
/// moves.
fn gradients(ids: [ParamId; 4], step: usize) -> Vec<(ParamId, GradPart)> {
    let [w, b, _, frozen] = ids;
    let s = step as f32 + 1.0;
    let gw = (0..48 * 40).map(|i| ((i * 11 % 29) as f32 - 14.0) / (8.0 * s)).collect();
    vec![
        (w, GradPart::Dense(Tensor::from_vec(vec![48, 40], gw))),
        (b, GradPart::Dense(Tensor::from_vec(vec![5], vec![0.5 * s, -1.0, 0.25, 0.0, -s]))),
        (frozen, GradPart::Dense(Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]))),
    ]
}

fn checkpoint(store: &ParamStore, opt: &Adam) -> TrainerCheckpoint {
    TrainerCheckpoint {
        version: CHECKPOINT_VERSION,
        adam: opt.config,
        adam_steps: opt.steps(),
        rng: RngStateRepr::from_words([u64::MAX, 1, 0x0123_4567_89ab_cdef, 42]),
        schedule: Some(LinearDecaySchedule::new(1e-3, 5, 100)),
        progress: ProgressState {
            epoch: 1,
            batch_in_epoch: 2,
            order: vec![3, 0, 2, 1],
            epoch_loss_sum: 1.25,
            epoch_batches: 2,
            steps: opt.steps(),
            non_finite_skips: 0,
            epoch_losses: vec![2.5],
        },
        params: snapshot_params(store),
    }
}

#[test]
fn every_framed_file_kind_keeps_its_bytes() {
    let dir = tmp_dir("pins");
    let (store, ids) = fixed_store();
    let opt = Adam::new(AdamConfig { lr: 0.01, weight_decay: 0.01, ..AdamConfig::default() });

    let never_stepped = dir.join("fresh.ckpt");
    save_trainer_checkpoint(&checkpoint(&store, &opt), &never_stepped).unwrap();

    let f32_artifact = dir.join("f32.artifact");
    export_artifact(&store, &f32_artifact, &ExportOptions::default()).unwrap();
    let int8_artifact = dir.join("int8.artifact");
    let int8 = ExportOptions { quantize: true, ..ExportOptions::default() };
    export_artifact(&store, &int8_artifact, &int8).unwrap();

    let (mut store, mut opt) = (store, opt);
    for step in 0..2 {
        let norm = store.reduce(&[gradients(ids, step)]).grad_norm;
        let report = opt.step_clipped(&mut store, norm, 4.0);
        assert!(!report.non_finite);
    }
    let stepped = dir.join("stepped.ckpt");
    save_trainer_checkpoint(&checkpoint(&store, &opt), &stepped).unwrap();

    let digests = [&f32_artifact, &int8_artifact, &stepped, &never_stepped].map(|p| file_digest(p));
    assert_eq!(
        digests.map(|d| format!("{d:016x}")),
        ["a0e7ebfb02c65136", "705dc14736273228", "abef0c2ef58595b8", "b641ecac1cab2789"],
        "f32 artifact, int8 artifact, stepped checkpoint, never-stepped checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
