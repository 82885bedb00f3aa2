//! Single-file model artifacts: *the* weights file. `turl pretrain --out`
//! and `turl export` write one, every command that takes pre-trained
//! weights (`--artifact`) and the `exp_*` cache read one.
//!
//! An artifact is a frozen, inference-only snapshot of a [`ParamStore`]:
//! one file, framed by the same header discipline as trainer checkpoints
//! (JSON header line with magic / version / payload length / FNV-1a 64
//! checksum, via the shared `write_framed` / `read_framed` path in
//! `serialize`), followed by a **binary** little-endian payload — weights
//! dominate the bytes and a text encoding more than quintuples them.
//!
//! # Payload layout (version 1)
//!
//! ```text
//! u32            n_tensors
//! n_tensors ×    one tensor record (name, dtype tag, shape, 64-byte
//!                aligned data: see the `codec` module, which trainer
//!                checkpoints share)
//! ```
//!
//! Bulk arrays start on 64-byte boundaries so a future mmap-backed
//! loader can hand out aligned slices without copying; the heap loader
//! here simply skips the pad. Integrity is covered end-to-end by the
//! frame checksum — truncation at any byte surfaces as a typed
//! [`SerializeError`], never a panic (see the tests).
//!
//! Quantization policy lives in the **exporter**, not the format:
//! [`ExportOptions::quantize`] converts rank-2 tensors with at least
//! [`ExportOptions::min_quant_elems`] elements to `i8b32`
//! ([`turl_tensor::Tensor::quantize_i8`]); 1-D tensors (biases, layer-norm gains)
//! always stay f32. That policy matches exactly the set of tensors the
//! compiled forward can read quantized (gather tables and plain-matmul
//! right-hand sides), so a loaded store binds into `CompiledForward`
//! without any dequantize-on-bind fallback. The default options give the
//! bit-exact f32 snapshot `pretrain --out` writes.
//!
//! Whether a loaded store fits a given model is `turl_core::bind_store`'s
//! question, asked once for every caller.

use std::path::Path;

use turl_tensor::Tensor;

use crate::codec::{record_len, Layout};
use crate::params::ParamStore;
use crate::serialize::{read_framed, write_framed, SerializeError};

/// Current artifact format version.
pub const ARTIFACT_VERSION: u32 = 1;

/// Magic string identifying a model artifact (distinct from the trainer
/// checkpoint magic, so the two file kinds can never be confused).
pub const ARTIFACT_MAGIC: &str = "turl-model-artifact";

/// Alignment (bytes, relative to payload start) of every tensor's bulk
/// data section.
pub const ARTIFACT_ALIGN: usize = crate::codec::ALIGN;

/// Exporter policy knobs for [`export_artifact`].
#[derive(Debug, Clone)]
pub struct ExportOptions {
    /// Quantize eligible tensors to `i8b32`. When false the artifact is
    /// a bit-exact f32 snapshot of the store.
    pub quantize: bool,
    /// Minimum element count for a rank-2 tensor to be quantized.
    /// Small matrices gain little and lose precision; the default keeps
    /// everything under a 32×32 block out of the int8 path.
    pub min_quant_elems: usize,
}

impl Default for ExportOptions {
    fn default() -> Self {
        Self { quantize: false, min_quant_elems: 1024 }
    }
}

/// What [`export_artifact`] wrote, for reporting compression to users.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSummary {
    /// Number of tensors in the artifact.
    pub tensors: usize,
    /// How many of them were stored block-quantized.
    pub quantized: usize,
    /// Payload size in bytes (excludes the one-line header).
    pub payload_bytes: u64,
    /// Size the same tensors would occupy as dense f32 (4 bytes/scalar).
    pub dense_f32_bytes: u64,
}

impl ArtifactSummary {
    /// Dense-f32 bytes divided by artifact payload bytes.
    pub fn compression(&self) -> f64 {
        if self.payload_bytes == 0 {
            1.0
        } else {
            self.dense_f32_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// Write every parameter of `store` to a single artifact file at `path`,
/// applying the quantization policy in `opts`. Tensors are written in
/// registration order, which [`load_artifact`] preserves — so `ParamId`
/// indices in a loaded store line up with the exporting store's.
pub fn export_artifact(
    store: &ParamStore,
    path: &Path,
    opts: &ExportOptions,
) -> Result<ArtifactSummary, SerializeError> {
    let span = turl_obs::span("artifact_write");
    let timer = turl_obs::Timer::start();
    if store.len() > u32::MAX as usize {
        return Err(SerializeError::InvalidState("too many tensors for artifact".to_string()));
    }
    // The policy, and so each record's layout and length, is known from
    // the shapes: the header states the payload length before a tensor
    // is quantized, and each is quantized once, as it is written.
    let requantize = |value: &Tensor| {
        opts.quantize
            && value.as_f32().is_some()
            && value.shape().len() == 2
            && value.len() >= opts.min_quant_elems
    };
    let mut payload_bytes = 4u64;
    let mut quantized = 0usize;
    let mut dense_f32_bytes = 0u64;
    for id in store.ids() {
        let value = store.value(id);
        dense_f32_bytes += 4 * value.len() as u64;
        let layout = match value.shape() {
            &[rows, cols] if requantize(value) => Layout::I8 { rows, cols },
            _ => Layout::of(value),
        };
        if matches!(layout, Layout::I8 { .. }) {
            quantized += 1;
        }
        payload_bytes += record_len(payload_bytes, store.name(id), value.shape(), layout);
    }
    let summary =
        ArtifactSummary { tensors: store.len(), quantized, payload_bytes, dense_f32_bytes };
    let result = write_framed(path, ARTIFACT_MAGIC, ARTIFACT_VERSION, payload_bytes, |sink| {
        sink.put_u32(store.len() as u32)?;
        for id in store.ids() {
            let value = store.value(id);
            if requantize(value) {
                sink.tensor(store.name(id), &value.quantize_i8())?;
            } else {
                sink.tensor(store.name(id), value)?;
            }
        }
        Ok(())
    });
    if turl_obs::metrics_enabled() {
        turl_obs::gauge("artifact_bytes").set(payload_bytes as f64);
        turl_obs::histogram("artifact_write_ms", ARTIFACT_LATENCY_BUCKETS_MS)
            .observe(timer.elapsed_ns() as f64 / 1.0e6);
    }
    drop(
        span.field("tensors", summary.tensors as u64)
            .field("quantized", summary.quantized as u64)
            .field("bytes", summary.payload_bytes)
            .field("ok", result.is_ok()),
    );
    result.map(|()| summary)
}

/// Latency buckets (milliseconds) for artifact write/read timing.
const ARTIFACT_LATENCY_BUCKETS_MS: &[f64] = &[1.0, 5.0, 20.0, 100.0, 500.0, 2000.0];

/// Load an artifact into a fresh inference-only [`ParamStore`].
///
/// Tensors are read straight into the store, one record at a time, and
/// registered in the order they were exported, so `ParamId` indices
/// match the exporting store. Every entry is frozen, and no gradient or
/// optimizer state is allocated (see [`ParamStore`]).
pub fn load_artifact(path: &Path) -> Result<ParamStore, SerializeError> {
    let span = turl_obs::span("artifact_read");
    let timer = turl_obs::Timer::start();
    let result = load_artifact_inner(path);
    if turl_obs::metrics_enabled() {
        turl_obs::histogram("artifact_read_ms", ARTIFACT_LATENCY_BUCKETS_MS)
            .observe(timer.elapsed_ns() as f64 / 1.0e6);
    }
    drop(span.field("ok", result.is_ok()));
    result
}

fn load_artifact_inner(path: &Path) -> Result<ParamStore, SerializeError> {
    let (store, payload_bytes) = read_framed(path, ARTIFACT_MAGIC, ARTIFACT_VERSION, |r| {
        let n_tensors = r.u32("tensor count")? as usize;
        let mut store = ParamStore::new();
        for _ in 0..n_tensors {
            let (name, tensor) = r.tensor()?;
            if store.find(&name).is_some() {
                return Err(SerializeError::InvalidState(format!(
                    "duplicate tensor name `{name}`"
                )));
            }
            let id = store.register(name, tensor);
            store.set_frozen(id, true);
        }
        Ok((store, r.pos))
    })?;
    if turl_obs::metrics_enabled() {
        turl_obs::gauge("artifact_bytes").set(payload_bytes as f64);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("turl-artifact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_store() -> ParamStore {
        let mut store = ParamStore::new();
        let big: Vec<f32> = (0..64 * 40).map(|i| ((i * 37 % 113) as f32 - 56.0) / 17.0).collect();
        store.register("turl.enc.w", Tensor::from_vec(vec![64, 40], big));
        store.register("turl.enc.b", Tensor::from_vec(vec![3], vec![0.5, -0.25, 1.0]));
        let small: Vec<f32> = (0..4 * 4).map(|i| i as f32 / 10.0).collect();
        store.register("turl.head.w", Tensor::from_vec(vec![4, 4], small));
        store
    }

    #[test]
    fn f32_artifact_roundtrips_bit_exactly() {
        let dir = tmp_dir("f32");
        let path = dir.join("model.turl");
        let store = demo_store();
        let summary = export_artifact(&store, &path, &ExportOptions::default()).unwrap();
        assert_eq!(summary.tensors, 3);
        assert_eq!(summary.quantized, 0);
        let loaded = load_artifact(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        for (a, b) in store.ids().zip(loaded.ids()) {
            assert_eq!(store.name(a), loaded.name(b));
            assert_eq!(store.value(a).shape(), loaded.value(b).shape());
            let xs = store.value(a).data();
            let ys = loaded.value(b).data();
            assert!(xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits()));
            assert!(loaded.is_frozen(b));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quantized_artifact_applies_policy_and_roundtrips() {
        let dir = tmp_dir("int8");
        let path = dir.join("model.turl");
        let store = demo_store();
        let opts = ExportOptions { quantize: true, min_quant_elems: 1024 };
        let summary = export_artifact(&store, &path, &opts).unwrap();
        // Only the 64×40 matrix crosses min_quant_elems; the bias is 1-D
        // and the 4×4 head is too small.
        assert_eq!(summary.quantized, 1);
        assert!(summary.compression() > 3.0, "compression {}", summary.compression());
        let loaded = load_artifact(&path).unwrap();
        let enc = loaded.value(loaded.find("turl.enc.w").unwrap());
        let q = enc.quantized().expect("encoder weight should be quantized");
        let original = store.value(store.find("turl.enc.w").unwrap());
        let max_scale = q.max_scale();
        for (x, y) in original.data().iter().zip(enc.dequantize().data()) {
            assert!((x - y).abs() <= max_scale / 2.0 + 1e-5 * max_scale);
        }
        assert!(loaded.value(loaded.find("turl.enc.b").unwrap()).as_f32().is_some());
        assert!(loaded.value(loaded.find("turl.head.w").unwrap()).as_f32().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quantized_tensors_reexport_as_quantized() {
        // A store loaded from an int8 artifact re-exports losslessly:
        // already-quantized tensors pass through without requantizing.
        let dir = tmp_dir("reexport");
        let first = dir.join("a.turl");
        let second = dir.join("b.turl");
        let opts = ExportOptions { quantize: true, min_quant_elems: 1024 };
        export_artifact(&demo_store(), &first, &opts).unwrap();
        let loaded = load_artifact(&first).unwrap();
        let summary = export_artifact(&loaded, &second, &ExportOptions::default()).unwrap();
        assert_eq!(summary.quantized, 1);
        let reloaded = load_artifact(&second).unwrap();
        let a = loaded.value(loaded.find("turl.enc.w").unwrap());
        let b = reloaded.value(reloaded.find("turl.enc.w").unwrap());
        assert_eq!(a.quantized().unwrap().quants(), b.quantized().unwrap().quants());
        assert_eq!(a.quantized().unwrap().scales(), b.quantized().unwrap().scales());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let dir = tmp_dir("trunc");
        let path = dir.join("model.turl");
        export_artifact(&demo_store(), &path, &ExportOptions::default()).unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut = dir.join("cut.turl");
        // Every strict prefix must fail with a typed error, not a panic.
        // Step through the header byte-by-byte, then the payload in
        // 97-byte strides to keep the test fast.
        let mut lens: Vec<usize> = (0..bytes.len().min(200)).collect();
        lens.extend((200..bytes.len()).step_by(97));
        for len in lens {
            fs::write(&cut, &bytes[..len]).unwrap();
            assert!(load_artifact(&cut).is_err(), "prefix of {len} bytes must not load");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_error() {
        let err = load_artifact(Path::new("/nonexistent/turl.artifact")).err().expect("must fail");
        assert!(matches!(err, SerializeError::Io(_)));
    }

    #[test]
    fn loaded_store_feeds_load_matching() {
        let dir = tmp_dir("matching");
        let path = dir.join("model.turl");
        let mut src = ParamStore::new();
        src.register("w", Tensor::full(vec![2], 7.0));
        export_artifact(&src, &path, &ExportOptions::default()).unwrap();
        let loaded = load_artifact(&path).unwrap();
        let mut dst = ParamStore::new();
        dst.register("w", Tensor::zeros(vec![2]));
        assert_eq!(dst.load_matching(&loaded), 1);
        assert_eq!(dst.value(dst.find("w").unwrap()).data(), &[7.0, 7.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_json_weights_file_is_a_bad_header() {
        // What `pretrain --out` wrote before the artifact replaced it: one
        // line of JSON, no frame.
        let dir = tmp_dir("legacy");
        let path = dir.join("model.json");
        fs::write(&path, r#"{"params":[["w",{"shape":[2],"data":[7,7]}]]}"#).unwrap();
        assert!(matches!(load_artifact(&path), Err(SerializeError::BadHeader(_))));
        fs::write(&path, "{\"params\":[[\"w\",{\"shape\":[2],\n\"data\":[7,7]}]]}\n").unwrap();
        assert!(matches!(load_artifact(&path), Err(SerializeError::BadHeader(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_magic_is_rejected() {
        let dir = tmp_dir("magic");
        let path = dir.join("file");
        write_framed(&path, "turl-trainer-checkpoint", 1, 2, |sink| sink.put(b"{}")).unwrap();
        match load_artifact(&path) {
            Err(SerializeError::BadHeader(msg)) => assert!(msg.contains("magic")),
            Err(other) => panic!("expected BadHeader, got {other:?}"),
            Ok(_) => panic!("expected BadHeader, got Ok"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("model.turl");
        export_artifact(&demo_store(), &path, &ExportOptions::default()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_artifact(&path), Err(SerializeError::ChecksumMismatch { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nonfinite_weights_refuse_to_export() {
        let dir = tmp_dir("nonfinite");
        let mut store = ParamStore::new();
        store.register("w", Tensor::from_vec(vec![2], vec![1.0, f32::NAN]));
        let err = export_artifact(&store, &dir.join("m.turl"), &ExportOptions::default());
        assert!(matches!(err, Err(SerializeError::NonFinite { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_data_is_64_byte_aligned() {
        let dir = tmp_dir("align");
        let path = dir.join("model.turl");
        export_artifact(&demo_store(), &path, &ExportOptions::default()).unwrap();
        // Walk the metadata by hand and check each data section offset.
        read_framed(&path, ARTIFACT_MAGIC, ARTIFACT_VERSION, |r| {
            let n = r.u32("count")?;
            for _ in 0..n {
                let name_len = r.u16("nl")? as usize;
                r.take(name_len, "name")?;
                let _tag = r.u8("tag")?;
                let rank = r.u8("rank")? as usize;
                let mut len = 1usize;
                for _ in 0..rank {
                    len *= r.u32("dim")? as usize;
                }
                r.align()?;
                assert_eq!(r.pos % ARTIFACT_ALIGN as u64, 0);
                r.take(4 * len, "data")?;
            }
            Ok(())
        })
        .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
