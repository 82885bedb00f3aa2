//! Checkpointing: crash-safe serialization of the full trainer state,
//! and the file frame it shares with model artifacts.
//!
//! A [`TrainerCheckpoint`] ([`save_trainer_checkpoint`] /
//! [`load_trainer_checkpoint`]) is the versioned resume format: parameter
//! values, Adam moments (`m`/`v`) and step counter, the trainer RNG
//! state, the learning-rate schedule, and the training-loop progress
//! counters, so an interrupted run restarts bit-identically. It belongs
//! to one run — what a finished run hands on is a model artifact — so a
//! file of an older format version is refused
//! ([`SerializeError::UnsupportedVersion`]), not migrated.
//!
//! # On-disk layout of a trainer checkpoint (version 2)
//!
//! ```text
//! {"magic":"turl-trainer-checkpoint","version":2,"payload_bytes":N,"checksum":"<fnv1a64 hex>"}\n
//! <payload, N bytes:>
//!   u32            meta_len
//!   meta_len×u8    JSON: Adam config and step, RNG words, schedule,
//!                  progress, and per parameter its name and frozen flag
//!   per parameter, in that order: value, m, v — three tensor records of
//!                  the `codec` module (what an artifact's tensors are
//!                  written as), f32 only, each named after its parameter
//! ```
//!
//! The header line is self-delimiting, so a file truncated at *any* byte
//! offset is rejected with a typed [`SerializeError`]: inside the header
//! the JSON parse fails ([`SerializeError::BadHeader`]), after it the
//! payload length mismatches ([`SerializeError::Truncated`]), and a
//! same-length corruption fails the checksum
//! ([`SerializeError::ChecksumMismatch`]). A checksummed payload is still
//! not trusted: `meta_len` and every tensor length are checked against
//! the bytes present. Writes go to a `<name>.tmp` sibling, are fsynced,
//! and are renamed over the target (with a directory fsync), so a crash
//! mid-write never clobbers the previous checkpoint; the temp file such
//! a crash leaves is removed by [`remove_stale_temps`].

use crate::codec::{record_len, Layout, Sink, Source};
use crate::optim::AdamConfig;
use crate::params::ParamStore;
use crate::schedule::LinearDecaySchedule;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use turl_tensor::Tensor;

/// Current trainer-checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

const CHECKPOINT_MAGIC: &str = "turl-trainer-checkpoint";

/// Error produced while saving or loading a trainer checkpoint or a model
/// artifact (the two share the frame and the tensor codec).
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON encoding/decoding failure.
    Json(serde_json::Error),
    /// The header line is missing, garbled, or carries the wrong magic.
    BadHeader(String),
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The payload is shorter or longer than the header promised.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present after the header.
        actual: u64,
    },
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// A restored tensor holds NaN/inf values.
    NonFinite {
        /// Name of the offending parameter.
        param: String,
    },
    /// The checkpoint's parameters do not match the live model.
    ParamMismatch {
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// The payload is internally inconsistent or cannot be represented.
    InvalidState(String),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "I/O error: {e}"),
            SerializeError::Json(e) => write!(f, "JSON error: {e}"),
            SerializeError::BadHeader(d) => write!(f, "header invalid: {d}"),
            SerializeError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads {supported})")
            }
            SerializeError::Truncated { expected, actual } => {
                write!(f, "file truncated or padded: header promises {expected} payload bytes, found {actual}")
            }
            SerializeError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#018x}, payload hashes to {actual:#018x}"
                )
            }
            SerializeError::NonFinite { param } => {
                write!(f, "parameter `{param}` holds non-finite values")
            }
            SerializeError::ParamMismatch { detail } => {
                write!(f, "checkpoint does not match the live model: {detail}")
            }
            SerializeError::InvalidState(d) => write!(f, "content invalid: {d}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

impl From<serde_json::Error> for SerializeError {
    fn from(e: serde_json::Error) -> Self {
        SerializeError::Json(e)
    }
}

// ---------------------------------------------------------------------------
// Full trainer checkpoints
// ---------------------------------------------------------------------------

/// One parameter's full training state: value, Adam moments, frozen flag.
#[derive(Debug, Clone)]
pub struct ParamRecord {
    /// Registered parameter name.
    pub name: String,
    /// Current value. A snapshot shares it with the store
    /// ([`snapshot_params`]), a restore moves it in ([`restore_params`]).
    pub value: Arc<Tensor>,
    /// Adam first moment; `None` while the optimizer has never stepped
    /// the parameter, which is all zeros (and is written as such).
    pub m: Option<Arc<Tensor>>,
    /// Adam second moment; `None` like `m`.
    pub v: Option<Arc<Tensor>>,
    /// Whether the optimizer skips this parameter.
    pub frozen: bool,
}

/// Training-loop position: everything the epoch loop needs to continue a
/// run exactly where it stopped, including mid-epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressState {
    /// Completed epochs.
    pub epoch: u64,
    /// Batches consumed in the in-progress epoch.
    pub batch_in_epoch: u64,
    /// Shuffled table order of the in-progress epoch (empty between epochs).
    pub order: Vec<u64>,
    /// Loss accumulated over the in-progress epoch.
    pub epoch_loss_sum: f32,
    /// Batches that actually stepped the optimizer in the in-progress epoch.
    pub epoch_batches: u64,
    /// Optimizer steps taken over the whole run.
    pub steps: u64,
    /// Batches skipped because their gradient norm was non-finite.
    pub non_finite_skips: u64,
    /// Mean loss per completed epoch.
    pub epoch_losses: Vec<f32>,
}

/// Exact JSON-safe encoding of the trainer RNG state. The vendored serde
/// data model stores numbers as `f64`, which cannot carry 64-bit integers
/// losslessly, so the four xoshiro256++ words travel as decimal strings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RngStateRepr {
    words: Vec<String>,
}

impl RngStateRepr {
    /// Encode raw state words.
    pub fn from_words(words: [u64; 4]) -> Self {
        Self { words: words.iter().map(u64::to_string).collect() }
    }

    /// Decode back to raw state words.
    pub fn to_words(&self) -> Result<[u64; 4], SerializeError> {
        if self.words.len() != 4 {
            return Err(SerializeError::InvalidState(format!(
                "rng state holds {} words, expected 4",
                self.words.len()
            )));
        }
        let mut out = [0u64; 4];
        for (i, w) in self.words.iter().enumerate() {
            out[i] = w.parse::<u64>().map_err(|_| {
                SerializeError::InvalidState(format!("rng state word {i} `{w}` is not a u64"))
            })?;
        }
        Ok(out)
    }
}

/// The complete state of a training run at one step boundary.
#[derive(Debug, Clone)]
pub struct TrainerCheckpoint {
    /// Format version (written to, and enforced from, the file header).
    pub version: u32,
    /// Optimizer hyper-parameters at save time (including scheduled lr).
    pub adam: AdamConfig,
    /// Optimizer step counter (drives Adam bias correction).
    pub adam_steps: u64,
    /// Trainer RNG state.
    pub rng: RngStateRepr,
    /// Learning-rate schedule, when one was installed.
    pub schedule: Option<LinearDecaySchedule>,
    /// Epoch/batch/step counters of the training loop.
    pub progress: ProgressState,
    /// Every parameter with its optimizer state.
    pub params: Vec<ParamRecord>,
}

/// Capture every parameter's value, Adam moments and frozen flag. The
/// records share the store's tensors rather than copy them: a snapshot
/// costs no tensor bytes, and the optimizer's next step copies a tensor
/// (`Arc::make_mut`) only while a snapshot still holds it.
pub fn snapshot_params(store: &ParamStore) -> Vec<ParamRecord> {
    store
        .entries()
        .iter()
        .map(|e| ParamRecord {
            name: e.name.clone(),
            value: Arc::clone(&e.value),
            m: e.m.clone(),
            v: e.v.clone(),
            frozen: e.frozen,
        })
        .collect()
}

/// Restore parameter values and Adam moments into a live store, moving
/// the records' tensors in.
///
/// Strict: the records must match the store's parameters one-to-one, in
/// registration order, by name and shape; every tensor must be finite.
/// On success, gradients are reset so the next step starts clean.
pub fn restore_params(
    store: &mut ParamStore,
    records: Vec<ParamRecord>,
) -> Result<(), SerializeError> {
    if records.len() != store.len() {
        return Err(SerializeError::ParamMismatch {
            detail: format!(
                "checkpoint holds {} parameters, live model has {}",
                records.len(),
                store.len()
            ),
        });
    }
    // Validate everything before mutating anything, so a failed restore
    // leaves the store untouched.
    for (e, r) in store.entries().iter().zip(records.iter()) {
        if e.name != r.name {
            return Err(SerializeError::ParamMismatch {
                detail: format!(
                    "parameter order diverges: live `{}` vs checkpoint `{}`",
                    e.name, r.name
                ),
            });
        }
        if e.value.shape() != r.value.shape() {
            return Err(SerializeError::ParamMismatch {
                detail: format!(
                    "`{}`: live shape {:?} vs checkpoint shape {:?}",
                    e.name,
                    e.value.shape(),
                    r.value.shape()
                ),
            });
        }
        for t in record_tensors(r).into_iter().flatten() {
            if t.shape() != r.value.shape() {
                return Err(SerializeError::ParamMismatch {
                    detail: format!(
                        "`{}`: optimizer-state shape {:?} differs from value shape {:?}",
                        r.name,
                        t.shape(),
                        r.value.shape()
                    ),
                });
            }
            if t.data().iter().any(|x| !x.is_finite()) {
                return Err(SerializeError::NonFinite { param: r.name.clone() });
            }
        }
    }
    for (e, r) in store.entries_mut().iter_mut().zip(records) {
        e.value = r.value;
        e.m = r.m;
        e.v = r.v;
        e.frozen = r.frozen;
        if let Some(grad) = &mut e.grad {
            grad.zero_();
        }
        e.touched = false;
    }
    Ok(())
}

/// FNV-1a 64 offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64 hash (`h`, [`FNV_OFFSET`] to start) over `bytes`.
pub(crate) fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    payload_bytes: u64,
    /// FNV-1a 64 of the payload bytes, as fixed-width hex.
    checksum: String,
}

/// The longest header line a reader looks for: a header is under 200
/// bytes, and a file whose first line is longer is not a framed file.
const MAX_HEADER_BYTES: u64 = 4096;

/// Bytes hashed per read while a payload is verified.
const HASH_CHUNK: usize = 64 * 1024;

/// Atomically write a framed file: one self-delimiting JSON header line
/// (magic, version, payload length, FNV-1a 64 checksum) followed by the
/// `payload_bytes` raw payload bytes that `body` streams into the sink.
/// The single framing path shared by trainer checkpoints and model
/// artifacts — [`read_framed`] is its inverse, and the
/// truncation-at-every-byte guarantee is proven once for both.
///
/// The header goes first with a placeholder checksum; the payload goes
/// straight to a `<name>.tmp` sibling, hashed as it is written; then the
/// digest is patched into the header, the file fsynced and renamed over
/// `path` (with a directory fsync), so a crash mid-write never clobbers
/// the previous file. A `body` that fails, or writes other than
/// `payload_bytes`, leaves `path` as it was and no temp file behind.
pub(crate) fn write_framed(
    path: &Path,
    magic: &str,
    version: u32,
    payload_bytes: u64,
    body: impl FnOnce(&mut Sink<BufWriter<&mut File>>) -> Result<(), SerializeError>,
) -> Result<(), SerializeError> {
    let placeholder = "0".repeat(16);
    let header = Header { magic: magic.to_string(), version, payload_bytes, checksum: placeholder };
    let mut header = serde_json::to_string(&header)?;
    // The checksum is the last field: its digits end two bytes (`"}`) short.
    let checksum_at = (header.len() - 18) as u64;
    header.push('\n');
    let mut tmp = path.as_os_str().to_owned();
    // The whole file name plus `.tmp`: `model.json` and `model.artifact`
    // in one directory must not share a temp file.
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(header.as_bytes())?;
        let mut sink = Sink::new(BufWriter::new(&mut f));
        body(&mut sink)?;
        if sink.pos != payload_bytes {
            return Err(SerializeError::InvalidState(format!(
                "{} payload bytes written where the header promises {payload_bytes}",
                sink.pos
            )));
        }
        let digest = sink.hash;
        sink.into_inner().into_inner().map_err(|e| e.into_error())?;
        f.seek(SeekFrom::Start(checksum_at))?;
        f.write_all(format!("{digest:016x}").as_bytes())?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is best-effort on
    // platforms where directories cannot be opened for reading.
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read and strictly validate a framed file written by [`write_framed`],
/// then hand its payload to `decode`: header parse, magic, format
/// version, and payload length against the file's size first; then the
/// whole payload is hashed, 64 KiB at a time, against the checksum; only
/// then does `decode` read it, record by record, from the start. Every
/// truncation offset and every bit flip maps to a typed
/// [`SerializeError`] before a single record is decoded, and `decode`
/// must consume the payload exactly.
pub(crate) fn read_framed<T>(
    path: &Path,
    magic: &str,
    supported_version: u32,
    decode: impl FnOnce(&mut Source<BufReader<File>>) -> Result<T, SerializeError>,
) -> Result<T, SerializeError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut file = BufReader::new(file);
    let mut line = Vec::new();
    (&mut file).take(MAX_HEADER_BYTES).read_until(b'\n', &mut line)?;
    if line.pop() != Some(b'\n') {
        return Err(SerializeError::BadHeader("no header line (file truncated?)".to_string()));
    }
    let header_text = std::str::from_utf8(&line)
        .map_err(|_| SerializeError::BadHeader("header is not UTF-8".to_string()))?;
    let header: Header = serde_json::from_str(header_text)
        .map_err(|e| SerializeError::BadHeader(format!("unparsable header: {e}")))?;
    if header.magic != magic {
        return Err(SerializeError::BadHeader(format!("magic `{}`", header.magic)));
    }
    if header.version != supported_version {
        return Err(SerializeError::UnsupportedVersion {
            found: header.version,
            supported: supported_version,
        });
    }
    let payload_at = line.len() as u64 + 1;
    let actual = file_len.saturating_sub(payload_at);
    if actual != header.payload_bytes {
        return Err(SerializeError::Truncated { expected: header.payload_bytes, actual });
    }
    // Only the spelling `write_framed` produces is a checksum: `from_str_radix`
    // alone would also take upper-case digits, a sign, or fewer than 16.
    let expected = u64::from_str_radix(&header.checksum, 16)
        .ok()
        .filter(|sum| format!("{sum:016x}") == header.checksum)
        .ok_or_else(|| SerializeError::BadHeader(format!("checksum `{}`", header.checksum)))?;
    let (mut hash, mut hashed) = (FNV_OFFSET, 0u64);
    let mut chunk = vec![0; HASH_CHUNK];
    loop {
        let n = file.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        hash = fnv1a64(hash, &chunk[..n]);
        hashed += n as u64;
    }
    // The file changed size since it was measured.
    if hashed != header.payload_bytes {
        return Err(SerializeError::Truncated { expected: header.payload_bytes, actual: hashed });
    }
    if hash != expected {
        return Err(SerializeError::ChecksumMismatch { expected, actual: hash });
    }
    file.seek(SeekFrom::Start(payload_at))?;
    let mut payload = Source::new(file, header.payload_bytes);
    let decoded = decode(&mut payload)?;
    payload.finish()?;
    Ok(decoded)
}

/// Everything in a checkpoint payload that is not a tensor: the JSON
/// block ahead of the tensor records.
#[derive(Serialize, Deserialize)]
struct CheckpointMeta {
    adam: AdamConfig,
    adam_steps: u64,
    rng: RngStateRepr,
    schedule: Option<LinearDecaySchedule>,
    progress: ProgressState,
    params: Vec<ParamMeta>,
}

#[derive(Serialize, Deserialize)]
struct ParamMeta {
    name: String,
    frozen: bool,
}

/// Each record's tensors, `value, m, v`; a moment that was never
/// allocated is `None` and written as zeros of the value's shape.
fn record_tensors(r: &ParamRecord) -> [Option<&Tensor>; 3] {
    [Some(&r.value), r.m.as_deref(), r.v.as_deref()]
}

fn write_checkpoint(ckpt: &TrainerCheckpoint, path: &Path) -> Result<u64, SerializeError> {
    let meta = serde_json::to_string(&CheckpointMeta {
        adam: ckpt.adam,
        adam_steps: ckpt.adam_steps,
        rng: ckpt.rng.clone(),
        schedule: ckpt.schedule,
        progress: ckpt.progress.clone(),
        params: ckpt
            .params
            .iter()
            .map(|r| ParamMeta { name: r.name.clone(), frozen: r.frozen })
            .collect(),
    })?;
    let meta_len = u32::try_from(meta.len()).map_err(|_| {
        SerializeError::InvalidState(format!("checkpoint metadata of {} bytes", meta.len()))
    })?;
    let mut payload_bytes = 4 + meta.len() as u64;
    for r in &ckpt.params {
        for t in record_tensors(r) {
            if t.is_some_and(|t| t.quantized().is_some()) {
                return Err(SerializeError::InvalidState(format!(
                    "`{}` is block-quantized; only an f32 store can be checkpointed",
                    r.name
                )));
            }
            let shape = t.unwrap_or(&r.value).shape();
            payload_bytes += record_len(payload_bytes, &r.name, shape, Layout::F32);
        }
    }
    write_framed(path, CHECKPOINT_MAGIC, ckpt.version, payload_bytes, |sink| {
        sink.put_u32(meta_len)?;
        sink.put(meta.as_bytes())?;
        for r in &ckpt.params {
            for t in record_tensors(r) {
                match t {
                    Some(t) => sink.tensor(&r.name, t)?,
                    None => sink.zeros(&r.name, r.value.shape())?,
                }
            }
        }
        Ok(())
    })?;
    Ok(payload_bytes)
}

fn decode_checkpoint<R: Read>(r: &mut Source<R>) -> Result<TrainerCheckpoint, SerializeError> {
    let meta_len = r.u32("metadata length")? as usize;
    let meta_text = String::from_utf8(r.take(meta_len, "metadata")?)
        .map_err(|_| SerializeError::InvalidState("metadata is not UTF-8".to_string()))?;
    let meta: CheckpointMeta = serde_json::from_str(&meta_text)?;
    meta.rng.to_words()?;
    let mut params = Vec::new();
    for p in meta.params {
        let mut next = |role: &str| {
            let (name, t) = r.tensor()?;
            if name != p.name || t.quantized().is_some() {
                return Err(SerializeError::InvalidState(format!(
                    "{} tensor `{name}` where the f32 {role} of `{}` belongs",
                    t.dtype().name(),
                    p.name
                )));
            }
            Ok(t)
        };
        let (value, m, v) = (next("value")?, next("m")?, next("v")?);
        for t in [&m, &v] {
            if t.shape() != value.shape() {
                return Err(SerializeError::InvalidState(format!(
                    "`{}`: optimizer-state shape {:?} differs from value shape {:?}",
                    p.name,
                    t.shape(),
                    value.shape()
                )));
            }
        }
        let (value, m, v) = (Arc::new(value), Some(Arc::new(m)), Some(Arc::new(v)));
        params.push(ParamRecord { name: p.name, value, m, v, frozen: p.frozen });
    }
    Ok(TrainerCheckpoint {
        version: CHECKPOINT_VERSION,
        adam: meta.adam,
        adam_steps: meta.adam_steps,
        rng: meta.rng,
        schedule: meta.schedule,
        progress: meta.progress,
        params,
    })
}

/// Atomically write a trainer checkpoint (header + checksummed payload),
/// streaming each tensor to the file. Non-finite or block-quantized state
/// is refused, and leaves `path` as it was.
pub fn save_trainer_checkpoint(
    ckpt: &TrainerCheckpoint,
    path: &Path,
) -> Result<(), SerializeError> {
    let span = turl_obs::span("checkpoint_write");
    let timer = turl_obs::Timer::start();
    let result = write_checkpoint(ckpt, path);
    if turl_obs::metrics_enabled() {
        turl_obs::histogram("checkpoint_write_ms", CKPT_LATENCY_BUCKETS_MS)
            .observe(timer.elapsed_ns() as f64 / 1.0e6);
    }
    let bytes = result.as_ref().map_or(0, |&n| n);
    drop(span.field("bytes", bytes).field("ok", result.is_ok()));
    result.map(|_| ())
}

/// Latency buckets (milliseconds) shared by checkpoint write/read timing.
const CKPT_LATENCY_BUCKETS_MS: &[f64] = &[1.0, 5.0, 20.0, 100.0, 500.0, 2000.0];

/// Load and strictly validate a trainer checkpoint: magic, format version,
/// payload length, checksum, metadata shape, every tensor record in
/// bounds, f32 and finite, optimizer-state shapes equal to their value's.
/// Never panics on malformed input.
pub fn load_trainer_checkpoint(path: &Path) -> Result<TrainerCheckpoint, SerializeError> {
    let span = turl_obs::span("checkpoint_read");
    let timer = turl_obs::Timer::start();
    let result = read_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, decode_checkpoint);
    if turl_obs::metrics_enabled() {
        turl_obs::histogram("checkpoint_read_ms", CKPT_LATENCY_BUCKETS_MS)
            .observe(timer.elapsed_ns() as f64 / 1.0e6);
    }
    drop(span.field("ok", result.is_ok()));
    result
}

// ---------------------------------------------------------------------------
// Checkpoint directories: naming, discovery, fallback, retention
// ---------------------------------------------------------------------------

/// Canonical file name for the checkpoint taken at optimizer step `step`.
pub fn checkpoint_file_name(step: u64) -> String {
    format!("ckpt-{step:012}.ckpt")
}

/// All checkpoint files in `dir`, sorted by ascending step.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, SerializeError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(step) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((step, entry.path()));
        }
    }
    out.sort_by_key(|&(step, _)| step);
    Ok(out)
}

/// Result of [`recover_latest`]: the newest valid checkpoint (if any) and
/// every newer file that failed validation, with its typed rejection.
#[derive(Debug)]
pub struct CheckpointRecovery {
    /// Newest checkpoint that loaded and validated.
    pub checkpoint: Option<(PathBuf, TrainerCheckpoint)>,
    /// Files rejected during the search, newest first.
    pub rejected: Vec<(PathBuf, SerializeError)>,
}

/// Find the newest checkpoint in `dir` that passes full validation,
/// falling back over truncated/corrupt files instead of failing on them.
/// A missing directory yields an empty recovery rather than an error.
pub fn recover_latest(dir: &Path) -> Result<CheckpointRecovery, SerializeError> {
    if !dir.exists() {
        return Ok(CheckpointRecovery { checkpoint: None, rejected: Vec::new() });
    }
    let mut rejected = Vec::new();
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        match load_trainer_checkpoint(&path) {
            Ok(ckpt) => return Ok(CheckpointRecovery { checkpoint: Some((path, ckpt)), rejected }),
            Err(e) => rejected.push((path, e)),
        }
    }
    Ok(CheckpointRecovery { checkpoint: None, rejected })
}

/// Delete all but the newest `keep` checkpoints in `dir`.
/// Returns how many files were removed.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<usize, SerializeError> {
    let all = list_checkpoints(dir)?;
    let mut removed = 0;
    if all.len() > keep {
        for (_, path) in &all[..all.len() - keep] {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Delete every `ckpt-*.tmp` in `dir`: what a writer killed between
/// opening its temp file and renaming it leaves behind, checkpoint-sized,
/// never listed by [`list_checkpoints`] and so never pruned. For the one
/// trainer that owns `dir`, once its own write is renamed into place —
/// whatever is left then belongs to a dead process.
pub fn remove_stale_temps(dir: &Path) -> Result<(), SerializeError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".tmp")) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::params::Forward;
    use turl_tensor::GradForm;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("turl_nn_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A store with populated Adam moments: a couple of real optimizer
    /// steps over f(w) = sum((w - 3)^2).
    fn trained_store() -> (ParamStore, Adam) {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(vec![3]));
        store.register("frozen", Tensor::ones(vec![2]));
        store.set_frozen(store.find("frozen").unwrap(), true);
        let mut opt = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() });
        for _ in 0..3 {
            let mut f = Forward::new(&store);
            let w = f.param(&store, id, GradForm::Dense);
            let target = f.graph.constant(Tensor::full(vec![3], 3.0));
            let d = f.graph.sub(w, target);
            let sq = f.graph.mul(d, d);
            let l = f.graph.sum_all(sq);
            f.graph.backward(l);
            store.reduce(&[f.take_grads()]);
            opt.step(&mut store);
        }
        (store, opt)
    }

    fn checkpoint_of(store: &ParamStore, opt: &Adam) -> TrainerCheckpoint {
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
                steps: 7,
                non_finite_skips: 1,
                epoch_losses: vec![2.5],
            },
            params: snapshot_params(store),
        }
    }

    /// Frame `payload` as it stands.
    fn frame(path: &Path, version: u32, payload: &[u8]) {
        let len = payload.len() as u64;
        write_framed(path, CHECKPOINT_MAGIC, version, len, |sink| sink.put(payload)).unwrap();
    }

    /// Rewrite the payload of the checkpoint at `path` and frame it again,
    /// so the header's length and checksum vouch for the edited bytes.
    fn reframe(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
        let bytes = std::fs::read(path).unwrap();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let mut payload = bytes[newline + 1..].to_vec();
        edit(&mut payload);
        frame(path, CHECKPOINT_VERSION, &payload);
    }

    #[test]
    fn trainer_checkpoint_roundtrips_bit_exactly() {
        let (store, opt) = trained_store();
        let ckpt = checkpoint_of(&store, &opt);
        let dir = tmpdir("roundtrip");
        let path = dir.join(checkpoint_file_name(7));
        save_trainer_checkpoint(&ckpt, &path).unwrap();
        let loaded = load_trainer_checkpoint(&path).unwrap();
        assert_eq!(loaded.adam, ckpt.adam);
        assert_eq!(loaded.adam_steps, 3);
        assert_eq!(loaded.rng.to_words().unwrap(), [u64::MAX, 1, 0x0123_4567_89ab_cdef, 42]);
        assert_eq!(loaded.schedule, ckpt.schedule);
        assert_eq!(loaded.progress, ckpt.progress);
        assert_eq!(loaded.params.len(), 2);
        for (a, b) in ckpt.params.iter().zip(loaded.params.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.frozen, b.frozen);
            // state never allocated comes back as the zeros it was written as
            let zeros = Tensor::zeros(a.value.shape().to_vec());
            let (am, av) = (a.m.as_deref().unwrap_or(&zeros), a.v.as_deref().unwrap_or(&zeros));
            let (bm, bv) = (b.m.as_deref().unwrap(), b.v.as_deref().unwrap());
            for (x, y) in [(&*a.value, &*b.value), (am, bm), (av, bv)] {
                assert_eq!(x.shape(), y.shape());
                for (p, q) in x.data().iter().zip(y.data().iter()) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
        // restoring into a matching fresh store reproduces value + moments
        let mut fresh = ParamStore::new();
        fresh.register("w", Tensor::zeros(vec![3]));
        fresh.register("frozen", Tensor::zeros(vec![2]));
        restore_params(&mut fresh, loaded.params).unwrap();
        let id = fresh.find("w").unwrap();
        let orig = store.find("w").unwrap();
        assert_eq!(fresh.value(id).data(), store.value(orig).data());
        assert!(fresh.is_frozen(fresh.find("frozen").unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let (store, opt) = trained_store();
        let dir = tmpdir("truncate");
        let path = dir.join(checkpoint_file_name(1));
        save_trainer_checkpoint(&checkpoint_of(&store, &opt), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut_path = dir.join("cut.ckpt");
        for cut in 0..bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert!(
                load_trainer_checkpoint(&cut_path).is_err(),
                "truncation at byte {cut}/{} must be rejected",
                bytes.len()
            );
        }
        // and appending garbage is rejected too
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"garbage");
        std::fs::write(&cut_path, &padded).unwrap();
        assert!(matches!(
            load_trainer_checkpoint(&cut_path),
            Err(SerializeError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_fails_checksum() {
        let (store, opt) = trained_store();
        let dir = tmpdir("bitflip");
        let path = dir.join(checkpoint_file_name(1));
        save_trainer_checkpoint(&checkpoint_of(&store, &opt), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2 + 10;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_trainer_checkpoint(&path).unwrap_err();
        assert!(
            matches!(err, SerializeError::ChecksumMismatch { .. } | SerializeError::Json(_)),
            "got {err}"
        );
        // and so does every other single bit, header line included
        bytes[mid] ^= 0x01;
        for bit in 0..8 * bytes.len() {
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            assert!(load_trainer_checkpoint(&path).is_err(), "flip of bit {bit} must be rejected");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let (store, opt) = trained_store();
        let mut ckpt = checkpoint_of(&store, &opt);
        ckpt.version = CHECKPOINT_VERSION + 1;
        let dir = tmpdir("version");
        let path = dir.join(checkpoint_file_name(1));
        save_trainer_checkpoint(&ckpt, &path).unwrap();
        assert!(matches!(
            load_trainer_checkpoint(&path),
            Err(SerializeError::UnsupportedVersion { .. })
        ));
        // a version-1 file (JSON payload) is refused by its header, never parsed
        frame(&path, 1, b"{\"version\":1,\"params\":[]}");
        assert!(matches!(
            load_trainer_checkpoint(&path),
            Err(SerializeError::UnsupportedVersion { found: 1, supported: CHECKPOINT_VERSION })
        ));
        std::fs::write(
            &path,
            b"{\"magic\":\"other\",\"version\":1,\"payload_bytes\":0,\"checksum\":\"0\"}\n",
        )
        .unwrap();
        assert!(matches!(load_trainer_checkpoint(&path), Err(SerializeError::BadHeader(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_but_malformed_payloads_are_typed_errors() {
        let (store, opt) = trained_store();
        let dir = tmpdir("payload");
        let path = dir.join(checkpoint_file_name(1));
        let ckpt = checkpoint_of(&store, &opt);
        let rejected = |edit: &dyn Fn(&mut Vec<u8>)| {
            save_trainer_checkpoint(&ckpt, &path).unwrap();
            reframe(&path, edit);
            matches!(
                load_trainer_checkpoint(&path),
                Err(SerializeError::InvalidState(_) | SerializeError::Json(_))
            )
        };
        // the tensor section cut short, at the last byte and mid-record
        assert!(rejected(&|p| p.truncate(p.len() - 1)));
        assert!(rejected(&|p| p.truncate(p.len() - 100)));
        // a meta_len that points past the payload, or at 4 GiB
        assert!(rejected(&|p| {
            let len = p.len() as u32;
            p[..4].copy_from_slice(&len.to_le_bytes())
        }));
        assert!(rejected(&|p| p[..4].copy_from_slice(&u32::MAX.to_le_bytes())));
        // a meta_len that stops short of the metadata's end
        assert!(rejected(&|p| p[..4].copy_from_slice(&7u32.to_le_bytes())));
        // bytes after the last tensor
        assert!(rejected(&|p| p.extend_from_slice(&[0; 64])));
        // no payload at all
        assert!(rejected(&|p| p.clear()));
        // and the writer refuses what the format cannot hold: an int8 store
        let mut quantized = checkpoint_of(&store, &opt);
        quantized.params[0].value = Arc::new(Tensor::ones(vec![2, 32]).quantize_i8());
        std::fs::remove_file(&path).unwrap();
        let refused = save_trainer_checkpoint(&quantized, &path);
        assert!(matches!(refused, Err(SerializeError::InvalidState(_))) && !path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_params_are_rejected_on_load() {
        let (mut store, opt) = trained_store();
        let dir = tmpdir("nonfinite");
        let path = dir.join(checkpoint_file_name(1));
        save_trainer_checkpoint(&checkpoint_of(&store, &opt), &path).unwrap();
        // `w` is the first record: a 9-byte head (name length, "w", dtype,
        // rank, one dim) after the metadata, then its three values on the
        // next 64-byte boundary. Overwrite the second with a NaN.
        reframe(&path, |payload| {
            let meta_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
            let data = (4 + meta_len + 9).next_multiple_of(crate::codec::ALIGN);
            payload[data + 4..data + 8].copy_from_slice(&f32::NAN.to_le_bytes());
        });
        assert!(matches!(
            load_trainer_checkpoint(&path),
            Err(SerializeError::NonFinite { param }) if param == "w"
        ));
        // and the writer never puts one on disk in the first place
        let id = store.find("w").unwrap();
        store.value_mut(id).data_mut()[1] = f32::NAN;
        assert!(matches!(
            save_trainer_checkpoint(&checkpoint_of(&store, &opt), &path),
            Err(SerializeError::NonFinite { param }) if param == "w"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_mismatched_models() {
        let (store, opt) = trained_store();
        let records = checkpoint_of(&store, &opt).params;
        // wrong count
        let mut few = ParamStore::new();
        few.register("w", Tensor::zeros(vec![3]));
        assert!(matches!(
            restore_params(&mut few, records.clone()),
            Err(SerializeError::ParamMismatch { .. })
        ));
        // wrong name
        let mut named = ParamStore::new();
        named.register("w", Tensor::zeros(vec![3]));
        named.register("other", Tensor::zeros(vec![2]));
        assert!(restore_params(&mut named, records.clone()).is_err());
        // wrong shape — and the store is left untouched by the failure
        let mut shaped = ParamStore::new();
        shaped.register("w", Tensor::zeros(vec![4]));
        shaped.register("frozen", Tensor::zeros(vec![2]));
        assert!(restore_params(&mut shaped, records.clone()).is_err());
        assert_eq!(shaped.value(shaped.find("w").unwrap()).data(), &[0.0; 4]);
        std::mem::drop(records);
    }

    #[test]
    fn recover_latest_falls_back_over_corrupt_files() {
        let (store, opt) = trained_store();
        let dir = tmpdir("recover");
        let ckpt = checkpoint_of(&store, &opt);
        save_trainer_checkpoint(&ckpt, &dir.join(checkpoint_file_name(3))).unwrap();
        save_trainer_checkpoint(&ckpt, &dir.join(checkpoint_file_name(9))).unwrap();
        // truncate the newest one, as a crash mid-write would (pre-rename
        // crashes leave only *.tmp files, but simulate worse)
        let newest = dir.join(checkpoint_file_name(9));
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let rec = recover_latest(&dir).unwrap();
        let (path, _) = rec.checkpoint.expect("older valid checkpoint must be found");
        assert!(path.ends_with(checkpoint_file_name(3)));
        assert_eq!(rec.rejected.len(), 1);
        // all corrupt -> no checkpoint, but no panic/error either
        let older = dir.join(checkpoint_file_name(3));
        std::fs::write(&older, b"junk").unwrap();
        let rec = recover_latest(&dir).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.rejected.len(), 2);
        // missing directory -> empty recovery
        let rec = recover_latest(&dir.join("missing")).unwrap();
        assert!(rec.checkpoint.is_none() && rec.rejected.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest_k() {
        let (store, opt) = trained_store();
        let dir = tmpdir("prune");
        let ckpt = checkpoint_of(&store, &opt);
        for step in [2, 4, 6, 8] {
            save_trainer_checkpoint(&ckpt, &dir.join(checkpoint_file_name(step))).unwrap();
        }
        // what a writer killed before its rename leaves: never listed, so
        // never pruned; the sweep takes it and nothing else
        let orphan = dir.join(format!("{}.tmp", checkpoint_file_name(9)));
        std::fs::write(&orphan, b"half a checkpoint").unwrap();
        std::fs::write(dir.join("notes.tmp"), b"not ours").unwrap();
        assert_eq!(prune_checkpoints(&dir, 2).unwrap(), 2);
        let left: Vec<u64> = list_checkpoints(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(left, vec![6, 8]);
        assert_eq!(prune_checkpoints(&dir, 5).unwrap(), 0);
        // its own temp file is `<name>.tmp`, so a save over step 8 leaves the orphan of 9 alone
        save_trainer_checkpoint(&ckpt, &dir.join(checkpoint_file_name(8))).unwrap();
        assert!(orphan.exists());
        remove_stale_temps(&dir).unwrap();
        assert!(!orphan.exists() && dir.join("notes.tmp").exists());
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
