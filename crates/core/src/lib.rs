//! TURL: Table Understanding through Representation Learning.
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates:
//!
//! * the input **embedding layer** of §4.2 — token embeddings
//!   `x_t = w + t + p` and fused entity embeddings
//!   `x_e = LINEAR([e^e; e^m]) + t_e` ([`TurlModel`]);
//! * the **structure-aware Transformer encoder** of §4.3 — multi-head
//!   self-attention masked by the table-derived visibility matrix;
//! * the **pre-training objectives** of §4.4 — Masked Language Model over
//!   metadata tokens and Masked Entity Recovery over entity cells, with
//!   candidate-set softmax ([`Pretrainer`], [`MaskPlan`]);
//! * **fine-tuning heads** for all six TUBE tasks (module [`tasks`]);
//! * the Figure-7 **object-entity prediction probe** ([`probe`]);
//! * a **compiled inference path** ([`CompiledForward`]) — the encoder
//!   lowered through `turl-audit`'s IR and `turl-exec`'s fusing compiler
//!   into a graph-free, arena-backed schedule, bit-exact vs the tape.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the full pipeline: generate a synthetic
//! corpus, pre-train, inspect entity embeddings, then fine-tune.

#![deny(missing_docs)]

pub mod audit;
mod batch;
mod compiled;
mod config;
mod extensions;
mod finetune;
mod input;
mod model;
mod pretrain;
pub mod probe;
pub mod tasks;

pub use batch::{TableBatch, Tables};
pub use compiled::{rank_descending, CompiledForward, DEFAULT_PLAN_CACHE_CAP};
pub use config::{CandidateConfig, PretrainConfig, TurlConfig};
pub use extensions::{AuxRelationObjective, RelationPair};
pub use finetune::{FinetuneConfig, FinetuneStats};
pub use input::{encode_tables, EncodedInput, EntityInput};
pub use model::{bind_store, TapeTable, TurlModel};
pub use pretrain::{
    apply_mask_plan, build_candidates, random_entity_id, random_word_id, CheckpointPolicy,
    MaskPlan, PretrainStats, Pretrainer, StepOutcome,
};
