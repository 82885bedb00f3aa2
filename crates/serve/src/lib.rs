//! `turl-serve`: a long-running, std-only HTTP/JSON inference daemon
//! over the compiled graph-free forward.
//!
//! The server loads a `turl export` artifact (f32 or block-quantized
//! int8) and exposes the TUBE task endpoints — `/v1/encode`,
//! `/v1/entity_linking`, `/v1/cell_filling`, `/v1/row_population`,
//! `/v1/column_type`, `/v1/relation_extraction`,
//! `/v1/schema_augmentation` — plus `/healthz`, `/metrics` (Prometheus
//! text exposition), `/metrics.json`, and `/admin/traces` (tail-sampled
//! request traces as JSONL). Three properties define it:
//!
//! 1. **Bit-exact serving.** Every response is bit-identical to what
//!    offline `turl infer` computes on the same table, including under
//!    concurrent load: a cross-request micro-batch stacks its tables
//!    as row segments and runs attention per table, over kernels whose
//!    per-row bits do not depend on the row count (proven exact in
//!    `turl-core`'s `batch` module), and the encode
//!    cache keys on canonical input bytes so a hit replays the same
//!    bits.
//! 2. **Bounded everything.** Requests in flight are bounded by the
//!    acceptor count, queued jobs by the queue depth (overflow answers
//!    503), compiled plans per worker by the plan-cache LRU, and cached
//!    encodes by the output LRU — a malicious stream of distinct shapes
//!    cannot grow the process.
//! 3. **Typed failure.** Malformed or adversarial requests (bad JSON,
//!    empty tables, ids past the vocabulary, out-of-range cells) are
//!    structured 4xx JSON errors, validated *before* they can touch a
//!    plan cache; worker threads never panic on request data.

pub mod cache;
pub mod client;
pub mod http;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;

pub use client::Client;
pub use protocol::{
    ColumnRequest, EncodeResponse, ErrorBody, ErrorEnvelope, HealthResponse, MetricsResponse,
    RankRequest, RankResponse, RelationRequest, ReprResponse, RowPopulationRequest, ServeError,
    TableRequest, MAX_BODY_BYTES,
};
pub use server::{run, start, ServeOptions, ServerHandle};
pub use session::{Head, Session};
