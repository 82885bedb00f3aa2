//! `turl-obs`: structured tracing, training metrics, and kernel
//! profiling for the TURL workspace.
//!
//! Std-only (no tokio/tracing, matching the vendored-stub philosophy),
//! organized in three layers:
//!
//! 1. **Spans & events** ([`recorder`], [`sink`], [`event`]) — a
//!    process-global recorder with pluggable sinks. [`ConsoleSink`]
//!    renders `log`/`warn` events for humans; [`JsonlSink`] writes one
//!    JSON object per line for machines (`--metrics-out run.jsonl`).
//!    Every event carries monotonic `step`/`epoch`/`t_ns` stamps.
//! 2. **Metrics** ([`metrics`]) — named counters, gauges, and
//!    fixed-bucket histograms, updated lock-free from hot paths.
//! 3. **Profiling** ([`profile`]) — fixed-slot per-op timing for the
//!    tensor kernels and worker-pool utilization counters, plus
//!    [`report`] which digests a JSONL file into the `turl report`
//!    breakdown.
//!
//! # Determinism
//!
//! Instrumentation must never perturb training results. The crate
//! enforces this structurally: every collection site is gated on
//! [`metrics_enabled`] (one relaxed atomic load when off), and the
//! enabled paths only *read* clocks and bump counters — they never
//! draw RNG state, allocate into model buffers, or reorder reductions.
//! A seeded run with `--metrics-out` is bit-identical to one without
//! (proven by test in `turl-core`).

pub mod event;
pub mod metrics;
pub mod profile;
pub mod prometheus;
pub mod raw;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod trace;

pub use event::{Event, FieldValue};
pub use metrics::{
    counter, emit_metrics_events, gauge, histogram, intern_name, quantile_from_buckets,
    snapshot_registry, Counter, Gauge, Histogram, HistogramSnapshot, RegistrySnapshot,
};
pub use profile::{
    emit_profile_events, op_timer, pool_configure, pool_dequeued, pool_helper_run, pool_submitted,
    record_op, register_op, OpId, OpTimer,
};
pub use prometheus::{
    histogram_buckets, histogram_quantile, parse_exposition, render_prometheus, sample_value,
    sanitize_metric_name, PromSample,
};
pub use recorder::{
    emit, flush, info, install_sink, metrics_enabled, now_ns, remove_sink, remove_sinks, set_epoch,
    set_step, span, warn, Span, Timer,
};
pub use report::{
    parse_jsonl, render, summarize, HistogramReport, OpProfile, PoolReport, RatioStat, Summary,
};
pub use sink::{ConsoleSink, JsonlSink, MemorySink, Sink};
pub use trace::{next_trace_id, RequestTrace, Stage, StageCell, TraceReservoir};
