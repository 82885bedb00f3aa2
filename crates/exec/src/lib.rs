//! `turl-exec`: the forward-plan compiler and arena executor.
//!
//! PR 5 built the front end — a typed dataflow [`Ir`](turl_audit::Ir)
//! lowered from a `ModelPlan`, value-range analysis, and a buffer-
//! liveness arena planner with a proven multiple-x reuse factor that
//! nothing executed. This crate is the back end:
//!
//! * [`compile()`] lowers an IR into a [`CompiledPlan`]: a flat list of
//!   executable [`Step`]s with every operand resolved to either a
//!   parameter (source) slice or a fixed offset into one shared arena.
//!   A fusion pass rewrites `scale → mask → softmax` chains,
//!   `matmul → bias` (and `matmul → bias → gelu`) sequences, and
//!   `reshape ⇄ permute` pairs into single fused kernels from
//!   `turl_tensor::ops`; layer norm lowers to the one-pass
//!   `fused_layer_norm` kernel.
//! * The arena layout comes from the same greedy best-fit planner the
//!   audit crate reports on ([`turl_audit::plan_layout`]), re-indexed by
//!   step so fused chains occupy no intermediate buffers at all. Compile
//!   time verifies that every step's output span is disjoint from all of
//!   its input spans — the no-aliasing guarantee the executor's raw-
//!   pointer carving relies on.
//! * [`CompiledPlan::run`] executes the schedule against an [`Arena`]:
//!   one pre-sized buffer, zero per-op heap allocation in steady state.
//!
//! Equivalence contract: every fused kernel is reassociation-free (see
//! the per-kernel docs in `turl_tensor::ops`), so a compiled forward is
//! **bit-exact** against the tape-based `Graph` forward — the parity
//! tests in `turl-core` assert equality down to `f32::to_bits`.

pub mod compile;
pub mod run;

pub use compile::{
    compile, CompiledPlan, ExecError, GatherSpec, Operand, SourceSpec, Step, StepKind,
};
pub use run::{Arena, SourceValue};
