//! `turl-audit`: static analysis for the TURL workspace.
//!
//! Auditors, allocation-free with respect to model state:
//!
//! * [`lower_model_plan`] ([`ir`]) — lowers a [`ModelPlan`] to a typed
//!   dataflow IR of an entire TURL forward pass (embeddings → masked
//!   Transformer stack → MLM/MER heads) without allocating a single
//!   model-sized tensor. The IR is the one description of the forward —
//!   `TurlModel::encode` runs it on the autograd tape and `turl-exec`
//!   compiles it, so nothing has to be kept aligned with it:
//!   [`IrBuilder`] infers and checks every node's shape from
//!   its operands as it records them, and over the result
//!   [`analyze_model_plan`] ([`plan`]) runs value-range abstract
//!   interpretation ([`range`]: intervals + NaN/inf/−0 flags, proving
//!   masked logits vanish and normalizers stay nonzero) and
//!   buffer-liveness arena planning ([`liveness`]: first-def/last-use →
//!   greedy best-fit [`ArenaPlan`] with an honest `peak_bytes`);
//!   [`check_model_plan`] is the pass/fail wrapper.
//! * [`audit_tape`] ([`tape`]) — walks a built `turl_tensor::Graph` and
//!   verifies the invariants backprop relies on: topological parent
//!   order, gradient/value shape agreement, no orphaned grad leaves, and
//!   (optionally) all-finite leaf values.
//! * [`lint_visibility`] / [`validate_masking_config`] ([`visibility`])
//!   — re-derive the §4.3 visibility relation independently and compare
//!   a concrete matrix pair-by-pair; validate the §4.4 MLM/MER masking
//!   ratios and derive the MER branch fractions (10/63/27 at defaults).
//!
//! Every violation is a typed [`AuditError`] naming the op or structure
//! and the offending dimensions, suitable both for test assertions and
//! for the `turl audit` CLI gate.

pub mod error;
pub mod ir;
pub mod liveness;
pub mod plan;
pub mod range;
pub mod tape;
pub mod visibility;

pub use error::AuditError;
pub use ir::{
    lower_group_plan, lower_model_plan, Ir, IrBuilder, IrNode, OpKind, SourceKind, TensorId,
};
pub use liveness::{
    live_ranges, plan_arena, plan_layout, ArenaLayout, ArenaPlan, ArenaRequest, ArenaSlot,
    LiveRange,
};
pub use plan::{
    analyze_model_plan, analyze_model_plan_with, check_model_plan, ModelPlan, PlanAnalysis,
    PlanNumerics, PlanReport,
};
pub use range::{analyze_ranges, analyze_ranges_with, quantized_range, RangeAnalysis, ValueRange};
pub use tape::{audit_tape, TapeReport};
pub use visibility::{
    lint_additive_mask, lint_visibility, validate_masking_config, MaskingRatios, VisibilityReport,
};
