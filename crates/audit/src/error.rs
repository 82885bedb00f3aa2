//! Typed audit violations.

use std::fmt;

/// A violation found by one of the auditors.
///
/// Every variant carries the operation or structure where the violation
/// was detected plus the offending dimensions/indices, so a failure
/// message pinpoints the bug without re-running anything.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// An operation received tensors whose shapes cannot combine.
    ShapeMismatch {
        /// The operation (e.g. `matmul`, `concat_cols`).
        op: &'static str,
        /// Shapes of the operands, in order.
        shapes: Vec<Vec<usize>>,
        /// What specifically failed (e.g. `inner dims 312 vs 300`).
        detail: String,
    },
    /// An index-based gather refers past the end of its table.
    IndexOutOfRange {
        /// The operation (e.g. `gather`).
        op: &'static str,
        /// The offending index.
        index: usize,
        /// Number of rows actually available.
        len: usize,
    },
    /// A model hyper-parameter combination is structurally invalid.
    BadConfig {
        /// Configuration field (e.g. `d_model % n_heads`).
        field: &'static str,
        /// Why it is invalid.
        detail: String,
    },
    /// The visibility matrix is not symmetric at `(i, j)`.
    AsymmetricVisibility {
        /// Row where `visible(i, j) != visible(j, i)`.
        i: usize,
        /// Column of the asymmetric pair.
        j: usize,
    },
    /// A pair is visible that §4.3 requires to be masked.
    OverVisible {
        /// Sequence index of the attending element.
        i: usize,
        /// Sequence index of the attended element.
        j: usize,
        /// Description of element `i` (e.g. `header(col 0)`).
        a: String,
        /// Description of element `j`.
        b: String,
    },
    /// A pair is masked that §4.3 requires to be visible.
    UnderVisible {
        /// Sequence index of the attending element.
        i: usize,
        /// Sequence index of the attended element.
        j: usize,
        /// Description of element `i`.
        a: String,
        /// Description of element `j`.
        b: String,
    },
    /// An additive attention mask holds a value that is neither `0`
    /// (visible) nor a large negative number (masked).
    BadMaskValue {
        /// Row of the offending entry.
        i: usize,
        /// Column of the offending entry.
        j: usize,
        /// The entry itself.
        value: f32,
    },
    /// A §4.4 masking ratio is outside its valid open interval.
    RatioOutOfRange {
        /// Configuration field (e.g. `mer_mention_keep_share`).
        field: &'static str,
        /// The configured value.
        value: f64,
        /// Inclusive-exclusive description of the valid range.
        expected: &'static str,
    },
    /// A tape node's parent does not precede it (tape order broken).
    TapeOrder {
        /// Index of the child node.
        node: usize,
        /// Index of the offending parent.
        parent: usize,
    },
    /// A node's accumulated gradient has a different shape than its value.
    GradShapeMismatch {
        /// Index of the node.
        node: usize,
        /// Shape of the forward value.
        value: Vec<usize>,
        /// Shape of the accumulated gradient.
        grad: Vec<usize>,
    },
    /// A gradient-requiring leaf is referenced by no operation, so it can
    /// never receive a gradient.
    OrphanGradLeaf {
        /// Index of the orphaned leaf.
        node: usize,
    },
    /// A leaf tensor contains a NaN or infinity.
    NonFiniteLeaf {
        /// Index of the leaf node.
        node: usize,
        /// Flat element index of the first non-finite value.
        index: usize,
        /// The non-finite value found.
        value: f32,
    },
    /// A `--metrics-out` stream holds a line that is not a schema-valid
    /// event (bad JSON, or reserved fields missing/mistyped).
    MetricsSchema {
        /// Parser message, naming the 1-based line.
        detail: String,
    },
    /// A metrics stream recorded no events or no spans — the
    /// instrumentation layer was silently dead.
    DeadInstrumentation {
        /// What exactly was missing.
        detail: String,
    },
    /// Value-range analysis found an op whose output may contain NaN
    /// even under the proven pre-conditions (init bounds + config).
    NanReachable {
        /// IR op kind where NaN first becomes reachable (e.g. `softmax`).
        op: &'static str,
        /// Label of the IR tensor whose values may be NaN.
        tensor: String,
    },
    /// Value-range analysis found an activation whose interval escapes
    /// the finite `f32` range (overflow to infinity is reachable).
    UnboundedActivation {
        /// Label of the IR tensor whose magnitude is unbounded.
        tensor: String,
        /// Lower end of the inferred interval.
        lo: f64,
        /// Upper end of the inferred interval.
        hi: f64,
    },
    /// A normalization op cannot prove its denominator nonzero: layer
    /// norm with `eps <= 0` divides by zero on a constant row.
    DegenerateNormalizer {
        /// Label of the IR tensor produced by the degenerate op.
        tensor: String,
        /// The configured epsilon that fails to bound the denominator.
        eps: f64,
    },
    /// An observed §4.4 mask-selection ratio drifted beyond tolerance
    /// from its configured target.
    MaskRatioDrift {
        /// Which ratio (`mlm` or `mer`).
        field: &'static str,
        /// Observed selected/candidates ratio.
        observed: f64,
        /// Configured target (0.20 / 0.60 at paper defaults).
        target: f64,
        /// Absolute tolerance the drift exceeded.
        tolerance: f64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ShapeMismatch { op, shapes, detail } => {
                write!(f, "shape mismatch in `{op}` over {shapes:?}: {detail}")
            }
            AuditError::IndexOutOfRange { op, index, len } => {
                write!(f, "index {index} out of range in `{op}` (only {len} rows)")
            }
            AuditError::BadConfig { field, detail } => {
                write!(f, "invalid configuration `{field}`: {detail}")
            }
            AuditError::AsymmetricVisibility { i, j } => {
                write!(f, "visibility matrix asymmetric at ({i}, {j})")
            }
            AuditError::OverVisible { i, j, a, b } => {
                write!(f, "visibility leak: {a} (seq {i}) must not see {b} (seq {j})")
            }
            AuditError::UnderVisible { i, j, a, b } => {
                write!(f, "visibility hole: {a} (seq {i}) must see {b} (seq {j})")
            }
            AuditError::BadMaskValue { i, j, value } => {
                write!(f, "additive mask entry ({i}, {j}) = {value} is neither 0 nor ≤ -1e8")
            }
            AuditError::RatioOutOfRange { field, value, expected } => {
                write!(f, "masking ratio `{field}` = {value} outside {expected}")
            }
            AuditError::TapeOrder { node, parent } => {
                write!(f, "tape order violated: node {node} lists parent {parent} ≥ itself")
            }
            AuditError::GradShapeMismatch { node, value, grad } => {
                write!(f, "node {node}: grad shape {grad:?} != value shape {value:?}")
            }
            AuditError::OrphanGradLeaf { node } => {
                write!(f, "leaf {node} requires grad but is used by no operation")
            }
            AuditError::NonFiniteLeaf { node, index, value } => {
                write!(f, "leaf {node} holds non-finite value {value} at element {index}")
            }
            AuditError::MetricsSchema { detail } => {
                write!(f, "metrics stream schema violation: {detail}")
            }
            AuditError::DeadInstrumentation { detail } => {
                write!(f, "instrumentation dead: {detail}")
            }
            AuditError::NanReachable { op, tensor } => {
                write!(f, "NaN reachable at `{op}` output `{tensor}`")
            }
            AuditError::UnboundedActivation { tensor, lo, hi } => {
                write!(f, "activation `{tensor}` unbounded: range [{lo:.3e}, {hi:.3e}] escapes f32")
            }
            AuditError::DegenerateNormalizer { tensor, eps } => {
                write!(
                    f,
                    "degenerate normalizer at `{tensor}`: eps = {eps} cannot prove a nonzero \
                     denominator"
                )
            }
            AuditError::MaskRatioDrift { field, observed, target, tolerance } => {
                write!(
                    f,
                    "mask ratio `{field}` drifted: observed {observed:.4} vs target {target:.2} \
                     (tolerance {tolerance:.4})"
                )
            }
        }
    }
}

impl std::error::Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_op_and_dims() {
        let e = AuditError::ShapeMismatch {
            op: "matmul",
            shapes: vec![vec![2, 3], vec![4, 5]],
            detail: "inner dims 3 vs 4".into(),
        };
        let text = e.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("3 vs 4"));
    }

    #[test]
    fn display_locates_visibility_violations() {
        let e = AuditError::OverVisible {
            i: 1,
            j: 5,
            a: "header(col 0)".into(),
            b: "cell(0, 1)".into(),
        };
        let text = e.to_string();
        assert!(text.contains("header(col 0)"));
        assert!(text.contains("seq 5"));
    }
}
