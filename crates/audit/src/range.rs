//! Interval + special-value abstract domain, and the range analysis that
//! pushes it through a lowered forward-plan IR.
//!
//! Every tensor is abstracted by a [`ValueRange`]: a closed interval
//! `[lo, hi]` over the values any element may take, plus three flags for
//! the IEEE special values an `f32` computation can produce (`NaN`,
//! `±inf`, `-0.0`). [`analyze_ranges`] walks an [`Ir`] tape applying one
//! transfer function per op and reports, as typed [`AuditError`]s, every
//! invariant it cannot prove from the configuration and the
//! initialization bounds:
//!
//! * [`AuditError::DegenerateNormalizer`] — a layer norm whose `eps ≤ 0`
//!   cannot bound its denominator away from zero (a constant row has
//!   variance exactly `0`).
//! * [`AuditError::UnboundedActivation`] — an interval escapes the
//!   finite `f32` range, so overflow to infinity is reachable.
//! * [`AuditError::NanReachable`] — NaN first becomes producible at an
//!   op (e.g. softmax over a row that may be entirely `-inf`).
//!
//! Transfer functions are sound but deliberately simple: plain interval
//! arithmetic in `f64`, widened outward after every op by a small
//! relative slack so `f32` round-off in the real kernels can never
//! escape the predicted interval. Two structural facts make the bounds
//! useful rather than exponentially loose: softmax output is
//! row-stochastic (so attention context lies in the convex hull of the
//! values operand), and layer norm output is bounded by `sqrt(d - 1)`
//! regardless of its input scale (the normalizer is what keeps deep
//! residual towers finite).

use crate::error::AuditError;
use crate::ir::{Ir, OpKind, SourceKind};

/// Largest finite `f32`, as the `f64` the analysis computes in.
const F32_MAX: f64 = f32::MAX as f64;
/// Relative outward widening applied after every transfer, absorbing
/// `f32` round-off in the real kernels.
const WIDEN_REL: f64 = 1e-5;
/// Absolute outward widening floor.
const WIDEN_ABS: f64 = 1e-9;
/// Global minimum of the tanh-approximated GELU (`≈ -0.170_041` at
/// `x ≈ -0.752_46`), rounded outward.
const GELU_MIN: f64 = -0.170_05;
/// `-ln(1e-12)`: the cross-entropy clamp ceiling, rounded outward.
const CE_MAX: f64 = 27.631_022;
/// Extra relative slack on the layer-norm `sqrt(d-1)` bound: the mean
/// and variance are themselves computed in `f32`, so cancellation error
/// scales worse than one ulp per op.
const LN_SLACK: f64 = 1e-3;

/// Abstract value of one tensor: interval plus IEEE special-value flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRange {
    /// Inclusive lower bound over all elements (finite unless
    /// [`ValueRange::can_be_inf`]).
    pub lo: f64,
    /// Inclusive upper bound over all elements.
    pub hi: f64,
    /// Whether any element may be NaN.
    pub can_be_nan: bool,
    /// Whether any element may be `±inf`.
    pub can_be_inf: bool,
    /// Whether any element may be the negative zero `-0.0`.
    pub can_be_neg_zero: bool,
}

impl ValueRange {
    /// The exact constant `c`.
    pub fn exact(c: f64) -> Self {
        Self { lo: c, hi: c, can_be_nan: false, can_be_inf: false, can_be_neg_zero: false }
            .normalized()
    }

    /// A finite interval `[lo, hi]` with no special values beyond what
    /// the interval itself implies.
    pub fn bounded(lo: f64, hi: f64) -> Self {
        Self { lo, hi, can_be_nan: false, can_be_inf: false, can_be_neg_zero: false }.normalized()
    }

    /// Derive the implied flags: an interval that escapes the finite
    /// `f32` range can overflow to infinity, and any interval admitting
    /// negative values admits `-0.0` (gradual underflow rounds tiny
    /// negatives to the negative zero).
    fn normalized(mut self) -> Self {
        if self.lo.is_nan() || self.hi.is_nan() {
            self.can_be_nan = true;
            self.lo = f64::NEG_INFINITY;
            self.hi = f64::INFINITY;
        }
        if self.lo < -F32_MAX || self.hi > F32_MAX {
            self.can_be_inf = true;
        }
        if self.lo < 0.0 {
            self.can_be_neg_zero = true;
        }
        self
    }

    /// Widen outward by a small relative + absolute slack so `f32`
    /// rounding in the real kernels stays inside the prediction.
    fn widened(mut self) -> Self {
        if self.lo.is_finite() {
            self.lo -= WIDEN_REL * self.lo.abs() + WIDEN_ABS;
        }
        if self.hi.is_finite() {
            self.hi += WIDEN_REL * self.hi.abs() + WIDEN_ABS;
        }
        self.normalized()
    }

    /// Whether the interval (ignoring flags) escapes finite `f32`.
    fn escapes_f32(&self) -> bool {
        self.lo < -F32_MAX || self.hi > F32_MAX
    }

    /// Whether `0` lies inside the interval.
    fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// Smallest range covering both operands.
    pub fn union(self, other: Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            can_be_nan: self.can_be_nan || other.can_be_nan,
            can_be_inf: self.can_be_inf || other.can_be_inf,
            can_be_neg_zero: self.can_be_neg_zero || other.can_be_neg_zero,
        }
        .normalized()
    }

    /// Soundness predicate: is the concrete `f32` value explained by
    /// this abstract value?
    pub fn contains(&self, v: f32) -> bool {
        if v.is_nan() {
            return self.can_be_nan;
        }
        if v.is_infinite() {
            return self.can_be_inf;
        }
        if v == 0.0 && v.is_sign_negative() && !self.can_be_neg_zero {
            return false;
        }
        self.lo <= f64::from(v) && f64::from(v) <= self.hi
    }

    // ------------------------------------------------------------------
    // Transfer functions
    // ------------------------------------------------------------------

    /// `a + b` elementwise (broadcasting does not change element ranges).
    /// An inherent method rather than `std::ops::Add`: it is a widening
    /// transfer function, not exact arithmetic, and the explicit call
    /// keeps that visible at use sites.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, b: Self) -> Self {
        Self {
            lo: self.lo + b.lo,
            hi: self.hi + b.hi,
            // +inf + -inf = NaN; with a single "any infinity" flag the
            // sound over-approximation is: both operands infinite.
            can_be_nan: self.can_be_nan || b.can_be_nan || (self.can_be_inf && b.can_be_inf),
            can_be_inf: self.can_be_inf || b.can_be_inf,
            // x + y rounds to -0 only when both addends are -0, or the
            // true sum underflows from below (covered by `lo < 0`).
            can_be_neg_zero: self.can_be_neg_zero && b.can_be_neg_zero,
        }
        .normalized()
        .widened()
    }

    /// Interval product endpoints (helper for matmul-family transfers).
    fn mul_interval(self, b: Self) -> (f64, f64) {
        let p = [self.lo * b.lo, self.lo * b.hi, self.hi * b.lo, self.hi * b.hi];
        let lo = p.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // 0 * inf products produce NaN endpoints; treat as full range.
        if lo.is_nan() || hi.is_nan() {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            (lo, hi)
        }
    }

    /// Inner product of `k`-length vectors drawn from `self` and `b`:
    /// the sum of `k` values each inside the elementwise product
    /// interval. Shared by `matmul`, `matmul_nt`, `bmm`, `bmm_nt`.
    pub fn dot(self, b: Self, k: usize) -> Self {
        if k == 0 {
            return Self::exact(0.0);
        }
        let (plo, phi) = self.mul_interval(b);
        let kf = k as f64;
        Self {
            lo: kf * plo,
            hi: kf * phi,
            can_be_nan: self.can_be_nan
                || b.can_be_nan
                || ((self.can_be_inf || b.can_be_inf)
                    && (self.contains_zero() || b.contains_zero()))
                || (self.can_be_inf && b.can_be_inf),
            can_be_inf: self.can_be_inf || b.can_be_inf,
            can_be_neg_zero: false, // implied flag re-derived by normalized()
        }
        .normalized()
        .widened()
    }

    /// Row-stochastic matmul: when the left operand's rows are convex
    /// weights (softmax output, or a mention-averaging matrix), every
    /// output element is a convex combination of the right operand's
    /// elements and stays inside its hull. Far tighter than [`Self::dot`].
    fn convex_combination(self, values: Self) -> Self {
        Self {
            lo: values.lo,
            hi: values.hi,
            // A zero weight against an infinite value is 0 * inf = NaN.
            can_be_nan: self.can_be_nan || values.can_be_nan || values.can_be_inf,
            can_be_inf: values.can_be_inf,
            can_be_neg_zero: values.can_be_neg_zero,
        }
        .normalized()
        .widened()
    }

    /// `c * x` for a constant `c`.
    pub fn scale(self, c: f64) -> Self {
        let (a, b) = (self.lo * c, self.hi * c);
        Self {
            lo: a.min(b),
            hi: a.max(b),
            can_be_nan: self.can_be_nan || (self.can_be_inf && c == 0.0),
            can_be_inf: self.can_be_inf && c != 0.0,
            can_be_neg_zero: false,
        }
        .normalized()
        .widened()
    }

    /// Tanh-approximated GELU. Monotone outside a single dip around
    /// `x ≈ -0.76`, so the extrema are the endpoints plus (when the
    /// interval reaches below zero) the global minimum `GELU_MIN`.
    /// `gelu(-inf)` is `0.5 · (-inf) · 0 = NaN` in the runtime kernel.
    pub fn gelu(self) -> Self {
        let g_lo = gelu64(self.lo.max(-F32_MAX));
        let g_hi = gelu64(self.hi.min(F32_MAX));
        let mut lo = g_lo.min(g_hi);
        if self.lo < 0.0 {
            lo = lo.min(GELU_MIN);
        }
        Self {
            lo,
            hi: g_lo.max(g_hi),
            can_be_nan: self.can_be_nan || self.can_be_inf,
            can_be_inf: self.can_be_inf,
            can_be_neg_zero: false,
        }
        .normalized()
        .widened()
    }

    /// Stabilized softmax over the last axis: outputs are probabilities
    /// in `[0, 1]` exactly (each term `exp(x - max) ≤ 1` and the sum is
    /// at least the term itself, so the quotient cannot round above 1).
    /// NaN is reachable only when the input carries NaN, or carries an
    /// infinity: `+inf` gives `inf - inf` in the max-shift, and a row of
    /// all `-inf` gives `exp(-inf - -inf) = exp(NaN)`.
    pub fn softmax(self) -> Self {
        Self {
            lo: 0.0,
            hi: 1.0,
            can_be_nan: self.can_be_nan || self.can_be_inf,
            can_be_inf: false,
            can_be_neg_zero: false,
        }
    }

    /// Cross-entropy with the runtime's `max(p, 1e-12)` clamp: the mean
    /// negative log-likelihood lies in `[0, -ln(1e-12)]`.
    pub fn cross_entropy(self) -> Self {
        Self {
            lo: 0.0,
            hi: CE_MAX,
            can_be_nan: self.can_be_nan || self.can_be_inf,
            can_be_inf: false,
            can_be_neg_zero: false,
        }
        .widened()
    }

    /// Layer norm over rows of width `d` with affine `gamma`/`beta`.
    ///
    /// For any finite row, the standardized values satisfy
    /// `|x̂_j| ≤ sqrt((d-1) · var / (var + eps)) < sqrt(d - 1)` — the
    /// zero-mean constraint caps how far one coordinate can sit from the
    /// rest in units of the row's own standard deviation. The bound
    /// holds for *any* input scale, which is what keeps the residual
    /// tower's ranges from compounding layer over layer. Requires
    /// `eps > 0`; the caller reports [`AuditError::DegenerateNormalizer`]
    /// otherwise (a constant row has variance exactly zero).
    pub fn layer_norm(self, gamma: Self, beta: Self, eps: f64, d: usize) -> Self {
        // NaN-safe "not provably positive": NaN eps is degenerate too.
        let degenerate = eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater);
        let bound = (d.saturating_sub(1) as f64).sqrt() * (1.0 + LN_SLACK) + WIDEN_ABS;
        let xhat = Self {
            lo: -bound,
            hi: bound,
            // An infinite input makes the variance infinite and the
            // inverse scale zero: inf * 0 = NaN.
            can_be_nan: self.can_be_nan || self.can_be_inf || degenerate,
            can_be_inf: degenerate,
            can_be_neg_zero: true,
        }
        .normalized();
        // y = x̂ * gamma + beta, elementwise.
        let (plo, phi) = xhat.mul_interval(gamma);
        Self {
            lo: plo + beta.lo,
            hi: phi + beta.hi,
            can_be_nan: xhat.can_be_nan || gamma.can_be_nan || beta.can_be_nan,
            can_be_inf: xhat.can_be_inf || gamma.can_be_inf || beta.can_be_inf,
            can_be_neg_zero: false,
        }
        .normalized()
        .widened()
    }
}

impl std::fmt::Display for ValueRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>10.3e}, {:>10.3e}]", self.lo, self.hi)?;
        if self.can_be_nan {
            write!(f, " nan?")?;
        }
        if self.can_be_inf {
            write!(f, " inf?")?;
        }
        if self.can_be_neg_zero {
            write!(f, " -0?")?;
        }
        Ok(())
    }
}

/// `f64` twin of the runtime `gelu_fwd` kernel (same tanh constant). Its
/// f64 libm `tanh` only bounds intervals, so it is the one libm `tanh`
/// call the libm-tanh lint (`scripts/lint_libm_tanh.sh`) allows outside
/// the kernel's test oracle.
fn gelu64(x: f64) -> f64 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

/// Result of a full range analysis over an IR tape.
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    /// Abstract value per IR tensor, indexed by node id.
    pub ranges: Vec<ValueRange>,
    /// Every invariant the analysis could not prove, in tape order.
    pub errors: Vec<AuditError>,
    /// Largest provable upper bound, over all masked softmaxes, on the
    /// attention weight a masked pair can receive: `exp(hi + penalty -
    /// lo)` with the diagonal guaranteed visible. `None` when the plan
    /// has no visibility mask. At the runtime's `-1e9` penalty this is
    /// `exp(-1e9 + O(1))` — the masked logits provably vanish.
    pub masked_weight_bound: Option<f64>,
}

/// Abstract value of a source node, derived from the plan's numerics.
fn source_range(ir: &Ir, kind: &SourceKind) -> ValueRange {
    let n = ir.numerics;
    match kind {
        // Embedding tables: N(0, std) via Box–Muller is hard-bounded
        // (see turl_tensor::normal_init_bound); entity rows initialized
        // from name averages are convex combinations of word rows and
        // stay inside the same bound.
        SourceKind::Table => ValueRange::bounded(-n.embed_init_bound, n.embed_init_bound),
        // Linear weights: kaiming uniform, exactly U(-1/sqrt(fan_in), ·).
        SourceKind::Weight { fan_in } => {
            let b = (fan_in.max(&1).to_owned() as f64).sqrt().recip();
            ValueRange::bounded(-b, b)
        }
        SourceKind::Bias | SourceKind::Beta | SourceKind::ZeroConst => ValueRange::exact(0.0),
        SourceKind::Gamma => ValueRange::exact(1.0),
        // Additive visibility mask: 0 for visible pairs, `penalty` for
        // masked ones. A -inf penalty is representable (and exempt from
        // the unbounded-activation check: -inf logits are legitimate
        // *before* a softmax — the danger surfaces there instead).
        SourceKind::Mask => {
            let p = n.mask_penalty;
            ValueRange {
                lo: p.min(0.0),
                hi: 0.0,
                can_be_nan: p.is_nan(),
                can_be_inf: p.is_infinite(),
                can_be_neg_zero: false,
            }
            .normalized()
        }
        // Mention-averaging matrix: rows of 1/len weights (or all zero
        // for a mention-less entity).
        SourceKind::AvgMatrix => ValueRange::bounded(0.0, 1.0),
    }
}

/// The abstract value of a block-quantized (`i8b32`) parameter: every
/// stored scalar is `q · scale` with `q ∈ [-127, 127]` and
/// `scale ≤ max_scale`, so the dequantized values are hard-bounded by
/// `±127 · max_scale` — usually a *tighter* interval than the init-time
/// bound the analyzer assumes for dense parameters, since quantization
/// happens after training has shrunk the weights.
pub fn quantized_range(max_scale: f64) -> ValueRange {
    let b = 127.0 * max_scale.abs();
    ValueRange::bounded(-b, b)
}

/// Run the abstract interpreter over a lowered IR.
///
/// Returns per-tensor ranges plus every unprovable invariant as a typed
/// error. Errors are reported at their *origin*: the first node where
/// NaN becomes reachable, the first interval to escape `f32`, each
/// degenerate normalizer — downstream propagation of an already-reported
/// flag is not re-reported.
pub fn analyze_ranges(ir: &Ir) -> RangeAnalysis {
    analyze_ranges_with(ir, &[])
}

/// [`analyze_ranges`] with per-source range overrides, keyed by the
/// source node's label.
///
/// This is how dtype information flows into the analyzer: a caller that
/// knows some parameters are block-quantized (e.g. `turl infer
/// --artifact` on an int8 artifact) replaces their init-time ranges with
/// the exact dequantization bound from [`quantized_range`], and the
/// NaN-reachability / bounded-activation / sound-normalizer proofs hold
/// for the quantized forward rather than the dense one. Labels that
/// match no source in the IR are ignored.
pub fn analyze_ranges_with(ir: &Ir, overrides: &[(String, ValueRange)]) -> RangeAnalysis {
    let mut ranges: Vec<ValueRange> = Vec::with_capacity(ir.len());
    let mut errors = Vec::new();
    let mut masked_weight_bound: Option<f64> = None;

    for id in 0..ir.len() {
        let node = ir.node_at(id);
        let input = |i: usize| ranges[node.inputs[i].index()];
        let k_inner = |of: usize| *ir.node_at(node.inputs[of].index()).shape.last().unwrap_or(&0);
        let r = match &node.kind {
            OpKind::Source(kind) => overrides
                .iter()
                .find(|(label, _)| *label == node.label)
                .map(|(_, r)| *r)
                .unwrap_or_else(|| source_range(ir, kind)),
            // Gathered rows take the table's range; reshapes, permutes
            // and concats move values without changing them.
            OpKind::Gather | OpKind::Reshape | OpKind::Permute { .. } => input(0),
            OpKind::ConcatCols | OpKind::ConcatRows => {
                let mut acc = input(0);
                for i in 1..node.inputs.len() {
                    acc = acc.union(input(i));
                }
                acc
            }
            OpKind::Add => input(0).add(input(1)),
            OpKind::Mask => {
                // Additive mask application: each logit is shifted by a
                // value in [penalty, 0].
                let mask = input(1);
                ValueRange {
                    lo: input(0).lo + mask.lo,
                    hi: input(0).hi + mask.hi,
                    can_be_nan: input(0).can_be_nan || mask.can_be_nan,
                    can_be_inf: input(0).can_be_inf || mask.can_be_inf,
                    can_be_neg_zero: false,
                }
                .normalized()
                .widened()
            }
            OpKind::Scale { factor } => input(0).scale(*factor),
            OpKind::Gelu => input(0).gelu(),
            OpKind::Softmax => {
                // With a finite additive mask upstream, bound the weight
                // any masked pair can receive: its logit is at most
                // hi + penalty while the guaranteed-visible diagonal
                // keeps the row max at least lo, and the stabilized
                // denominator is at least exp(0) = 1.
                let pre = node.inputs[0].index();
                if matches!(ir.node_at(pre).kind, OpKind::Mask) {
                    let scores = ranges[ir.node_at(pre).inputs[0].index()];
                    let p = ir.numerics.mask_penalty;
                    if p.is_finite() && scores.lo.is_finite() && scores.hi.is_finite() {
                        let w = (scores.hi + p - scores.lo).exp();
                        masked_weight_bound =
                            Some(masked_weight_bound.map_or(w, |prev: f64| prev.max(w)));
                    }
                }
                input(0).softmax()
            }
            OpKind::MatMul | OpKind::Bmm => {
                // Row-stochastic left operands (softmax output, the
                // mention-averaging matrix) keep the result inside the
                // right operand's hull; a mention-less entity's all-zero
                // weight row additionally admits exact 0.
                let lhs = ir.node_at(node.inputs[0].index());
                match lhs.kind {
                    OpKind::Softmax => input(0).convex_combination(input(1)),
                    OpKind::Source(SourceKind::AvgMatrix) => {
                        input(0).convex_combination(input(1)).union(ValueRange::exact(0.0))
                    }
                    _ => input(0).dot(input(1), k_inner(0)),
                }
            }
            OpKind::MatMulNT | OpKind::BmmNT => input(0).dot(input(1), k_inner(0)),
            OpKind::LayerNorm { eps } => {
                let d = *node.shape.last().unwrap_or(&1);
                if eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    errors.push(AuditError::DegenerateNormalizer {
                        tensor: node.label.clone(),
                        eps: *eps,
                    });
                }
                input(0).layer_norm(input(1), input(2), *eps, d)
            }
            OpKind::CrossEntropy => input(0).cross_entropy(),
        };

        // Origin-only reporting: flag transitions, not propagation.
        let any_input =
            |f: fn(&ValueRange) -> bool| node.inputs.iter().any(|t| f(&ranges[t.index()]));
        if r.can_be_nan && !any_input(|v| v.can_be_nan) {
            errors.push(AuditError::NanReachable {
                op: node.kind.name(),
                tensor: node.label.clone(),
            });
        }
        let exempt = matches!(node.kind, OpKind::Mask | OpKind::Source(SourceKind::Mask));
        if r.escapes_f32() && !exempt && !any_input(|v| v.escapes_f32()) {
            errors.push(AuditError::UnboundedActivation {
                tensor: node.label.clone(),
                lo: r.lo,
                hi: r.hi,
            });
        }
        ranges.push(r);
    }

    RangeAnalysis { ranges, errors, masked_weight_bound }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_add_is_sound_for_endpoints() {
        let a = ValueRange::bounded(-1.0, 2.0);
        let b = ValueRange::bounded(0.5, 3.0);
        let c = a.add(b);
        assert!(c.contains(-0.5) && c.contains(5.0));
        assert!(!c.contains(6.0));
        assert!(!c.can_be_nan && !c.can_be_inf);
    }

    #[test]
    fn dot_scales_with_inner_dim() {
        let a = ValueRange::bounded(-1.0, 1.0);
        let w = ValueRange::bounded(-0.5, 0.5);
        let y = a.dot(w, 8);
        assert!(y.contains(4.0) && y.contains(-4.0));
        assert!(!y.contains(4.5));
    }

    #[test]
    fn overflow_is_flagged_as_unbounded() {
        let a = ValueRange::bounded(-2e38, 2e38);
        let b = a.add(a);
        assert!(b.can_be_inf, "4e38 escapes f32");
        assert!(b.contains(f32::INFINITY));
    }

    #[test]
    fn gelu_covers_the_dip_and_negative_zero() {
        let r = ValueRange::bounded(-10.0, 3.0).gelu();
        // gelu(-0.75246) ≈ -0.170041 (the global dip) must be inside.
        assert!(r.contains(-0.170_041));
        assert!(r.contains(2.996));
        assert!(r.can_be_neg_zero, "gelu(-30) rounds to -0.0 in f32");
        assert!(!r.can_be_nan);
        // Entirely positive input: strictly positive output.
        let p = ValueRange::bounded(1.0, 2.0).gelu();
        assert!(p.lo > 0.0 && !p.can_be_neg_zero);
    }

    #[test]
    fn softmax_is_a_probability_and_kills_neg_zero() {
        let r = ValueRange::bounded(-1e9, 40.0).softmax();
        assert_eq!((r.lo, r.hi), (0.0, 1.0));
        assert!(!r.can_be_nan && !r.can_be_inf && !r.can_be_neg_zero);
        // An infinite logit makes NaN reachable (inf - inf, all--inf rows).
        let inf_in = ValueRange::bounded(-1.0, 1.0);
        let inf_in = ValueRange { can_be_inf: true, ..inf_in };
        assert!(inf_in.softmax().can_be_nan);
    }

    #[test]
    fn layer_norm_bound_is_scale_free() {
        let g = ValueRange::exact(1.0);
        let b = ValueRange::exact(0.0);
        let tame = ValueRange::bounded(-1.0, 1.0).layer_norm(g, b, 1e-5, 64);
        let wild = ValueRange::bounded(-1e30, 1e30).layer_norm(g, b, 1e-5, 64);
        let cap = (63f64).sqrt() * 1.01;
        for r in [tame, wild] {
            assert!(r.hi <= cap && r.lo >= -cap, "ln bound {r:?}");
            assert!(!r.can_be_nan);
        }
        let degen = ValueRange::bounded(-1.0, 1.0).layer_norm(g, b, 0.0, 64);
        assert!(degen.can_be_nan);
    }

    #[test]
    fn convex_combination_stays_in_hull() {
        let w = ValueRange::bounded(0.0, 1.0);
        let v = ValueRange::bounded(-3.0, 7.0);
        let y = w.convex_combination(v);
        assert!(y.contains(-3.0) && y.contains(7.0) && !y.contains(8.0));
    }

    #[test]
    fn contains_distinguishes_special_values() {
        let r = ValueRange::bounded(0.0, 1.0);
        assert!(!r.contains(f32::NAN));
        assert!(!r.contains(f32::INFINITY));
        assert!(!r.contains(-0.0));
        let n = ValueRange::bounded(-1.0, 1.0);
        assert!(n.contains(-0.0), "negative interval admits -0.0");
    }
}
