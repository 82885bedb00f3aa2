//! Finite-difference gradient checking.
//!
//! Used throughout the workspace's test suites to validate every autograd
//! op and every composite layer against numerical derivatives.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Outcome of a [`gradcheck`] run.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_diff: f32,
    /// Largest relative difference (normalized by magnitudes).
    pub max_rel_diff: f32,
    /// Flat index where the worst difference occurred.
    pub worst_index: usize,
}

impl GradCheckReport {
    /// True when the analytic gradient matches within tolerance.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_diff < tol || self.max_rel_diff < tol
    }
}

/// Numerically estimate `d loss / d input` with central differences.
///
/// `build` must construct a fresh graph from the given input tensor and
/// return the scalar loss value.
pub fn finite_difference_grad(
    input: &Tensor,
    eps: f32,
    mut build: impl FnMut(&Tensor) -> f32,
) -> Tensor {
    let mut grad = Tensor::zeros(input.shape().to_vec());
    let mut probe = input.clone();
    for i in 0..input.len() {
        let orig = probe.data()[i];
        probe.data_mut()[i] = orig + eps;
        let up = build(&probe);
        probe.data_mut()[i] = orig - eps;
        let down = build(&probe);
        probe.data_mut()[i] = orig;
        grad.data_mut()[i] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Compare the analytic gradient of a scalar-valued graph against central
/// differences.
///
/// `build` constructs the graph from an input tensor and returns
/// `(graph, input_var, loss_var)`.
pub fn gradcheck(
    input: &Tensor,
    eps: f32,
    mut build: impl FnMut(&Tensor) -> (Graph, Var, Var),
) -> GradCheckReport {
    let (mut g, x, loss) = build(input);
    g.backward(loss);
    let analytic = g.grad(x).cloned().unwrap_or_else(|| Tensor::zeros(input.shape().to_vec()));
    let numeric = finite_difference_grad(input, eps, |t| {
        let (g2, _, l2) = build(t);
        g2.value(l2).item()
    });
    let mut report = GradCheckReport { max_abs_diff: 0.0, max_rel_diff: 0.0, worst_index: 0 };
    for i in 0..input.len() {
        let a = analytic.data()[i];
        let n = numeric.data()[i];
        let abs = (a - n).abs();
        let rel = abs / (a.abs() + n.abs()).max(1e-4);
        if abs > report.max_abs_diff {
            report.max_abs_diff = abs;
            report.worst_index = i;
        }
        report.max_rel_diff = report.max_rel_diff.max(rel);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AttentionTable;

    #[test]
    fn finite_difference_on_quadratic() {
        // f(x) = sum(x^2) => df/dx = 2x
        let x = Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.5]);
        let g = finite_difference_grad(&x, 1e-3, |t| t.data().iter().map(|v| v * v).sum());
        for (a, b) in g.data().iter().zip([2.0, -4.0, 1.0]) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    /// Deterministic pseudo-random weights for reproducible gradchecks.
    fn det_weights(shape: Vec<usize>, salt: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|i| ((i as f32) * 0.7 + salt).sin() * 0.5).collect())
    }

    #[test]
    fn gradcheck_masked_attention_with_visibility_matrix() {
        // Full multi-head attention (the §4.3 masked-encoder primitive):
        // q/k/v projections, head split, scaled bmm scores, an additive
        // visibility mask, softmax, context, merge, output projection.
        //
        // The mask is a hand-built §4.3-style matrix over six elements:
        // [0]=caption, [1]=header(col 0), [2]=header(col 1), [3]=topic,
        // [4]=cell(0,0), [5]=cell(0,1). Everything is mutually visible
        // except header(0)↔cell(0,1) and header(1)↔cell(0,0) — a
        // non-trivial asymmetric-looking pattern that is still symmetric.
        let (n, d, heads) = (6usize, 4usize, 2usize);
        let dh = d / heads;
        let mut mask = Tensor::zeros(vec![n, n]);
        for (i, j) in [(1, 5), (5, 1), (2, 4), (4, 2)] {
            mask.data_mut()[i * n + j] = -1e9;
        }
        let x = det_weights(vec![n, d], 0.3);
        let report = gradcheck(&x, 1e-2, |t| {
            let mut g = Graph::new();
            let xv = g.leaf(t.clone(), true);
            let m = g.constant(mask.clone());
            let wq = g.constant(det_weights(vec![d, d], 1.0));
            let wk = g.constant(det_weights(vec![d, d], 2.0));
            let wv = g.constant(det_weights(vec![d, d], 3.0));
            let wo = g.constant(det_weights(vec![d, d], 4.0));
            let split = |g: &mut Graph, t: Var| {
                let r = g.reshape(t, vec![n, heads, dh]);
                g.permute(r, &[1, 0, 2])
            };
            let q = g.matmul(xv, wq);
            let k = g.matmul(xv, wk);
            let v = g.matmul(xv, wv);
            let (qh, kh, vh) = (split(&mut g, q), split(&mut g, k), split(&mut g, v));
            let scores = g.bmm_nt(qh, kh);
            let scaled = g.scale(scores, 1.0 / (dh as f32).sqrt());
            let masked = g.add(scaled, m);
            let weights = g.softmax_last(masked);
            let ctx = g.bmm(weights, vh);
            let merged = g.permute(ctx, &[1, 0, 2]);
            let flat = g.reshape(merged, vec![n, d]);
            let out = g.matmul(flat, wo);
            let l = g.sum_all(out);
            (g, xv, l)
        });
        assert!(report.passes(5e-2), "masked attention gradcheck failed: {report:?}");
    }

    #[test]
    fn gradcheck_fused_attention_with_visibility_matrix() {
        // The same layer with its attention as the one node the training
        // tape records (`Graph::attention`), over two stacked tables: the
        // six elements above under their §4.3 mask, and three more under
        // one hiding (0, 2) and (2, 0).
        let (d, heads) = (4usize, 2usize);
        let mut masks = [Tensor::zeros(vec![6, 6]), Tensor::zeros(vec![3, 3])];
        for (i, j) in [(1, 5), (5, 1), (2, 4), (4, 2)] {
            masks[0].data_mut()[i * 6 + j] = -1e9;
        }
        for i in [2, 6] {
            masks[1].data_mut()[i] = -1e9;
        }
        let x = det_weights(vec![9, d], 0.3);
        let report = gradcheck(&x, 1e-2, |t| {
            let mut g = Graph::new();
            let xv = g.leaf(t.clone(), true);
            let [wq, wk, wv, wo] =
                [1.0, 2.0, 3.0, 4.0].map(|salt| g.constant(det_weights(vec![d, d], salt)));
            let qkv = [wq, wk, wv].map(|w| g.matmul(xv, w));
            let [m0, m1] = masks.clone().map(|m| Some(g.constant(m)));
            let tables = vec![
                AttentionTable { rows: 0..6, mask: m0, keep: None },
                AttentionTable { rows: 6..9, mask: m1, keep: None },
            ];
            let att = g.attention(qkv, heads, 1.0 / ((d / heads) as f32).sqrt(), tables);
            let out = g.matmul(att, wo);
            let l = g.sum_all(out);
            (g, xv, l)
        });
        assert!(report.passes(5e-2), "fused attention gradcheck failed: {report:?}");
    }

    #[test]
    fn masked_attention_gradient_is_insensitive_to_masked_pairs() {
        // The gradient w.r.t. the mask-blocked logits must be exactly the
        // softmax of -1e9 rows: adding the mask twice changes nothing.
        let (n, d, heads) = (4usize, 4usize, 1usize);
        let x = det_weights(vec![n, d], 0.9);
        let run = |strength: f32| {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone(), true);
            let mut mask = Tensor::zeros(vec![n, n]);
            mask.data_mut()[1] = strength; // (0,1) masked
            mask.data_mut()[n] = strength; // (1,0) masked
            let m = g.constant(mask);
            let r = g.reshape(xv, vec![heads, n, d]);
            let scores = g.bmm_nt(r, r);
            let masked = g.add(scores, m);
            let w = g.softmax_last(masked);
            let l = g.sum_all(w);
            g.backward(l);
            g.grad(xv).cloned().expect("leaf grad")
        };
        let g1 = run(-1e9);
        let g2 = run(-2e9);
        for (a, b) in g1.data().iter().zip(g2.data().iter()) {
            assert!((a - b).abs() < 1e-6, "mask strength leaked into gradients");
        }
    }

    #[test]
    fn gradcheck_catches_matching_grads() {
        let x = Tensor::from_vec(vec![2, 2], vec![0.3, -0.7, 1.1, 0.05]);
        let report = gradcheck(&x, 1e-3, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let y = g.tanh(v);
            let l = g.sum_all(y);
            (g, v, l)
        });
        assert!(report.passes(1e-2), "{report:?}");
    }
}
