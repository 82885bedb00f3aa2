//! Autograd-tape auditing.
//!
//! [`audit_tape`] walks a built `turl_tensor::Graph` and verifies the
//! structural invariants the backward pass silently relies on:
//!
//! 1. **Topological order** — every node's parents precede it on the tape.
//! 2. **Gradient shapes** — any gradient the tape holds matches its
//!    node's recorded value shape exactly. After `backward` that is what
//!    the sweep did not release: leaf gradients, and the `dY` of every
//!    `Product` or `Rows` part not yet taken.
//! 3. **No orphaned grad leaves** — a leaf created with `requires_grad`,
//!    or any parameter leaf, must be consumed by at least one op,
//!    otherwise its gradient can never be populated and the optimizer
//!    would silently skip it. (A consumed `Product` or `Rows` leaf
//!    carries no gradient on the tape by design: its `matmul` keeps the
//!    factors, its gathers their rows.)
//! 4. **Finite leaves** (optional) — leaf values contain no NaN/inf; a
//!    single poisoned embedding row corrupts every step downstream.

use crate::error::AuditError;
use turl_tensor::Graph;

/// Summary of a clean tape audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeReport {
    /// Total nodes on the tape.
    pub n_nodes: usize,
    /// Leaves (nodes with no parents and no backward closure).
    pub n_leaves: usize,
    /// Nodes participating in gradient flow.
    pub n_grad_nodes: usize,
}

/// Check every structural invariant of `g`'s tape.
///
/// Returns all violations found (not just the first) so a corrupted
/// graph can be diagnosed in one pass. `check_finite` additionally scans
/// leaf values for NaN/inf; it is O(total elements), so callers gate it
/// behind `debug_assertions`.
pub fn audit_tape(g: &Graph, check_finite: bool) -> Result<TapeReport, Vec<AuditError>> {
    let mut errors = Vec::new();
    let mut consumed = vec![false; g.len()];
    let mut n_leaves = 0usize;
    let mut n_grad_nodes = 0usize;

    for v in g.vars() {
        let idx = v.index();
        for &p in g.parents(v) {
            if p.index() >= idx {
                errors.push(AuditError::TapeOrder { node: idx, parent: p.index() });
            }
            if p.index() < consumed.len() {
                consumed[p.index()] = true;
            }
        }
        if let Some(grad) = g.held_grad_shape(v).filter(|&grad| grad != g.shape(v)) {
            errors.push(AuditError::GradShapeMismatch {
                node: idx,
                value: g.shape(v).to_vec(),
                grad: grad.to_vec(),
            });
        }
        if g.needs_grad(v) {
            n_grad_nodes += 1;
        }
        if g.is_leaf(v) {
            n_leaves += 1;
            if check_finite {
                if let Some((i, &x)) =
                    g.value(v).data().iter().enumerate().find(|(_, x)| !x.is_finite())
                {
                    errors.push(AuditError::NonFiniteLeaf { node: idx, index: i, value: x });
                }
            }
        }
    }

    // Orphan check needs the full consumption map, so it runs second.
    for v in g.vars() {
        let trained = g.needs_grad(v) || g.grad_form(v).is_some();
        if g.is_leaf(v) && trained && !consumed[v.index()] {
            errors.push(AuditError::OrphanGradLeaf { node: v.index() });
        }
    }

    if errors.is_empty() {
        Ok(TapeReport { n_nodes: g.len(), n_leaves, n_grad_nodes })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_tensor::{GradForm, Tensor};

    #[test]
    fn clean_graph_passes_and_reports_counts() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]), true);
        let b = g.constant(Tensor::from_vec(vec![2, 2], vec![0.5; 4]));
        let c = g.mul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        let report = audit_tape(&g, true).expect("clean tape");
        assert_eq!(report.n_nodes, g.len());
        assert_eq!(report.n_leaves, 2);
        assert!(report.n_grad_nodes >= 3);
    }

    #[test]
    fn non_finite_leaf_is_detected_only_when_requested() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![3], vec![1.0, f32::NAN, 3.0]), true);
        let loss = g.sum_all(a);
        g.backward(loss);

        let errs = audit_tape(&g, true).expect_err("NaN leaf must fail");
        assert!(errs
            .iter()
            .any(|e| matches!(e, AuditError::NonFiniteLeaf { node: 0, index: 1, .. })));
        // Without the finite check the same tape is structurally fine.
        assert!(audit_tape(&g, false).is_ok());
    }

    #[test]
    fn orphaned_grad_leaf_is_detected() {
        let mut g = Graph::new();
        let _orphan = g.leaf(Tensor::from_vec(vec![2], vec![1.0, 2.0]), true);
        let b = g.leaf(Tensor::from_vec(vec![2], vec![3.0, 4.0]), true);
        let _loss = g.sum_all(b);
        let errs = audit_tape(&g, false).expect_err("orphan must fail");
        assert!(errs.iter().any(|e| matches!(e, AuditError::OrphanGradLeaf { node: 0 })));
    }

    #[test]
    fn deferred_leaf_needs_a_reader_but_no_gradient() {
        let weight =
            || std::sync::Arc::new(Tensor::from_vec(vec![2, 2], vec![1.0, 0.5, -0.5, 2.0]));
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1, 2], vec![3.0, 4.0]), true);
        let w = g.param_leaf(weight(), GradForm::Product);
        let y = g.matmul(x, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(w).is_none(), "the tape formed a product's gradient");
        let report = audit_tape(&g, true).expect("a consumed `Product` leaf is clean");
        assert_eq!(report.n_leaves, 2);
        // Bound but never read: as lost to the optimizer as a plain orphan.
        let unread = g.param_leaf(weight(), GradForm::Product);
        let errs = audit_tape(&g, false).expect_err("orphan must fail");
        assert_eq!(errs, vec![AuditError::OrphanGradLeaf { node: unread.index() }]);
    }

    #[test]
    fn gathered_leaf_needs_a_reader_but_no_gradient() {
        let table = || std::sync::Arc::new(Tensor::from_vec(vec![3, 2], vec![0.5; 6]));
        let mut g = Graph::new();
        let w = g.param_leaf(table(), GradForm::Rows);
        let rows = g.index_select0(w, &[2, 0, 2]);
        let loss = g.sum_all(rows);
        g.backward(loss);
        // A swept tape: `rows` has no value left, only its `[3, 2]` dY.
        assert!(g.is_released(rows) && g.held_grad_shape(rows) == Some(&[3, 2][..]));
        let report = audit_tape(&g, true).expect("a consumed `Rows` leaf is clean");
        assert_eq!((report.n_leaves, report.n_nodes), (1, 3));
        let unread = g.param_leaf(table(), GradForm::Rows);
        let errs = audit_tape(&g, false).expect_err("orphan must fail");
        assert_eq!(errs, vec![AuditError::OrphanGradLeaf { node: unread.index() }]);
    }

    #[test]
    fn grad_shapes_always_match_values_after_backward() {
        // End-to-end: a small attention-like computation, then verify the
        // auditor agrees every accumulated gradient is value-shaped.
        let mut g = Graph::new();
        let x =
            g.leaf(Tensor::from_vec(vec![4, 6], (0..24).map(|i| i as f32 * 0.1).collect()), true);
        let w =
            g.leaf(Tensor::from_vec(vec![6, 6], (0..36).map(|i| (i as f32).sin()).collect()), true);
        let h = g.matmul(x, w);
        let s = g.softmax_last(h);
        let loss = g.mean_all(s);
        g.backward(loss);
        assert!(audit_tape(&g, true).is_ok());
    }
}
