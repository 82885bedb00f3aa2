//! Edge-case and numerical-stability tests for the tensor substrate:
//! empty tensors, extreme values, degenerate shapes, and autograd corner
//! cases that the model code must survive.

use turl_tensor::{ops, Graph, Tensor};

#[test]
fn empty_tensor_roundtrips() {
    let t = Tensor::from_vec(vec![0, 4], vec![]);
    assert_eq!(t.len(), 0);
    assert!(t.is_empty());
    assert!(t.all_finite());
    assert_eq!(t.sum(), 0.0);
    assert_eq!(t.mean(), 0.0);
}

#[test]
fn matmul_with_zero_rows() {
    let a = Tensor::from_vec(vec![0, 3], vec![]);
    let b = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
    let c = ops::matmul(&a, &b);
    assert_eq!(c.shape(), &[0, 2]);
}

#[test]
fn index_select_empty_indices() {
    let t = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
    let s = t.index_select0(&[]);
    assert_eq!(s.shape(), &[0, 2]);
}

#[test]
fn softmax_extreme_values_stay_finite() {
    let t = Tensor::from_vec(vec![1, 4], vec![1e30, -1e30, 0.0, 1e30]);
    let s = t.softmax_last();
    assert!(s.all_finite());
    let sum: f32 = s.data().iter().sum();
    assert!((sum - 1.0).abs() < 1e-5);
    assert_eq!(s.data()[1], 0.0);
}

#[test]
fn softmax_all_masked_row_does_not_nan() {
    // a fully masked row (all -inf after masking) must not produce NaN
    let t = Tensor::from_vec(vec![1, 3], vec![-1e30, -1e30, -1e30]);
    let s = t.softmax_last();
    assert!(s.all_finite(), "fully-masked softmax row produced non-finite values");
}

#[test]
fn cross_entropy_single_class() {
    let mut g = Graph::new();
    let logits = g.leaf(Tensor::from_vec(vec![2, 1], vec![3.0, -1.0]), true);
    let l = g.cross_entropy(logits, &[0, 0]);
    // single-class softmax is always probability 1 -> zero loss
    assert!(g.value(l).item().abs() < 1e-6);
    g.backward(l);
    for &v in g.grad(logits).unwrap().data() {
        assert!(v.abs() < 1e-6);
    }
}

#[test]
fn backward_on_non_scalar_seeds_with_ones() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]), true);
    let y = g.scale(x, 3.0);
    g.backward(y);
    assert_eq!(g.grad(x).unwrap().data(), &[3., 3., 3., 3.]);
}

#[test]
fn backward_twice_resets_gradients() {
    let mut g = Graph::new();
    // A leaf root is the one tape a second sweep may run over: the first
    // released nothing (a swept computed node panics, see `graph::tests`).
    let x = g.leaf(Tensor::from_vec(vec![2], vec![1., 1.]), true);
    g.backward(x);
    g.backward(x);
    // gradients must not accumulate across backward calls
    assert_eq!(g.grad(x).unwrap().data(), &[1., 1.]);
}

#[test]
fn diamond_graph_accumulates_correctly() {
    // x -> a, x -> b, y = a + b: dy/dx = 2
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(vec![2], vec![1., 2.]), true);
    let a = g.scale(x, 1.0);
    let b = g.scale(x, 1.0);
    let y = g.add(a, b);
    let s = g.sum_all(y);
    g.backward(s);
    assert_eq!(g.grad(x).unwrap().data(), &[2., 2.]);
}

#[test]
fn deep_chain_of_ops_backprops() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(vec![4], vec![0.1, 0.2, 0.3, 0.4]), true);
    let mut h = x;
    for _ in 0..64 {
        h = g.tanh(h);
    }
    let s = g.sum_all(h);
    g.backward(s);
    let grad = g.grad(x).unwrap();
    assert!(grad.all_finite());
}

#[test]
fn broadcasting_scalar_against_matrix() {
    let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
    let s = Tensor::scalar(10.0);
    let y = a.broadcast_zip(&s, |x, y| x * y).unwrap();
    assert_eq!(y.data(), &[10., 20., 30., 40.]);
    // reduction back to scalar sums everything
    let r = y.reduce_to_shape(&[1]);
    assert_eq!(r.data(), &[100.0]);
}

#[test]
fn bce_extreme_logits_finite() {
    let mut g = Graph::new();
    let logits = g.leaf(Tensor::from_vec(vec![2], vec![100.0, -100.0]), true);
    let l = g.bce_with_logits(logits, Tensor::from_vec(vec![2], vec![1.0, 0.0]));
    assert!(g.value(l).item().abs() < 1e-6, "saturated-correct BCE should be ~0");
    g.backward(l);
    assert!(g.grad(logits).unwrap().all_finite());

    let mut g2 = Graph::new();
    let bad = g2.leaf(Tensor::from_vec(vec![1], vec![-100.0]), true);
    let l2 = g2.bce_with_logits(bad, Tensor::from_vec(vec![1], vec![1.0]));
    assert!(g2.value(l2).item() > 50.0, "confidently wrong must be penalized");
    assert!(g2.value(l2).item().is_finite());
}

#[test]
fn layer_norm_constant_row_is_finite() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(vec![1, 4], vec![5.0; 4]), true);
    let gamma = g.constant(Tensor::ones(vec![4]));
    let beta = g.constant(Tensor::zeros(vec![4]));
    let y = g.layer_norm(x, gamma, beta, 1e-5);
    assert!(g.value(y).all_finite(), "zero-variance row must not divide by zero");
    let s = g.sum_all(y);
    g.backward(s);
    assert!(g.grad(x).unwrap().all_finite());
}

#[test]
fn permute_identity_and_full_reverse() {
    let t = Tensor::from_vec(vec![2, 3, 4], (0..24).map(|x| x as f32).collect());
    assert_eq!(t.permute(&[0, 1, 2]), t);
    let r = t.permute(&[2, 1, 0]);
    assert_eq!(r.shape(), &[4, 3, 2]);
    assert_eq!(r.permute(&[2, 1, 0]), t);
}

#[test]
fn argmax_prefers_first_on_ties() {
    let t = Tensor::from_vec(vec![4], vec![1.0, 3.0, 3.0, 0.0]);
    assert_eq!(t.argmax(), 1);
}
