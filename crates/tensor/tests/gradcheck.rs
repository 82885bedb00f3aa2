//! Finite-difference gradient checks for every autograd operation.
//!
//! These are the correctness anchor for the whole workspace: if these pass,
//! any model built from these ops gets correct gradients.

use proptest::prelude::*;
use turl_tensor::{gradcheck, Graph, Tensor, Var};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn check(input: &Tensor, build: impl FnMut(&Tensor) -> (Graph, Var, Var)) {
    let report = gradcheck(input, EPS, build);
    assert!(report.passes(TOL), "gradcheck failed: {report:?}");
}

fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(vec![rows, cols], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_add_broadcast(x in small_tensor(3, 4)) {
        let bias = Tensor::from_vec(vec![4], vec![0.5, -0.5, 1.0, 0.0]);
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let b = g.constant(bias.clone());
            let y = g.add(v, b);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_mul(x in small_tensor(3, 3)) {
        let other = Tensor::from_vec(vec![3, 3], (0..9).map(|i| 0.3 + 0.1 * i as f32).collect());
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let o = g.constant(other.clone());
            let y = g.mul(v, o);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_matmul_lhs(x in small_tensor(2, 3)) {
        let w = Tensor::from_vec(vec![3, 2], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]);
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let wv = g.constant(w.clone());
            let y = g.matmul(v, wv);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_matmul_rhs(x in small_tensor(3, 2)) {
        let a = Tensor::from_vec(vec![2, 3], vec![0.7, -0.1, 0.2, 0.0, 0.5, -0.3]);
        check(&x, |t| {
            let mut g = Graph::new();
            let av = g.constant(a.clone());
            let v = g.leaf(t.clone(), true);
            let y = g.matmul(av, v);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_matmul_nt(x in small_tensor(2, 3)) {
        let b = Tensor::from_vec(vec![4, 3], (0..12).map(|i| 0.05 * i as f32 - 0.3).collect());
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let bv = g.constant(b.clone());
            let y = g.matmul_nt(v, bv);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_smooth_activations(x in small_tensor(2, 4)) {
        for act in 0..3 {
            check(&x, |t| {
                let mut g = Graph::new();
                let v = g.leaf(t.clone(), true);
                let y = match act {
                    0 => g.gelu(v),
                    1 => g.tanh(v),
                    _ => g.sigmoid(v),
                };
                let l = g.sum_all(y);
                (g, v, l)
            });
        }
    }

    #[test]
    fn grad_gelu_under_a_weighted_loss(x in small_tensor(3, 4)) {
        // GELU's backward multiplies the upstream gradient by a derivative
        // built from the forward's kept `tanh`; make that gradient
        // non-uniform, and give GELU an input computed on the tape.
        let w = Tensor::from_vec(vec![3, 4], (0..12).map(|i| 0.25 * i as f32 - 1.0).collect());
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let pre = g.scale(v, 1.5);
            let y = g.gelu(pre);
            let wv = g.constant(w.clone());
            let z = g.mul(y, wv);
            let l = g.sum_all(z);
            (g, v, l)
        });
    }

    #[test]
    fn grad_relu_away_from_kink(x in small_tensor(2, 4)) {
        // Snap inputs to a grid offset from zero so finite-difference probes
        // never straddle the ReLU kink.
        let snapped = x.map(|v| (v * 2.0).round() * 0.5 + 0.25);
        check(&snapped, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let y = g.relu(v);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_softmax_weighted(x in small_tensor(2, 4)) {
        let w = Tensor::from_vec(vec![2, 4], (0..8).map(|i| (i % 3) as f32 * 0.5).collect());
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let p = g.softmax_last(v);
            let wv = g.constant(w.clone());
            let y = g.mul(p, wv);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_layer_norm_input(x in small_tensor(3, 4)) {
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let gamma = g.constant(Tensor::from_vec(vec![4], vec![1.0, 0.8, 1.2, 0.9]));
            let beta = g.constant(Tensor::from_vec(vec![4], vec![0.0, 0.1, -0.1, 0.2]));
            let y = g.layer_norm(v, gamma, beta, 1e-5);
            // weight rows so the loss is not invariant to normalization
            let w = g.constant(Tensor::from_vec(vec![3, 4], (0..12).map(|i| (i as f32) * 0.1).collect()));
            let z = g.mul(y, w);
            let l = g.sum_all(z);
            (g, v, l)
        });
    }

    #[test]
    fn grad_layer_norm_gamma_beta(x in small_tensor(1, 4)) {
        // check gradient w.r.t. gamma by making gamma the input
        let data = Tensor::from_vec(vec![2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        check(&x, |t| {
            let gamma_vals = Tensor::from_vec(vec![4], t.data().to_vec());
            let mut g = Graph::new();
            let xv = g.constant(data.clone());
            let gv = g.leaf(gamma_vals, true);
            let beta = g.constant(Tensor::zeros(vec![4]));
            let y = g.layer_norm(xv, gv, beta, 1e-5);
            let l = g.sum_all(y);
            // reshape grads: input var has shape [4] but probe is [1,4];
            // sum_all makes the scalar; gradcheck reads grad of gv.
            (g, gv, l)
        });
    }

    #[test]
    fn grad_cross_entropy(x in small_tensor(3, 5)) {
        let targets = [0usize, 2, 4];
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let l = g.cross_entropy(v, &targets);
            (g, v, l)
        });
    }

    #[test]
    fn grad_bce(x in small_tensor(2, 3)) {
        let targets = Tensor::from_vec(vec![2, 3], vec![1., 0., 1., 0., 0., 1.]);
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let l = g.bce_with_logits(v, targets.clone());
            (g, v, l)
        });
    }

    #[test]
    fn grad_index_select_mean_rows(x in small_tensor(4, 3)) {
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let sel = g.index_select0(v, &[0, 2, 2, 3]);
            let m = g.mean_rows(sel);
            let w = g.constant(Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.5]));
            let y = g.mul(m, w);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_attention_composite(x in small_tensor(3, 4)) {
        // A miniature attention block: softmax((x xT)/2 + mask) x
        let mask = Tensor::from_vec(vec![3, 3], vec![0., -1e9, 0., -1e9, 0., 0., 0., 0., 0.]);
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let scores = g.matmul_nt(v, v);
            let scaled = g.scale(scores, 0.5);
            let mv = g.constant(mask.clone());
            let masked = g.add(scaled, mv);
            let p = g.softmax_last(masked);
            let out = g.matmul(p, v);
            let w = g.constant(Tensor::from_vec(vec![3, 4], (0..12).map(|i| 0.07 * i as f32).collect()));
            let y = g.mul(out, w);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }

    #[test]
    fn grad_bmm_permute_reshape(x in small_tensor(4, 6)) {
        // reshape [4,6] -> [4,2,3] -> permute [2,4,3], bmm with constant, sum
        let b = Tensor::from_vec(vec![2, 3, 2], (0..12).map(|i| 0.1 * i as f32 - 0.4).collect());
        check(&x, |t| {
            let mut g = Graph::new();
            let v = g.leaf(t.clone(), true);
            let r = g.reshape(v, vec![4, 2, 3]);
            let p = g.permute(r, &[1, 0, 2]);
            let bv = g.constant(b.clone());
            let y = g.bmm(p, bv);
            let l = g.sum_all(y);
            (g, v, l)
        });
    }
}

#[test]
fn gelu_backward_has_the_bits_of_the_recomputing_derivative() {
    // What the backward computed before the forward's `tanh` was kept.
    fn recomputing(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let inner = C * (x + 0.044715 * x * x * x);
        let t = inner.tanh();
        let dinner = C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    }
    let n = 2048;
    let x: Vec<f32> =
        (0..n).map(|i| (i as f32 - 1024.0) / 128.0).chain([0.0, -0.0, 1e-40]).collect();
    let upstream: Vec<f32> = (0..x.len()).map(|i| 0.37 * (i % 11) as f32 - 1.5).collect();
    let mut g = Graph::new();
    let v = g.leaf(Tensor::from_vec(vec![x.len()], x.clone()), true);
    let y = g.gelu(v);
    let w = g.constant(Tensor::from_vec(vec![x.len()], upstream.clone()));
    let z = g.mul(y, w);
    let l = g.sum_all(z);
    g.backward(l);
    for ((got, &x), &up) in g.grad(v).expect("leaf grad").data().iter().zip(&x).zip(&upstream) {
        assert_eq!(got.to_bits(), (up * recomputing(x)).to_bits(), "x = {x:e}");
    }
}
