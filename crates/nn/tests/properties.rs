//! Property-based tests for the neural-network layer crate: optimizer
//! convergence from arbitrary starts, layer invariants, and failure
//! injection (exploding gradients).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use turl_nn::{clip_grad_norm, Adam, AdamConfig, Embedding, Forward, Linear, ParamStore};
use turl_tensor::{GradForm, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adam_converges_from_any_start(start in proptest::collection::vec(-5.0f32..5.0, 3)) {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vec![3], start));
        let target = [1.0f32, -2.0, 0.5];
        let mut opt = Adam::new(AdamConfig { lr: 0.2, ..Default::default() });
        for _ in 0..300 {
            let mut f = Forward::new(&store);
            let w = f.param(&store, id, GradForm::Dense);
            let t = f.graph.constant(Tensor::from_vec(vec![3], target.to_vec()));
            let d = f.graph.sub(w, t);
            let sq = f.graph.mul(d, d);
            let l = f.graph.sum_all(sq);
            f.backprop(l, &mut store);
            opt.step(&mut store);
        }
        for (v, t) in store.value(id).data().iter().zip(target.iter()) {
            prop_assert!((v - t).abs() < 0.1, "w {v} vs target {t}");
        }
    }

    #[test]
    fn layer_norm_output_is_standardized_for_any_input(
        data in proptest::collection::vec(-100.0f32..100.0, 8)
    ) {
        // skip pathological all-equal rows (zero variance)
        let row0: Vec<f32> = data[..4].to_vec();
        prop_assume!(row0.iter().any(|&x| (x - row0[0]).abs() > 1e-3));
        let mut store = ParamStore::new();
        let gamma = store.register("ln.gamma", Tensor::ones(vec![4]));
        let beta = store.register("ln.beta", Tensor::zeros(vec![4]));
        let mut f = Forward::inference(&store);
        let x = f.graph.constant(Tensor::from_vec(vec![2, 4], data));
        let g = f.param(&store, gamma, GradForm::Dense);
        let b = f.param(&store, beta, GradForm::Dense);
        let y = f.graph.layer_norm(x, g, b, 1e-5);
        let out = f.graph.value(y);
        prop_assert!(out.all_finite());
        let mean: f32 = out.row(0).iter().sum::<f32>() / 4.0;
        prop_assert!(mean.abs() < 1e-2, "row mean {mean}");
    }

    #[test]
    fn clip_grad_norm_bounds_any_gradient(scale in 1.0f32..1e6) {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(vec![4]));
        store.accumulate(vec![(id, Tensor::full(vec![4], scale))]);
        let report = clip_grad_norm(&mut store, 1.0);
        prop_assert!(report.norm >= 1.0);
        prop_assert!(!report.non_finite);
        prop_assert!((store.grad_norm() - 1.0).abs() < 1e-3);
        prop_assert!(store.grad(id).all_finite());
    }

    #[test]
    fn embedding_rows_are_independent_parameters(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, &mut rng, "e", 6, 4);
        // gradient flows only into the selected rows
        let mut f = Forward::new(&store);
        let v = emb.forward(&mut f, &store, &[1, 3]);
        let l = f.graph.sum_all(v);
        f.backprop(l, &mut store);
        let g = store.grad(emb.weight);
        for row in 0..6 {
            let sum: f32 = g.data()[row * 4..(row + 1) * 4].iter().sum();
            if row == 1 || row == 3 {
                prop_assert!(sum.abs() > 1e-6, "selected row {row} got no gradient");
            } else {
                prop_assert_eq!(sum, 0.0, "unselected row {} must stay untouched", row);
            }
        }
    }

    #[test]
    fn linear_is_actually_linear(a in -3.0f32..3.0, b in -3.0f32..3.0) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "l", 3, 2, false);
        let x1 = turl_tensor::normal_init(&mut rng, vec![1, 3], 0.0, 1.0);
        let x2 = turl_tensor::normal_init(&mut rng, vec![1, 3], 0.0, 1.0);
        let apply = |x: &Tensor| {
            let mut f = Forward::inference(&store);
            let v = f.graph.constant(x.clone());
            let y = lin.forward(&mut f, &store, v);
            f.graph.value(y).data().to_vec()
        };
        // f(a x1 + b x2) = a f(x1) + b f(x2)
        let mut combo = Tensor::zeros(vec![1, 3]);
        for j in 0..3 {
            combo.set2(0, j, a * x1.at2(0, j) + b * x2.at2(0, j));
        }
        let lhs = apply(&combo);
        let (y1, y2) = (apply(&x1), apply(&x2));
        for j in 0..2 {
            let rhs = a * y1[j] + b * y2[j];
            prop_assert!((lhs[j] - rhs).abs() < 1e-3, "{} vs {}", lhs[j], rhs);
        }
    }
}
