//! Basic layers: linear, embedding, dropout.

use crate::params::{Forward, ParamId, ParamStore};
use rand::Rng;
use turl_tensor::{kaiming_uniform, normal_init, GradForm, Tensor, Var};

/// Fully connected layer `y = x · W + b` with `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight parameter, shape `[in_dim, out_dim]`.
    pub weight: ParamId,
    /// Optional bias parameter, shape `[out_dim]`.
    pub bias: Option<ParamId>,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Create a linear layer with Kaiming-uniform weights.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        // kaiming_uniform yields [fan_out, fan_in]; we store [in, out].
        let w = kaiming_uniform(rng, out_dim, in_dim).transpose2();
        let weight = store.register(format!("{name}.weight"), w);
        let bias =
            bias.then(|| store.register(format!("{name}.bias"), Tensor::zeros(vec![out_dim])));
        Self { weight, bias, in_dim, out_dim }
    }

    /// Apply to a `[n, in]` input, producing `[n, out]`.
    pub fn forward(&self, f: &mut Forward, store: &ParamStore, x: Var) -> Var {
        let w = f.param(store, self.weight, GradForm::Dense);
        let y = f.graph.matmul(x, w);
        match self.bias {
            Some(b) => {
                let bv = f.param(store, b, GradForm::Dense);
                f.graph.add(y, bv)
            }
            None => y,
        }
    }
}

/// Lookup table mapping integer ids to dense vectors.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The `[vocab, dim]` embedding matrix.
    pub weight: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Create an embedding table with `N(0, 0.02)` initialization
    /// (BERT-style).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let w = normal_init(rng, vec![vocab, dim], 0.0, 0.02);
        let weight = store.register(format!("{name}.weight"), w);
        Self { weight, vocab, dim }
    }

    /// Gather rows for `ids`, producing `[ids.len(), dim]`. The table
    /// binds for a `Rows` gradient, as every reader of it must this pass.
    pub fn forward(&self, f: &mut Forward, store: &ParamStore, ids: &[usize]) -> Var {
        let w = f.param(store, self.weight, GradForm::Rows);
        f.graph.index_select0(w, ids)
    }
}

/// Inverted dropout: active only when the forward pass is in training mode.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
}

impl Dropout {
    /// Create a dropout layer.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Self { p }
    }

    /// Apply dropout using `rng` for the mask; identity when `p == 0` or in
    /// inference mode.
    pub fn forward<R: Rng>(&self, f: &mut Forward, rng: &mut R, x: Var) -> Var {
        if !self.active(f) {
            return x;
        }
        let mut mask = Tensor::zeros(f.graph.value(x).shape().to_vec());
        self.fill_mask(rng, mask.data_mut());
        let mask = f.graph.constant(mask);
        f.graph.mul(x, mask)
    }

    /// Whether [`forward`](Dropout::forward) masks anything on `f`.
    pub fn active(&self, f: &Forward) -> bool {
        f.training && self.p != 0.0
    }

    /// Draw `mask`'s keep-mask entries from `rng`, in order: `1 / (1 - p)`
    /// where kept, 0 where dropped — what `forward` multiplies by.
    pub fn fill_mask<R: Rng>(&self, rng: &mut R, mask: &mut [f32]) {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        for m in mask {
            *m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let lin = Linear::new(&mut s, &mut rng, "l", 3, 5, true);
        let mut f = Forward::new(&s);
        let x = f.graph.constant(Tensor::ones(vec![2, 3]));
        let y = lin.forward(&mut f, &s, x);
        assert_eq!(f.graph.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn linear_learns_identity_ish() {
        // one step of gradient descent reduces a simple regression loss
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = ParamStore::new();
        let lin = Linear::new(&mut s, &mut rng, "l", 2, 1, true);
        let data = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let target = Tensor::from_vec(vec![4, 1], vec![0., 1., 1., 2.]);
        let loss_at = |s: &ParamStore| {
            let mut f = Forward::inference(s);
            let x = f.graph.constant(data.clone());
            let y = lin.forward(&mut f, s, x);
            let t = f.graph.constant(target.clone());
            let d = f.graph.sub(y, t);
            let sq = f.graph.mul(d, d);
            let l = f.graph.mean_all(sq);
            f.graph.value(l).item()
        };
        let before = loss_at(&s);
        for _ in 0..20 {
            let mut f = Forward::new(&s);
            let x = f.graph.constant(data.clone());
            let y = lin.forward(&mut f, &s, x);
            let t = f.graph.constant(target.clone());
            let d = f.graph.sub(y, t);
            let sq = f.graph.mul(d, d);
            let l = f.graph.mean_all(sq);
            f.graph.backward(l);
            s.reduce(&[f.take_grads()]);
            // plain SGD for this test
            for id in s.ids().collect::<Vec<_>>() {
                let g = s.grad(id).unwrap().clone();
                s.value_mut(id).axpy(-0.1, &g);
            }
            s.zero_grads();
        }
        let after = loss_at(&s);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let emb = Embedding::new(&mut s, &mut rng, "e", 10, 4);
        let mut f = Forward::new(&s);
        let v = emb.forward(&mut f, &s, &[3, 3, 7]);
        let val = f.graph.value(v);
        assert_eq!(val.shape(), &[3, 4]);
        assert_eq!(val.row(0), val.row(1));
        assert_ne!(val.row(0), val.row(2));
    }

    #[test]
    fn layer_norm_standardizes() {
        let mut s = ParamStore::new();
        let gamma = s.register("ln.gamma", Tensor::ones(vec![4]));
        let beta = s.register("ln.beta", Tensor::zeros(vec![4]));
        let mut f = Forward::new(&s);
        let x = f.graph.constant(Tensor::from_vec(vec![1, 4], vec![10., 20., 30., 40.]));
        let g = f.param(&s, gamma, GradForm::Dense);
        let b = f.param(&s, beta, GradForm::Dense);
        let y = f.graph.layer_norm(x, g, b, 1e-5);
        let row = f.graph.value(y).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-4);
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = ParamStore::new();
        let drop = Dropout::new(0.5);
        let mut f = Forward::inference(&s);
        let x = f.graph.constant(Tensor::ones(vec![8]));
        let y = drop.forward(&mut f, &mut rng, x);
        assert_eq!(f.graph.value(y).data(), &[1.0; 8]);
    }

    #[test]
    fn dropout_scales_kept_units() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = ParamStore::new();
        let drop = Dropout::new(0.5);
        let mut f = Forward::new(&s);
        let x = f.graph.constant(Tensor::ones(vec![1000]));
        let y = drop.forward(&mut f, &mut rng, x);
        let vals = f.graph.value(y).data();
        assert!(vals.iter().all(|&v| v == 0.0 || v == 2.0));
        let mean: f32 = vals.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "dropout mean {mean}");
    }
}
