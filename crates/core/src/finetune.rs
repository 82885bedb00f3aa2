//! Shared fine-tuning machinery: batched epochs over task examples with
//! Adam and gradient clipping ("we initialize the parameters with a
//! pre-trained model, and further train all parameters with a
//! task-specific objective", §6.1).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use turl_nn::{Adam, AdamConfig, Forward, ParamStore};
use turl_tensor::Var;

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinetuneConfig {
    /// Epochs (the paper fine-tunes 10 epochs for most tasks).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Gradient clipping threshold.
    pub max_grad_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        Self { epochs: 10, lr: 1e-3, batch_size: 8, max_grad_norm: 5.0, seed: 0 }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default)]
pub struct FinetuneStats {
    /// Mean per-example loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Total optimizer steps taken.
    pub steps: u64,
}

impl FinetuneStats {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Run batched epochs: `loss_of(example_index, f, store)` records one
/// example's forward pass on the fresh tape `f` and returns its loss, or
/// `None` when the example has nothing to train on (it counts in the
/// epoch's mean loss as 0). Each batch's gradients reach the store through
/// [`ParamStore::reduce`], one list per example in batch order, and one
/// [`Adam::step_clipped`]; a batch whose gradient norm is non-finite is
/// skipped and not counted in [`FinetuneStats::steps`].
pub fn train_batched(
    cfg: &FinetuneConfig,
    store: &mut ParamStore,
    n_examples: usize,
    mut loss_of: impl FnMut(usize, &mut Forward, &ParamStore) -> Option<Var>,
) -> FinetuneStats {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() });
    let mut stats = FinetuneStats::default();
    for _ in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..n_examples).collect();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let mut parts = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let mut f = Forward::new(store);
                if let Some(loss) = loss_of(i, &mut f, store) {
                    epoch_loss += f.graph.value(loss).item();
                    f.graph.backward(loss);
                    parts.push(f.take_grads());
                }
            }
            let norm = store.reduce(&parts).grad_norm;
            if !opt.step_clipped(store, norm, cfg.max_grad_norm).non_finite {
                stats.steps += 1;
            }
        }
        stats.epoch_losses.push(epoch_loss / n_examples.max(1) as f32);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_tensor::{GradForm, Tensor};

    #[test]
    fn train_batched_converges_on_regression() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(vec![1]));
        // fit w to minimize (w - i mod 2)² over examples; optimum w = 0.5
        let cfg = FinetuneConfig { epochs: 30, lr: 0.1, batch_size: 2, ..Default::default() };
        let stats = train_batched(&cfg, &mut store, 4, |i, f, store| {
            let target = (i % 2) as f32;
            let wv = f.param(store, w, GradForm::Dense);
            let t = f.graph.constant(Tensor::scalar(target));
            let d = f.graph.sub(wv, t);
            let sq = f.graph.mul(d, d);
            Some(f.graph.sum_all(sq))
        });
        assert_eq!(stats.epoch_losses.len(), 30);
        assert!((store.value(w).data()[0] - 0.5).abs() < 0.1);
        assert!(stats.final_loss() < stats.epoch_losses[0]);
        assert!(stats.steps == 60);
    }

    #[test]
    fn a_batch_with_a_non_finite_loss_is_skipped() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(vec![2]));
        // Three single-example batches; example 1's loss is NaN.
        let cfg = FinetuneConfig { epochs: 1, batch_size: 1, ..Default::default() };
        let stats = train_batched(&cfg, &mut store, 3, |i, f, store| {
            let wv = f.param(store, w, GradForm::Dense);
            let scaled = f.graph.scale(wv, if i == 1 { f32::NAN } else { 2.0 });
            Some(f.graph.sum_all(scaled))
        });
        assert_eq!(stats.steps, 2, "the NaN batch counted as a step");
        assert!(store.value(w).data().iter().all(|v| v.is_finite()));
    }
}
