//! Adam optimizer (Kingma & Ba, as cited by the paper) and gradient clipping.

use crate::params::ParamStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use turl_tensor::pool;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (the paper uses `1e-4` for pre-training).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

impl AdamConfig {
    /// The paper's pre-training setting (initial learning rate `1e-4`).
    pub fn paper_pretrain() -> Self {
        Self { lr: 1e-4, ..Self::default() }
    }
}

/// Adam optimizer operating on a [`ParamStore`].
#[derive(Debug)]
pub struct Adam {
    /// Current hyper-parameters (mutate `lr` for scheduling).
    pub config: AdamConfig,
    t: u64,
}

impl Adam {
    /// Create an optimizer.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, t: 0 }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restore the step counter from a checkpoint. The counter drives the
    /// bias-correction terms, so an exact resume must carry it over.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Apply one update to every touched, unfrozen parameter and zero grads.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step_scaled(store, 1.0);
    }

    /// [`clip_grad_norm`] then [`step`](Adam::step) as one pass over the
    /// parameters, for gradients whose global L2 norm the caller already
    /// has (from [`ParamStore::reduce`]). A non-finite norm zeroes the
    /// gradients and takes no step, as `clip_grad_norm` documents.
    pub fn step_clipped(&mut self, store: &mut ParamStore, norm: f32, max_norm: f32) -> ClipReport {
        let report = ClipReport::of(norm, max_norm);
        if report.non_finite {
            store.zero_grads();
        } else {
            self.step_scaled(store, if report.clipped { max_norm / norm } else { 1.0 });
        }
        report
    }

    /// One update from gradients scaled by `grad_scale` (multiplying by
    /// `1.0` is exact, so an unclipped step takes the same path). Fans out
    /// over parameters; every element's update is independent of the rest.
    fn step_scaled(&mut self, store: &mut ParamStore, grad_scale: f32) {
        let _t = {
            static OP: std::sync::OnceLock<Option<turl_obs::OpId>> = std::sync::OnceLock::new();
            turl_obs::op_timer(*OP.get_or_init(|| turl_obs::register_op("adam_step")))
        };
        self.t += 1;
        let c = self.config;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        pool::parallel_for_each_mut(store.entries_mut(), |_, e| {
            if !e.touched {
                return;
            }
            if !e.frozen {
                let vd = Arc::make_mut(&mut e.value).data_mut();
                let gd = e.grad.data();
                let md = e.m.data_mut();
                let sd = e.v.data_mut();
                for i in 0..vd.len() {
                    let g = gd[i] * grad_scale + c.weight_decay * vd[i];
                    md[i] = c.beta1 * md[i] + (1.0 - c.beta1) * g;
                    sd[i] = c.beta2 * sd[i] + (1.0 - c.beta2) * g * g;
                    let mhat = md[i] / bc1;
                    let vhat = sd[i] / bc2;
                    vd[i] -= c.lr * mhat / (vhat.sqrt() + c.eps);
                }
            }
            e.grad.zero_();
            e.touched = false;
        });
    }
}

/// Outcome of [`clip_grad_norm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipReport {
    /// Pre-clip global L2 norm (possibly non-finite).
    pub norm: f32,
    /// True when the gradients were rescaled to `max_norm`.
    pub clipped: bool,
    /// True when the norm was non-finite. All gradients have been zeroed
    /// (and their touched flags cleared), so a following optimizer step is
    /// a no-op; the caller should count and skip the batch rather than let
    /// NaN/inf poison the Adam moments.
    pub non_finite: bool,
}

/// Scale all touched gradients so their global L2 norm is at most `max_norm`.
///
/// A non-finite norm (any NaN/inf gradient element) would previously pass
/// the `norm > max_norm` comparison as false and flow unclipped into Adam,
/// permanently corrupting `m`/`v`; it now zeroes every gradient instead and
/// reports `non_finite` so the caller can skip the step.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> ClipReport {
    let report = ClipReport::of(store.grad_norm(), max_norm);
    if report.non_finite {
        store.zero_grads();
    } else if report.clipped {
        let scale = max_norm / report.norm;
        for e in store.entries_mut() {
            if e.touched {
                e.grad.scale_inplace(scale);
            }
        }
    }
    report
}

impl ClipReport {
    /// What clipping to `max_norm` decides for gradients of global L2
    /// norm `norm`, recorded in the clip metrics.
    fn of(norm: f32, max_norm: f32) -> Self {
        let non_finite = !norm.is_finite();
        let report =
            Self { norm, clipped: !non_finite && norm > max_norm && norm > 0.0, non_finite };
        if turl_obs::metrics_enabled() {
            turl_obs::gauge("grad_norm").set(f64::from(norm));
            turl_obs::counter("clip_events").inc();
            if report.clipped {
                turl_obs::counter("clip_rescaled").inc();
            }
            if non_finite {
                turl_obs::counter("clip_non_finite").inc();
            }
            turl_obs::histogram("grad_norm_hist", &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0])
                .observe(f64::from(norm));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Forward;
    use turl_tensor::{GradForm, GradPart, Tensor};

    /// Minimize f(w) = (w - 3)^2 elementwise.
    fn quadratic_step(store: &mut ParamStore, id: crate::ParamId) {
        let mut f = Forward::new(store);
        let w = f.param(store, id, GradForm::Dense);
        let target = f.graph.constant(Tensor::full(vec![2], 3.0));
        let d = f.graph.sub(w, target);
        let sq = f.graph.mul(d, d);
        let l = f.graph.sum_all(sq);
        f.backprop(l, store);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(vec![2]));
        let mut opt = Adam::new(AdamConfig { lr: 0.2, ..AdamConfig::default() });
        for _ in 0..200 {
            quadratic_step(&mut store, id);
            opt.step(&mut store);
        }
        for &v in store.value(id).data() {
            assert!((v - 3.0).abs() < 0.05, "w = {v}");
        }
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(vec![2]));
        store.set_frozen(id, true);
        let mut opt = Adam::new(AdamConfig::default());
        quadratic_step(&mut store, id);
        opt.step(&mut store);
        assert_eq!(store.value(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(vec![2]));
        quadratic_step(&mut store, id); // grad = 2*(0-3) = -6 per element
        let report = clip_grad_norm(&mut store, 1.0);
        assert!(report.norm > 1.0);
        assert!(report.clipped);
        assert!(!report.non_finite);
        assert!((store.grad_norm() - 1.0).abs() < 1e-4);
        let _ = id;
    }

    #[test]
    fn non_finite_grads_are_zeroed_and_step_skipped() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(vec![2]));
        store.accumulate(vec![(id, Tensor::from_vec(vec![2], vec![f32::NAN, 1.0]))]);
        let report = clip_grad_norm(&mut store, 1.0);
        assert!(report.non_finite);
        assert!(!report.clipped);
        assert!(!report.norm.is_finite());
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
        // the grads are untouched now, so Adam leaves value and moments alone
        let mut opt = Adam::new(AdamConfig::default());
        opt.step(&mut store);
        assert_eq!(store.value(id).data(), &[1.0, 1.0]);
        // an infinite norm takes the same path
        store.accumulate(vec![(id, Tensor::from_vec(vec![2], vec![f32::INFINITY, 0.0]))]);
        assert!(clip_grad_norm(&mut store, 1.0).non_finite);
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn step_clipped_matches_clip_then_step_bit_for_bit() {
        let grads = |scale: f32| {
            vec![
                Tensor::from_vec(vec![3], vec![0.3 * scale, -1.7 * scale, 0.9 * scale]),
                Tensor::from_vec(vec![2], vec![-0.0, 2.5 * scale]),
            ]
        };
        let fresh = || {
            let mut store = ParamStore::new();
            let ids = vec![
                store.register("a", Tensor::from_vec(vec![3], vec![0.5, -0.25, 1.0])),
                store.register("b", Tensor::from_vec(vec![2], vec![2.0, -3.0])),
            ];
            (store, ids, Adam::new(AdamConfig { weight_decay: 0.01, ..AdamConfig::default() }))
        };
        let saved = pool::n_threads();
        // Norm above the limit (rescaled), below it (untouched), and NaN.
        for (scale, threads) in [(1.0, 1), (1.0, 2), (0.01, 2), (f32::NAN, 2)] {
            pool::set_threads(threads);
            let (mut two_pass, ids, mut opt_a) = fresh();
            let (mut fused, _, mut opt_b) = fresh();
            for _ in 0..3 {
                two_pass.accumulate(ids.iter().copied().zip(grads(scale)).collect());
                let want = clip_grad_norm(&mut two_pass, 1.0);
                if !want.non_finite {
                    opt_a.step(&mut two_pass);
                }
                let dense = ids.iter().copied().zip(grads(scale).into_iter().map(GradPart::Dense));
                let norm = fused.reduce(&[dense.collect()]).grad_norm;
                let got = opt_b.step_clipped(&mut fused, norm, 1.0);
                assert_eq!((got.clipped, got.non_finite), (want.clipped, want.non_finite));
                assert_eq!(got.norm.to_bits(), want.norm.to_bits());
            }
            assert_eq!(opt_a.steps(), opt_b.steps(), "scale {scale}");
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (ea, eb) in two_pass.entries().iter().zip(fused.entries()) {
                for (x, y) in [(&*ea.value, &*eb.value), (&ea.m, &eb.m), (&ea.v, &eb.v)] {
                    assert_eq!(bits(x), bits(y), "`{}` at scale {scale}", ea.name);
                }
                assert_eq!(bits(&eb.grad), vec![0; eb.grad.len()], "grads not zeroed");
                assert!(!eb.touched);
            }
        }
        pool::set_threads(saved);
    }

    #[test]
    fn step_under_a_live_tape_copies_on_write() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(vec![2]));
        let mut opt = Adam::new(AdamConfig::default());
        let mut f = Forward::new(&store);
        let w = f.param(&store, id, GradForm::Dense);
        let target = f.graph.constant(Tensor::full(vec![2], 3.0));
        let d = f.graph.sub(w, target);
        let sq = f.graph.mul(d, d);
        let l = f.graph.sum_all(sq);
        f.backprop(l, &mut store);
        opt.step(&mut store); // `f` still holds the leaf
        assert_eq!(f.graph.value(w).data(), &[0.0, 0.0], "the step wrote through a live tape");
        assert!(store.value(id).data().iter().all(|&v| v > 0.0), "the store did not move");
        // Once the tape lets go, the optimizer writes in place again.
        f.reset(true);
        let before = store.value(id).data().as_ptr();
        quadratic_step(&mut store, id);
        opt.step(&mut store);
        assert_eq!(store.value(id).data().as_ptr(), before, "copied without a sharer");
    }

    #[test]
    fn untouched_grads_skip_update() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(vec![2]));
        let mut opt = Adam::new(AdamConfig::default());
        opt.step(&mut store); // no grads accumulated
        assert_eq!(store.value(id).data(), &[1.0, 1.0]);
    }
}
