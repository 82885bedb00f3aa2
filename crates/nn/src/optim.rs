//! Adam optimizer (Kingma & Ba, as cited by the paper) and gradient clipping.

use crate::params::ParamStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use turl_tensor::{pool, Tensor};

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

    /// Clip the gradients to global L2 norm `max_norm` and take one step,
    /// as one pass over the parameters: `norm` is their norm, which the
    /// caller has from [`ParamStore::reduce`], and a gradient above the
    /// limit is multiplied once by `max_norm / norm` as it is read.
    ///
    /// A non-finite norm (any NaN/inf gradient element) would pass the
    /// `norm > max_norm` comparison as false and flow unclipped into Adam,
    /// corrupting `m`/`v` for good; instead it zeroes every gradient and
    /// takes no step, leaving values, moments and [`steps`](Adam::steps)
    /// as they were.
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
        // Moments are allocated by the first step that reaches them, on
        // this thread for the reason `ParamStore::reduce` allocates
        // gradients on the caller's.
        for e in store.entries_mut().iter_mut().filter(|e| e.touched && !e.frozen) {
            let zeros = || Arc::new(Tensor::zeros(e.value.shape().to_vec()));
            e.m.get_or_insert_with(zeros);
            e.v.get_or_insert_with(zeros);
        }
        pool::parallel_for_each_mut(store.entries_mut(), |_, e| {
            if !e.touched {
                return;
            }
            let grad = e.grad.as_mut().expect("a touched parameter has a gradient");
            if e.frozen {
                grad.zero_();
            } else {
                // Zeroing each gradient as it is read saves a second walk
                // over it; the zipped slices carry no bounds checks.
                let (m, s) = e.m.as_mut().zip(e.v.as_mut()).expect("allocated above");
                let (m, s) = (Arc::make_mut(m), Arc::make_mut(s));
                let moments = m.data_mut().iter_mut().zip(s.data_mut());
                let vd = Arc::make_mut(&mut e.value).data_mut();
                for ((v, g), (m, s)) in vd.iter_mut().zip(grad.data_mut()).zip(moments) {
                    let gs = *g * grad_scale + c.weight_decay * *v;
                    *m = c.beta1 * *m + (1.0 - c.beta1) * gs;
                    *s = c.beta2 * *s + (1.0 - c.beta2) * gs * gs;
                    let mhat = *m / bc1;
                    let vhat = *s / bc2;
                    *v -= c.lr * mhat / (vhat.sqrt() + c.eps);
                    *g = 0.0;
                }
            }
            e.touched = false;
        });
    }
}

/// Outcome of [`Adam::step_clipped`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipReport {
    /// Pre-clip global L2 norm (possibly non-finite).
    pub norm: f32,
    /// True when the gradients were rescaled to `max_norm`.
    pub clipped: bool,
    /// True when the norm was non-finite. All gradients have been zeroed
    /// (and their touched flags cleared) and no step was taken; the
    /// caller counts the batch as skipped.
    pub non_finite: bool,
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

    /// Minimize f(w) = (w - 3)^2 elementwise; returns the gradient norm.
    fn quadratic_step(store: &mut ParamStore, id: crate::ParamId) -> f32 {
        let mut f = Forward::new(store);
        let w = f.param(store, id, GradForm::Dense);
        let target = f.graph.constant(Tensor::full(vec![2], 3.0));
        let d = f.graph.sub(w, target);
        let sq = f.graph.mul(d, d);
        let l = f.graph.sum_all(sq);
        f.graph.backward(l);
        store.reduce(&[f.take_grads()]).grad_norm
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
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

    /// A clipped step is [`Adam::step`] on the gradients multiplied by
    /// `max_norm / norm` beforehand, bit for bit; under the limit it is
    /// `step` itself.
    #[test]
    fn a_clipped_step_is_a_step_on_prescaled_gradients() {
        let parts = |ids: &[crate::ParamId], scale: f32| {
            let grads = [vec![0.3 * scale, -1.7 * scale, 0.9 * scale], vec![-0.0, 2.5 * scale]];
            let dense = grads.map(|g| GradPart::Dense(Tensor::from_vec(vec![g.len()], g)));
            vec![ids.iter().copied().zip(dense).collect()]
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
        // Norm above the limit (rescaled) and below it (untouched).
        for (scale, threads) in [(1.0, 1), (1.0, 2), (0.01, 2)] {
            pool::set_threads(threads);
            let (mut prescaled, ids, mut opt_a) = fresh();
            let (mut fused, _, mut opt_b) = fresh();
            for _ in 0..3 {
                let norm = prescaled.reduce(&parts(&ids, scale)).grad_norm;
                if norm > 1.0 {
                    for e in prescaled.entries_mut().iter_mut().filter(|e| e.touched) {
                        e.grad.as_mut().unwrap().scale_inplace(1.0 / norm);
                    }
                }
                opt_a.step(&mut prescaled);
                let fused_norm = fused.reduce(&parts(&ids, scale)).grad_norm;
                let got = opt_b.step_clipped(&mut fused, fused_norm, 1.0);
                assert_eq!(got.norm.to_bits(), norm.to_bits());
                assert_eq!((got.clipped, got.non_finite), (norm > 1.0, false), "scale {scale}");
            }
            assert_eq!((opt_a.steps(), opt_b.steps()), (3, 3));
            for (ea, eb) in prescaled.entries().iter().zip(fused.entries()) {
                let (am, bm) = (ea.m.as_deref().unwrap(), eb.m.as_deref().unwrap());
                let (av, bv) = (ea.v.as_deref().unwrap(), eb.v.as_deref().unwrap());
                for (x, y) in [(&*ea.value, &*eb.value), (am, bm), (av, bv)] {
                    assert_eq!(bits(x), bits(y), "`{}` at scale {scale}", ea.name);
                }
                let grad = eb.grad.as_ref().unwrap();
                assert!(bits(grad).iter().all(|&b| b == 0) && !eb.touched, "grads not zeroed");
            }
        }
        pool::set_threads(saved);
    }

    #[test]
    fn non_finite_grads_are_zeroed_and_step_skipped() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(vec![2]));
        let mut opt = Adam::new(AdamConfig::default());
        let norm = quadratic_step(&mut store, id);
        opt.step_clipped(&mut store, norm, 1.0); // the moments are nonzero from here on
        let state = |s: &ParamStore| {
            let e = &s.entries()[id.index()];
            [&*e.value, e.m.as_deref().unwrap(), e.v.as_deref().unwrap()].map(bits)
        };
        let before = state(&store);
        // A NaN and an infinite norm take the same path.
        for bad in [f32::NAN, f32::INFINITY] {
            let part = GradPart::Dense(Tensor::from_vec(vec![2], vec![bad, 1.0]));
            let norm = store.reduce(&[vec![(id, part)]]).grad_norm;
            let report = opt.step_clipped(&mut store, norm, 1.0);
            assert!(report.non_finite && !report.clipped && !report.norm.is_finite());
            assert_eq!(store.grad(id).unwrap().data(), &[0.0, 0.0]);
            assert!(!store.entries()[id.index()].touched);
            assert_eq!(state(&store), before, "values or moments moved");
            assert_eq!(opt.steps(), 1, "Adam's step counter advanced");
        }
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
        f.graph.backward(l);
        store.reduce(&[f.take_grads()]);
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
