//! Sherlock (Hulsebos et al., KDD'19): feature-engineered semantic type
//! detection for columns. Features describe statistical properties and
//! character distributions of the cell values; a small MLP with per-type
//! sigmoid outputs fits the paper's multi-label adaptation (§6.3: "We
//! change its final layer to |L| Sigmoid activation functions").

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use turl_nn::{Adam, AdamConfig, Forward, Linear, ParamStore};
use turl_tensor::Tensor;

/// Number of features extracted per column.
pub const N_FEATURES: usize = 50;

/// Extract the Sherlock-style feature vector from a column's cell texts.
///
/// Blocks: value statistics (lengths, word counts, distinctness), character
/// class fractions, and a 26-bin letter distribution.
pub fn extract_column_features(values: &[&str]) -> Vec<f32> {
    let mut f = vec![0.0f32; N_FEATURES];
    if values.is_empty() {
        return f;
    }
    let n = values.len() as f32;
    let lengths: Vec<f32> = values.iter().map(|v| v.len() as f32).collect();
    let words: Vec<f32> = values.iter().map(|v| v.split_whitespace().count() as f32).collect();
    let mean = |xs: &[f32]| xs.iter().sum::<f32>() / n;
    let std = |xs: &[f32], m: f32| (xs.iter().map(|x| (x - m).powi(2)).sum::<f32>() / n).sqrt();
    let lmean = mean(&lengths);
    let wmean = mean(&words);
    f[0] = n.ln_1p();
    f[1] = lmean / 32.0;
    f[2] = std(&lengths, lmean) / 32.0;
    f[3] = lengths.iter().copied().fold(f32::INFINITY, f32::min) / 32.0;
    f[4] = lengths.iter().copied().fold(0.0, f32::max) / 32.0;
    f[5] = wmean / 8.0;
    f[6] = std(&words, wmean) / 8.0;
    let distinct: std::collections::HashSet<&&str> = values.iter().collect();
    f[7] = distinct.len() as f32 / n;

    let mut total_chars = 0.0f32;
    let (mut digits, mut alphas, mut uppers, mut spaces, mut puncts) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut letter_bins = [0.0f32; 26];
    for v in values {
        for ch in v.chars() {
            total_chars += 1.0;
            if ch.is_ascii_digit() {
                digits += 1.0;
            } else if ch.is_alphabetic() {
                alphas += 1.0;
                if ch.is_uppercase() {
                    uppers += 1.0;
                }
                let lower = ch.to_ascii_lowercase();
                if lower.is_ascii_lowercase() {
                    letter_bins[(lower as u8 - b'a') as usize] += 1.0;
                }
            } else if ch.is_whitespace() {
                spaces += 1.0;
            } else {
                puncts += 1.0;
            }
        }
    }
    let tc = total_chars.max(1.0);
    f[8] = digits / tc;
    f[9] = alphas / tc;
    f[10] = uppers / tc;
    f[11] = spaces / tc;
    f[12] = puncts / tc;
    // fraction of values that are purely numeric / start uppercase / empty
    f[13] = values.iter().filter(|v| !v.is_empty() && v.chars().all(|c| c.is_ascii_digit())).count()
        as f32
        / n;
    f[14] =
        values.iter().filter(|v| v.chars().next().map(char::is_uppercase).unwrap_or(false)).count()
            as f32
            / n;
    f[15] = values.iter().filter(|v| v.is_empty()).count() as f32 / n;
    // ordinal suffix marker ("15th"-style values)
    f[16] = values
        .iter()
        .filter(|v| {
            let lv = v.to_lowercase();
            lv.ends_with("st") || lv.ends_with("nd") || lv.ends_with("rd") || lv.ends_with("th")
        })
        .count() as f32
        / n;
    // remaining block: normalized letter distribution
    for (i, &b) in letter_bins.iter().enumerate() {
        f[17 + i] = b / tc;
    }
    // slots 43..50 reserved: bigram-entropy style summaries
    let mut entropy = 0.0f32;
    for &b in &letter_bins {
        if b > 0.0 {
            let p = b / tc;
            entropy -= p * p.ln();
        }
    }
    f[43] = entropy / 3.0;
    f[44] = (lmean - wmean).abs() / 32.0;
    f
}

/// The Sherlock classifier: features → hidden layer → per-type sigmoids.
pub struct Sherlock {
    store: ParamStore,
    hidden: Linear,
    out: Linear,
    n_labels: usize,
}

impl Sherlock {
    /// Create a classifier for `n_labels` types.
    pub fn new(n_labels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let hidden = Linear::new(&mut store, &mut rng, "sherlock.hidden", N_FEATURES, 64, true);
        let out = Linear::new(&mut store, &mut rng, "sherlock.out", 64, n_labels, true);
        Self { store, hidden, out, n_labels }
    }

    fn logits_graph(
        &self,
        f: &mut Forward,
        store: &ParamStore,
        features: &[f32],
    ) -> turl_tensor::Var {
        let x = f.graph.constant(Tensor::from_vec(vec![1, N_FEATURES], features.to_vec()));
        let h = self.hidden.forward(f, store, x);
        let a = f.graph.relu(h);
        self.out.forward(f, store, a)
    }

    /// Train on `(features, label set)` pairs with early stopping against
    /// a validation set (the paper trains Sherlock "over 100 epochs" with
    /// validation-based early stopping).
    pub fn train(
        &mut self,
        train: &[(Vec<f32>, Vec<usize>)],
        validation: &[(Vec<f32>, Vec<usize>)],
        max_epochs: usize,
        patience: usize,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(AdamConfig { lr: 1e-3, ..Default::default() });
        let mut best_f1 = -1.0f64;
        let mut best_params: Option<Vec<(String, Tensor)>> = None;
        let mut since_best = 0usize;
        for _ in 0..max_epochs {
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.shuffle(&mut rng);
            for chunk in order.chunks(16) {
                let mut parts = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let (features, labels) = &train[i];
                    let mut fwd = Forward::new(&self.store);
                    let logits = self.logits_graph(&mut fwd, &self.store, features);
                    let mut targets = Tensor::zeros(vec![1, self.n_labels]);
                    for &l in labels {
                        targets.data_mut()[l] = 1.0;
                    }
                    let loss = fwd.graph.bce_with_logits(logits, targets);
                    fwd.graph.backward(loss);
                    parts.push(fwd.take_grads());
                }
                let norm = self.store.reduce(&parts).grad_norm;
                opt.step_clipped(&mut self.store, norm, 5.0);
            }
            let f1 = self.micro_f1(validation);
            if f1 > best_f1 {
                best_f1 = f1;
                since_best = 0;
                best_params = Some(
                    self.store
                        .ids()
                        .map(|id| (self.store.name(id).to_string(), self.store.value(id).clone()))
                        .collect(),
                );
            } else {
                since_best += 1;
                if since_best >= patience {
                    break;
                }
            }
        }
        if let Some(params) = best_params {
            for (name, value) in params {
                let id = self.store.find(&name).expect("parameter exists");
                *self.store.value_mut(id) = value;
            }
        }
    }

    /// Predicted label set for a feature vector.
    pub fn predict(&self, features: &[f32]) -> Vec<usize> {
        let mut f = Forward::inference(&self.store);
        let logits = self.logits_graph(&mut f, &self.store, features);
        let vals = f.graph.value(logits);
        let mut out: Vec<usize> = (0..self.n_labels).filter(|&i| vals.data()[i] > 0.0).collect();
        if out.is_empty() {
            out.push(vals.argmax());
        }
        out
    }

    /// Micro-F1 over `(features, labels)` pairs.
    fn micro_f1(&self, data: &[(Vec<f32>, Vec<usize>)]) -> f64 {
        let mut acc = turl_kb::tasks::metrics::PrfAccumulator::new();
        for (features, labels) in data {
            acc.add_sets(&self.predict(features), labels);
        }
        acc.f1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_have_fixed_dimension() {
        assert_eq!(extract_column_features(&[]).len(), N_FEATURES);
        assert_eq!(extract_column_features(&["a", "bb"]).len(), N_FEATURES);
    }

    #[test]
    fn features_distinguish_numbers_from_names() {
        let nums = extract_column_features(&["15", "17", "113"]);
        let names = extract_column_features(&["Satyajit Ray", "Mrinal Sen"]);
        assert!(nums[8] > 0.9, "digit fraction {}", nums[8]);
        assert!(names[8] < 0.1);
        assert!(names[9] > 0.5, "alpha fraction {}", names[9]);
        assert!(names[14] > 0.9, "uppercase-start fraction");
    }

    #[test]
    fn ordinal_feature_fires_on_editions() {
        let f = extract_column_features(&["15th", "17th", "21st"]);
        assert!(f[16] > 0.9);
    }

    #[test]
    fn sherlock_learns_a_separable_task() {
        // class 0: numeric columns; class 1: name-like columns
        let numeric: Vec<&str> = vec!["12", "345", "6789"];
        let names: Vec<&str> = vec!["Anna Kovacs", "Luca Rossi", "Omar Haddad"];
        let mut train = Vec::new();
        for i in 0..30 {
            let mut vals = numeric.clone();
            let extra = format!("{i}");
            vals.push(Box::leak(extra.into_boxed_str()));
            train.push((extract_column_features(&vals), vec![0usize]));
            train.push((extract_column_features(&names), vec![1usize]));
        }
        let val = train[..6].to_vec();
        let mut s = Sherlock::new(2, 3);
        s.train(&train, &val, 40, 10, 4);
        assert_eq!(s.predict(&extract_column_features(&["99", "100"])), vec![0]);
        assert_eq!(s.predict(&extract_column_features(&["Greta Weber", "Ivan Novak"])), vec![1]);
        assert!(s.micro_f1(&val) > 0.9);
    }
}
