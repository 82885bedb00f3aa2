//! Table2Vec (Deng, Zhang & Balog, SIGIR'19): Word2Vec-style skip-gram
//! embeddings trained on tables serialized into token/entity sequences.
//! The paper uses it as the shallow-representation baseline for row
//! population and (as "H2V") for header similarity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use turl_data::{EntityId, Table};

/// Skip-gram hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipGramConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Context window (tokens on each side).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        Self { dim: 32, window: 4, negatives: 4, epochs: 5, lr: 0.05, seed: 0 }
    }
}

/// Skip-gram embeddings with negative sampling over integer sequences.
#[derive(Debug, Clone)]
pub struct SkipGram {
    dim: usize,
    input: Vec<f32>, // [vocab, dim]
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl SkipGram {
    /// Train on sequences over a vocabulary of `vocab_size` items.
    pub fn train(sequences: &[Vec<usize>], vocab_size: usize, cfg: &SkipGramConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let mut input: Vec<f32> =
            (0..vocab_size * d).map(|_| (rng.gen::<f32>() - 0.5) / d as f32).collect();
        let mut output = vec![0.0f32; vocab_size * d];
        let mut grad = vec![0.0f32; d];
        for _ in 0..cfg.epochs {
            for seq in sequences {
                for (i, &center) in seq.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(seq.len());
                    for (j, &context) in seq.iter().enumerate().take(hi).skip(lo) {
                        if j == i {
                            continue;
                        }
                        grad.iter_mut().for_each(|g| *g = 0.0);
                        // positive pair + negatives
                        for k in 0..=cfg.negatives {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (rng.gen_range(0..vocab_size), 0.0f32)
                            };
                            let (ci, to) = (center * d, target * d);
                            let mut dot = 0.0f32;
                            for x in 0..d {
                                dot += input[ci + x] * output[to + x];
                            }
                            let err = (sigmoid(dot) - label) * cfg.lr;
                            for x in 0..d {
                                grad[x] += err * output[to + x];
                                output[to + x] -= err * input[ci + x];
                            }
                        }
                        let ci = center * d;
                        for x in 0..d {
                            input[ci + x] -= grad[x];
                        }
                    }
                }
            }
        }
        let _ = output;
        Self { dim: d, input }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Input embedding vector of an item.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.input[id * self.dim..(id + 1) * self.dim]
    }

    /// Cosine similarity between two items.
    pub fn cosine(&self, a: usize, b: usize) -> f32 {
        let (va, vb) = (self.vector(a), self.vector(b));
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (x, y) in va.iter().zip(vb.iter()) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }
}

/// Table2Vec for row population: entity embeddings trained on per-table
/// entity sequences, ranking candidates by mean cosine to the seeds.
#[derive(Debug, Clone)]
pub struct Table2Vec {
    sg: SkipGram,
    index_of: HashMap<EntityId, usize>,
}

impl Table2Vec {
    /// Train on the entity sequences of a table corpus.
    pub fn train(tables: &[Table], cfg: &SkipGramConfig) -> Self {
        let mut index_of: HashMap<EntityId, usize> = HashMap::new();
        let mut sequences: Vec<Vec<usize>> = Vec::with_capacity(tables.len());
        for t in tables {
            let mut seq = Vec::new();
            for (_, _, e) in t.linked_entities() {
                let next = index_of.len();
                let idx = *index_of.entry(e.id).or_insert(next);
                seq.push(idx);
            }
            if seq.len() > 1 {
                sequences.push(seq);
            }
        }
        let sg = SkipGram::train(&sequences, index_of.len().max(1), cfg);
        Self { sg, index_of }
    }

    /// Rank candidates by mean cosine similarity to the seed entities.
    /// Entities unseen in training rank last (similarity 0). Returns the
    /// candidates best-first.
    pub fn rank(&self, seeds: &[EntityId], candidates: &[EntityId]) -> Vec<EntityId> {
        let seed_idx: Vec<usize> =
            seeds.iter().filter_map(|e| self.index_of.get(e).copied()).collect();
        let mut scored: Vec<(EntityId, f32)> = candidates
            .iter()
            .map(|&c| {
                let score = match self.index_of.get(&c) {
                    Some(&ci) if !seed_idx.is_empty() => {
                        seed_idx.iter().map(|&s| self.sg.cosine(ci, s)).sum::<f32>()
                            / seed_idx.len() as f32
                    }
                    _ => 0.0,
                };
                (c, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.into_iter().map(|(e, _)| e).collect()
    }

    /// Whether an entity was seen during training.
    pub fn knows(&self, e: EntityId) -> bool {
        self.index_of.contains_key(&e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipgram_groups_cooccurring_items() {
        // two disjoint "topics": {0,1,2} and {3,4,5}
        let mut sequences = Vec::new();
        for _ in 0..60 {
            sequences.push(vec![0, 1, 2, 0, 2, 1]);
            sequences.push(vec![3, 4, 5, 5, 3, 4]);
        }
        let sg = SkipGram::train(
            &sequences,
            6,
            &SkipGramConfig { dim: 16, epochs: 3, ..Default::default() },
        );
        let within = sg.cosine(0, 1);
        let across = sg.cosine(0, 4);
        assert!(
            within > across,
            "co-occurring items should be closer: within {within} across {across}"
        );
    }

    #[test]
    fn skipgram_deterministic() {
        let seqs = vec![vec![0, 1, 2], vec![2, 1, 0]];
        let a = SkipGram::train(&seqs, 3, &SkipGramConfig::default());
        let b = SkipGram::train(&seqs, 3, &SkipGramConfig::default());
        assert_eq!(a.vector(1), b.vector(1));
    }

    #[test]
    fn table2vec_ranks_known_cooccurring_entity_first() {
        use turl_data::Cell;
        let mk = |id: &str, ents: &[u32]| Table {
            id: id.into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: String::new(),
            topic_entity: None,
            headers: vec!["a".into(), "b".into()],
            subject_column: 0,
            rows: ents
                .chunks(2)
                .map(|c| c.iter().map(|&e| Cell::linked(e, format!("e{e}"))).collect::<Vec<_>>())
                .collect(),
        };
        let mut tables = Vec::new();
        for i in 0..40 {
            tables.push(mk(&format!("x{i}"), &[1, 2, 3, 4]));
            tables.push(mk(&format!("y{i}"), &[10, 11, 12, 13]));
        }
        let t2v =
            Table2Vec::train(&tables, &SkipGramConfig { dim: 16, epochs: 4, ..Default::default() });
        let ranked = t2v.rank(&[1], &[12, 3]);
        assert_eq!(ranked[0], 3, "entity from the same cluster should rank first");
        assert!(t2v.knows(1));
        assert!(!t2v.knows(999));

        // A NaN score is ranked, not a panic: poison one candidate's
        // embedding, so its cosine to any seed is NaN.
        let mut poisoned = t2v.clone();
        let (row, d) = (poisoned.index_of[&3], poisoned.sg.dim);
        poisoned.sg.input[row * d..][..d].fill(f32::NAN);
        let ranked = poisoned.rank(&[1], &[12, 3, 2]);
        assert_eq!(ranked.len(), 3);
        let clean: Vec<EntityId> = ranked.iter().copied().filter(|&e| e != 3).collect();
        assert_eq!(clean, vec![2, 12], "the finite scores keep their order");
    }
}
