//! Schema-augmentation dataset (§6.7): given a caption and zero or a few
//! seed headers, recommend the remaining headers from a header vocabulary.

use crate::normalize;
use std::collections::HashMap;
use turl_data::Table;

/// Normalized header vocabulary (headers appearing in at least `min_tables`
/// distinct tables).
#[derive(Debug, Clone)]
pub struct HeaderVocab {
    headers: Vec<String>,
    index: HashMap<String, usize>,
}

impl HeaderVocab {
    /// Number of headers.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Header string by index.
    pub fn header(&self, i: usize) -> &str {
        &self.headers[i]
    }

    /// Index of a (raw) header after normalization.
    pub fn id(&self, header: &str) -> Option<usize> {
        self.index.get(&normalize(header)).copied()
    }

    /// All headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }
}

/// Build the header vocabulary from the pre-training corpus.
pub fn build_header_vocab(tables: &[Table], min_tables: usize) -> HeaderVocab {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for t in tables {
        let mut seen: Vec<String> = t.headers.iter().map(|h| normalize(h)).collect();
        seen.sort();
        seen.dedup();
        for h in seen {
            if !h.is_empty() {
                *counts.entry(h).or_insert(0) += 1;
            }
        }
    }
    let mut headers: Vec<String> =
        counts.into_iter().filter(|&(_, c)| c >= min_tables).map(|(h, _)| h).collect();
    headers.sort();
    let index = headers.iter().enumerate().map(|(i, h)| (h.clone(), i)).collect();
    HeaderVocab { headers, index }
}

/// One schema-augmentation query.
#[derive(Debug, Clone)]
pub struct SchemaAugExample {
    /// Index of the table within its split.
    pub table_idx: usize,
    /// The query caption.
    pub caption: String,
    /// Seed header indices (into the vocabulary).
    pub seeds: Vec<usize>,
    /// Gold header indices to recommend.
    pub gold: Vec<usize>,
}

/// Build queries: each table's in-vocabulary headers are split into the
/// first `n_seed` seeds and the remaining gold targets.
pub fn build_schema_augmentation(
    tables: &[Table],
    vocab: &HeaderVocab,
    n_seed: usize,
) -> Vec<SchemaAugExample> {
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let mut ids: Vec<usize> = t.headers.iter().filter_map(|h| vocab.id(h)).collect();
        ids.dedup();
        if ids.len() <= n_seed {
            continue;
        }
        let seeds = ids[..n_seed].to_vec();
        let gold = ids[n_seed..].to_vec();
        out.push(SchemaAugExample { table_idx: ti, caption: t.full_caption(), seeds, gold });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::pipeline::{generate_splits, PipelineConfig};
    use crate::world::{KnowledgeBase, WorldConfig};

    fn setup() -> (HeaderVocab, Vec<SchemaAugExample>, Vec<SchemaAugExample>) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(95));
        let cfg = PipelineConfig { max_eval_tables: 40, ..Default::default() };
        let splits = generate_splits(&kb, &CorpusConfig::tiny(96), &cfg);
        let vocab = build_header_vocab(&splits.train, 3);
        let zero = build_schema_augmentation(&splits.test, &vocab, 0);
        let one = build_schema_augmentation(&splits.test, &vocab, 1);
        (vocab, zero, one)
    }

    #[test]
    fn vocab_is_normalized_and_sorted() {
        let (vocab, _, _) = setup();
        assert!(vocab.len() > 5, "vocab too small: {}", vocab.len());
        for i in 0..vocab.len() {
            assert_eq!(vocab.header(i), normalize(vocab.header(i)));
        }
        assert!(vocab.headers().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_seed_has_all_headers_as_gold() {
        let (_, zero, _) = setup();
        assert!(!zero.is_empty());
        for q in &zero {
            assert!(q.seeds.is_empty());
            assert!(!q.gold.is_empty());
        }
    }

    #[test]
    fn one_seed_removes_first_header_from_gold() {
        let (_, _, one) = setup();
        for q in &one {
            assert_eq!(q.seeds.len(), 1);
            assert!(!q.gold.contains(&q.seeds[0]));
        }
    }

    #[test]
    fn id_lookup_handles_raw_headers() {
        let (vocab, _, _) = setup();
        let h = vocab.header(0).to_string();
        assert_eq!(vocab.id(&h.to_uppercase()), Some(0));
        assert_eq!(vocab.id("definitely not a header zzz"), None);
    }
}
