//! Candidate generation: a string-lookup index over entity aliases.
//!
//! Plays the role of the Wikidata Lookup service in §6.2: given a cell
//! mention it returns a ranked candidate list. An `alias_drop` knob removes
//! a fraction of non-canonical aliases from the index to emulate the
//! imperfect recall of a real lookup service (the paper's Oracle recall is
//! 64–76%).

use crate::normalize;
use crate::world::KnowledgeBase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use turl_data::{tokenize, EntityId};

/// Ranked candidates for one mention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// Candidate entities, best first.
    pub candidates: Vec<EntityId>,
}

impl LookupResult {
    /// The top-ranked candidate, if any.
    pub fn top1(&self) -> Option<EntityId> {
        self.candidates.first().copied()
    }

    /// Whether the gold entity is among the candidates (Oracle criterion).
    pub fn contains(&self, gold: EntityId) -> bool {
        self.candidates.contains(&gold)
    }
}

/// Alias → entities index with popularity-ranked results.
#[derive(Debug, Clone)]
pub struct LookupIndex {
    exact: HashMap<String, Vec<EntityId>>,
    token_index: HashMap<String, Vec<EntityId>>,
}

impl LookupIndex {
    /// Build a perfect-recall index over all aliases.
    pub fn build(kb: &KnowledgeBase) -> Self {
        Self::build_with(kb, 0.0, 0)
    }

    /// Build an index that drops each non-canonical alias with probability
    /// `alias_drop` (deterministic in `seed`).
    pub fn build_with(kb: &KnowledgeBase, alias_drop: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut exact: HashMap<String, Vec<EntityId>> = HashMap::new();
        let mut token_index: HashMap<String, Vec<EntityId>> = HashMap::new();
        for e in &kb.entities {
            for alias in &e.aliases {
                // every surface form is subject to service imperfection,
                // including canonical names (real lookup services miss
                // plenty of head entities too)
                if rng.gen::<f64>() < alias_drop {
                    continue;
                }
                exact.entry(normalize(alias)).or_default().push(e.id);
            }
            for tok in tokenize(&e.name) {
                // the fuzzy layer is part of the same imperfect service:
                // postings drop out at the same rate as aliases
                if rng.gen::<f64>() < alias_drop {
                    continue;
                }
                token_index.entry(tok).or_default().push(e.id);
            }
        }
        // Rank candidate lists by popularity (descending), dedup.
        let rank = |v: &mut Vec<EntityId>| {
            v.sort_unstable();
            v.dedup();
            v.sort_by(|&a, &b| {
                kb.entity(b)
                    .popularity
                    .partial_cmp(&kb.entity(a).popularity)
                    .expect("finite popularity")
                    .then(a.cmp(&b))
            });
        };
        exact.values_mut().for_each(&rank);
        token_index.values_mut().for_each(&rank);
        Self { exact, token_index }
    }

    /// Look up a mention, returning at most `max` ranked candidates.
    ///
    /// Exact alias matches rank first; token-overlap matches fill the
    /// remainder.
    pub fn lookup(&self, mention: &str, max: usize) -> LookupResult {
        let norm = normalize(mention);
        let mut out: Vec<EntityId> = Vec::new();
        if let Some(v) = self.exact.get(&norm) {
            out.extend(v.iter().copied().take(max));
        }
        if out.len() < max {
            let mut scored: HashMap<EntityId, usize> = HashMap::new();
            for tok in norm.split(' ') {
                if let Some(v) = self.token_index.get(tok) {
                    for &e in v.iter().take(200) {
                        *scored.entry(e).or_insert(0) += 1;
                    }
                }
            }
            let mut extra: Vec<(EntityId, usize)> =
                scored.into_iter().filter(|(e, _)| !out.contains(e)).collect();
            extra.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            out.extend(extra.into_iter().map(|(e, _)| e).take(max - out.len()));
        }
        LookupResult { candidates: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{KnowledgeBase, WorldConfig};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::generate(&WorldConfig::tiny(31))
    }

    #[test]
    fn canonical_name_lookup_finds_entity() {
        let kb = kb();
        let idx = LookupIndex::build(&kb);
        let mut hits = 0;
        for e in kb.entities.iter().take(100) {
            if idx.lookup(&e.name, 50).contains(e.id) {
                hits += 1;
            }
        }
        assert!(hits >= 95, "canonical recall too low: {hits}/100");
    }

    #[test]
    fn alias_lookup_finds_entity() {
        let kb = kb();
        let idx = LookupIndex::build(&kb);
        let e = kb.entities.iter().find(|e| e.aliases.len() > 1).unwrap();
        assert!(idx.lookup(&e.aliases[1], 50).contains(e.id));
    }

    #[test]
    fn ambiguous_aliases_return_multiple_candidates() {
        let kb = kb();
        let idx = LookupIndex::build(&kb);
        let ambiguous = kb
            .entities
            .iter()
            .filter(|e| e.aliases.len() > 1)
            .map(|e| idx.lookup(&e.aliases[1], 50).candidates.len())
            .max()
            .unwrap();
        assert!(ambiguous > 1, "expected at least one ambiguous alias");
    }

    #[test]
    fn candidates_ranked_by_popularity() {
        let kb = kb();
        let idx = LookupIndex::build(&kb);
        let e = kb.entities.iter().find(|e| e.aliases.len() > 1).unwrap();
        let res = idx.lookup(&e.aliases[1], 50);
        for w in res.candidates.windows(2) {
            assert!(kb.entity(w[0]).popularity >= kb.entity(w[1]).popularity);
        }
    }

    #[test]
    fn alias_drop_reduces_recall() {
        let kb = kb();
        let full = LookupIndex::build(&kb);
        let degraded = LookupIndex::build_with(&kb, 0.8, 1);
        assert!(degraded.exact.len() < full.exact.len());
    }

    #[test]
    fn lookup_unknown_mention_is_empty_or_fuzzy() {
        let kb = kb();
        let idx = LookupIndex::build(&kb);
        let res = idx.lookup("zzz qqq xxx totally unknown", 10);
        assert!(res.candidates.len() <= 10);
    }

    #[test]
    fn lookup_respects_max() {
        let kb = kb();
        let idx = LookupIndex::build(&kb);
        let e = &kb.entities[0];
        assert!(idx.lookup(&e.name, 3).candidates.len() <= 3);
    }
}
