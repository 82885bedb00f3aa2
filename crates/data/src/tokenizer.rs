//! Word-level tokenizer and vocabulary.
//!
//! The paper uses the BERT WordPiece vocabulary (30,522 tokens); we build a
//! word-level vocabulary from the training corpus with the same special
//! tokens, which plays the identical role for our synthetic corpus.

use crate::model::Table;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Padding token.
pub const PAD_TOKEN: &str = "[PAD]";
/// Unknown-word token.
pub const UNK_TOKEN: &str = "[UNK]";
/// Mask token used by MLM and MER.
pub const MASK_TOKEN: &str = "[MASK]";
/// Sequence-level aggregate token.
pub const CLS_TOKEN: &str = "[CLS]";

/// Lowercase a text and split it into alphanumeric word tokens.
///
/// Punctuation separates tokens and is dropped; digits are kept.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// A token vocabulary with reserved special tokens.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vocab {
    tokens: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, u32>,
}

impl Vocab {
    /// Build a vocabulary from an iterator of texts, keeping words that
    /// occur at least `min_count` times. Special tokens always occupy ids
    /// `0..4` in the order PAD, UNK, MASK, CLS.
    pub fn build<'a>(texts: impl Iterator<Item = &'a str>, min_count: usize) -> Self {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for text in texts {
            for tok in tokenize(text) {
                *counts.entry(tok).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(String, usize)> =
            counts.into_iter().filter(|(_, c)| *c >= min_count).collect();
        // Deterministic order: by descending count, then lexicographic.
        words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut tokens: Vec<String> =
            [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, CLS_TOKEN].iter().map(|s| s.to_string()).collect();
        tokens.extend(words.into_iter().map(|(w, _)| w));
        let mut v = Self { tokens, index: HashMap::new() };
        v.rebuild_index();
        v
    }

    /// The corpus vocabulary: every caption, header and cell text of
    /// `tables`, plus `extra_texts` (say, the KB's entity descriptions),
    /// at min count 1. Ids depend only on the multiset of texts.
    pub fn from_tables<'t, 'a>(
        tables: impl IntoIterator<Item = &'t Table>,
        extra_texts: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let tables: Vec<&Table> = tables.into_iter().collect();
        let captions: Vec<String> = tables.iter().map(|t| t.full_caption()).collect();
        let mut texts: Vec<&str> = extra_texts.into_iter().collect();
        texts.extend(captions.iter().map(String::as_str));
        for t in tables {
            texts.extend(t.headers.iter().map(String::as_str));
            texts.extend(t.rows.iter().flatten().map(|c| c.text.as_str()));
        }
        Self::build(texts.into_iter(), 1)
    }

    /// Rebuild the token → id index (needed after deserialization).
    fn rebuild_index(&mut self) {
        self.index = self.tokens.iter().enumerate().map(|(i, t)| (t.clone(), i as u32)).collect();
    }

    /// Vocabulary size including special tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when only special tokens are present.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= 4
    }

    /// Id of a token, if present.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Id of a token, falling back to `[UNK]`.
    pub fn id_or_unk(&self, token: &str) -> u32 {
        self.id(token).unwrap_or(self.unk_id())
    }

    /// Token string for an id.
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Id of `[UNK]`.
    fn unk_id(&self) -> u32 {
        1
    }

    /// Id of `[MASK]`.
    pub fn mask_id(&self) -> u32 {
        2
    }

    /// Id of `[CLS]`.
    pub fn cls_id(&self) -> u32 {
        3
    }

    /// Tokenize and encode a text.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        tokenize(text).iter().map(|t| self.id_or_unk(t)).collect()
    }

    /// Decode ids back to a space-joined string (for debugging).
    pub fn decode(&self, ids: &[u32]) -> String {
        ids.iter().map(|&i| self.token(i)).collect::<Vec<_>>().join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("Satyajit Ray (director)"), vec!["satyajit", "ray", "director"]);
        assert_eq!(tokenize("2010–11 season"), vec!["2010", "11", "season"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("   "), Vec::<String>::new());
    }

    #[test]
    fn build_respects_min_count() {
        let texts = ["apple banana apple", "apple cherry"];
        let v = Vocab::build(texts.iter().map(|s| &**s), 2);
        assert!(v.id("apple").is_some());
        assert!(v.id("banana").is_none());
        assert!(v.id("cherry").is_none());
    }

    #[test]
    fn special_token_ids_fixed() {
        let v = Vocab::build(std::iter::empty(), 1);
        assert_eq!(v.id(PAD_TOKEN), Some(0));
        assert_eq!(v.id(UNK_TOKEN), Some(1));
        assert_eq!(v.id(MASK_TOKEN), Some(2));
        assert_eq!(v.id(CLS_TOKEN), Some(3));
        assert_eq!(v.len(), 4);
        assert!(v.is_empty());
    }

    #[test]
    fn encode_falls_back_to_unk() {
        let texts = ["known word here"];
        let v = Vocab::build(texts.iter().map(|s| &**s), 1);
        let ids = v.encode("known unknown");
        assert_eq!(ids[0], v.id("known").unwrap());
        assert_eq!(ids[1], v.unk_id());
    }

    #[test]
    fn deterministic_ids_across_builds() {
        let texts = ["b a c a b a", "c b"];
        let v1 = Vocab::build(texts.iter().map(|s| &**s), 1);
        let v2 = Vocab::build(texts.iter().map(|s| &**s), 1);
        for t in ["a", "b", "c"] {
            assert_eq!(v1.id(t), v2.id(t));
        }
        // 'a' occurs 3 times, most frequent, so lowest non-special id
        assert_eq!(v1.id("a"), Some(4));
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let texts = ["hello world"];
        let v = Vocab::build(texts.iter().map(|s| &**s), 1);
        let json = serde_json::to_string(&v).unwrap();
        let mut back: Vocab = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.id("hello"), v.id("hello"));
        assert_eq!(back.decode(&v.encode("hello world")), "hello world");
    }
}
