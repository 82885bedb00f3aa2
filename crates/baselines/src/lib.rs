//! Published baselines the paper compares TURL against (Table 2):
//!
//! * [`SkipGram`] / [`Table2Vec`] — word/entity embeddings trained on the
//!   table corpus (Deng et al. \[11\]); used for row population and the H2V
//!   cell-filling ranker.
//! * [`EntiTables`] — the generative probabilistic row-population ranker
//!   of Zhang & Balog \[35\].
//! * [`Sherlock`] — the feature-engineered column-type classifier of
//!   Hulsebos et al. \[16\] (statistical + character-distribution features
//!   into an MLP; our feature set is the tractable core of Sherlock's
//!   1588 features).
//! * [`KnnSchema`] — the tf-idf + kNN schema-augmentation baseline \[35\].
//! * [`rank_exact`] / [`rank_h2h`] / [`rank_h2v`] — the Exact, H2H and
//!   H2V cell-filling rankers (§6.6, Eqns. 14–15).
//! * [`BertStyleRe`] — the "BERT-based" relation-extraction baseline
//!   \[39\]: TURL's encoder over metadata-as-a-sentence, with no visibility
//!   mask and no table pre-training.
//! * [`lookup_top1`] — the Wikidata-Lookup baseline and its Oracle bound
//!   for entity linking.

#![deny(missing_docs)]

mod bert_re;
mod cell_filling;
mod entitables;
mod knn_schema;
mod lookup_el;
mod sherlock;
mod table2vec;

pub use bert_re::{BertReConfig, BertStyleRe};
pub use cell_filling::{rank_exact, rank_h2h, rank_h2v, HeaderSpace};
pub use entitables::EntiTables;
pub use knn_schema::{KnnSchema, KnnSchemaResult};
pub use lookup_el::{lookup_oracle_prf, lookup_top1, lookup_top1_prf};
pub use sherlock::{extract_column_features, Sherlock, N_FEATURES};
pub use table2vec::{SkipGram, SkipGramConfig, Table2Vec};
