//! Synthetic knowledge base and Wikipedia-style table corpus for TURL.
//!
//! The paper pre-trains on 570K relational tables extracted from Wikipedia
//! and grounds its downstream tasks in Freebase/DBpedia/Wikidata. None of
//! those resources ship with this repository, so this crate builds the
//! closest synthetic equivalent (see DESIGN.md §2):
//!
//! * a [`KnowledgeBase`] of typed entities with names, aliases,
//!   descriptions and typed binary relations, sampled with Zipfian
//!   popularity ([`WorldConfig`]);
//! * a table-corpus generator that *samples* relational tables from the KB
//!   with realistic noise — mention aliasing, unlinked cells, missing
//!   values, junk columns ([`CorpusConfig`], [`generate_corpus`]);
//! * the paper's §5.1 pre-processing pipeline — relational-table
//!   identification, subject-column detection, filtering, and train /
//!   validation / test partitioning ([`partition`]), chained after corpus
//!   generation by [`generate_splits`];
//! * a candidate-generation [`LookupIndex`] playing the role of the
//!   Wikidata Lookup service;
//! * dataset builders for the six TUBE benchmark tasks (module
//!   [`tasks`]).
//!
//! Because tables are sampled *from* the KB, the statistical structure
//! TURL exploits — entity co-occurrence within rows and columns, header ↔
//! relation correlation, caption ↔ topic correlation — is present by
//! construction, and every task has exact ground truth.

#![deny(missing_docs)]

mod cooccur;
mod corpus;
mod lookup;
mod names;
mod pipeline;
mod schema;
mod search;
pub mod tasks;
mod world;

pub use cooccur::CooccurrenceIndex;
pub use corpus::{generate_corpus, CorpusConfig};
pub use lookup::{LookupIndex, LookupResult};
pub use pipeline::{generate_splits, identify_relational, partition, CorpusSplits, PipelineConfig};
pub use schema::{NameKind, RelationDef, RelationId, Schema, TypeDef, TypeId};
pub use search::TableSearchIndex;
pub use world::{EntityMeta, KnowledgeBase, WorldConfig};

/// The form in which headers, aliases and mentions are compared: their
/// tokens joined by single spaces.
pub(crate) fn normalize(text: &str) -> String {
    turl_data::tokenize(text).join(" ")
}
