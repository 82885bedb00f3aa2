//! Fine-tuning heads and evaluation for the six TUBE tasks (§6).
//!
//! Each task module provides a model struct wrapping the pre-trained
//! [`TurlModel`], a `train` entry point (where the paper fine-tunes) and an
//! `evaluate` entry point producing the paper's metric.

pub mod cell_filling;
pub mod column_type;
pub mod entity_linking;
pub mod relation_extraction;
pub mod row_population;
pub mod schema_augmentation;

use crate::config::TurlConfig;
use crate::input::EncodedInput;
use crate::model::TurlModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use turl_data::{Cell, LinearizeConfig, Table, TableInstance, Vocab};
use turl_nn::{Forward, ParamStore};
use turl_tensor::{Tensor, Var};

/// Which input channels a task model consumes — the knobs behind the
/// paper's ablation rows ("w/o table metadata", "w/o learned embedding",
/// "only entity mention", ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputChannels {
    /// Include caption/header tokens.
    pub metadata: bool,
    /// Include entity cells at all.
    pub cells: bool,
    /// Feed the pre-trained entity embedding `e^e` of each cell.
    pub cell_embedding: bool,
    /// Feed the mention text `e^m` of each cell.
    pub cell_mention: bool,
}

impl InputChannels {
    /// Everything on (the headline TURL configuration).
    pub fn full() -> Self {
        Self { metadata: true, cells: true, cell_embedding: true, cell_mention: true }
    }

    /// "only entity mention": cell text only, no metadata, no embeddings.
    pub fn only_mention() -> Self {
        Self { metadata: false, cells: true, cell_embedding: false, cell_mention: true }
    }

    /// "w/o table metadata".
    pub fn without_metadata() -> Self {
        Self { metadata: false, ..Self::full() }
    }

    /// "w/o learned embedding".
    pub fn without_embedding() -> Self {
        Self { cell_embedding: false, ..Self::full() }
    }

    /// "only table metadata".
    pub fn only_metadata() -> Self {
        Self { metadata: true, cells: false, cell_embedding: false, cell_mention: false }
    }

    /// "only learned embedding".
    pub fn only_embedding() -> Self {
        Self { metadata: false, cells: true, cell_embedding: true, cell_mention: false }
    }
}

/// Clone a pre-trained model into a fresh (model, store) pair so each
/// fine-tuning variant starts from identical weights.
///
/// # Panics
/// Panics when `pretrained` does not hold this model's parameters
/// ([`bind_store`](crate::bind_store)): fine-tuning from a partly
/// random model is never what the caller meant.
pub fn clone_pretrained(
    cfg: TurlConfig,
    n_words: usize,
    n_entities: usize,
    pretrained: &ParamStore,
) -> (TurlModel, ParamStore) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let model = TurlModel::new(&mut store, &mut rng, cfg, n_words, n_entities);
    if let Err(e) = crate::bind_store(&model, pretrained) {
        panic!("clone_pretrained: {e}");
    }
    store.load_matching(pretrained);
    (model, store)
}

/// Linearize a table and apply the [`InputChannels`] filters, producing a
/// model-ready encoding.
pub fn encode_table_with_channels(
    table: &Table,
    vocab: &Vocab,
    lin: &LinearizeConfig,
    use_visibility: bool,
    channels: InputChannels,
) -> (TableInstance, EncodedInput) {
    let mut inst = TableInstance::from_table(table, vocab, lin);
    if !channels.metadata {
        inst.tokens.clear();
    }
    if !channels.cells {
        inst.entities.clear();
    }
    let mut enc = EncodedInput::from_instance(&inst, vocab, use_visibility);
    let mask_word = vocab.mask_id() as usize;
    for i in 0..enc.entities.len() {
        if !channels.cell_embedding {
            enc.entities[i].emb_index = 0;
        }
        if !channels.cell_mention {
            enc.entities[i].mention = vec![mask_word];
        }
    }
    (inst, enc)
}

/// `items` grouped by the table index each is paired with, in ascending
/// table order, each group keeping its items' order: one encode per
/// table, in an order that does not depend on a hash.
pub(crate) fn group_by_table<T>(
    items: impl IntoIterator<Item = (usize, T)>,
) -> Vec<(usize, Vec<T>)> {
    let mut groups: BTreeMap<usize, Vec<T>> = BTreeMap::new();
    for (table_idx, item) in items {
        groups.entry(table_idx).or_default().push(item);
    }
    groups.into_iter().collect()
}

/// A task query (§6.5–§6.7) as the partial table the model reads through
/// the §4.2 linearization: a caption, headers and `rows` whose first
/// column is the subject column, and no topic entity. The queries are
/// encoded with full visibility; whether §4.3's mask belongs on them is
/// an open fidelity question.
fn query_table(caption: String, headers: Vec<String>, rows: Vec<Vec<Cell>>) -> Table {
    Table {
        id: String::new(),
        page_title: String::new(),
        section_title: String::new(),
        caption,
        topic_entity: None,
        headers,
        subject_column: 0,
        rows,
    }
}

/// Aggregated column representation `h_c` (Eqn. 9): mean header-token
/// representation concatenated with mean entity-cell representation, shape
/// `[1, 2 d]`. Missing channels contribute zero vectors.
pub fn column_repr(f: &mut Forward, h: Var, inst: &TableInstance, col: usize, d: usize) -> Var {
    let header_rows = inst.header_tokens_of(col);
    let ent_rows: Vec<usize> =
        inst.entities_in_column(col).iter().map(|&i| inst.entity_seq_index(i)).collect();
    let header_part = if header_rows.is_empty() {
        f.graph.constant(Tensor::zeros(vec![d]))
    } else {
        let sel = f.graph.index_select0(h, &header_rows);
        f.graph.mean_rows(sel)
    };
    let ent_part = if ent_rows.is_empty() {
        f.graph.constant(Tensor::zeros(vec![d]))
    } else {
        let sel = f.graph.index_select0(h, &ent_rows);
        f.graph.mean_rows(sel)
    };
    let hh = f.graph.reshape(header_part, vec![1, d]);
    let he = f.graph.reshape(ent_part, vec![1, d]);
    f.graph.concat_cols(&[hh, he])
}

/// Multi-label 0/1 target row for `n_labels` classes.
pub fn multi_hot(labels: &[usize], n_labels: usize) -> Tensor {
    let mut t = Tensor::zeros(vec![1, n_labels]);
    for &l in labels {
        t.data_mut()[l] = 1.0;
    }
    t
}

/// Predict the label set from a `[1, n]` logit row (sigmoid > 0.5 ⇔
/// logit > 0), falling back to the argmax so every example predicts at
/// least one label (each column/pair has at least one gold type).
pub fn predict_labels(logits: &Tensor) -> Vec<usize> {
    let mut out: Vec<usize> = (0..logits.len()).filter(|&i| logits.data()[i] > 0.0).collect();
    if out.is_empty() {
        out.push(logits.argmax());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_kb::{generate_splits, CorpusConfig, CorpusSplits, KnowledgeBase, PipelineConfig};

    /// The fixed tiny world of the task-query golden tests, with a model
    /// whose linearization limits are tight enough to truncate.
    pub(super) fn golden_world() -> (KnowledgeBase, CorpusSplits, Vocab, TurlModel, ParamStore) {
        let kb = KnowledgeBase::generate(&turl_kb::WorldConfig::tiny(81));
        let pcfg = PipelineConfig { max_eval_tables: 12, ..Default::default() };
        let splits =
            generate_splits(&kb, &CorpusConfig { n_tables: 60, ..CorpusConfig::tiny(82) }, &pcfg);
        let vocab = Vocab::from_tables(&splits.train, []);
        let linearize = LinearizeConfig {
            max_caption_tokens: 4,
            max_header_tokens: 2,
            max_mention_tokens: 2,
            ..Default::default()
        };
        let cfg = TurlConfig { linearize, ..TurlConfig::tiny(83) };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let model = TurlModel::new(&mut store, &mut rng, cfg, vocab.len(), kb.n_entities());
        (kb, splits, vocab, model, store)
    }

    /// Everything a task query feeds the model, and the row it reads.
    pub(super) fn render_query((enc, row): (EncodedInput, usize)) -> String {
        assert!(enc.mask.is_none());
        let cells: Vec<_> =
            enc.entities.iter().map(|e| (e.emb_index, &e.mention, e.type_idx)).collect();
        format!("{:?} {:?} {:?} {cells:?} @{row}", enc.token_ids, enc.token_types, enc.token_pos)
    }

    #[test]
    fn multi_hot_sets_bits() {
        let t = multi_hot(&[0, 2], 4);
        assert_eq!(t.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn predict_labels_threshold_and_fallback() {
        let t = Tensor::from_vec(vec![1, 3], vec![-1.0, 2.0, 0.5]);
        assert_eq!(predict_labels(&t), vec![1, 2]);
        let none = Tensor::from_vec(vec![1, 3], vec![-3.0, -1.0, -2.0]);
        assert_eq!(predict_labels(&none), vec![1]);
    }

    #[test]
    fn encode_with_channels_filters_inputs() {
        use turl_data::{Cell, EntityRef};
        let table = turl_data::Table {
            id: "t".into(),
            page_title: "Films".into(),
            section_title: String::new(),
            caption: "by director".into(),
            topic_entity: Some(EntityRef { id: 5, mention: "topic".into() }),
            headers: vec!["film".into(), "director".into()],
            subject_column: 0,
            rows: vec![vec![Cell::linked(1, "alpha"), Cell::linked(2, "beta")]],
        };
        let vocab = turl_data::Vocab::build(
            ["films by director film alpha beta topic"].iter().map(|s| &**s),
            1,
        );
        let lin = turl_data::LinearizeConfig::default();

        let (_, full) =
            encode_table_with_channels(&table, &vocab, &lin, true, InputChannels::full());
        assert!(!full.token_ids.is_empty());
        assert_eq!(full.entities.len(), 3);
        assert!(full.entities.iter().all(|e| e.emb_index > 0));

        let (_, only_meta) =
            encode_table_with_channels(&table, &vocab, &lin, true, InputChannels::only_metadata());
        assert!(only_meta.entities.is_empty());
        assert!(!only_meta.token_ids.is_empty());

        let (_, no_meta) = encode_table_with_channels(
            &table,
            &vocab,
            &lin,
            true,
            InputChannels::without_metadata(),
        );
        assert!(no_meta.token_ids.is_empty());
        assert_eq!(no_meta.entities.len(), 3);

        let (_, no_emb) = encode_table_with_channels(
            &table,
            &vocab,
            &lin,
            true,
            InputChannels::without_embedding(),
        );
        assert!(no_emb.entities.iter().all(|e| e.emb_index == 0), "embeddings masked");
        assert!(no_emb.entities.iter().any(|e| e.mention != vec![vocab.mask_id() as usize]));

        let (_, only_emb) =
            encode_table_with_channels(&table, &vocab, &lin, true, InputChannels::only_embedding());
        assert!(only_emb.entities.iter().all(|e| e.mention == vec![vocab.mask_id() as usize]));
        assert!(only_emb.entities.iter().all(|e| e.emb_index > 0));

        // the visibility mask matches the (possibly reduced) sequence
        for enc in [&full, &only_meta, &no_meta] {
            if let Some(m) = &enc.mask {
                assert_eq!(m.shape(), &[enc.seq_len(), enc.seq_len()]);
            }
        }
    }

    #[test]
    fn column_repr_has_2d_width() {
        use turl_data::{Cell, EntityRef};
        use turl_nn::{Forward, ParamStore};
        let table = turl_data::Table {
            id: "t".into(),
            page_title: String::new(),
            section_title: String::new(),
            caption: "c".into(),
            topic_entity: Some(EntityRef { id: 5, mention: "topic".into() }),
            headers: vec!["a".into(), "b".into()],
            subject_column: 0,
            rows: vec![vec![Cell::linked(1, "x"), Cell::linked(2, "y")]],
        };
        let vocab = turl_data::Vocab::build(["c a b x y topic"].iter().map(|s| &**s), 1);
        let inst = turl_data::TableInstance::from_table(
            &table,
            &vocab,
            &turl_data::LinearizeConfig::default(),
        );
        let store = ParamStore::new();
        let mut f = Forward::inference(&store);
        let h = f.graph.constant(turl_tensor::Tensor::ones(vec![inst.seq_len(), 6]));
        let hc = column_repr(&mut f, h, &inst, 1, 6);
        assert_eq!(f.graph.value(hc).shape(), &[1, 12]);
        // a column with no header tokens / no entities still yields zeros
        let hc9 = column_repr(&mut f, h, &inst, 9, 6);
        assert_eq!(f.graph.value(hc9).shape(), &[1, 12]);
        assert!(f.graph.value(hc9).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn channel_presets_match_paper_rows() {
        assert!(InputChannels::full().metadata);
        assert!(!InputChannels::only_mention().metadata);
        assert!(!InputChannels::only_mention().cell_embedding);
        assert!(InputChannels::only_mention().cell_mention);
        assert!(!InputChannels::only_metadata().cells);
        assert!(!InputChannels::only_embedding().cell_mention);
        assert!(InputChannels::without_embedding().metadata);
    }
}
