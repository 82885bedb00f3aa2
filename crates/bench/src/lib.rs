//! Experiment harness: shared setup for the binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §4).
//!
//! Each `exp_*` binary builds (or re-uses) a deterministic synthetic
//! world, pre-trains TURL (the weights are cached as a model artifact
//! under `target/turl-cache/`), runs one experiment and prints the paper's rows.
//! Set `TURL_SCALE=full` for the larger configuration, `TURL_SCALE=smoke`
//! for a seconds-level sanity run (the default is `quick`).

pub mod throughput;

use std::path::PathBuf;
use turl_core::{EncodedInput, Pretrainer, TurlConfig};
use turl_data::{CorpusStats, LinearizeConfig, TableInstance, Vocab};
use turl_kb::{
    generate_corpus, identify_relational, partition, CooccurrenceIndex, CorpusConfig, CorpusSplits,
    KnowledgeBase, LookupIndex, PipelineConfig, TableSearchIndex, WorldConfig,
};
use turl_nn::TransformerConfig;

/// Experiment scale, selected via the `TURL_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-level smoke test.
    Smoke,
    /// Default: minutes-level, shapes reproduce.
    Quick,
    /// Larger corpus and longer pre-training.
    Full,
}

impl Scale {
    /// Read from `TURL_SCALE` (default `quick`).
    pub fn from_env() -> Self {
        match std::env::var("TURL_SCALE").unwrap_or_default().as_str() {
            "full" => Scale::Full,
            "smoke" => Scale::Smoke,
            _ => Scale::Quick,
        }
    }

    /// Number of raw tables generated.
    pub fn n_tables(self) -> usize {
        match self {
            Scale::Smoke => 150,
            Scale::Quick => 1200,
            Scale::Full => 4000,
        }
    }

    /// Number of entities in the synthetic KB.
    pub fn n_entities(self) -> usize {
        match self {
            Scale::Smoke => 400,
            Scale::Quick => 2500,
            Scale::Full => 6000,
        }
    }

    /// Pre-training epochs.
    pub fn pretrain_epochs(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 8,
            Scale::Full => 25,
        }
    }

    /// Fine-tuning epochs (the paper's default is 10).
    pub fn finetune_epochs(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 6,
            Scale::Full => 10,
        }
    }

    /// Cap on training examples per task.
    pub fn max_task_examples(self) -> usize {
        match self {
            Scale::Smoke => 60,
            Scale::Quick => 600,
            Scale::Full => 4000,
        }
    }

    /// Tag used in cache filenames.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// The shared experiment world: KB, corpus splits, vocabulary and indices.
pub struct ExperimentWorld {
    /// The synthetic knowledge base.
    pub kb: KnowledgeBase,
    /// Train/validation/test table splits (§5.1).
    pub splits: CorpusSplits,
    /// Token vocabulary built from the training split.
    pub vocab: Vocab,
    /// Row co-occurrence index over the training split.
    pub cooccur: CooccurrenceIndex,
    /// Caption/entity retrieval index over the training split.
    pub search: TableSearchIndex,
    /// Perfect-recall candidate lookup.
    pub lookup: LookupIndex,
    /// Scale used.
    pub scale: Scale,
}

impl ExperimentWorld {
    /// Build the deterministic world for a scale.
    pub fn build(scale: Scale) -> Self {
        let kb = KnowledgeBase::generate(&WorldConfig {
            n_entities: scale.n_entities(),
            ..WorldConfig::small(77)
        });
        let corpus_cfg = CorpusConfig { n_tables: scale.n_tables(), ..CorpusConfig::small(78) };
        let pcfg = PipelineConfig {
            max_eval_tables: (scale.n_tables() / 8).max(20),
            ..Default::default()
        };
        let splits =
            partition(identify_relational(generate_corpus(&kb, &corpus_cfg), &pcfg), &pcfg);
        let texts: Vec<String> = splits
            .train
            .iter()
            .flat_map(|t| {
                let mut v = vec![t.full_caption()];
                v.extend(t.headers.clone());
                v.extend(t.rows.iter().flatten().map(|c| c.text.clone()));
                v
            })
            .chain(kb.entities.iter().map(|e| e.description.clone()))
            .collect();
        let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
        let cooccur = CooccurrenceIndex::build(&splits.train);
        let search = TableSearchIndex::build(&splits.train);
        let lookup = LookupIndex::build(&kb);
        Self { kb, splits, vocab, cooccur, search, lookup, scale }
    }

    /// The TURL configuration used by experiments at this scale.
    pub fn turl_config(&self) -> TurlConfig {
        let encoder = match self.scale {
            Scale::Smoke => TransformerConfig::tiny(),
            _ => TransformerConfig::small(),
        };
        TurlConfig { encoder, linearize: LinearizeConfig::default(), ..TurlConfig::small(7) }
    }

    /// Pre-encode a split for pre-training / probing.
    pub fn encode_split(
        &self,
        tables: &[turl_data::Table],
        cfg: &TurlConfig,
    ) -> Vec<(TableInstance, EncodedInput)> {
        tables
            .iter()
            .map(|t| {
                let inst = TableInstance::from_table(t, &self.vocab, &cfg.linearize);
                let enc = EncodedInput::from_instance(&inst, &self.vocab, cfg.use_visibility);
                (inst, enc)
            })
            .collect()
    }

    /// Print the Table 3 style corpus summary.
    pub fn print_corpus_stats(&self) {
        for (name, split) in [
            ("train", &self.splits.train),
            ("dev", &self.splits.validation),
            ("test", &self.splits.test),
        ] {
            let s = CorpusStats::compute(split);
            turl_obs::info(format!(
                "{name:>5} | tables {:>6} | rows min {:>3.0} mean {:>5.1} median {:>3.0} max {:>5.0} \
                 | ent-cols min {:>2.0} mean {:>4.1} median {:>2.0} max {:>3.0} \
                 | ents min {:>3.0} mean {:>5.1} median {:>3.0} max {:>5.0}",
                s.n_tables,
                s.rows.min, s.rows.mean, s.rows.median, s.rows.max,
                s.entity_columns.min, s.entity_columns.mean, s.entity_columns.median,
                s.entity_columns.max,
                s.entities.min, s.entities.mean, s.entities.median, s.entities.max,
            ));
        }
    }
}

/// Cache directory for pre-trained weights (model artifacts).
pub fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/turl-cache");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Pre-train TURL on the world's training split (or load the cached
/// artifact of an earlier run, if it still fits the model). `tag`
/// distinguishes experiment variants. The file name carries the kernel
/// library's [`turl_tensor::ops::NUMERICS`], so weights trained under
/// other arithmetic are never picked up: they are retrained instead.
pub fn pretrained(world: &ExperimentWorld, cfg: TurlConfig, tag: &str) -> Pretrainer {
    let mut pt = Pretrainer::new(
        cfg,
        world.vocab.len(),
        world.kb.n_entities(),
        world.vocab.mask_id() as usize,
    );
    let names: Vec<Vec<usize>> = world
        .kb
        .entities
        .iter()
        .map(|e| world.vocab.encode(&e.name).into_iter().map(|t| t as usize).collect())
        .collect();
    pt.model.init_entity_embeddings_from_names(&mut pt.store, &names);

    let numerics = turl_tensor::ops::NUMERICS;
    let path = cache_dir().join(format!("{}-{tag}-{numerics}.artifact", world.scale.tag()));
    if let Ok(loaded) = turl_nn::load_artifact(&path) {
        if turl_core::bind_store(&pt.model, &loaded).is_ok() {
            pt.store.load_matching(&loaded);
            turl_obs::warn(format!("[cache] loaded pre-trained weights {}", path.display()));
            return pt;
        }
    }
    let data = world.encode_split(&world.splits.train, &cfg);
    let epochs = world.scale.pretrain_epochs();
    turl_obs::warn(format!(
        "[pretrain:{tag}] {} tables x {epochs} epochs (d={}, layers={})",
        data.len(),
        cfg.encoder.d_model,
        cfg.encoder.n_layers
    ));
    let t0 = std::time::Instant::now();
    let stats = pt.train(&data, &world.cooccur, epochs);
    turl_obs::warn(format!(
        "[pretrain:{tag}] done in {:.1}s, loss {:.3} -> {:.3}",
        t0.elapsed().as_secs_f32(),
        stats.epoch_losses.first().copied().unwrap_or(f32::NAN),
        stats.epoch_losses.last().copied().unwrap_or(f32::NAN)
    ));
    turl_nn::export_artifact(&pt.store, &path, &turl_nn::ExportOptions::default()).ok();
    pt
}

/// Collect all texts of a table split (vocab-building helper for tests).
pub fn split_texts(tables: &[turl_data::Table]) -> Vec<String> {
    tables
        .iter()
        .flat_map(|t| {
            let mut v = vec![t.full_caption()];
            v.extend(t.headers.clone());
            v.extend(t.rows.iter().flatten().map(|c| c.text.clone()));
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_world_builds() {
        let w = ExperimentWorld::build(Scale::Smoke);
        assert!(w.splits.train.len() > 50);
        assert!(!w.splits.test.is_empty());
        assert!(w.vocab.len() > 50);
    }

    #[test]
    fn scale_from_env_default_quick() {
        std::env::remove_var("TURL_SCALE");
        assert_eq!(Scale::from_env(), Scale::Quick);
    }
}
