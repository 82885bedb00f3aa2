//! Pre-training: the §4.4 masking mechanics (MLM + MER), candidate-set
//! construction, and the training loop.

use crate::config::TurlConfig;
use crate::extensions::AuxRelationObjective;
use crate::input::EncodedInput;
use crate::model::{TapeTable, TurlModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::PathBuf;
use turl_audit::{lower_group_plan, ModelPlan, TensorId};
use turl_data::TableInstance;
use turl_kb::CooccurrenceIndex;
use turl_nn::{
    prune_checkpoints, remove_stale_temps, restore_params, save_trainer_checkpoint,
    snapshot_params, Adam, AdamConfig, Forward, LinearDecaySchedule, ParamStore, ProgressState,
    RngStateRepr, SerializeError, TrainerCheckpoint, CHECKPOINT_VERSION,
};
use turl_tensor::pool;

/// The masking decisions for one table: which positions were selected and
/// what their recovery targets are.
#[derive(Debug, Clone, Default)]
pub struct MaskPlan {
    /// `(token position, original word id)` pairs selected for MLM.
    pub mlm: Vec<(usize, usize)>,
    /// `(entity cell index, original entity id)` pairs selected for MER.
    pub mer: Vec<(usize, usize)>,
}

/// First id after the reserved special tokens (`[PAD] [UNK] [MASK] [CLS]`
/// occupy `0..4` in every [`turl_data::Vocab`]).
const FIRST_NON_SPECIAL_WORD: usize = 4;

/// Bounded resample attempts when a draw must avoid one excluded value.
const RESAMPLE_TRIES: usize = 8;

/// Draw a random non-special word id for the MLM 10% "random word" branch,
/// resampling (bounded) away from `mask_word_id`. Returns `None` when the
/// vocabulary has no usable id — callers keep the token unchanged then,
/// never emit an id outside `0..n_words`.
pub fn random_word_id<R: Rng>(rng: &mut R, n_words: usize, mask_word_id: usize) -> Option<usize> {
    if n_words <= FIRST_NON_SPECIAL_WORD {
        return None;
    }
    for _ in 0..RESAMPLE_TRIES {
        let id = rng.gen_range(FIRST_NON_SPECIAL_WORD..n_words);
        if id != mask_word_id {
            return Some(id);
        }
    }
    None
}

/// Draw a random entity id for the MER 10% noise branch, resampling
/// (bounded) away from the gold entity so the noise case never collapses
/// into a silent keep. `None` when no other entity exists.
pub fn random_entity_id<R: Rng>(rng: &mut R, n_entities: usize, gold: usize) -> Option<usize> {
    if n_entities <= 1 {
        return None;
    }
    for _ in 0..RESAMPLE_TRIES {
        let id = rng.gen_range(0..n_entities);
        if id != gold {
            return Some(id);
        }
    }
    None
}

/// Apply the §4.4 masking mechanism to an encoded input, in place.
///
/// MLM: `mlm_select_ratio` of token positions; of those 80% become
/// `[MASK]`, 10% a random word, 10% unchanged.
///
/// MER: `mer_select_ratio` of entity cells; of those 10% keep both `e^m`
/// and `e^e`, 63% mask both, 27% keep the mention and mask only the entity
/// (10% of which get a random entity instead of `[MASK]`).
pub fn apply_mask_plan<R: Rng>(
    rng: &mut R,
    enc: &mut EncodedInput,
    cfg: &TurlConfig,
    mask_word_id: usize,
    n_words: usize,
    n_entities: usize,
) -> MaskPlan {
    let mut plan = MaskPlan::default();
    for pos in 0..enc.token_ids.len() {
        if rng.gen::<f64>() >= cfg.pretrain.mlm_select_ratio {
            continue;
        }
        plan.mlm.push((pos, enc.token_ids[pos]));
        let roll = rng.gen::<f64>();
        if roll < 0.8 {
            enc.token_ids[pos] = mask_word_id;
        } else if roll < 0.9 {
            if let Some(id) = random_word_id(rng, n_words, mask_word_id) {
                enc.token_ids[pos] = id;
            } // else: vocabulary has no non-special word — keep unchanged
        } // else: keep unchanged
    }
    for cell in 0..enc.entities.len() {
        if rng.gen::<f64>() >= cfg.pretrain.mer_select_ratio {
            continue;
        }
        let original = enc.entities[cell].emb_index.checked_sub(1).expect("unmasked input");
        plan.mer.push((cell, original));
        let roll = rng.gen::<f64>();
        // 10% keep both; of the remaining 90%, `mer_mention_keep_share`
        // keeps the mention (paper: 30% -> the 63%/27% split of Section 4.4)
        let mask_both_upto = 0.1 + 0.9 * (1.0 - cfg.pretrain.mer_mention_keep_share);
        if roll < 0.1 {
            // keep both
        } else if roll < mask_both_upto {
            enc.mask_entity(cell, true, mask_word_id);
        } else {
            // keep mention, mask entity; 10% random-entity noise (which
            // must not draw the gold entity back — that would silently
            // turn the noise case into a keep)
            if rng.gen::<f64>() < 0.1 {
                match random_entity_id(rng, n_entities, original) {
                    Some(e) => enc.replace_entity(cell, e),
                    None => enc.mask_entity(cell, false, mask_word_id),
                }
            } else {
                enc.mask_entity(cell, false, mask_word_id);
            }
        }
    }
    plan
}

/// Build the MER candidate set for a table (Eqn. 6): the table's own
/// entities, entities co-occurring with them, and random negatives.
/// Returns entity ids (unshifted) in a deterministic order.
pub fn build_candidates<R: Rng>(
    rng: &mut R,
    inst: &TableInstance,
    cooccur: &CooccurrenceIndex,
    cfg: &TurlConfig,
    n_entities: usize,
) -> Vec<usize> {
    let mut set: HashSet<usize> = HashSet::new();
    let mut out: Vec<usize> = Vec::new();
    if cfg.candidates.use_table_entities {
        for e in &inst.entities {
            if set.insert(e.entity as usize) {
                out.push(e.entity as usize);
            }
        }
    }
    let mut co: Vec<usize> = Vec::new();
    for e in &inst.entities {
        for &c in cooccur.cooccurring(e.entity) {
            co.push(c as usize);
        }
    }
    co.sort_unstable();
    co.dedup();
    co.shuffle(rng);
    for c in co.into_iter().take(cfg.candidates.max_cooccurring) {
        if set.insert(c) {
            out.push(c);
        }
    }
    let mut guard = 0;
    let mut added = 0;
    while added < cfg.candidates.n_random_negatives
        && guard < 10 * cfg.candidates.n_random_negatives
    {
        guard += 1;
        let e = rng.gen_range(0..n_entities);
        if set.insert(e) {
            out.push(e);
            added += 1;
        }
    }
    out
}

/// Aggregate statistics of a pre-training run.
#[derive(Debug, Clone, Default)]
pub struct PretrainStats {
    /// Optimizer steps taken (batches that actually updated parameters;
    /// matches `opt.steps()`, which the LR schedule keys on).
    pub steps: u64,
    /// Mean combined loss per table, by epoch.
    pub epoch_losses: Vec<f32>,
    /// Batches dropped because their gradient norm was non-finite.
    pub non_finite_skips: u64,
}

/// What one call to [`Pretrainer::train_step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// The optimizer stepped; carries the mean loss over the batch.
    Stepped(f32),
    /// Masking selected nothing in any table — no forward pass, no step.
    /// The batch must not be counted in loss means or step counters.
    Empty,
    /// The gradient norm was non-finite: gradients were zeroed and the
    /// optimizer step skipped so one bad batch cannot poison Adam state.
    SkippedNonFinite,
}

impl StepOutcome {
    /// The batch loss, when a step was taken.
    pub fn loss(self) -> Option<f32> {
        match self {
            StepOutcome::Stepped(l) => Some(l),
            _ => None,
        }
    }
}

/// Where, how often, and how many trainer checkpoints to keep.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory for `ckpt-<step>.ckpt` files (created on first save).
    pub dir: PathBuf,
    /// Save every N optimizer steps (0 = only at the end of training).
    pub every_steps: u64,
    /// Newest checkpoints retained after each save.
    pub keep_last: usize,
}

/// The pre-training driver: owns the model, its parameters and optimizer.
pub struct Pretrainer {
    /// Model configuration.
    pub cfg: TurlConfig,
    /// The TURL model.
    pub model: TurlModel,
    /// Parameter store.
    pub store: ParamStore,
    /// Optimizer.
    pub opt: Adam,
    mask_word_id: usize,
    n_words: usize,
    n_entities: usize,
    rng: StdRng,
    aux_relations: Option<AuxRelationObjective>,
    schedule: Option<LinearDecaySchedule>,
    progress: ProgressState,
    /// Reusable per-group forward contexts: tape storage and parameter
    /// bindings are recycled across steps instead of reallocated (see
    /// `Graph::reset`).
    scratch: Vec<Forward>,
}

impl Pretrainer {
    /// Create a pre-trainer for a vocabulary of `n_words` words,
    /// `n_entities` entities, with `[MASK]` at `mask_word_id`.
    pub fn new(cfg: TurlConfig, n_words: usize, n_entities: usize, mask_word_id: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let model = TurlModel::new(&mut store, &mut rng, cfg, n_words, n_entities);
        let opt = Adam::new(AdamConfig { lr: cfg.pretrain.learning_rate, ..Default::default() });
        Self {
            cfg,
            model,
            store,
            opt,
            mask_word_id,
            n_words,
            n_entities,
            rng,
            aux_relations: None,
            schedule: None,
            progress: ProgressState::default(),
            scratch: Vec::new(),
        }
    }

    /// Training-loop position (epochs/steps completed, loss history).
    pub fn progress(&self) -> &ProgressState {
        &self.progress
    }

    /// Install the KB-relation auxiliary objective (the paper's
    /// future-work extension; see [`crate::AuxRelationObjective`]).
    pub fn set_aux_relations(&mut self, aux: AuxRelationObjective) {
        self.aux_relations = Some(aux);
    }

    /// Remove and return the auxiliary objective.
    pub fn take_aux_relations(&mut self) -> Option<AuxRelationObjective> {
        self.aux_relations.take()
    }

    /// One optimizer step over a batch of tables. Returns whether a step
    /// was actually taken: a batch where masking selects nothing is
    /// [`StepOutcome::Empty`] (no forward pass runs and the optimizer is
    /// untouched, so callers must not count it), and a batch whose
    /// gradient norm is non-finite is [`StepOutcome::SkippedNonFinite`].
    ///
    /// Data-parallel: masking decisions, candidate sets, and per-table RNG
    /// seeds are drawn **serially** from the trainer RNG (so the random
    /// stream is independent of the thread count). The tables are then
    /// dealt into one row-balanced group per [`pool`] worker (longest
    /// first, each to the group with the fewest rows so far), and each
    /// group runs one tape with its tables stacked as row segments
    /// (`turl_audit::lower_group_plan`): the encoder's row-wise ops walk
    /// each weight once per group, attention and the heads run per table,
    /// and each table draws its dropout masks from its own stream. Every
    /// sum across rows leaves the tape as one part per table, so the
    /// per-table gradients are exactly those of a tape per table, and they
    /// are sum-reduced into the shared [`ParamStore`] in batch order. The
    /// fixed reduction order keeps seeded runs bit-identical across
    /// `--threads` settings; how the tables are grouped is scheduling
    /// only.
    ///
    /// A steady-state step moves no weight-sized memory: tapes bind
    /// parameters as shared leaves and are reset before the optimizer
    /// writes, the backward sweep frees each node's tensors as it passes
    /// (so a tape is at its fullest when the forward ends), no `linear`
    /// weight's gradient exists per table — a tape hands over the factors
    /// `X`, `dY` (per table, row views of the stacked ones) and the reduce
    /// adds every table's `Xᵀ · dY` into the store in one kernel call —
    /// nor does a `[vocab, d]` gradient of a table that is only gathered
    /// from, whose gathers hand over `(rows, dY)` — and the reduce → clip
    /// → Adam tail is two passes fanned out over parameters.
    pub fn train_step(
        &mut self,
        batch: &[(TableInstance, EncodedInput)],
        cooccur: &CooccurrenceIndex,
    ) -> StepOutcome {
        /// One table of the step: what the serial phase drew for it.
        struct Table {
            batch_idx: usize,
            enc: EncodedInput,
            plan: MaskPlan,
            candidates: Vec<usize>,
            seed: u64,
        }

        /// What a group's tape gives back for one of its tables.
        struct TableOut {
            batch_idx: usize,
            loss: f32,
            grads: Vec<(turl_nn::ParamId, turl_tensor::GradPart)>,
            /// `(mlm, mer)` head losses, read only with metrics on.
            head_losses: (f32, f32),
        }

        /// The tables one pool worker runs on one tape.
        struct Group {
            tables: Vec<Table>,
            rows: usize,
            fwd: Forward,
            out: Vec<TableOut>,
            /// Forward and backward wall time; written only with metrics on.
            fwd_ns: u64,
            bwd_ns: u64,
        }

        // Observation is read-only (clocks + counts): nothing below may
        // touch the trainer RNG or reorder the reduction, which is what
        // keeps metrics-on and metrics-off runs bit-identical.
        let obs_on = turl_obs::metrics_enabled();
        let prep_timer = turl_obs::Timer::start();
        let mut mask_counts = [0u64; 4]; // mlm sel, mlm total, mer sel, mer total

        // Serial phase: all randomness for the step, in batch order.
        let mut prepared: Vec<Table> = Vec::new();
        for (batch_idx, (inst, clean)) in batch.iter().enumerate() {
            let mut enc = clean.clone();
            let plan = apply_mask_plan(
                &mut self.rng,
                &mut enc,
                &self.cfg,
                self.mask_word_id,
                self.n_words,
                self.n_entities,
            );
            if obs_on {
                // count every table — including ones masking skipped — so
                // observed ratios compare against the §4.4 targets honestly
                mask_counts[0] += plan.mlm.len() as u64;
                mask_counts[1] += enc.token_ids.len() as u64;
                mask_counts[2] += plan.mer.len() as u64;
                mask_counts[3] += enc.entities.len() as u64;
            }
            if plan.mlm.is_empty() && plan.mer.is_empty() {
                continue;
            }
            let mut candidates =
                build_candidates(&mut self.rng, inst, cooccur, &self.cfg, self.n_entities);
            // The recovery targets must be scoreable even under candidate-set
            // ablations that drop table entities.
            for &(_, gold) in &plan.mer {
                if !candidates.contains(&gold) {
                    candidates.push(gold);
                }
            }
            let seed = self.rng.gen::<u64>();
            prepared.push(Table { batch_idx, enc, plan, candidates, seed });
        }
        if prepared.is_empty() {
            if obs_on {
                turl_obs::counter("empty_batches").inc();
                turl_obs::emit("empty_batch", vec![("tables", batch.len().into())]);
            }
            return StepOutcome::Empty;
        }
        // Deal the tables, longest first, each to the group with the
        // fewest rows so far: one group per worker.
        let n_groups = pool::n_threads().min(prepared.len());
        while self.scratch.len() < n_groups {
            self.scratch.push(Forward::new(&self.store));
        }
        let mut groups: Vec<Group> = (0..n_groups)
            .map(|_| Group {
                tables: Vec::new(),
                rows: 0,
                fwd: self.scratch.pop().expect("scratch refilled above"),
                out: Vec::new(),
                fwd_ns: 0,
                bwd_ns: 0,
            })
            .collect();
        prepared.sort_by_key(|t| std::cmp::Reverse(t.enc.seq_len()));
        for table in prepared {
            let group = (groups.iter_mut().min_by_key(|g| g.rows)).expect("at least one group");
            group.rows += table.enc.seq_len();
            group.tables.push(table);
        }
        groups.iter_mut().for_each(|g| g.tables.sort_by_key(|t| t.batch_idx));
        let prep_ns = prep_timer.elapsed_ns();
        let par_timer = turl_obs::Timer::start();

        // Parallel phase: one forward/backward per group.
        let model = &self.model;
        let store = &self.store;
        let aux = self.aux_relations.as_ref();
        pool::parallel_for_each_mut(&mut groups, |_, group| {
            let fwd_timer = turl_obs::Timer::start();
            let f = &mut group.fwd;
            f.reset(true);
            let tables = &group.tables;
            let mut rngs: Vec<StdRng> =
                tables.iter().map(|t| StdRng::seed_from_u64(t.seed)).collect();
            // The step's forward — encoder, active heads, losses — is the
            // model's plan at each table's target counts, stacked.
            let plans: Vec<ModelPlan> = (tables.iter())
                .map(|t| ModelPlan {
                    n_mlm_targets: t.plan.mlm.len(),
                    n_mer_targets: t.plan.mer.len(),
                    n_candidates: t.candidates.len(),
                    ..model.forward_plan(&t.enc)
                })
                .collect();
            let ir = lower_group_plan(&plans)
                .unwrap_or_else(|e| panic!("training plan does not lower: {e}"));
            // Per table: MLM rows and targets, MER rows, shifted
            // candidate ids (one past the entity `[MASK]` row), MER targets.
            let lists: Vec<[Vec<usize>; 5]> = (tables.iter())
                .map(|t| {
                    let (mlm_rows, mlm_targets) = t.plan.mlm.iter().copied().unzip();
                    let mer_rows = t.plan.mer.iter().map(|&(c, _)| t.enc.entity_row(c)).collect();
                    let shifted = t.candidates.iter().map(|&c| c + 1).collect();
                    let mer_targets = (t.plan.mer.iter())
                        .map(|&(_, e)| {
                            t.candidates.iter().position(|&c| c == e).expect("gold in candidates")
                        })
                        .collect();
                    [mlm_rows, mlm_targets, mer_rows, shifted, mer_targets]
                })
                .collect();
            let heads: Vec<[(&str, &[usize]); 5]> = (lists.iter())
                .map(|[a, b, c, d, e]| {
                    [
                        ("mlm.rows", &a[..]),
                        ("mlm.loss", &b[..]),
                        ("mer.rows", &c[..]),
                        ("mer.candidates", &d[..]),
                        ("mer.loss", &e[..]),
                    ]
                })
                .collect();
            let tape_tables: Vec<TapeTable> = (tables.iter().zip(&heads))
                .map(|(t, heads)| TapeTable { input: &t.enc, heads })
                .collect();
            let vars = model.run_ir(f, store, &mut rngs, &ir, &tape_tables);
            let var = |t: TensorId| vars[t.index()].expect("heads and losses are recorded");
            let mut losses = Vec::with_capacity(tables.len());
            for (s, t) in tables.iter().enumerate() {
                let mut loss = var(ir.loss(s).expect("a table with targets has a head"));
                if let Some(aux) = aux {
                    f.set_segment(s);
                    let h = var(ir.encoder_output(s));
                    if let Some(l) = aux.loss(f, store, h, &batch[t.batch_idx].0, &t.enc) {
                        loss = f.graph.add(loss, l);
                    }
                }
                losses.push(loss);
            }
            group.out = (tables.iter().zip(&losses).enumerate())
                .map(|(s, (t, &loss))| {
                    // Reading already-computed tape values is free of side
                    // effects; the MLM/MER split powers the per-step
                    // breakdown.
                    let item = |label: &str| {
                        ir.find_in(label, s).map_or(0.0, |v| f.graph.value(var(v)).item())
                    };
                    let head_losses =
                        if obs_on { (item("mlm.loss"), item("mer.loss")) } else { (0.0, 0.0) };
                    let loss = f.graph.value(loss).item();
                    TableOut { batch_idx: t.batch_idx, loss, grads: Vec::new(), head_losses }
                })
                .collect();
            // One backward root: the tables' losses summed, each reached
            // by a gradient of exactly 1.
            let root = (losses.iter().copied())
                .reduce(|a, b| f.graph.add(a, b))
                .expect("a group holds a table");
            if obs_on {
                group.fwd_ns = fwd_timer.elapsed_ns();
            }
            let bwd_timer = turl_obs::Timer::start();
            f.graph.backward(root);
            // Debug builds audit the swept tape every step: node order,
            // the shapes of the gradients it still holds, orphaned
            // leaves, finite leaf values.
            #[cfg(debug_assertions)]
            if let Err(errs) = turl_audit::audit_tape(&f.graph, true) {
                panic!("tape audit failed after backprop: {}", errs[0]);
            }
            group.bwd_ns = bwd_timer.elapsed_ns();
            for (out, grads) in group.out.iter_mut().zip(f.take_segment_grads(tables.len())) {
                out.grads = grads;
            }
            // Let go of the parameters (so the optimizer writes them in
            // place) and free the tape's tensors; the weight-gradient
            // factors just taken outlive the reset.
            f.reset(true);
        });
        let par_ns = par_timer.elapsed_ns();

        // Reduction in batch order — losses here, each parameter's
        // gradients inside `reduce` — for thread-count-independent
        // floating-point results.
        let reduce_timer = turl_obs::Timer::start();
        let (mut fwd_cpu_ns, mut bwd_cpu_ns) = (0u64, 0u64);
        let mut outs = Vec::new();
        for group in groups {
            fwd_cpu_ns += group.fwd_ns;
            bwd_cpu_ns += group.bwd_ns;
            outs.extend(group.out);
            self.scratch.push(group.fwd);
        }
        outs.sort_by_key(|out| out.batch_idx);
        let counted = outs.len();
        let (mut total, mut mlm_loss, mut mer_loss) = (0.0f32, 0.0f32, 0.0f32);
        let mut table_grads = Vec::with_capacity(counted);
        for out in outs {
            total += out.loss;
            mlm_loss += out.head_losses.0;
            mer_loss += out.head_losses.1;
            table_grads.push(out.grads);
        }
        let reduced = self.store.reduce(&table_grads);
        drop(table_grads);
        let reduce_ns = reduce_timer.elapsed_ns();
        let opt_timer = turl_obs::Timer::start();
        if let Some(s) = &self.schedule {
            self.opt.config.lr = s.lr_at(self.opt.steps());
        }
        let clip = self.opt.step_clipped(
            &mut self.store,
            reduced.grad_norm,
            self.cfg.pretrain.max_grad_norm,
        );
        if clip.non_finite {
            // `step_clipped` zeroed the gradients and took no step: Adam's
            // moments and the step counter are untouched, so training
            // survives one bad batch.
            if obs_on {
                turl_obs::counter("non_finite_skips").inc();
                turl_obs::emit(
                    "non_finite_skip",
                    vec![("grad_norm", f64::from(clip.norm).into()), ("tables", counted.into())],
                );
            }
            return StepOutcome::SkippedNonFinite;
        }
        let mean = total / counted as f32;
        if obs_on {
            // Per-group fwd/bwd sums are CPU time (they overlap across
            // workers); scale them to the measured wall-clock parallel
            // phase so the phase breakdown stays a wall-clock partition.
            let cpu_total = fwd_cpu_ns + bwd_cpu_ns;
            let (fwd_ns, bwd_ns) = if cpu_total > 0 {
                let fwd = par_ns as f64 * fwd_cpu_ns as f64 / cpu_total as f64;
                (fwd as u64, par_ns.saturating_sub(fwd as u64))
            } else {
                (par_ns, 0)
            };
            turl_obs::set_step(self.opt.steps());
            self.store.record_memory();
            turl_obs::histogram("step_loss", &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
                .observe(f64::from(mean));
            turl_obs::emit(
                "step",
                vec![
                    ("loss", f64::from(mean).into()),
                    ("mlm_loss", f64::from(mlm_loss / counted as f32).into()),
                    ("mer_loss", f64::from(mer_loss / counted as f32).into()),
                    ("grad_norm", f64::from(clip.norm).into()),
                    ("clipped", clip.clipped.into()),
                    ("lr", f64::from(self.opt.config.lr).into()),
                    ("tables", counted.into()),
                    ("prep_ns", prep_ns.into()),
                    ("forward_ns", fwd_ns.into()),
                    ("backward_ns", bwd_ns.into()),
                    ("reduce_ns", reduce_ns.into()),
                    // The part of `reduce_ns` spent forming weight gradients.
                    ("wgrad_ns", reduced.wgrad_ns.into()),
                    ("opt_ns", opt_timer.elapsed_ns().into()),
                    ("mlm_selected", mask_counts[0].into()),
                    ("mlm_candidates", mask_counts[1].into()),
                    ("mer_selected", mask_counts[2].into()),
                    ("mer_candidates", mask_counts[3].into()),
                ],
            );
        }
        StepOutcome::Stepped(mean)
    }

    /// Train for `epochs` *additional* passes over pre-encoded tables.
    pub fn train(
        &mut self,
        data: &[(TableInstance, EncodedInput)],
        cooccur: &CooccurrenceIndex,
        epochs: usize,
    ) -> PretrainStats {
        let target = self.progress.epoch as usize + epochs;
        self.train_until(data, cooccur, target, None)
            .expect("checkpoint I/O cannot fail without a policy")
    }

    /// Train until `total_epochs` epochs have been completed over the
    /// run's lifetime (counting epochs restored from a checkpoint),
    /// optionally saving crash-safe checkpoints along the way.
    ///
    /// Resume contract: restore a [`TrainerCheckpoint`] into a freshly
    /// constructed `Pretrainer` with identical config/vocabulary, then
    /// call this with the same `data` and target — the continued run is
    /// bit-identical to one that was never interrupted, including
    /// mid-epoch interruptions (the in-progress epoch's shuffled order
    /// and loss accumulators travel in the checkpoint).
    pub fn train_until(
        &mut self,
        data: &[(TableInstance, EncodedInput)],
        cooccur: &CooccurrenceIndex,
        total_epochs: usize,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<PretrainStats, SerializeError> {
        let batch = self.cfg.pretrain.batch_size.max(1);
        let obs_on = turl_obs::metrics_enabled();
        if obs_on {
            turl_obs::set_step(self.opt.steps());
            turl_obs::set_epoch(self.progress.epoch);
            turl_obs::emit(
                "run_start",
                vec![
                    ("mlm_target", self.cfg.pretrain.mlm_select_ratio.into()),
                    ("mer_target", self.cfg.pretrain.mer_select_ratio.into()),
                    ("tables", data.len().into()),
                    ("batch_size", batch.into()),
                    ("total_epochs", total_epochs.into()),
                    ("threads", pool::n_threads().into()),
                    (
                        "available_cores",
                        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).into(),
                    ),
                ],
            );
        }
        while (self.progress.epoch as usize) < total_epochs {
            let epoch_span = turl_obs::span("epoch");
            if obs_on {
                turl_obs::set_epoch(self.progress.epoch);
            }
            if self.progress.order.is_empty() {
                let mut order: Vec<u64> = (0..data.len() as u64).collect();
                order.shuffle(&mut self.rng);
                self.progress.order = order;
                self.progress.batch_in_epoch = 0;
                self.progress.epoch_loss_sum = 0.0;
                self.progress.epoch_batches = 0;
            } else if self.progress.order.len() != data.len() {
                return Err(SerializeError::InvalidState(format!(
                    "resumed epoch order covers {} tables but the dataset has {} — \
                     resume must use the same data as the interrupted run",
                    self.progress.order.len(),
                    data.len()
                )));
            }
            let n = self.progress.order.len();
            let n_batches = n.div_ceil(batch);
            while (self.progress.batch_in_epoch as usize) < n_batches {
                let start = self.progress.batch_in_epoch as usize * batch;
                let end = (start + batch).min(n);
                let items: Vec<(TableInstance, EncodedInput)> = self.progress.order[start..end]
                    .iter()
                    .map(|&i| data[i as usize].clone())
                    .collect();
                let outcome = self.train_step(&items, cooccur);
                self.progress.batch_in_epoch += 1;
                match outcome {
                    StepOutcome::Stepped(loss) => {
                        self.progress.epoch_loss_sum += loss;
                        self.progress.epoch_batches += 1;
                        self.progress.steps += 1;
                        if let Some(p) = policy {
                            if p.every_steps > 0
                                && self.progress.steps.is_multiple_of(p.every_steps)
                            {
                                self.save_checkpoint(p)?;
                            }
                        }
                    }
                    StepOutcome::Empty => {}
                    StepOutcome::SkippedNonFinite => self.progress.non_finite_skips += 1,
                }
            }
            let mean = self.progress.epoch_loss_sum / self.progress.epoch_batches.max(1) as f32;
            self.progress.epoch_losses.push(mean);
            self.progress.epoch += 1;
            self.progress.order.clear();
            self.progress.batch_in_epoch = 0;
            self.progress.epoch_loss_sum = 0.0;
            self.progress.epoch_batches = 0;
            drop(epoch_span.field("mean_loss", f64::from(mean)));
            if obs_on {
                turl_obs::emit(
                    "epoch_end",
                    vec![
                        ("mean_loss", f64::from(mean).into()),
                        ("steps", self.progress.steps.into()),
                    ],
                );
                turl_obs::emit_metrics_events();
                turl_obs::emit_profile_events();
                turl_obs::flush();
            }
        }
        if let Some(p) = policy {
            self.save_checkpoint(p)?;
        }
        if obs_on {
            turl_obs::set_step(self.opt.steps());
            turl_obs::emit(
                "run_end",
                vec![
                    ("steps", self.progress.steps.into()),
                    ("epochs", self.progress.epoch.into()),
                    ("non_finite_skips", self.progress.non_finite_skips.into()),
                ],
            );
            turl_obs::flush();
        }
        Ok(self.stats())
    }

    /// Statistics over the whole run so far (including restored history).
    pub fn stats(&self) -> PretrainStats {
        PretrainStats {
            steps: self.progress.steps,
            epoch_losses: self.progress.epoch_losses.clone(),
            non_finite_skips: self.progress.non_finite_skips,
        }
    }

    /// Capture the complete trainer state: parameters, Adam moments and
    /// step counter, RNG, schedule, and training-loop progress.
    pub fn snapshot(&self) -> TrainerCheckpoint {
        TrainerCheckpoint {
            version: CHECKPOINT_VERSION,
            adam: self.opt.config,
            adam_steps: self.opt.steps(),
            rng: RngStateRepr::from_words(self.rng.state()),
            schedule: self.schedule,
            progress: self.progress.clone(),
            params: snapshot_params(&self.store),
        }
    }

    /// Restore a snapshot into this trainer, moving its tensors into the
    /// store. The checkpoint must match the live model parameter-for-
    /// parameter (name, shape, order); on any mismatch the trainer is left
    /// unchanged and a typed error returned.
    pub fn restore(&mut self, ckpt: TrainerCheckpoint) -> Result<(), SerializeError> {
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(SerializeError::UnsupportedVersion {
                found: ckpt.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let rng_words = ckpt.rng.to_words()?;
        restore_params(&mut self.store, ckpt.params)?;
        self.opt.config = ckpt.adam;
        self.opt.set_steps(ckpt.adam_steps);
        self.rng = StdRng::from_state(rng_words);
        if ckpt.schedule.is_some() {
            self.schedule = ckpt.schedule;
        }
        self.progress = ckpt.progress;
        Ok(())
    }

    /// Atomically write `ckpt-<step>.ckpt` under the policy directory,
    /// remove the temp files of writers that died there (this trainer
    /// owns the directory and its own write is already renamed), and
    /// prune checkpoints beyond the retention window.
    pub fn save_checkpoint(&self, policy: &CheckpointPolicy) -> Result<(), SerializeError> {
        std::fs::create_dir_all(&policy.dir)?;
        let path = policy.dir.join(turl_nn::checkpoint_file_name(self.progress.steps));
        save_trainer_checkpoint(&self.snapshot(), &path)?;
        remove_stale_temps(&policy.dir)?;
        if policy.keep_last > 0 {
            prune_checkpoints(&policy.dir, policy.keep_last)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::encode_tables;
    use turl_data::Vocab;
    use turl_kb::{
        generate_corpus, identify_relational, CorpusConfig, KnowledgeBase, PipelineConfig,
        WorldConfig,
    };

    fn setup() -> (KnowledgeBase, Vocab, Vec<(TableInstance, EncodedInput)>, CooccurrenceIndex) {
        let kb = KnowledgeBase::generate(&WorldConfig::tiny(13));
        let tables = identify_relational(
            generate_corpus(&kb, &CorpusConfig { n_tables: 40, ..CorpusConfig::tiny(14) }),
            &PipelineConfig::default(),
        );
        let vocab = Vocab::from_tables(&tables, []);
        let cfg = TurlConfig::tiny(1);
        let data = encode_tables(&tables, &vocab, &cfg);
        let cooccur = CooccurrenceIndex::build(&tables);
        (kb, vocab, data, cooccur)
    }

    #[test]
    fn mask_plan_ratios_roughly_hold() {
        let (_, vocab, data, _) = setup();
        let cfg = TurlConfig::tiny(1);
        let mut rng = StdRng::seed_from_u64(5);
        let (mut sel_tok, mut tot_tok, mut sel_ent, mut tot_ent) = (0usize, 0usize, 0usize, 0usize);
        let mut masked_mentions = 0usize;
        let mut kept_mentions = 0usize;
        for (_, clean) in &data {
            let mut enc = clean.clone();
            let plan = apply_mask_plan(
                &mut rng,
                &mut enc,
                &cfg,
                vocab.mask_id() as usize,
                vocab.len(),
                100,
            );
            sel_tok += plan.mlm.len();
            tot_tok += enc.token_ids.len();
            sel_ent += plan.mer.len();
            tot_ent += enc.entities.len();
            for &(c, _) in &plan.mer {
                if enc.entities[c].emb_index == 0 {
                    if enc.entities[c].mention == vec![vocab.mask_id() as usize] {
                        masked_mentions += 1;
                    } else {
                        kept_mentions += 1;
                    }
                }
            }
        }
        let tok_ratio = sel_tok as f64 / tot_tok as f64;
        let ent_ratio = sel_ent as f64 / tot_ent as f64;
        assert!((tok_ratio - 0.2).abs() < 0.06, "MLM select ratio {tok_ratio}");
        assert!((ent_ratio - 0.6).abs() < 0.08, "MER select ratio {ent_ratio}");
        // among masked-entity cells, mention-kept cases exist (the 27% branch)
        assert!(kept_mentions > 0, "no mention-kept MER cases");
        assert!(masked_mentions > kept_mentions, "63% branch should dominate");
    }

    #[test]
    fn candidates_contain_table_entities_and_negatives() {
        let (_, _, data, cooccur) = setup();
        let cfg = TurlConfig::tiny(1);
        let mut rng = StdRng::seed_from_u64(3);
        let (inst, _) = &data[0];
        let cands = build_candidates(&mut rng, inst, &cooccur, &cfg, 300);
        for e in &inst.entities {
            assert!(cands.contains(&(e.entity as usize)));
        }
        assert!(cands.len() > inst.entities.len(), "no negatives added");
        let set: HashSet<_> = cands.iter().collect();
        assert_eq!(set.len(), cands.len(), "duplicate candidates");
    }

    #[test]
    fn schedule_decays_learning_rate_during_training() {
        let (kb, vocab, data, cooccur) = setup();
        let mut pt = Pretrainer::new(
            TurlConfig::tiny(9),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        let base_lr = pt.opt.config.lr;
        pt.schedule = Some(turl_nn::LinearDecaySchedule::new(base_lr, 0, 40));
        pt.train(&data[..8], &cooccur, 4);
        assert!(pt.opt.config.lr < base_lr, "lr must have decayed");
        assert!(pt.opt.config.lr >= 0.0);
    }

    /// `(name, value, Adam m, Adam v)` bits of every parameter; a moment
    /// never allocated is empty.
    fn state_bits(store: &ParamStore) -> Vec<(String, [Vec<u32>; 3])> {
        let bits = |t: &turl_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect();
        let moment = |t: &Option<std::sync::Arc<turl_tensor::Tensor>>| {
            t.as_deref().map_or_else(Vec::new, bits)
        };
        snapshot_params(store)
            .into_iter()
            .map(|r| (r.name, [bits(&r.value), moment(&r.m), moment(&r.v)]))
            .collect()
    }

    #[test]
    fn training_is_deterministic_across_thread_counts() {
        // Identical seeded runs at 1, 2 and 4 worker threads must produce
        // bit-identical loss curves, final parameters and Adam moments:
        // all randomness is drawn serially in batch order, each
        // parameter's gradients are reduced in batch order and the norm in
        // parameter order, so neither the data-parallel tables nor the
        // parameter-parallel reduce → clip → Adam tail can show the width.
        let (kb, vocab, data, cooccur) = setup();
        let run = |threads: usize| {
            let mut pt = Pretrainer::new(
                TurlConfig::tiny(4),
                vocab.len(),
                kb.n_entities(),
                vocab.mask_id() as usize,
            );
            pool::set_threads(threads);
            let stats = pt.train(&data[..10.min(data.len())], &cooccur, 3);
            assert!(stats.steps >= 3);
            (stats.epoch_losses, state_bits(&pt.store))
        };
        let saved = pool::n_threads();
        let (losses_1, state_1) = run(1);
        let wider: Vec<_> = [2, 4].into_iter().map(|t| (t, run(t))).collect();
        pool::set_threads(saved);
        for (threads, (losses, state)) in wider {
            assert_eq!(losses_1.len(), losses.len());
            for (e, (a, b)) in losses_1.iter().zip(losses.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} loss at {threads} threads");
            }
            for ((name, want), (_, got)) in state_1.iter().zip(&state) {
                for (what, (w, g)) in ["value", "m", "v"].iter().zip(want.iter().zip(got)) {
                    assert!(w == g, "param `{name}` {what} diverged at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn training_is_bit_identical_with_metrics_on_or_off() {
        // The determinism invariant behind `--metrics-out` (DESIGN §5d):
        // instrumentation only reads clocks and bumps counters, so a
        // seeded 2-epoch run with a structured sink installed must match
        // an uninstrumented run bit-for-bit in losses and parameters.
        let (kb, vocab, data, cooccur) = setup();
        let slice = &data[..10.min(data.len())];
        let run = |instrument: bool| {
            let sink = instrument.then(|| {
                let (sink, buf) = turl_obs::MemorySink::new();
                (turl_obs::install_sink(Box::new(sink)), buf)
            });
            let mut pt = Pretrainer::new(
                TurlConfig::tiny(4),
                vocab.len(),
                kb.n_entities(),
                vocab.mask_id() as usize,
            );
            let stats = pt.train_until(slice, &cooccur, 2, None).unwrap();
            let events = sink.map(|(token, buf)| {
                turl_obs::remove_sink(token);
                let events = buf.lock().unwrap().clone();
                events
            });
            (stats.epoch_losses, pt.store, events)
        };
        let (losses_off, store_off, _) = run(false);
        let (losses_on, store_on, events) = run(true);
        // the instrumented run actually recorded telemetry...
        let events = events.expect("instrumented run captured events");
        assert!(events.iter().any(|e| e.kind == "run_start"));
        assert!(events.iter().any(|e| e.kind == "step"));
        assert!(events.iter().any(|e| e.kind == "span"));
        let step = events.iter().find(|e| e.kind == "step").unwrap();
        for key in ["loss", "grad_norm", "mlm_selected", "mlm_candidates"] {
            assert!(step.field(key).is_some(), "step event missing `{key}`");
        }
        // ...without perturbing a single bit of the training results
        assert_eq!(losses_off.len(), losses_on.len());
        for (e, (a, b)) in losses_off.iter().zip(losses_on.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} loss diverged: {a} vs {b}");
        }
        for id in store_off.ids() {
            let (v0, v1) = (store_off.value(id), store_on.value(id));
            for (i, (a, b)) in v0.data().iter().zip(v1.data().iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "param `{}` element {i} diverged under instrumentation",
                    store_off.name(id)
                );
            }
        }
    }

    #[test]
    fn random_helpers_avoid_excluded_ids() {
        let mut rng = StdRng::seed_from_u64(7);
        // no non-special words -> no random word, for every tiny vocab size
        for n_words in 0..=4 {
            assert_eq!(random_word_id(&mut rng, n_words, 2), None);
        }
        // drawn ids are always in-bounds, non-special, and never [MASK]
        for _ in 0..2000 {
            if let Some(id) = random_word_id(&mut rng, 6, 4) {
                assert!((4..6).contains(&id) && id != 4, "bad word id {id}");
            }
            if let Some(id) = random_word_id(&mut rng, 100, 2) {
                assert!((4..100).contains(&id));
            }
        }
        // a single-entity catalog has no possible noise entity
        assert_eq!(random_entity_id(&mut rng, 1, 0), None);
        for _ in 0..2000 {
            if let Some(id) = random_entity_id(&mut rng, 5, 3) {
                assert!(id < 5 && id != 3, "drew the gold entity");
            }
        }
        // when only one alternative exists it is always found
        for gold in 0..2 {
            assert_eq!(random_entity_id(&mut rng, 2, gold), Some(1 - gold));
        }
    }

    #[test]
    fn tiny_vocab_mask_plan_stays_in_bounds() {
        // Regression: `gen_range(4..n_words.max(5))` used to emit id 4 for
        // vocabularies of size <= 4, indexing past the embedding table.
        let (_, _, data, _) = setup();
        let cfg = TurlConfig::tiny(1);
        // n_words = 4 (specials only) and 5 are exactly the sizes the old
        // `gen_range(4..n_words.max(5))` call went out of bounds on
        for n_words in [4usize, 5, 6] {
            let mut rng = StdRng::seed_from_u64(11);
            for (_, clean) in data.iter().take(10) {
                let mut enc = clean.clone();
                // clamp the clean ids so "keep unchanged" stays in range
                for t in enc.token_ids.iter_mut() {
                    *t = (*t).min(n_words - 1);
                }
                apply_mask_plan(&mut rng, &mut enc, &cfg, 2, n_words, 50);
                for (pos, &t) in enc.token_ids.iter().enumerate() {
                    assert!(t < n_words, "token {pos} got id {t} >= n_words {n_words}");
                }
            }
        }
    }

    #[test]
    fn empty_batches_are_not_counted() {
        let (kb, vocab, _, cooccur) = setup();
        let mut pt = Pretrainer::new(
            TurlConfig::tiny(3),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        let outcome = pt.train_step(&[], &cooccur);
        assert_eq!(outcome, StepOutcome::Empty);
        let stats = pt.train(&[], &cooccur, 2);
        // no batch ever stepped: counters stay at zero and in sync with Adam,
        // and the loss mean is not diluted by phantom steps
        assert_eq!(stats.steps, 0);
        assert_eq!(pt.opt.steps(), 0);
        assert_eq!(stats.epoch_losses, vec![0.0, 0.0]);
        assert_eq!(stats.non_finite_skips, 0);
    }

    #[test]
    fn single_head_steps_train_without_a_loss_sum() {
        // A token-only input can only select MLM targets and an
        // entity-only one only MER targets: the step's plan then ends at
        // that head's loss (no `loss` sum node) and the other head never
        // reaches the tape.
        let (kb, vocab, data, cooccur) = setup();
        let (inst, clean) = data
            .iter()
            .find(|(_, e)| e.token_ids.len() > 1 && e.entities.len() > 1)
            .expect("a table with tokens and entities");
        let token_only = EncodedInput { entities: Vec::new(), mask: None, ..clean.clone() };
        let entity_only = EncodedInput {
            token_ids: Vec::new(),
            token_types: Vec::new(),
            token_pos: Vec::new(),
            mask: None,
            ..clean.clone()
        };
        for (enc, active, idle) in
            [(token_only, "mlm_proj", "mer_proj"), (entity_only, "mer_proj", "mlm_proj")]
        {
            let mut pt = Pretrainer::new(
                TurlConfig::tiny(5),
                vocab.len(),
                kb.n_entities(),
                vocab.mask_id() as usize,
            );
            // Select every position, so the step cannot come up empty.
            pt.cfg.pretrain.mlm_select_ratio = 1.0;
            pt.cfg.pretrain.mer_select_ratio = 1.0;
            let weight = |pt: &Pretrainer, head: &str| {
                let id = pt.store.find(&format!("turl.{head}.weight")).expect("registered");
                pt.store.value(id).clone()
            };
            let before = (weight(&pt, active), weight(&pt, idle));
            let loss = pt.train_step(&[(inst.clone(), enc)], &cooccur).loss().expect("stepped");
            assert!(loss.is_finite() && loss > 0.0, "{active}-only loss {loss}");
            // Adam moves a parameter only on a non-zero gradient.
            assert_ne!(weight(&pt, active), before.0, "no gradient reached {active}");
            assert_eq!(weight(&pt, idle), before.1, "{idle} was on the tape");
        }
    }

    #[test]
    fn step_counter_matches_optimizer_steps() {
        let (kb, vocab, data, cooccur) = setup();
        let mut pt = Pretrainer::new(
            TurlConfig::tiny(6),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        let stats = pt.train(&data[..8.min(data.len())], &cooccur, 2);
        assert_eq!(stats.steps, pt.opt.steps(), "stats.steps desynced from opt.steps()");
        assert!(stats.steps > 0);
    }

    #[test]
    fn resume_from_mid_run_checkpoint_is_bit_identical() {
        // Mirrors `training_is_deterministic_across_thread_counts`: run A
        // trains 3 epochs uninterrupted; run B trains the same seeded run
        // but checkpoints at every optimizer step; run C starts fresh,
        // restores a mid-run checkpoint file (crossing the full
        // save -> fsync -> load -> validate path), and finishes the run.
        // Losses and every parameter must match A bit-for-bit.
        let (kb, vocab, data, cooccur) = setup();
        let slice = &data[..10.min(data.len())];
        let fresh = || {
            Pretrainer::new(
                TurlConfig::tiny(4),
                vocab.len(),
                kb.n_entities(),
                vocab.mask_id() as usize,
            )
        };

        let mut a = fresh();
        let stats_a = a.train(slice, &cooccur, 3);

        let dir = std::env::temp_dir().join(format!("turl_resume_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let policy = CheckpointPolicy { dir: dir.clone(), every_steps: 1, keep_last: 0 };
        let mut b = fresh();
        b.train_until(slice, &cooccur, 3, Some(&policy)).unwrap();

        let mut ckpts = turl_nn::list_checkpoints(&dir).unwrap();
        assert!(ckpts.len() > 3, "expected per-step checkpoints, got {}", ckpts.len());
        // pick an arbitrary mid-run step (not the final one)
        let (step, mid_path) = ckpts.swap_remove(ckpts.len() / 2);
        assert!(step > 0);
        let ckpt = turl_nn::load_trainer_checkpoint(&mid_path).unwrap();
        let mut c = fresh();
        c.restore(ckpt).unwrap();
        assert_eq!(c.opt.steps(), step);
        let stats_c = c.train_until(slice, &cooccur, 3, None).unwrap();

        assert_eq!(stats_a.epoch_losses.len(), stats_c.epoch_losses.len());
        for (e, (x, y)) in stats_a.epoch_losses.iter().zip(stats_c.epoch_losses.iter()).enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "epoch {e} loss diverged after resume: {x} vs {y}"
            );
        }
        assert_eq!(stats_a.steps, stats_c.steps);
        for id in a.store.ids() {
            let (va, vc) = (a.store.value(id), c.store.value(id));
            assert_eq!(va.shape(), vc.shape());
            for (i, (x, y)) in va.data().iter().zip(vc.data().iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "param `{}` element {i} diverged after resume: {x} vs {y}",
                    a.store.name(id)
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_falls_back_when_newest_checkpoint_is_truncated() {
        let (kb, vocab, data, cooccur) = setup();
        let slice = &data[..6.min(data.len())];
        let dir = std::env::temp_dir().join(format!("turl_fallback_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let policy = CheckpointPolicy { dir: dir.clone(), every_steps: 1, keep_last: 0 };
        let mut pt = Pretrainer::new(
            TurlConfig::tiny(8),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        pt.train_until(slice, &cooccur, 1, Some(&policy)).unwrap();
        let ckpts = turl_nn::list_checkpoints(&dir).unwrap();
        assert!(ckpts.len() >= 2);
        // crash mid-write: newest file is cut in half
        let (newest_step, newest) = ckpts.last().unwrap().clone();
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let rec = turl_nn::recover_latest(&dir).unwrap();
        let (path, ckpt) = rec.checkpoint.expect("must fall back to an older checkpoint");
        assert_ne!(path, newest);
        assert_eq!(rec.rejected.len(), 1);
        assert!(ckpt.progress.steps < newest_step);
        // and the fallback checkpoint restores cleanly
        let mut resumed = Pretrainer::new(
            TurlConfig::tiny(8),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        let adam_steps = ckpt.adam_steps;
        resumed.restore(ckpt).unwrap();
        assert_eq!(resumed.opt.steps(), adam_steps);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dead_writers_temp_file_is_gone_after_the_next_save() {
        let (kb, vocab, data, cooccur) = setup();
        let dir = std::env::temp_dir().join(format!("turl_orphan_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // what SIGKILL between `open` and `rename` leaves behind
        let orphan = dir.join(format!("{}.tmp", turl_nn::checkpoint_file_name(41)));
        std::fs::write(&orphan, b"most of a checkpoint").unwrap();
        let rec = turl_nn::recover_latest(&dir).unwrap();
        assert!(rec.checkpoint.is_none() && rec.rejected.is_empty(), "a temp file was listed");
        // keep_last 0 never prunes: the sweep does not depend on retention
        let policy = CheckpointPolicy { dir: dir.clone(), every_steps: 1, keep_last: 0 };
        let mut pt = Pretrainer::new(
            TurlConfig::tiny(8),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        pt.train_until(&data[..2.min(data.len())], &cooccur, 1, Some(&policy)).unwrap();
        assert!(!orphan.exists(), "orphan survived a checkpointing step");
        let rec = turl_nn::recover_latest(&dir).unwrap();
        assert!(rec.checkpoint.is_some() && rec.rejected.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pretraining_reduces_loss() {
        let (kb, vocab, data, cooccur) = setup();
        let mut pt = Pretrainer::new(
            TurlConfig::tiny(2),
            vocab.len(),
            kb.n_entities(),
            vocab.mask_id() as usize,
        );
        let stats = pt.train(&data[..16.min(data.len())], &cooccur, 14);
        assert_eq!(stats.epoch_losses.len(), 14);
        // per-epoch losses are noisy (random re-masking); compare windows
        let first: f32 = stats.epoch_losses[..4].iter().sum::<f32>() / 4.0;
        let last: f32 =
            stats.epoch_losses[stats.epoch_losses.len() - 4..].iter().sum::<f32>() / 4.0;
        assert!(last < first, "pre-training loss did not drop: {first} -> {last}");
        assert!(last.is_finite());
    }
}
