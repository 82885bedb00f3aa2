//! The inference session: one loaded model + store + vocabulary, shared
//! read-only by every worker and connection thread.
//!
//! A session turns a decoded request into `(EncodedInput, Head)` — the
//! table is linearized and encoded exactly as offline `turl infer` does
//! it, then [`EncodedInput::validate`] runs *before* anything touches a
//! worker's bounded plan cache, so adversarial shapes are rejected with
//! a typed 400 and never compile a plan. The head is applied after the
//! (possibly batched) forward; every head runs the same kernels in the
//! same order as the offline path, so served responses are bit-exact
//! with `turl infer` on the same input.

use crate::protocol::{
    decode, ColumnRequest, EncodeResponse, RankRequest, RankResponse, RelationRequest,
    ReprResponse, RowPopulationRequest, ServeError, TableRequest,
};
use turl_core::{rank_descending, CompiledForward, EncodedInput, EntityInput, TurlModel};
use turl_data::{LinearizeConfig, Table, TableInstance, TokenScope, Vocab};
use turl_exec::ExecError;
use turl_nn::ParamStore;
use turl_tensor::Tensor;

/// What to compute from the encoded representations once the forward
/// has run.
#[derive(Debug, Clone)]
pub enum Head {
    /// Return the full `[rows, dim]` representation.
    Encode,
    /// Score `candidates` against sequence row `row` through the MER
    /// head and return them ranked.
    Rank {
        /// Sequence row of the (masked) target cell.
        row: usize,
        /// Candidate entity ids.
        candidates: Vec<usize>,
    },
    /// Mean-pool the given sequence rows into one representation.
    Pool {
        /// Sequence rows to pool over.
        rows: Vec<usize>,
    },
}

/// A loaded model ready to serve: parameters (f32 or artifact-quantized
/// int8), vocabulary, and linearization settings.
pub struct Session {
    model: TurlModel,
    store: ParamStore,
    vocab: Vocab,
    use_visibility: bool,
    linearize: LinearizeConfig,
    /// Stateless head applicator: `mer_logits` takes `&self` and uses no
    /// cached plans, so one shared instance serves every thread.
    head_cf: CompiledForward,
}

impl Session {
    /// Build a session around a model and its parameter store (the store
    /// may hold artifact-loaded quantized tensors; the compiled executor
    /// streams them through the in-register-dequant kernels).
    pub fn new(model: TurlModel, store: ParamStore, vocab: Vocab, use_visibility: bool) -> Self {
        store.record_memory();
        Self {
            model,
            store,
            vocab,
            use_visibility,
            linearize: LinearizeConfig::default(),
            head_cf: CompiledForward::new(),
        }
    }

    /// The served model.
    pub fn model(&self) -> &TurlModel {
        &self.model
    }

    /// The served parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Word-vocabulary size.
    pub fn n_words(&self) -> usize {
        self.model.word_emb.vocab
    }

    /// Entity-vocabulary size.
    pub fn n_entities(&self) -> usize {
        self.model.n_entities()
    }

    /// Model dimension.
    pub fn d_model(&self) -> usize {
        self.model.cfg.encoder.d_model
    }

    /// Parameter dtype label for build-info telemetry: `"int8"` when
    /// any parameter is stored quantized, `"f32"` otherwise.
    pub fn dtype(&self) -> &'static str {
        let quantized = self.store.ids().any(|id| self.store.value(id).quantized().is_some());
        if quantized {
            "int8"
        } else {
            "f32"
        }
    }

    /// The word `[MASK]` id.
    pub fn mask_word(&self) -> usize {
        self.vocab.mask_id() as usize
    }

    /// Linearize and encode a request table, validating it against the
    /// model's vocabulary sizes before it can reach a plan cache.
    pub fn encode_table(&self, table: &Table) -> Result<(TableInstance, EncodedInput), ServeError> {
        let inst = TableInstance::from_table(table, &self.vocab, &self.linearize);
        let enc = EncodedInput::from_instance(&inst, &self.vocab, self.use_visibility);
        enc.validate(self.n_words(), self.n_entities()).map_err(ServeError::BadRequest)?;
        Ok((inst, enc))
    }

    /// Decode a task request body for `path` into the input/head pair
    /// the batching queue works on. Unknown paths are a 404, anything
    /// malformed a 400 — this function must never panic.
    pub fn build_job(&self, path: &str, body: &str) -> Result<(EncodedInput, Head), ServeError> {
        match path {
            "/v1/encode" => {
                let req: TableRequest = decode(body)?;
                let (_, enc) = self.encode_table(&req.table)?;
                Ok((enc, Head::Encode))
            }
            "/v1/entity_linking" => self.rank_job(body, false),
            "/v1/cell_filling" => self.rank_job(body, true),
            "/v1/row_population" => {
                let req: RowPopulationRequest = decode(body)?;
                let (_, mut enc) = self.encode_table(&req.table)?;
                let new = enc.entities.len();
                self.extend_mask_for_new_cell(&mut enc);
                enc.entities.push(EntityInput {
                    emb_index: 0,
                    mention: vec![self.mask_word()],
                    type_idx: 1,
                });
                let row = enc.entity_row(new);
                Ok((enc, Head::Rank { row, candidates: self.candidates(&req.candidates)? }))
            }
            "/v1/column_type" => {
                let req: ColumnRequest = decode(body)?;
                let (inst, enc) = self.encode_table(&req.table)?;
                if req.column >= req.table.headers.len() {
                    return Err(ServeError::BadRequest(format!(
                        "column {} out of range for {} headers",
                        req.column,
                        req.table.headers.len()
                    )));
                }
                let rows = self.column_rows(&inst, &enc, req.column);
                if rows.is_empty() {
                    return Err(ServeError::BadRequest(format!(
                        "column {} has no header tokens or linked cells",
                        req.column
                    )));
                }
                Ok((enc, Head::Pool { rows }))
            }
            "/v1/relation_extraction" => {
                let req: RelationRequest = decode(body)?;
                let (inst, enc) = self.encode_table(&req.table)?;
                let subject = req.table.subject_column;
                for (what, col) in [("subject", subject), ("object", req.object_column)] {
                    if col >= req.table.headers.len() {
                        return Err(ServeError::BadRequest(format!(
                            "{what} column {col} out of range for {} headers",
                            req.table.headers.len()
                        )));
                    }
                }
                let mut rows = self.column_rows(&inst, &enc, subject);
                rows.extend(self.column_rows(&inst, &enc, req.object_column));
                rows.sort_unstable();
                rows.dedup();
                if rows.is_empty() {
                    return Err(ServeError::BadRequest(format!(
                        "columns {subject} and {} have no header tokens or linked cells",
                        req.object_column
                    )));
                }
                Ok((enc, Head::Pool { rows }))
            }
            "/v1/schema_augmentation" => {
                let req: TableRequest = decode(body)?;
                let (inst, enc) = self.encode_table(&req.table)?;
                let rows: Vec<usize> = inst
                    .tokens
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.scope == TokenScope::Caption)
                    .map(|(i, _)| i)
                    .collect();
                if rows.is_empty() {
                    return Err(ServeError::BadRequest(
                        "table has no caption tokens to pool over".into(),
                    ));
                }
                Ok((enc, Head::Pool { rows }))
            }
            other => Err(ServeError::NotFound(format!("no such endpoint: {other}"))),
        }
    }

    /// Entity linking / cell filling: mask the target cell's linked
    /// entity (and with `mask_mention` its mention too, the harder
    /// cell-filling setting) and rank candidates for the masked row.
    fn rank_job(&self, body: &str, mask_mention: bool) -> Result<(EncodedInput, Head), ServeError> {
        let req: RankRequest = decode(body)?;
        let (_, mut enc) = self.encode_table(&req.table)?;
        if req.cell >= enc.entities.len() {
            return Err(ServeError::BadRequest(format!(
                "cell {} out of range: table has {} linked entity cells",
                req.cell,
                enc.entities.len()
            )));
        }
        enc.mask_entity(req.cell, mask_mention, self.mask_word());
        let row = enc.entity_row(req.cell);
        Ok((enc, Head::Rank { row, candidates: self.candidates(&req.candidates)? }))
    }

    /// Validate and widen candidate ids.
    fn candidates(&self, ids: &[u32]) -> Result<Vec<usize>, ServeError> {
        if ids.is_empty() {
            return Err(ServeError::BadRequest("candidate list is empty".into()));
        }
        let n = self.n_entities();
        if let Some(&bad) = ids.iter().find(|&&c| (c as usize) >= n) {
            return Err(ServeError::BadRequest(format!(
                "candidate entity {bad} out of range for {n} entities"
            )));
        }
        Ok(ids.iter().map(|&c| c as usize).collect())
    }

    /// Grow the visibility mask by one row/column for the appended
    /// row-population `[MASK]` cell: the new subject cell sees (and is
    /// seen by) all metadata tokens, the topic entity, every subject-
    /// column cell, and itself — the §4.3 visibility a real new row's
    /// subject cell would get.
    fn extend_mask_for_new_cell(&self, enc: &mut EncodedInput) {
        let Some(old) = enc.mask.take() else { return };
        let n = enc.seq_len();
        let tok = enc.token_ids.len();
        let m = n + 1;
        let mut data = vec![-1e9f32; m * m];
        let old_data = old.data();
        for r in 0..n {
            data[r * m..r * m + n].copy_from_slice(&old_data[r * n..(r + 1) * n]);
        }
        let visible = |idx: usize| {
            idx < tok || {
                let t = enc.entities[idx - tok].type_idx;
                t == 0 || t == 1
            }
        };
        for idx in 0..n {
            if visible(idx) {
                data[n * m + idx] = 0.0;
                data[idx * m + n] = 0.0;
            }
        }
        data[n * m + n] = 0.0;
        enc.mask = Some(Tensor::from_vec(vec![m, m], data));
    }

    /// Sequence rows participating in a column's pooled representation:
    /// its header tokens plus its linked entity cells.
    fn column_rows(&self, inst: &TableInstance, enc: &EncodedInput, col: usize) -> Vec<usize> {
        let mut rows = inst.header_tokens_of(col);
        rows.extend(inst.entities_in_column(col).into_iter().map(|i| enc.entity_row(i)));
        rows
    }

    /// Apply a head to an encoded representation `h` and serialize the
    /// response body. `cf` supplies the stateless MER kernels (workers
    /// pass their own instance; cache-hit paths use the shared one via
    /// [`apply_head_shared`](Session::apply_head_shared)).
    pub fn apply_head(
        &self,
        cf: &CompiledForward,
        head: &Head,
        h: &Tensor,
        cached: bool,
    ) -> Result<String, ServeError> {
        match head {
            Head::Encode => {
                let (rows, dim) = self.h_dims(h)?;
                let resp = EncodeResponse { rows, dim, data: h.data().to_vec(), cached };
                serde_json::to_string(&resp)
                    .map_err(|e| ServeError::Internal(format!("response encode: {e}")))
            }
            Head::Rank { row, candidates } => {
                let logits = cf
                    .mer_logits(&self.model, &self.store, h, &[*row], candidates)
                    .map_err(exec_to_serve)?;
                let scores = logits.data();
                let order = rank_descending(scores);
                let resp = RankResponse {
                    ranking: order.iter().map(|&i| candidates[i] as u32).collect(),
                    scores: order.iter().map(|&i| scores[i]).collect(),
                    cached,
                };
                serde_json::to_string(&resp)
                    .map_err(|e| ServeError::Internal(format!("response encode: {e}")))
            }
            Head::Pool { rows } => {
                let (n_rows, dim) = self.h_dims(h)?;
                if let Some(&bad) = rows.iter().find(|&&r| r >= n_rows) {
                    return Err(ServeError::Internal(format!(
                        "pool row {bad} out of range for {n_rows} encoded rows"
                    )));
                }
                let data = h.data();
                let mut repr = vec![0.0f32; dim];
                for &r in rows {
                    for (d, v) in repr.iter_mut().zip(&data[r * dim..(r + 1) * dim]) {
                        *d += v;
                    }
                }
                let inv = 1.0 / rows.len() as f32;
                for v in &mut repr {
                    *v *= inv;
                }
                let resp = ReprResponse { dim, repr, cached };
                serde_json::to_string(&resp)
                    .map_err(|e| ServeError::Internal(format!("response encode: {e}")))
            }
        }
    }

    /// [`apply_head`](Session::apply_head) through the session's shared
    /// stateless head instance — the cache-hit fast path, which needs no
    /// worker and no mutable state.
    pub fn apply_head_shared(
        &self,
        head: &Head,
        h: &Tensor,
        cached: bool,
    ) -> Result<String, ServeError> {
        self.apply_head(&self.head_cf, head, h, cached)
    }

    fn h_dims(&self, h: &Tensor) -> Result<(usize, usize), ServeError> {
        match h.shape() {
            [rows, dim] => Ok((*rows, *dim)),
            other => Err(ServeError::Internal(format!("encode output is not rank-2: {other:?}"))),
        }
    }
}

/// A runtime binding error is the request's fault (validated ids can
/// still miss model-side constraints); everything else is ours.
pub fn exec_to_serve(e: ExecError) -> ServeError {
    match e {
        ExecError::Binding(m) => ServeError::BadRequest(m),
        other => ServeError::Internal(other.to_string()),
    }
}
