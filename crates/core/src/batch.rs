//! Cross-request micro-batching: several encoded tables through one
//! compiled forward, every member's rows **bit-exact** with its solo
//! encode.
//!
//! A batch is a pre-training group without heads:
//! `turl_audit::lower_group_plan` stacks the members as row segments,
//! runs each row-wise op (the encoder's linears, layer norms, GELU and
//! residual adds) once over all their rows, and runs what mixes rows —
//! the embedding layer, attention — per member. Member `s` is one
//! contiguous row range of the `[Σn, d]` output. A row-wise kernel
//! computes each output element as the same FMA chain whatever the row
//! count, and attention only ever sees one member's rows, so the range
//! holds the bits of that member's solo encode, masked or not.

use crate::input::EncodedInput;
use turl_exec::ExecError;
use turl_tensor::Tensor;

/// The tables one compiled forward runs: a single input, or the members
/// of a [`TableBatch`] stacked as row segments. `From<&EncodedInput>`
/// lets a single-table call site pass its input as it is.
#[derive(Debug, Clone, Copy)]
pub enum Tables<'a> {
    /// One table.
    One(&'a EncodedInput),
    /// Several tables, stacked in order.
    Stacked(&'a [&'a EncodedInput]),
}

impl<'a> From<&'a EncodedInput> for Tables<'a> {
    fn from(input: &'a EncodedInput) -> Self {
        Tables::One(input)
    }
}

impl<'a> Tables<'a> {
    /// The member tables, in row order.
    pub(crate) fn members(&self) -> &[&'a EncodedInput] {
        match self {
            Tables::One(input) => std::slice::from_ref(input),
            Tables::Stacked(inputs) => inputs,
        }
    }
}

/// Several encoded tables coalesced into one forward-sized input.
pub struct TableBatch<'a> {
    members: Vec<&'a EncodedInput>,
    /// Member `s`'s rows of the batched encode: `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
}

impl<'a> TableBatch<'a> {
    /// Coalesce `inputs` into one batch, in order. Only an empty list is
    /// refused, as a typed [`ExecError::Binding`]; a member the forward
    /// cannot run (an empty table) fails the batched encode instead.
    pub fn build(inputs: &[&'a EncodedInput]) -> Result<Self, ExecError> {
        if inputs.is_empty() {
            return Err(ExecError::Binding("cannot batch zero inputs".into()));
        }
        let mut starts = vec![0];
        for input in inputs {
            starts.push(starts[starts.len() - 1] + input.seq_len());
        }
        Ok(Self { members: inputs.to_vec(), starts })
    }

    /// The members, for one compiled forward.
    pub fn input(&self) -> Tables<'_> {
        Tables::Stacked(&self.members)
    }

    /// Number of member tables.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the batch holds no members (never, post-`build`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Copy member `item`'s rows out of the batched encode `h` —
    /// bit-identical to a solo encode of that member.
    ///
    /// # Panics
    /// Panics when `h` is not this batch's `[Σn, d]` encode.
    pub fn extract(&self, item: usize, h: &Tensor) -> Tensor {
        let total = self.starts[self.members.len()];
        assert!(
            h.shape().len() == 2 && h.shape()[0] == total,
            "a batch of {total} rows cannot extract from {:?}",
            h.shape()
        );
        let d = h.shape()[1];
        let (start, end) = (self.starts[item], self.starts[item + 1]);
        Tensor::from_slice(vec![end - start, d], &h.data()[start * d..end * d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurlConfig;
    use crate::input::EntityInput;
    use crate::model::{TapeTable, TurlModel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;
    use turl_audit::{lower_group_plan, ModelPlan};
    use turl_nn::{export_artifact, load_artifact, ExportOptions, Forward, ParamStore};

    const N_WORDS: usize = 40;
    const N_ENTITIES: usize = 15;

    /// A model; its f32 store; that store exported to an int8 artifact
    /// and loaded back; and the loaded weights dequantized, which the
    /// tape reads in place of the int8 store.
    struct Fixture {
        model: TurlModel,
        f32_store: ParamStore,
        int8_store: ParamStore,
        int8_dense: ParamStore,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let mut f32_store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(12);
            let model =
                TurlModel::new(&mut f32_store, &mut rng, TurlConfig::tiny(12), N_WORDS, N_ENTITIES);
            let dir = std::env::temp_dir().join(format!("turl-batch-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join("int8.artifact");
            let opts = ExportOptions { quantize: true, min_quant_elems: 0 };
            export_artifact(&f32_store, &path, &opts).expect("int8 export");
            let int8_store = load_artifact(&path).expect("int8 load");
            let _ = std::fs::remove_dir_all(&dir);
            let mut int8_dense = ParamStore::new();
            for id in int8_store.ids() {
                let value = int8_store.value(id).dequantize();
                int8_dense.register(int8_store.name(id).to_string(), value);
            }
            Fixture { model, f32_store, int8_store, int8_dense }
        })
    }

    /// One member table: `tokens` metadata tokens (positions past
    /// `max_position` when `past_max`), `mention_lens` cycled over its
    /// `ents` entity cells, and, when `masked`, a random visibility mask
    /// that may leave a row nothing to attend to.
    fn member(
        seed: u64,
        tokens: usize,
        ents: usize,
        masked: bool,
        mention_lens: &[usize],
        past_max: bool,
    ) -> EncodedInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = tokens + ents;
        let mask = masked.then(|| {
            let mut m = Tensor::zeros(vec![n, n]);
            for v in m.data_mut() {
                if rng.gen::<f32>() < 0.4 {
                    *v = -1e9;
                }
            }
            m
        });
        let shift = if past_max { TurlConfig::tiny(12).max_position } else { 0 };
        EncodedInput {
            token_ids: (0..tokens).map(|_| rng.gen_range(0..N_WORDS)).collect(),
            token_types: (0..tokens).map(|i| i % 2).collect(),
            token_pos: (0..tokens).map(|i| i + shift).collect(),
            entities: (0..ents)
                .map(|i| EntityInput {
                    emb_index: rng.gen_range(0..=N_ENTITIES),
                    mention: (0..mention_lens[i % mention_lens.len()])
                        .map(|_| rng.gen_range(0..N_WORDS))
                        .collect(),
                    type_idx: i % 3,
                })
                .collect(),
            mask,
        }
    }

    fn same_bits(got: &Tensor, want: &Tensor) -> bool {
        got.shape() == want.shape()
            && got.data().iter().zip(want.data()).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Each member: (tokens, entities, masked, mention lengths, positions
    /// past `max_position`). Tokens-only, entities-only and mention-less
    /// members all occur; an empty one gets a token.
    fn members() -> impl Strategy<Value = Vec<(usize, usize, bool, Vec<usize>, bool)>> {
        let one = (0usize..6, 0usize..5, any::<bool>(), proptest::collection::vec(0usize..3, 1..3))
            .prop_map(|(t, e, m, l)| (t.max(usize::from(t + e == 0)), e, m, l));
        proptest::collection::vec((one, 0u8..5), 1..6)
            .prop_map(|v| v.into_iter().map(|((t, e, m, l), p)| (t, e, m, l, p == 0)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every member of a batch holds the bits of its solo compiled
        /// encode and of an inference-mode tape run over the same
        /// `lower_group_plan` group, over f32 and int8-exported weights.
        #[test]
        fn batched_encode_is_bit_exact_vs_solo(
            seed in 0u64..1_000,
            shapes in members(),
            same_shape in any::<bool>(),
            int8 in any::<bool>(),
        ) {
            let fx = fixture();
            let model = &fx.model;
            let (store, dense) = if int8 {
                (&fx.int8_store, &fx.int8_dense)
            } else {
                (&fx.f32_store, &fx.f32_store)
            };
            // Same-shape members are what serve coalesces.
            let inputs: Vec<EncodedInput> = (0..shapes.len())
                .map(|i| {
                    let (t, e, m, l, p) = &shapes[if same_shape { 0 } else { i }];
                    member(seed * 8 + i as u64, *t, *e, *m, l, *p)
                })
                .collect();
            let refs: Vec<&EncodedInput> = inputs.iter().collect();
            let batch = TableBatch::build(&refs).expect("batch builds");
            prop_assert_eq!(batch.len(), inputs.len());
            let mut cf = model.compiled();
            let hb = cf.encode(model, store, batch.input()).expect("batched encode");

            let plans: Vec<ModelPlan> = inputs.iter().map(|i| model.forward_plan(i)).collect();
            let ir = lower_group_plan(&plans).expect("group lowers");
            let tables: Vec<TapeTable> =
                inputs.iter().map(|input| TapeTable { input, heads: &[] }).collect();
            let mut rngs: Vec<StdRng> = (0..inputs.len()).map(|_| StdRng::seed_from_u64(0)).collect();
            let mut f = Forward::inference(dense);
            let vars = model.run_ir(&mut f, dense, &mut rngs, &ir, &tables);
            let tape = f.graph.value(vars.last().copied().flatten().expect("the stacked output"));

            for (s, input) in inputs.iter().enumerate() {
                let solo = cf.encode(model, store, input).expect("solo encode");
                prop_assert!(same_bits(&batch.extract(s, &hb), &solo), "batch vs solo, member {}", s);
                prop_assert!(same_bits(&batch.extract(s, tape), &solo), "tape vs solo, member {}", s);
            }
        }
    }

    #[test]
    fn unmasked_members_are_rejected() {
        // Only an empty batch is: an unmasked member batches like any other.
        let input = member(1, 4, 2, false, &[1], false);
        assert_eq!(TableBatch::build(&[&input, &input]).expect("unmasked members batch").len(), 2);
        assert!(TableBatch::build(&[]).is_err());
    }
}
