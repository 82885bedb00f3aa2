//! The executor contract table.
//!
//! The paper defines one function, the §4.2 embedding and the §4.3
//! visibility-masked encoder, and this crate runs it through several
//! executors. Each row below is one of them; each runs on every case of
//! the fixture corpus (`support::corpus`) and must give the bits
//! (`f32::to_bits`) of its reference on every member of every case.
//! Every fused kernel is reassociation-free, so exact equality is the
//! contract, not a tolerance.
//!
//! | row | executor | reference |
//! |-----|----------|-----------|
//! | `compiled_plan` | compiled plan, each member alone; its schedule covers the IR | tape |
//! | `compiled_batch` | one compiled `TableBatch` of the members, f32 and int8 | tape; int8: tape on the dequantized twin |
//! | `group_tape` | the tape over the members' `lower_group_plan` group, f32 and twin | tape (twin: tape on the twin) |
//! | `f32_artifact` | compiled plan over the store exported and reloaded | tape |
//! | `int8_store` | compiled plan over the int8 artifact; the twin compiled | tape on the dequantized twin |
//! | `pool_widths` | tape and compiled plan at pool widths 1 and 2 | tape |
//! | `mer_head` | `CompiledForward::mer_logits` over the compiled encode | the tape's `mer.logits` node |
//!
//! The reference is one inference-mode tape encode (`TurlModel::encode`)
//! of each member, on the case's f32 store. A new executor joins as one
//! row, a new shape as one case in `support`.

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use support::{Case, N_ENTITIES, N_WORDS};
use turl_audit::{lower_group_plan, lower_model_plan, ModelPlan};
use turl_core::audit::{model_plan, plan_for_input};
use turl_core::{EncodedInput, TableBatch, TapeTable, TurlModel};
use turl_exec::{compile, ExecError};
use turl_nn::{Forward, ParamStore};
use turl_tensor::{pool, Tensor};

/// A case and everything its rows compare against, built once.
struct Fixture {
    case: Case,
    /// Each member's tape encode on the f32 store: the reference.
    tape: Vec<Tensor>,
    /// The f32 store exported to an artifact and loaded back.
    f32_artifact: ParamStore,
    /// The store exported to an int8 artifact and loaded back.
    int8: ParamStore,
    /// `int8` dequantized: the f32 weights the int8 rows must match.
    twin: ParamStore,
    /// Each member's tape encode on `twin`.
    twin_tape: Vec<Tensor>,
}

fn table() -> &'static [Fixture] {
    static TABLE: OnceLock<Vec<Fixture>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (support::corpus().into_iter())
            .map(|case| {
                let int8 = support::reload(&case.store, true);
                let twin = support::dequantized(&int8);
                let encode_all = |store: &ParamStore| -> Vec<Tensor> {
                    case.inputs.iter().map(|i| tape(&case.model, store, i)).collect()
                };
                Fixture {
                    tape: encode_all(&case.store),
                    twin_tape: encode_all(&twin),
                    f32_artifact: support::reload(&case.store, false),
                    int8,
                    twin,
                    case,
                }
            })
            .collect()
    })
}

/// One inference-mode tape encode of `input`.
fn tape(model: &TurlModel, store: &ParamStore, input: &EncodedInput) -> Tensor {
    let mut f = Forward::inference(store);
    let h = model.encode(&mut f, store, &mut StdRng::seed_from_u64(0), input);
    f.graph.value(h).clone()
}

/// What a row gave for one member, and what it must equal.
struct Check {
    what: String,
    got: Result<Tensor, String>,
    want: Tensor,
}

fn check(what: impl Into<String>, got: Result<Tensor, ExecError>, want: &Tensor) -> Check {
    Check { what: what.into(), got: got.map_err(|e| e.to_string()), want: want.clone() }
}

/// Where `got` first differs from `want` in shape or bits, if it does.
fn divergence(got: &Tensor, want: &Tensor) -> Option<String> {
    if got.shape() != want.shape() {
        return Some(format!("shape {:?}, want {:?}", got.shape(), want.shape()));
    }
    let (i, (a, b)) = got
        .data()
        .iter()
        .zip(want.data())
        .enumerate()
        .find(|(_, (a, b))| a.to_bits() != b.to_bits())?;
    Some(format!(
        "element {i} is {a:e} ({:#010x}), want {b:e} ({:#010x})",
        a.to_bits(),
        b.to_bits()
    ))
}

/// Run `row` over every case of the table and fail with every
/// divergence it shows.
fn run_row(row: impl Fn(&Fixture) -> Vec<Check>) {
    let mut failures = Vec::new();
    let mut n_checks = 0;
    for fx in table() {
        for c in row(fx) {
            n_checks += 1;
            let fault = match &c.got {
                Ok(got) => divergence(got, &c.want),
                Err(e) => Some(format!("failed: {e}")),
            };
            if let Some(fault) = fault {
                failures.push(format!("case `{}`, {}: {fault}", fx.case.name, c.what));
            }
        }
    }
    assert!(n_checks > 0, "the row checked nothing");
    assert!(
        failures.is_empty(),
        "{} of {n_checks} checks diverge:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The members as one batch.
fn batch(case: &Case) -> TableBatch<'_> {
    let refs: Vec<&EncodedInput> = case.inputs.iter().collect();
    TableBatch::build(&refs).expect("a non-empty batch builds")
}

fn plan(case: &Case, input: &EncodedInput) -> ModelPlan {
    plan_for_input(model_plan(&case.model.cfg, N_WORDS, N_ENTITIES), input)
}

/// Each member encoded alone by the compiled plan over `store`, against
/// `refs`.
fn compiled_solo(fx: &Fixture, what: &str, store: &ParamStore, refs: &[Tensor]) -> Vec<Check> {
    let mut cf = fx.case.model.compiled();
    (fx.case.inputs.iter().zip(refs).enumerate())
        .map(|(s, (input, want))| {
            check(format!("{what}, member {s}"), cf.encode(&fx.case.model, store, input), want)
        })
        .collect()
}

#[test]
fn compiled_plan() {
    run_row(|fx| {
        for input in &fx.case.inputs {
            let ir = lower_model_plan(&plan(&fx.case, input)).expect("plan lowers");
            let covers = compile(&ir).and_then(|c| c.verify_covers(&ir));
            covers.unwrap_or_else(|e| panic!("case `{}`: {e}", fx.case.name));
        }
        compiled_solo(fx, "f32", &fx.case.store, &fx.tape)
    });
}

#[test]
fn compiled_batch() {
    run_row(|fx| {
        let case = &fx.case;
        let batch = batch(case);
        let mut cf = case.model.compiled();
        let mut checks = Vec::new();
        for (weights, store, refs) in
            [("f32", &case.store, &fx.tape), ("int8", &fx.int8, &fx.twin_tape)]
        {
            let h = cf.encode(&case.model, store, batch.input());
            for (s, want) in refs.iter().enumerate() {
                let got = h.as_ref().map(|h| batch.extract(s, h)).map_err(Clone::clone);
                checks.push(check(format!("{weights}, member {s} of {}", batch.len()), got, want));
            }
        }
        checks
    });
}

#[test]
fn group_tape() {
    run_row(|fx| {
        let case = &fx.case;
        let batch = batch(case);
        let plans: Vec<ModelPlan> = case.inputs.iter().map(|i| plan(case, i)).collect();
        let ir = lower_group_plan(&plans).expect("group lowers");
        let tables: Vec<TapeTable> =
            case.inputs.iter().map(|input| TapeTable { input, heads: &[] }).collect();
        let mut checks = Vec::new();
        for (weights, store, refs) in
            [("f32", &case.store, &fx.tape), ("twin", &fx.twin, &fx.twin_tape)]
        {
            let mut rngs: Vec<StdRng> = tables.iter().map(|_| StdRng::seed_from_u64(0)).collect();
            let mut f = Forward::inference(store);
            let vars = case.model.run_ir(&mut f, store, &mut rngs, &ir, &tables);
            let h = f.graph.value(vars.last().copied().flatten().expect("the stacked output"));
            for (s, want) in refs.iter().enumerate() {
                let what = format!("{weights}, member {s} of {}", batch.len());
                checks.push(check(what, Ok(batch.extract(s, h)), want));
            }
        }
        checks
    });
}

#[test]
fn f32_artifact() {
    run_row(|fx| compiled_solo(fx, "reloaded f32", &fx.f32_artifact, &fx.tape));
}

#[test]
fn int8_store() {
    run_row(|fx| {
        let mut checks = compiled_solo(fx, "int8", &fx.int8, &fx.twin_tape);
        checks.extend(compiled_solo(fx, "twin", &fx.twin, &fx.twin_tape));
        checks
    });
}

#[test]
fn pool_widths() {
    run_row(|fx| {
        let case = &fx.case;
        let saved = pool::n_threads();
        let mut checks = Vec::new();
        for width in [1, 2] {
            pool::set_threads(width);
            for (s, (input, want)) in case.inputs.iter().zip(&fx.tape).enumerate() {
                let got = Ok(tape(&case.model, &case.store, input));
                checks.push(check(format!("tape at width {width}, member {s}"), got, want));
            }
            checks.extend(compiled_solo(
                fx,
                &format!("compiled at width {width}"),
                &case.store,
                &fx.tape,
            ));
        }
        pool::set_threads(saved);
        checks
    });
}

/// The MER-mirror pin: the inference MER head is a second copy of the
/// IR's `mer.logits` node, so its logits are checked against that node
/// run on the tape, on every member with an entity.
#[test]
fn mer_head() {
    let candidates = [0, 3, 7, N_ENTITIES - 1, 12];
    let shifted = candidates.map(|c| c + 1);
    run_row(|fx| {
        let case = &fx.case;
        let mut cf = case.model.compiled();
        let mut checks = Vec::new();
        for (s, input) in case.inputs.iter().enumerate() {
            if input.entities.is_empty() {
                continue;
            }
            // Every entity cell, last first: the gather does not read rows in order.
            let rows: Vec<usize> =
                (0..input.entities.len()).rev().map(|e| input.entity_row(e)).collect();
            let targets = vec![0; rows.len()];
            // The plan's own MER head, run on the tape.
            let plan = ModelPlan {
                n_mer_targets: rows.len(),
                n_candidates: candidates.len(),
                ..plan(case, input)
            };
            let ir = lower_model_plan(&plan).expect("plan lowers");
            let heads: [(&str, &[usize]); 3] =
                [("mer.rows", &rows), ("mer.candidates", &shifted), ("mer.loss", &targets)];
            let mut f = Forward::inference(&case.store);
            let tables = [TapeTable { input, heads: &heads }];
            let vars = case.model.run_ir(
                &mut f,
                &case.store,
                &mut [StdRng::seed_from_u64(0)],
                &ir,
                &tables,
            );
            let logits = vars[ir.find("mer.logits").expect("MER head").index()];
            let want = f.graph.value(logits.expect("recorded"));

            let got = (cf.encode(&case.model, &case.store, input))
                .and_then(|h| cf.mer_logits(&case.model, &case.store, &h, &rows, &candidates));
            checks.push(check(format!("member {s}"), got, want));
        }
        checks
    });
}

/// What no executor may run fails typed, never with a panic: an empty
/// input, an empty batch, and a batch with an empty member.
#[test]
fn typed_errors() {
    let case = &table()[0].case;
    let (model, store) = (&case.model, &case.store);
    let mut cf = model.compiled();
    let empty = support::input(0, &support::Shape::new(0, 0));
    let err = cf.encode(model, store, &empty).expect_err("an empty input must not compile");
    assert!(
        matches!(err, ExecError::Binding(_)) && err.to_string().contains("empty input"),
        "{err}"
    );
    assert!(matches!(TableBatch::build(&[]), Err(ExecError::Binding(_))), "an empty batch");
    let batch = TableBatch::build(&[&case.inputs[0], &empty]).expect("a batch builds");
    let err = cf.encode(model, store, batch.input()).expect_err("an empty member must not run");
    assert!(matches!(err, ExecError::Binding(_)), "{err}");
}
