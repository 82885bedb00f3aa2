//! An int8 artifact stays close to the f32 model it was exported from.
//!
//! The bits contracts of artifacts (an f32 artifact reloaded, an int8
//! store against its dequantized twin) are rows of the executor contract
//! table (`contract.rs`). What is left here is not a bits contract:
//! quantization error enters through the weights, so an int8 encode is
//! only near the f32 one.

mod support;

#[test]
fn int8_artifact_round_trips_through_the_compiled_path() {
    // Every weight is off by at most half a quantization step, so a small
    // model's outputs stay within a loose absolute tolerance (the tight
    // accuracy gate lives in the CLI probe).
    for case in support::corpus() {
        let loaded = support::reload(&case.store, true);
        assert_eq!(loaded.len(), case.store.len());
        let mut cf = case.model.compiled();
        for (s, input) in case.inputs.iter().enumerate() {
            let want = cf.encode(&case.model, &case.store, input).expect("f32 encode");
            let got = cf.encode(&case.model, &loaded, input).expect("int8 encode");
            assert_eq!(want.shape(), got.shape());
            for (i, (x, y)) in want.data().iter().zip(got.data()).enumerate() {
                assert!(
                    y.is_finite() && (x - y).abs() <= 0.35,
                    "case `{}`, member {s}: int8 output drifted at {i}: {x} vs {y}",
                    case.name
                );
            }
        }
    }
}
