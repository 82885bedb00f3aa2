//! Regression test for the bounded compiled-plan cache: a server fed
//! arbitrary table shapes must hold at most `plan_cache_cap` resident
//! compiled plans, no matter how many distinct shapes pass through.

mod support;

use support::Shape;
use turl_core::{TableBatch, TurlConfig};

#[test]
fn thousand_distinct_shapes_stay_at_the_cap() {
    let (store, model) = support::model(TurlConfig::tiny(2), 2);
    let mut cf = model.compiled();
    assert_eq!(cf.plan_cache_cap(), turl_core::DEFAULT_PLAN_CACHE_CAP);
    cf.set_plan_cache_cap(8);

    // 1000 distinct shapes: tokens 1..=100 x entities 0..10. Compiling
    // (plan_for) is enough to exercise insertion + eviction without the
    // cost of running every forward.
    let mut fed = 0usize;
    for tokens in 1..=100usize {
        for ents in 0..10usize {
            let input = support::input(0, &Shape::new(tokens, ents));
            cf.plan_for(&model, &store, &input).expect("plan compiles");
            fed += 1;
            assert!(
                cf.compiled_shapes() <= 8,
                "resident plans {} exceeded cap after {fed} shapes",
                cf.compiled_shapes()
            );
        }
    }
    assert_eq!(fed, 1000);
    assert_eq!(cf.compiled_shapes(), 8, "cache should sit exactly at the cap");
    assert_eq!(cf.plan_evictions(), (fed - 8) as u64);
}

#[test]
fn lru_keeps_hot_shapes_and_evicts_cold_ones() {
    let (store, model) = support::model(TurlConfig::tiny(3), 3);
    let mut cf = model.compiled();
    cf.set_plan_cache_cap(2);

    let a = support::input(0, &Shape::new(3, 1));
    let b = support::input(0, &Shape::new(4, 1));
    let c = support::input(0, &Shape::new(5, 1));
    cf.plan_for(&model, &store, &a).expect("a");
    cf.plan_for(&model, &store, &b).expect("b");
    // Touch `a` so `b` is the LRU entry, then insert `c`: `b` evicts.
    cf.plan_for(&model, &store, &a).expect("a again");
    cf.plan_for(&model, &store, &c).expect("c");
    assert_eq!(cf.plan_evictions(), 1);
    // `a` and `c` are resident: re-requesting them compiles nothing new.
    cf.plan_for(&model, &store, &a).expect("a hot");
    cf.plan_for(&model, &store, &c).expect("c hot");
    assert_eq!(cf.plan_evictions(), 1, "hot shapes must not recompile or evict");
    // `b` was evicted: re-requesting it recompiles and evicts again.
    cf.plan_for(&model, &store, &b).expect("b cold");
    assert_eq!(cf.plan_evictions(), 2);
    assert_eq!(cf.compiled_shapes(), 2);
}

#[test]
fn shrinking_the_cap_evicts_immediately() {
    let (store, model) = support::model(TurlConfig::tiny(4), 4);
    let mut cf = model.compiled();
    for tokens in 1..=6usize {
        cf.plan_for(&model, &store, &support::input(0, &Shape::new(tokens, 1))).expect("plan");
    }
    assert_eq!(cf.compiled_shapes(), 6);
    cf.set_plan_cache_cap(3);
    assert_eq!(cf.compiled_shapes(), 3);
    assert_eq!(cf.plan_evictions(), 3);
}

#[test]
fn a_batch_of_one_is_the_solo_plan() {
    let (store, model) = support::model(TurlConfig::tiny(3), 3);
    let mut cf = model.compiled();
    let shape = Shape { masked: true, ..Shape::new(4, 2) };
    let [a, b, c] = [1, 2, 3].map(|seed| support::input(seed, &shape));
    cf.plan_for(&model, &store, &a).expect("solo");
    let one = TableBatch::build(&[&a]).expect("a batch of one");
    cf.plan_for(&model, &store, one.input()).expect("a batch of one");
    assert_eq!(cf.compiled_shapes(), 1, "a batch of one must reuse the solo plan");
    // Same-shape batches: one plan per member count, whatever the members
    // hold.
    for pair in [[&b, &c], [&c, &a]] {
        let batch = TableBatch::build(&pair).expect("a pair");
        cf.plan_for(&model, &store, batch.input()).expect("a pair");
    }
    assert_eq!(cf.compiled_shapes(), 2);
}

#[test]
fn empty_input_is_a_typed_error() {
    let (store, model) = support::model(TurlConfig::tiny(5), 5);
    let mut cf = model.compiled();
    let empty = support::input(0, &Shape::new(0, 0));
    let err = cf.encode(&model, &store, &empty).expect_err("empty input must not compile");
    assert!(format!("{err}").contains("empty input"), "unexpected error: {err}");
}
