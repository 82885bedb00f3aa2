//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); bounds and directions live there, not here.

use std::collections::BTreeMap;

/// Values gathered during a run, by catalogue name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed by every workload with `--trace 0`.
///
/// The contract fixes one list for all workloads, so the names are
/// generic and each workload fills them with what its user sees:
///
/// | metric | `serve_cold`, `serve_hot`, `serve_int8` | `pretrain` |
/// |---|---|---|
/// | `throughput_per_s` | OK responses / s | sequence rows (tokens + entity cells) trained / s |
/// | `latency_p50_ms`, `latency_p95_ms` | client round trip of one request | one `train_step` |
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (layer = crate), printed with `--trace 1`. A metric
/// the workload cannot observe (a serve stage during `pretrain`, the
/// open-loop sweep anywhere but `serve_int8`) prints `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // kb, data: from the spans around the set-up calls.
    ("kb.world_gen_ms", "ms"),
    ("kb.corpus_gen_ms", "ms"),
    ("data.vocab_build_ms", "ms"),
    ("data.linearize_us", "us"),
    // nn
    ("nn.artifact_export_f32_ms", "ms"),
    ("nn.artifact_export_i8_ms", "ms"),
    ("nn.artifact_load_f32_ms", "ms"),
    ("nn.artifact_load_i8_ms", "ms"),
    ("nn.artifact_bytes_f32", "bytes"),
    ("nn.artifact_bytes_i8", "bytes"),
    ("nn.adam_step_paper_ms", "ms"),
    // core
    ("core.model_init_ms", "ms"),
    ("core.encode_input_us", "us"),
    ("core.forward_f32_ms", "ms"),
    ("core.forward_i8_ms", "ms"),
    ("core.forward_miss_ms", "ms"),
    ("core.plan_compile_ms", "ms"),
    ("core.plan_evictions", "count"),
    ("core.forward_batch2_ms_per_table", "ms"),
    ("core.forward_tape_ms", "ms"),
    ("core.tape_fwd_bwd_paper_ms", "ms"),
    ("core.mask_plan_us", "us"),
    ("core.train_step_small_ms", "ms"),
    // exec: static facts of the median-shape plan; MACs and bytes are
    // computed from the plan's step fields, not measured.
    ("exec.plan_steps", "count"),
    ("exec.plan_copy_steps", "count"),
    ("exec.arena_bytes", "bytes"),
    ("exec.reuse_factor", "ratio"),
    ("exec.forward_macs", "count"),
    ("exec.forward_bytes", "bytes"),
    ("exec.achieved_gmacs", "GMAC/s"),
    // tensor
    ("tensor.matmul_256_gmacs", "GMAC/s"),
    ("tensor.matmul_tn_256_gmacs", "GMAC/s"),
    ("tensor.matmul_m28_k312_n312_us", "us"),
    ("tensor.matmul_m28_k312_n1200_us", "us"),
    ("tensor.matmul_m28_k1200_n312_us", "us"),
    ("tensor.matmul_q8_m28_k312_n312_us", "us"),
    ("tensor.fused_mask_softmax_us", "us"),
    ("tensor.fused_layer_norm_us", "us"),
    // serve: direct calls
    ("serve.build_job_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.cache_get_hit_us", "us"),
    ("serve.cache_put_us", "us"),
    ("serve.apply_head_encode_us", "us"),
    ("serve.apply_head_rank_us", "us"),
    ("serve.apply_head_repr_us", "us"),
    ("serve.wire_floor_us", "us"),
    // serve: observed during the workload
    ("serve.warmup_s", "s"),
    ("serve.stage_decode_p50_us", "us"),
    ("serve.stage_queue_wait_p50_us", "us"),
    ("serve.stage_batch_assemble_p50_us", "us"),
    ("serve.stage_forward_p50_us", "us"),
    ("serve.stage_encode_p50_us", "us"),
    ("serve.stage_write_p50_us", "us"),
    ("serve.wire_residual_ms", "ms"),
    ("serve.batch_occupancy", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected_overload", "count"),
    ("serve.client_reuse_ratio", "ratio"),
    ("serve.open_r10_p50_ms", "ms"),
    ("serve.open_r20_p50_ms", "ms"),
    ("serve.open_r20_p95_ms", "ms"),
    ("serve.open_r30_p50_ms", "ms"),
    ("serve.open_slo_attainment", "ratio"),
    ("serve.open_r30_attainment", "ratio"),
    ("serve.open_max_rate_ok_rps", "1/s"),
    ("serve.open_max_late_ms", "ms"),
    // obs
    ("obs.metrics_scrape_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// The final stdout line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being
/// every entry of `catalogue` in order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Metrics,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &serde::Value, key: &str) -> Vec<(String, String)> {
        let serde::Value::Arr(items) = doc.get(key).expect("key present") else {
            panic!("{key} is not an array")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| match m.get(k) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{k}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = turl_obs::raw::from_json_line(&text).expect("valid JSON");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Metrics::new();
        values.insert("setup_s", 0.5125);
        let line = result_line(true, 10, 0, END_TO_END, &values);
        let doc = turl_obs::raw::from_json_line(&line).expect("valid JSON");
        let serde::Value::Obj(pairs) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value"), Some(&serde::Value::Num(0.5125)));
        assert_eq!(setup.get("unit"), Some(&serde::Value::Str("s".into())));
    }
}
