//! Offline analysis of a metrics JSONL file: parsing, summarization,
//! anomaly flagging, and the text rendering behind `turl report`.

use crate::event::Event;
use crate::raw::from_json_line;
use crate::trace::{RequestTrace, Stage};

/// Parse a JSONL metrics stream, schema-checking every line.
///
/// Blank lines are allowed (a crashed run may leave one); any other
/// malformed or schema-violating line is a hard error carrying its
/// 1-based line number, so CI can fail on corrupt telemetry.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ev = Event::from_value(&value)
            .map_err(|e| format!("line {}: schema violation: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Observed vs target selection ratio for one masking objective.
#[derive(Debug, Clone, Default)]
pub struct RatioStat {
    /// Positions selected for masking.
    pub selected: u64,
    /// Candidate positions.
    pub total: u64,
    /// Paper target ratio (§4.4: 0.2 for MLM, 0.6 for MER).
    pub target: f64,
}

impl RatioStat {
    /// Observed ratio, or None with no candidates.
    pub fn observed(&self) -> Option<f64> {
        (self.total > 0).then(|| self.selected as f64 / self.total as f64)
    }

    /// Drift tolerance: 2% absolute, widened for small samples where
    /// binomial noise alone exceeds it (4 standard errors).
    pub fn tolerance(&self) -> f64 {
        let p = self.target.clamp(0.01, 0.99);
        let n = (self.total as f64).max(1.0);
        (4.0 * (p * (1.0 - p) / n).sqrt()).max(0.02)
    }

    /// Whether the observed ratio drifted beyond tolerance.
    pub fn drifted(&self) -> bool {
        match self.observed() {
            Some(obs) => (obs - self.target).abs() > self.tolerance(),
            None => false,
        }
    }
}

/// Cumulative per-op profile from the final `op_profile` snapshot.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Op name (e.g. `matmul_nt`).
    pub name: String,
    /// Total recorded invocations.
    pub calls: u64,
    /// Total nanoseconds across invocations.
    pub total_ns: u64,
}

/// Final snapshot of one registry histogram (e.g. serve latency),
/// reconstructed from its emitted bucket counts.
#[derive(Debug, Clone)]
pub struct HistogramReport {
    /// Instrument name (e.g. `serve.latency_us`).
    pub name: String,
    /// Total recorded samples.
    pub total: u64,
    /// Sum of finite samples.
    pub sum: f64,
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (one extra overflow bucket).
    pub counts: Vec<u64>,
}

impl HistogramReport {
    /// Bucket-resolution quantile estimate (see
    /// [`Histogram::quantile`](crate::Histogram::quantile)).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::metrics::quantile_from_buckets(&self.bounds, &self.counts, q)
    }

    /// Mean of finite samples, or `None` with no samples.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }
}

/// Final worker-pool utilization snapshot.
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// Configured worker count.
    pub width: u64,
    /// Parallel job submissions.
    pub jobs: u64,
    /// Tasks executed by helper workers (vs inline on the caller).
    pub helper_runs: u64,
    /// Nanoseconds helpers spent running tasks.
    pub helper_busy_ns: u64,
    /// High-water task-queue depth.
    pub max_queue_depth: u64,
}

/// Everything `turl report` knows about one run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Total schema-valid events.
    pub n_events: usize,
    /// `step` events.
    pub n_steps: usize,
    /// `span` events.
    pub n_spans: usize,
    /// Distinct epochs stamped on events.
    pub n_epochs: u64,
    /// Loss of the last step.
    pub final_loss: Option<f64>,
    /// Mean loss across steps.
    pub mean_loss: Option<f64>,
    /// Per-step losses in order (spike detection).
    pub losses: Vec<f64>,
    /// Phase totals in ns: (prepare, forward, backward, reduce, optimizer).
    pub phase_ns: [u64; 5],
    /// The part of the reduce phase spent forming weight gradients, in ns.
    pub wgrad_ns: u64,
    /// Checkpoint writes: (count, total ns, total bytes).
    pub ckpt_write: (u64, u64, u64),
    /// Checkpoint reads: (count, total ns, total bytes).
    pub ckpt_read: (u64, u64, u64),
    /// Observed MLM token-masking ratio vs target.
    pub mlm: RatioStat,
    /// Observed MER entity-masking ratio vs target.
    pub mer: RatioStat,
    /// Final cumulative op profiles, descending by time.
    pub ops: Vec<OpProfile>,
    /// Final pool snapshot, if the run emitted one.
    pub pool: Option<PoolReport>,
    /// Last value of each registry gauge (e.g. arena high-water marks),
    /// in first-seen order.
    pub gauges: Vec<(String, f64)>,
    /// Last value of each registry counter, in first-seen order.
    pub counters: Vec<(String, u64)>,
    /// Last snapshot of each registry histogram, in first-seen order.
    pub histograms: Vec<HistogramReport>,
    /// Steps skipped due to non-finite grad norms.
    pub non_finite_skips: u64,
    /// Batches that contained no maskable positions.
    pub empty_batches: u64,
    /// Host cores recorded at run start (starvation heuristics).
    pub available_cores: u64,
    /// Sampled request traces with their reservoir bucket tag
    /// (`slow` / `uniform`), in stream order.
    pub traces: Vec<(RequestTrace, String)>,
    /// Human-readable anomaly flags.
    pub anomalies: Vec<String>,
}

const PHASE_KEYS: [&str; 5] = ["prep_ns", "forward_ns", "backward_ns", "reduce_ns", "opt_ns"];

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Digest a parsed event stream.
///
/// Errors encode the CI contract: an empty stream or a run that
/// recorded no spans fails outright (it means instrumentation was
/// silently dead), while soft issues land in [`Summary::anomalies`].
pub fn summarize(events: &[Event]) -> Result<Summary, String> {
    if events.is_empty() {
        return Err("metrics stream contains zero events".to_string());
    }
    let mut s = Summary {
        n_events: events.len(),
        mlm: RatioStat { target: 0.2, ..Default::default() },
        mer: RatioStat { target: 0.6, ..Default::default() },
        ..Default::default()
    };
    let mut max_epoch = None::<u64>;
    let mut loss_sum = 0.0;
    for ev in events {
        max_epoch = Some(max_epoch.map_or(ev.epoch, |m| m.max(ev.epoch)));
        match ev.kind.as_str() {
            "run_start" => {
                if let Some(t) = ev.f64_field("mlm_target") {
                    s.mlm.target = t;
                }
                if let Some(t) = ev.f64_field("mer_target") {
                    s.mer.target = t;
                }
                if let Some(c) = ev.u64_field("available_cores") {
                    s.available_cores = c;
                }
            }
            "step" => {
                s.n_steps += 1;
                if let Some(loss) = ev.f64_field("loss") {
                    if loss.is_finite() {
                        loss_sum += loss;
                        s.losses.push(loss);
                        s.final_loss = Some(loss);
                    }
                }
                for (i, key) in PHASE_KEYS.iter().enumerate() {
                    s.phase_ns[i] += ev.u64_field(key).unwrap_or(0);
                }
                s.wgrad_ns += ev.u64_field("wgrad_ns").unwrap_or(0);
                s.mlm.selected += ev.u64_field("mlm_selected").unwrap_or(0);
                s.mlm.total += ev.u64_field("mlm_candidates").unwrap_or(0);
                s.mer.selected += ev.u64_field("mer_selected").unwrap_or(0);
                s.mer.total += ev.u64_field("mer_candidates").unwrap_or(0);
            }
            "span" => {
                s.n_spans += 1;
                let ns = ev.u64_field("ns").unwrap_or(0);
                let bytes = ev.u64_field("bytes").unwrap_or(0);
                match ev.str_field("name") {
                    Some("checkpoint_write") => {
                        s.ckpt_write.0 += 1;
                        s.ckpt_write.1 += ns;
                        s.ckpt_write.2 += bytes;
                    }
                    Some("checkpoint_read") => {
                        s.ckpt_read.0 += 1;
                        s.ckpt_read.1 += ns;
                        s.ckpt_read.2 += bytes;
                    }
                    _ => {}
                }
            }
            "trace" => match RequestTrace::from_event(ev) {
                Some(pair) => s.traces.push(pair),
                None => {
                    return Err("trace event is missing required stage/shape fields".to_string());
                }
            },
            "non_finite_skip" => s.non_finite_skips += 1,
            "empty_batch" => s.empty_batches += 1,
            "op_profile" => {
                // cumulative snapshots: keep the latest per op
                if let Some(name) = ev.str_field("name") {
                    let calls = ev.u64_field("calls").unwrap_or(0);
                    let total_ns = ev.u64_field("total_ns").unwrap_or(0);
                    if let Some(op) = s.ops.iter_mut().find(|o| o.name == name) {
                        op.calls = calls;
                        op.total_ns = total_ns;
                    } else {
                        s.ops.push(OpProfile { name: name.to_string(), calls, total_ns });
                    }
                }
            }
            // Registry flushes are cumulative snapshots: keep the
            // latest value per instrument.
            "metric" => match ev.str_field("metric_type") {
                Some("gauge") => {
                    if let (Some(name), Some(v)) = (ev.str_field("name"), ev.f64_field("value")) {
                        if let Some(g) = s.gauges.iter_mut().find(|(n, _)| n == name) {
                            g.1 = v;
                        } else {
                            s.gauges.push((name.to_string(), v));
                        }
                    }
                }
                Some("counter") => {
                    if let (Some(name), Some(v)) = (ev.str_field("name"), ev.u64_field("value")) {
                        if let Some(c) = s.counters.iter_mut().find(|(n, _)| n == name) {
                            c.1 = v;
                        } else {
                            s.counters.push((name.to_string(), v));
                        }
                    }
                }
                Some("histogram") => {
                    let parse_list = |field: &str| -> Vec<f64> {
                        ev.str_field(field)
                            .unwrap_or("")
                            .split(',')
                            .filter_map(|x| x.trim().parse::<f64>().ok())
                            .collect()
                    };
                    if let Some(name) = ev.str_field("name") {
                        let h = HistogramReport {
                            name: name.to_string(),
                            total: ev.u64_field("total").unwrap_or(0),
                            sum: ev.f64_field("sum").unwrap_or(0.0),
                            bounds: parse_list("bounds"),
                            counts: parse_list("buckets").iter().map(|&c| c as u64).collect(),
                        };
                        if let Some(old) = s.histograms.iter_mut().find(|x| x.name == h.name) {
                            *old = h;
                        } else {
                            s.histograms.push(h);
                        }
                    }
                }
                _ => {}
            },
            "pool" => {
                s.pool = Some(PoolReport {
                    width: ev.u64_field("width").unwrap_or(0),
                    jobs: ev.u64_field("jobs").unwrap_or(0),
                    helper_runs: ev.u64_field("helper_runs").unwrap_or(0),
                    helper_busy_ns: ev.u64_field("helper_busy_ns").unwrap_or(0),
                    max_queue_depth: ev.u64_field("max_queue_depth").unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    s.n_epochs = max_epoch.map_or(0, |m| m + 1);
    if s.n_steps > 0 && !s.losses.is_empty() {
        s.mean_loss = Some(loss_sum / s.losses.len() as f64);
    }
    s.ops.sort_by_key(|op| std::cmp::Reverse(op.total_ns));
    // A trace-only dump (`--trace-out`) legitimately has no spans.
    if s.n_spans == 0 && s.traces.is_empty() {
        return Err(format!(
            "metrics stream has {} events but zero recorded spans — instrumentation is dead",
            s.n_events
        ));
    }
    s.anomalies = detect_anomalies(&s);
    Ok(s)
}

fn detect_anomalies(s: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    // Loss spike: any step loss beyond 2.5x the run median (needs
    // enough steps for the median to mean anything).
    if s.losses.len() >= 8 {
        let mut sorted = s.losses.clone();
        sorted.sort_by(f64::total_cmp);
        let med = median(&sorted);
        if med > 0.0 {
            let spikes = s
                .losses
                .iter()
                .enumerate()
                .filter(|(_, l)| **l > 2.5 * med)
                .map(|(i, l)| (i, *l))
                .collect::<Vec<_>>();
            if let Some((i, l)) = spikes.first() {
                out.push(format!(
                    "loss spike: {} step(s) above 2.5x median {:.4} (first at step-index {} with loss {:.4})",
                    spikes.len(),
                    med,
                    i,
                    l
                ));
            }
        }
    }
    for (name, stat) in [("MLM", &s.mlm), ("MER", &s.mer)] {
        if stat.drifted() {
            if let Some(obs) = stat.observed() {
                out.push(format!(
                    "{name} mask-ratio drift: observed {:.4} vs target {:.2} (tolerance {:.4}, n={})",
                    obs,
                    stat.target,
                    stat.tolerance(),
                    stat.total
                ));
            }
        }
    }
    if let Some(pool) = &s.pool {
        if pool.width > 1 && s.available_cores > 1 && pool.jobs >= 10 && pool.helper_runs == 0 {
            out.push(format!(
                "pool starvation: {} parallel jobs submitted but helper workers ran 0 tasks (width {})",
                pool.jobs, pool.width
            ));
        }
    }
    if s.non_finite_skips > 0 {
        out.push(format!(
            "{} step(s) skipped on non-finite grad norm — training may be diverging",
            s.non_finite_skips
        ));
    }
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2} ms", ns as f64 / 1.0e6)
}

/// Nearest-rank quantile over an ascending-sorted slice.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Pearson correlation coefficient; `None` when either side has zero
/// variance (correlation is undefined).
fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return None;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

fn render_traces(out: &mut String, s: &Summary) {
    use std::fmt::Write as _;
    let n_slow = s.traces.iter().filter(|(_, tag)| tag == "slow").count();
    let _ = writeln!(out, "\n-- request traces --");
    let _ = writeln!(
        out,
        "  sampled {} ({} slow, {} uniform)",
        s.traces.len(),
        n_slow,
        s.traces.len() - n_slow
    );

    // Quantiles come from the uniform bucket when available — the slow
    // bucket is tail-biased by construction. Fall back to everything
    // when the run was too short to fill the uniform reservoir.
    let uniform: Vec<&RequestTrace> =
        s.traces.iter().filter(|(_, tag)| tag == "uniform").map(|(t, _)| t).collect();
    let basis: Vec<&RequestTrace> =
        if uniform.is_empty() { s.traces.iter().map(|(t, _)| t).collect() } else { uniform };

    let _ = writeln!(out, "  stage            p50          p99");
    for stage in Stage::ALL {
        let mut vals: Vec<f64> = basis.iter().map(|t| t.stage_ns[stage as usize] as f64).collect();
        vals.sort_by(f64::total_cmp);
        let _ = writeln!(
            out,
            "  {:<14} {:>9}  {:>11}",
            stage.name(),
            fmt_ms(exact_quantile(&vals, 0.50) as u64),
            fmt_ms(exact_quantile(&vals, 0.99) as u64)
        );
    }

    let wait: u64 = basis.iter().map(|t| t.wait_ns()).sum();
    let compute: u64 = basis.iter().map(|t| t.compute_ns()).sum();
    if compute > 0 {
        let _ = writeln!(
            out,
            "  queue-wait vs compute: {:.2}  (wait {}, compute {})",
            wait as f64 / compute as f64,
            fmt_ms(wait),
            fmt_ms(compute)
        );
    }

    let sizes: Vec<f64> = basis.iter().map(|t| t.batch_size as f64).collect();
    let totals: Vec<f64> = basis.iter().map(|t| t.total_ns as f64).collect();
    match pearson(&sizes, &totals) {
        Some(r) => {
            let _ = writeln!(out, "  batch-occupancy vs latency correlation: r = {r:+.2}");
        }
        None => {
            let _ =
                writeln!(out, "  batch-occupancy vs latency correlation: n/a (constant sample)");
        }
    }

    // Slowest-N over every sampled trace, deduplicated by id (a trace
    // can sit in both reservoir buckets).
    let mut slowest: Vec<&RequestTrace> = Vec::new();
    for (t, _) in &s.traces {
        if !slowest.iter().any(|x| x.id == t.id) {
            slowest.push(t);
        }
    }
    slowest.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
    let _ = writeln!(out, "  slowest requests:");
    for t in slowest.iter().take(5) {
        let _ = writeln!(
            out,
            "    {:>10}  {:<24} status {}  batch {}  {} tok + {} ent{}  id {}",
            fmt_ms(t.total_ns),
            t.endpoint,
            t.status,
            t.batch_size,
            t.n_tokens,
            t.n_entities,
            if t.cached { "  [cached]" } else { "" },
            t.id
        );
    }
}

/// Render the summary as the `turl report` terminal text.
pub fn render(s: &Summary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== turl report ==");
    let _ = writeln!(
        out,
        "events {}  steps {}  epochs {}  spans {}",
        s.n_events, s.n_steps, s.n_epochs, s.n_spans
    );
    if let (Some(fl), Some(ml)) = (s.final_loss, s.mean_loss) {
        let _ = writeln!(out, "loss: final {fl:.6}  mean {ml:.6}");
    }

    let _ = writeln!(out, "\n-- step-time breakdown --");
    let total: u64 = s.phase_ns.iter().sum::<u64>() + s.ckpt_write.1;
    let phases = [
        ("prepare", s.phase_ns[0]),
        ("forward", s.phase_ns[1]),
        ("backward", s.phase_ns[2]),
        ("reduce", s.phase_ns[3]),
        ("optimizer", s.phase_ns[4]),
        ("checkpoint", s.ckpt_write.1),
    ];
    for (name, ns) in phases {
        let pct = if total > 0 { 100.0 * ns as f64 / total as f64 } else { 0.0 };
        let _ = write!(out, "  {name:<10} {:>12}  {pct:5.1}%", fmt_ms(ns));
        if name == "reduce" && s.wgrad_ns > 0 {
            let _ = write!(out, "  (weight gradients {})", fmt_ms(s.wgrad_ns));
        }
        let _ = writeln!(out);
    }
    if s.ckpt_write.0 > 0 {
        let _ = writeln!(
            out,
            "  checkpoint writes: {} ({} bytes, avg {})",
            s.ckpt_write.0,
            s.ckpt_write.2,
            fmt_ms(s.ckpt_write.1 / s.ckpt_write.0.max(1))
        );
    }
    if s.ckpt_read.0 > 0 {
        let _ = writeln!(
            out,
            "  checkpoint reads:  {} ({} bytes, avg {})",
            s.ckpt_read.0,
            s.ckpt_read.2,
            fmt_ms(s.ckpt_read.1 / s.ckpt_read.0.max(1))
        );
    }

    let _ = writeln!(out, "\n-- mask-selection ratios (paper section 4.4) --");
    for (name, stat) in [("MLM", &s.mlm), ("MER", &s.mer)] {
        match stat.observed() {
            Some(obs) => {
                let _ = writeln!(
                    out,
                    "  {name}: observed {obs:.4}  target {:.2}  ({}/{} positions){}",
                    stat.target,
                    stat.selected,
                    stat.total,
                    if stat.drifted() { "  [DRIFT]" } else { "" }
                );
            }
            None => {
                let _ = writeln!(out, "  {name}: no candidates recorded");
            }
        }
    }

    if !s.ops.is_empty() {
        let _ = writeln!(out, "\n-- kernel profile (cumulative) --");
        for op in &s.ops {
            let per = op.total_ns.checked_div(op.calls).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<16} calls {:>8}  total {:>12}  per-call {per} ns",
                op.name,
                op.calls,
                fmt_ms(op.total_ns)
            );
        }
    }
    if !s.gauges.is_empty() {
        let _ = writeln!(out, "\n-- gauges --");
        for (name, v) in &s.gauges {
            let _ = writeln!(out, "  {name:<24} {v:.3}");
        }
    }
    if !s.counters.is_empty() {
        let _ = writeln!(out, "\n-- counters --");
        for (name, v) in &s.counters {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    if !s.histograms.is_empty() {
        let _ = writeln!(out, "\n-- histograms --");
        for h in &s.histograms {
            let p50 = h.quantile(0.50).unwrap_or(0.0);
            let p99 = h.quantile(0.99).unwrap_or(0.0);
            let mean = h.mean().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<24} n {:>8}  mean {mean:.1}  p50 \u{2264}{p50:.0}  p99 \u{2264}{p99:.0}",
                h.name, h.total
            );
        }
    }
    if !s.traces.is_empty() {
        render_traces(&mut out, s);
    }
    if let Some(pool) = &s.pool {
        let _ = writeln!(out, "\n-- worker pool --");
        let _ = writeln!(
            out,
            "  width {}  jobs {}  helper tasks {}  helper busy {}  max queue depth {}",
            pool.width,
            pool.jobs,
            pool.helper_runs,
            fmt_ms(pool.helper_busy_ns),
            pool.max_queue_depth
        );
    }
    if s.empty_batches > 0 || s.non_finite_skips > 0 {
        let _ = writeln!(
            out,
            "\nempty batches {}  non-finite skips {}",
            s.empty_batches, s.non_finite_skips
        );
    }

    let _ = writeln!(out, "\n-- anomalies --");
    if s.anomalies.is_empty() {
        let _ = writeln!(out, "  none detected");
    } else {
        for a in &s.anomalies {
            let _ = writeln!(out, "  ! {a}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;

    fn step_event(step: u64, loss: f64) -> Event {
        Event {
            kind: "step".to_string(),
            step,
            epoch: 0,
            t_ns: step * 1000,
            fields: vec![
                ("loss".to_string(), FieldValue::F64(loss)),
                ("prep_ns".to_string(), FieldValue::U64(10)),
                ("forward_ns".to_string(), FieldValue::U64(100)),
                ("backward_ns".to_string(), FieldValue::U64(200)),
                ("reduce_ns".to_string(), FieldValue::U64(20)),
                ("wgrad_ns".to_string(), FieldValue::U64(12)),
                ("opt_ns".to_string(), FieldValue::U64(30)),
                // Buffer-pool fields an older log still carries; ignored.
                ("pool_hits".to_string(), FieldValue::U64(900)),
                ("pool_misses".to_string(), FieldValue::U64(3)),
                ("tape_bytes_fresh".to_string(), FieldValue::U64(2_500_000)),
                ("tape_peak_bytes".to_string(), FieldValue::U64(40_000_000 + step)),
                ("mlm_selected".to_string(), FieldValue::U64(20)),
                ("mlm_candidates".to_string(), FieldValue::U64(100)),
                ("mer_selected".to_string(), FieldValue::U64(60)),
                ("mer_candidates".to_string(), FieldValue::U64(100)),
            ],
        }
    }

    fn span_event(name: &str) -> Event {
        Event {
            kind: "span".to_string(),
            step: 0,
            epoch: 0,
            t_ns: 1,
            fields: vec![
                ("name".to_string(), FieldValue::Str(name.to_string())),
                ("ns".to_string(), FieldValue::U64(5000)),
            ],
        }
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(parse_jsonl("{\"ev\":\"x\",\"step\":0,\"epoch\":0,\"t_ns\":1}\n").is_ok());
        let err = parse_jsonl("{\"step\":0}\n").expect_err("missing ev");
        assert!(err.contains("line 1"), "{err}");
        let err = parse_jsonl("not json\n").expect_err("bad json");
        assert!(err.contains("line 1"), "{err}");
        // blank lines tolerated
        assert!(parse_jsonl("\n\n{\"ev\":\"x\",\"step\":0,\"epoch\":0,\"t_ns\":1}\n").is_ok());
    }

    #[test]
    fn summarize_errors_on_empty_and_spanless() {
        assert!(summarize(&[]).is_err());
        let only_steps: Vec<Event> = (0..3).map(|i| step_event(i, 1.0)).collect();
        let err = summarize(&only_steps).expect_err("no spans");
        assert!(err.contains("zero recorded spans"), "{err}");
    }

    #[test]
    fn summarize_aggregates_phases_and_ratios() {
        let mut events: Vec<Event> =
            (0..10).map(|i| step_event(i, 1.0 - i as f64 * 0.01)).collect();
        events.push(span_event("epoch"));
        events.push(span_event("checkpoint_write"));
        let s = summarize(&events).expect("summary");
        assert_eq!(s.n_steps, 10);
        assert_eq!(s.phase_ns, [100, 1000, 2000, 200, 300]);
        assert_eq!(s.wgrad_ns, 120);
        assert_eq!(s.mlm.observed(), Some(0.2));
        assert_eq!(s.mer.observed(), Some(0.6));
        assert!(!s.mlm.drifted());
        assert!(!s.mer.drifted());
        assert_eq!(s.ckpt_write.0, 1);
        assert!(s.anomalies.is_empty(), "{:?}", s.anomalies);
        let text = render(&s);
        assert!(text.contains("forward"), "{text}");
        assert!(text.contains("(weight gradients "), "{text}");
        assert!(!text.contains("tensor buffers"), "{text}");
        assert!(text.contains("MLM: observed 0.2000"), "{text}");
    }

    fn gauge_event(name: &str, value: f64) -> Event {
        Event {
            kind: "metric".to_string(),
            step: 0,
            epoch: 0,
            t_ns: 1,
            fields: vec![
                ("name".to_string(), FieldValue::Str(name.to_string())),
                ("metric_type".to_string(), FieldValue::Str("gauge".to_string())),
                ("value".to_string(), FieldValue::F64(value)),
            ],
        }
    }

    #[test]
    fn gauges_keep_latest_value_and_render() {
        let events = vec![
            span_event("epoch"),
            gauge_event("exec.arena_bytes", 1024.0),
            gauge_event("exec.arena_reuse_factor", 2.4),
            // Later cumulative snapshot supersedes the first.
            gauge_event("exec.arena_bytes", 2048.0),
        ];
        let s = summarize(&events).expect("summary");
        assert_eq!(
            s.gauges,
            vec![
                ("exec.arena_bytes".to_string(), 2048.0),
                ("exec.arena_reuse_factor".to_string(), 2.4)
            ]
        );
        let text = render(&s);
        assert!(text.contains("-- gauges --"), "{text}");
        assert!(text.contains("exec.arena_bytes"), "{text}");
        assert!(text.contains("2048.000"), "{text}");
    }

    #[test]
    fn histograms_and_counters_digest_from_metric_events() {
        let metric = |fields: Vec<(&str, FieldValue)>| Event {
            kind: "metric".to_string(),
            step: 0,
            epoch: 0,
            t_ns: 1,
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        };
        let events = vec![
            span_event("serve"),
            metric(vec![
                ("name", FieldValue::Str("serve.requests".into())),
                ("metric_type", FieldValue::Str("counter".into())),
                ("value", FieldValue::U64(10)),
            ]),
            // A later cumulative snapshot supersedes the first.
            metric(vec![
                ("name", FieldValue::Str("serve.requests".into())),
                ("metric_type", FieldValue::Str("counter".into())),
                ("value", FieldValue::U64(42)),
            ]),
            metric(vec![
                ("name", FieldValue::Str("serve.latency_us".into())),
                ("metric_type", FieldValue::Str("histogram".into())),
                ("total", FieldValue::U64(100)),
                ("sum", FieldValue::F64(5000.0)),
                ("buckets", FieldValue::Str("90,9,1,0".into())),
                ("bounds", FieldValue::Str("100,1000,10000".into())),
            ]),
        ];
        let s = summarize(&events).expect("summary");
        assert_eq!(s.counters, vec![("serve.requests".to_string(), 42)]);
        assert_eq!(s.histograms.len(), 1);
        let h = &s.histograms[0];
        assert_eq!(h.total, 100);
        assert_eq!(h.quantile(0.5), Some(100.0));
        assert_eq!(h.quantile(0.99), Some(1000.0));
        let text = render(&s);
        assert!(text.contains("-- histograms --"), "{text}");
        assert!(text.contains("serve.latency_us"), "{text}");
        assert!(text.contains("-- counters --"), "{text}");
    }

    #[test]
    fn anomalies_flag_spikes_drift_and_skips() {
        let mut events: Vec<Event> = (0..10).map(|i| step_event(i, 1.0)).collect();
        events.push(step_event(10, 50.0)); // spike
                                           // drift the MER ratio hard with a big-sample step
        events.push(Event {
            kind: "step".to_string(),
            step: 11,
            epoch: 0,
            t_ns: 0,
            fields: vec![
                ("loss".to_string(), FieldValue::F64(1.0)),
                ("mer_selected".to_string(), FieldValue::U64(1000)),
                ("mer_candidates".to_string(), FieldValue::U64(100000)),
            ],
        });
        events.push(Event {
            kind: "non_finite_skip".to_string(),
            step: 12,
            epoch: 0,
            t_ns: 0,
            fields: vec![],
        });
        events.push(span_event("epoch"));
        let s = summarize(&events).expect("summary");
        let text = s.anomalies.join("\n");
        assert!(text.contains("loss spike"), "{text}");
        assert!(text.contains("MER mask-ratio drift"), "{text}");
        assert!(text.contains("non-finite"), "{text}");
    }

    fn trace_event(id: &str, total_ns: u64, batch: u64, sample: &str) -> Event {
        let t = RequestTrace {
            id: id.to_string(),
            endpoint: "/v1/encode".to_string(),
            status: 200,
            stage_ns: [
                total_ns / 10,
                total_ns / 10,
                total_ns / 10,
                total_ns / 2,
                total_ns / 10,
                total_ns / 10,
            ],
            batch_size: batch,
            peers: batch.saturating_sub(1),
            n_tokens: 25,
            n_entities: 9,
            cached: false,
            total_ns,
        };
        t.to_event(sample)
    }

    #[test]
    fn trace_only_streams_summarize_and_render_breakdown() {
        // A --trace-out dump has zero spans — must not trip the
        // dead-instrumentation error.
        let events = vec![
            trace_event("aaa", 9_000_000, 4, "slow"),
            trace_event("bbb", 1_000_000, 1, "uniform"),
            trace_event("ccc", 2_000_000, 2, "uniform"),
            trace_event("ddd", 4_000_000, 4, "uniform"),
        ];
        let s = summarize(&events).expect("trace-only stream is valid");
        assert_eq!(s.traces.len(), 4);
        let text = render(&s);
        assert!(text.contains("-- request traces --"), "{text}");
        assert!(text.contains("sampled 4 (1 slow, 3 uniform)"), "{text}");
        for stage in ["decode", "queue_wait", "batch_assemble", "forward", "encode", "write"] {
            assert!(text.contains(stage), "missing stage {stage} in {text}");
        }
        assert!(text.contains("queue-wait vs compute"), "{text}");
        // batch size and latency rise together in this fixture
        assert!(text.contains("correlation: r = +1.00"), "{text}");
        assert!(text.contains("slowest requests:"), "{text}");
        assert!(text.contains("id aaa"), "{text}");
    }

    #[test]
    fn malformed_trace_event_is_a_hard_error() {
        let mut ev = trace_event("aaa", 1000, 1, "slow");
        ev.fields.retain(|(k, _)| k != "forward_ns");
        let err = summarize(&[ev]).expect_err("missing stage field");
        assert!(err.contains("trace event"), "{err}");
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        let r = pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]).expect("defined");
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_sample_tolerance_widens() {
        let stat = RatioStat { selected: 1, total: 4, target: 0.2 };
        // 0.25 vs 0.20 is 5% off but n=4 → binomial noise dominates
        assert!(stat.tolerance() > 0.05);
        assert!(!stat.drifted());
    }
}
