//! Prometheus text exposition (version 0.0.4) for the metrics
//! registry, plus a small parser used by `turl top` and CI checks.
//!
//! Instrument names in the registry may embed labels directly, e.g.
//! `serve.latency_us{endpoint="encode"}` — endpoints and stages are
//! compile-time-known, so labeled series are just distinct static
//! registry entries. The renderer splits the name at the first `{`,
//! sanitizes the base (dots become underscores), groups series into
//! families, and emits one `# TYPE` line per family followed by its
//! samples. Histograms render in the standard cumulative form:
//! `_bucket{le="..."}` lines (including `le="+Inf"`), `_sum`, and
//! `_count`. Non-finite gauges render as the literals `NaN`, `+Inf`,
//! and `-Inf`, which the text format permits.

use std::collections::BTreeMap;

use crate::metrics::{quantile_from_buckets, snapshot_registry, HistogramSnapshot};

/// Sanitize a metric base name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Split an instrument name into `(sanitized base, raw label block)`;
/// the label block excludes the surrounding braces and is empty for
/// unlabeled instruments.
fn split_name(name: &str) -> (String, String) {
    match name.split_once('{') {
        Some((base, rest)) => (sanitize_metric_name(base), rest.trim_end_matches('}').to_string()),
        None => (sanitize_metric_name(name), String::new()),
    }
}

/// Render an f64 in exposition syntax (`NaN` / `+Inf` / `-Inf` for
/// non-finite values).
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn join_labels(existing: &str, extra: Option<&str>) -> String {
    match (existing.is_empty(), extra) {
        (true, None) => String::new(),
        (true, Some(e)) => format!("{{{e}}}"),
        (false, None) => format!("{{{existing}}}"),
        (false, Some(e)) => format!("{{{existing},{e}}}"),
    }
}

/// Render the entire metrics registry as Prometheus text exposition.
pub fn render_prometheus() -> String {
    let snap = snapshot_registry();
    let mut out = String::with_capacity(4096);

    // family -> [(label block, value line payload)]
    let mut counters: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
    for (name, v) in snap.counters {
        let (base, labels) = split_name(name);
        counters.entry(base).or_default().push((labels, v));
    }
    for (family, series) in counters {
        out.push_str(&format!("# TYPE {family} counter\n"));
        for (labels, v) in series {
            out.push_str(&format!("{family}{} {v}\n", join_labels(&labels, None)));
        }
    }

    let mut gauges: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    for (name, v) in snap.gauges {
        let (base, labels) = split_name(name);
        gauges.entry(base).or_default().push((labels, v));
    }
    for (family, series) in gauges {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (labels, v) in series {
            out.push_str(&format!("{family}{} {}\n", join_labels(&labels, None), format_value(v)));
        }
    }

    let mut hists: BTreeMap<String, Vec<(String, HistogramSnapshot)>> = BTreeMap::new();
    for h in snap.histograms {
        let (base, labels) = split_name(h.name);
        hists.entry(base).or_default().push((labels, h));
    }
    for (family, series) in hists {
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (labels, HistogramSnapshot { total, sum, counts, bounds, .. }) in series {
            let mut cum = 0u64;
            for (i, bound) in bounds.iter().enumerate() {
                cum += counts.get(i).copied().unwrap_or(0);
                let le = format!("le=\"{}\"", format_value(*bound));
                out.push_str(&format!(
                    "{family}_bucket{} {cum}\n",
                    join_labels(&labels, Some(&le))
                ));
            }
            out.push_str(&format!(
                "{family}_bucket{} {total}\n",
                join_labels(&labels, Some("le=\"+Inf\""))
            ));
            out.push_str(&format!(
                "{family}_sum{} {}\n",
                join_labels(&labels, None),
                format_value(sum)
            ));
            out.push_str(&format!("{family}_count{} {total}\n", join_labels(&labels, None)));
        }
    }
    out
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name (histogram samples keep their `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value (may be NaN/±inf).
    pub value: f64,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label without `=` in `{block}`"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_name(&key) {
            return Err(format!("invalid label name `{key}`"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value for `{key}` is not quoted"));
        }
        let close =
            after[1..].find('"').ok_or_else(|| format!("unterminated label value for `{key}`"))?;
        labels.push((key, after[1..1 + close].to_string()));
        rest = after[close + 2..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        other => other.parse::<f64>().map_err(|_| format!("bad sample value `{other}`")),
    }
}

/// Parse (and syntax-check) a Prometheus text exposition document.
/// Every non-comment, non-blank line must be `name[{labels}] value`;
/// every `# TYPE` comment must be well-formed. Errors carry 1-based
/// line numbers.
pub fn parse_exposition(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            if parts.next() == Some("TYPE") {
                let name = parts.next().unwrap_or("");
                let ty = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad TYPE metric name `{name}`"));
                }
                if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {lineno}: unknown metric type `{ty}`"));
                }
            }
            continue;
        }
        let (name_part, value_part) = match line.find('{') {
            Some(open) => {
                let close = line.rfind('}').ok_or(format!("line {lineno}: unbalanced braces"))?;
                if close < open {
                    return Err(format!("line {lineno}: unbalanced braces"));
                }
                let labels = parse_labels(&line[open + 1..close])
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                ((line[..open].to_string(), labels), line[close + 1..].trim())
            }
            None => {
                let (name, value) = line
                    .split_once(char::is_whitespace)
                    .ok_or(format!("line {lineno}: sample has no value"))?;
                ((name.to_string(), Vec::new()), value.trim())
            }
        };
        let (name, labels) = name_part;
        if !valid_name(&name) {
            return Err(format!("line {lineno}: invalid metric name `{name}`"));
        }
        if value_part.is_empty() {
            return Err(format!("line {lineno}: sample has no value"));
        }
        // A timestamp after the value is legal exposition; take field 1.
        let value_token =
            value_part.split_whitespace().next().ok_or(format!("line {lineno}: empty value"))?;
        let value = parse_value(value_token).map_err(|e| format!("line {lineno}: {e}"))?;
        samples.push(PromSample { name, labels, value });
    }
    Ok(samples)
}

impl PromSample {
    /// Value of a named label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn matches(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name && labels.iter().all(|(k, v)| self.label(k) == Some(v))
    }
}

/// First sample matching `name` and carrying all of `labels`.
pub fn sample_value(samples: &[PromSample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples.iter().find(|s| s.matches(name, labels)).map(|s| s.value)
}

/// Reconstruct `(bounds, per-bucket counts)` for a histogram family
/// from its cumulative `_bucket` samples (subset-matched on `labels`,
/// `le` excluded). The `+Inf` bucket becomes the overflow count, so
/// the result feeds [`quantile_from_buckets`] directly.
pub fn histogram_buckets(
    samples: &[PromSample],
    family: &str,
    labels: &[(&str, &str)],
) -> Option<(Vec<f64>, Vec<u64>)> {
    let bucket_name = format!("{family}_bucket");
    let mut pairs: Vec<(f64, u64)> = Vec::new();
    for s in samples.iter().filter(|s| s.matches(&bucket_name, labels)) {
        let le = parse_value(s.label("le")?).ok()?;
        pairs.push((le, s.value as u64));
    }
    if pairs.is_empty() {
        return None;
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut bounds = Vec::new();
    let mut counts = Vec::new();
    let mut prev = 0u64;
    let mut inf_total = None;
    for (le, cum) in pairs {
        if le.is_infinite() {
            inf_total = Some(cum);
        } else {
            bounds.push(le);
            counts.push(cum.saturating_sub(prev));
            prev = cum;
        }
    }
    counts.push(inf_total.unwrap_or(prev).saturating_sub(prev)); // overflow bucket
    Some((bounds, counts))
}

/// Bucket-resolution quantile for a (possibly labeled) histogram
/// family parsed out of an exposition document.
pub fn histogram_quantile(
    samples: &[PromSample],
    family: &str,
    labels: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let (bounds, counts) = histogram_buckets(samples, family, labels)?;
    quantile_from_buckets(&bounds, &counts, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter, gauge, histogram};

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("serve.latency_us"), "serve_latency_us");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        counter("promtest.requests").add(7);
        gauge("promtest.depth").set(3.5);
        let h = histogram("promtest.lat_us", &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(1e9); // overflow

        let text = render_prometheus();
        let samples = parse_exposition(&text).expect("self-rendered exposition parses");
        assert_eq!(sample_value(&samples, "promtest_requests", &[]), Some(7.0));
        assert_eq!(sample_value(&samples, "promtest_depth", &[]), Some(3.5));
        assert_eq!(sample_value(&samples, "promtest_lat_us_bucket", &[("le", "10")]), Some(1.0));
        assert_eq!(sample_value(&samples, "promtest_lat_us_bucket", &[("le", "100")]), Some(2.0));
        assert_eq!(sample_value(&samples, "promtest_lat_us_bucket", &[("le", "+Inf")]), Some(3.0));
        assert_eq!(sample_value(&samples, "promtest_lat_us_count", &[]), Some(3.0));
        assert!(text.contains("# TYPE promtest_requests counter"));
        assert!(text.contains("# TYPE promtest_lat_us histogram"));
    }

    #[test]
    fn renders_labeled_series_as_one_family() {
        counter("promtest.hits{endpoint=\"encode\"}").add(2);
        counter("promtest.hits{endpoint=\"rank\"}").add(5);
        let text = render_prometheus();
        assert_eq!(text.matches("# TYPE promtest_hits counter").count(), 1);
        let samples = parse_exposition(&text).expect("parses");
        assert_eq!(sample_value(&samples, "promtest_hits", &[("endpoint", "encode")]), Some(2.0));
        assert_eq!(sample_value(&samples, "promtest_hits", &[("endpoint", "rank")]), Some(5.0));
    }

    #[test]
    fn non_finite_gauges_render_as_literals() {
        gauge("promtest.nan").set(f64::NAN);
        gauge("promtest.pinf").set(f64::INFINITY);
        gauge("promtest.ninf").set(f64::NEG_INFINITY);
        let text = render_prometheus();
        assert!(text.contains("promtest_nan NaN"));
        assert!(text.contains("promtest_pinf +Inf"));
        assert!(text.contains("promtest_ninf -Inf"));
        let samples = parse_exposition(&text).expect("non-finite literals parse");
        assert!(sample_value(&samples, "promtest_nan", &[]).is_some_and(f64::is_nan));
        assert_eq!(sample_value(&samples, "promtest_pinf", &[]), Some(f64::INFINITY));
        assert_eq!(sample_value(&samples, "promtest_ninf", &[]), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn histogram_quantile_reconstructs_from_cumulative_buckets() {
        let h = histogram("promtest.q_us{stage=\"decode\"}", &[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..9 {
            h.observe(5.0);
        }
        h.observe(50.0);
        let samples = parse_exposition(&render_prometheus()).expect("parses");
        let labels = [("stage", "decode")];
        assert_eq!(histogram_quantile(&samples, "promtest_q_us", &labels, 0.5), Some(1.0));
        assert_eq!(histogram_quantile(&samples, "promtest_q_us", &labels, 0.95), Some(10.0));
        assert_eq!(histogram_quantile(&samples, "promtest_q_us", &labels, 0.999), Some(100.0));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("no_value_here\n").is_err());
        assert!(parse_exposition("bad-name 1\n").is_err());
        assert!(parse_exposition("x{unclosed=\"v\" 1\n").is_err());
        assert!(parse_exposition("x{k=unquoted} 1\n").is_err());
        assert!(parse_exposition("x notanumber\n").is_err());
        assert!(parse_exposition("# TYPE x wat\n").is_err());
        assert!(parse_exposition("# HELP anything goes here\nx 1\n").is_ok());
    }
}
