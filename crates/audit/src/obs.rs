//! Metrics-log auditor: validates a recorded `--metrics-out` JSONL
//! stream against the event schema and the §4.4 masking contract.
//!
//! The other auditors check the program before or while it runs; this
//! one checks what the program *said about itself*. A silently-dead
//! instrumentation layer (zero events, zero spans) is as much a defect
//! as a shape mismatch — dashboards built on the stream would report a
//! healthy-looking nothing — so `turl audit` runs a short instrumented
//! training loop and feeds the resulting file through
//! [`check_metrics_log`].

use crate::AuditError;

/// What a schema-valid metrics stream contained.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsLogReport {
    /// Schema-valid events parsed from the stream.
    pub n_events: usize,
    /// `step` events among them.
    pub n_steps: usize,
    /// `span` events among them.
    pub n_spans: usize,
    /// Observed MLM token-masking ratio, when any candidates were seen.
    pub mlm_observed: Option<f64>,
    /// Observed MER entity-masking ratio, when any candidates were seen.
    pub mer_observed: Option<f64>,
}

/// Parse and digest a `--metrics-out` JSONL stream, enforcing:
///
/// * every line is a schema-valid event (reserved `ev`/`step`/`epoch`/
///   `t_ns` fields present and well-typed);
/// * the stream is alive — at least one event and one span;
/// * a step's `wgrad_ns` (weight-gradient products) is part of its
///   `reduce_ns`, never more, so the phases still partition the step;
/// * the observed §4.4 mask-selection ratios sit within the drift
///   tolerance of their configured targets (2% absolute, widened for
///   small samples where binomial noise alone exceeds it).
pub fn check_metrics_log(text: &str) -> Result<MetricsLogReport, Vec<AuditError>> {
    let events =
        turl_obs::parse_jsonl(text).map_err(|detail| vec![AuditError::MetricsSchema { detail }])?;
    let summary = turl_obs::summarize(&events)
        .map_err(|detail| vec![AuditError::DeadInstrumentation { detail }])?;
    let mut errors = Vec::new();
    for ev in events.iter().filter(|ev| ev.kind == "step") {
        let (wgrad, reduce) = (ev.u64_field("wgrad_ns"), ev.u64_field("reduce_ns"));
        if wgrad.unwrap_or(0) > reduce.unwrap_or(u64::MAX) {
            errors.push(AuditError::MetricsSchema {
                detail: format!(
                    "step {}: wgrad_ns {wgrad:?} exceeds the reduce_ns {reduce:?} it is part of",
                    ev.step
                ),
            });
        }
    }
    for (field, stat) in [("mlm", &summary.mlm), ("mer", &summary.mer)] {
        if stat.drifted() {
            if let Some(observed) = stat.observed() {
                errors.push(AuditError::MaskRatioDrift {
                    field,
                    observed,
                    target: stat.target,
                    tolerance: stat.tolerance(),
                });
            }
        }
    }
    if errors.is_empty() {
        Ok(MetricsLogReport {
            n_events: summary.n_events,
            n_steps: summary.n_steps,
            n_spans: summary.n_spans,
            mlm_observed: summary.mlm.observed(),
            mer_observed: summary.mer.observed(),
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mlm_selected: u64, mer_selected: u64) -> String {
        format!(
            concat!(
                "{{\"ev\":\"run_start\",\"step\":0,\"epoch\":0,\"t_ns\":1,",
                "\"mlm_target\":0.2,\"mer_target\":0.6}}\n",
                "{{\"ev\":\"step\",\"step\":1,\"epoch\":0,\"t_ns\":2,\"loss\":8.0,",
                "\"mlm_selected\":{},\"mlm_candidates\":1000,",
                "\"mer_selected\":{},\"mer_candidates\":1000}}\n",
                "{{\"ev\":\"span\",\"step\":1,\"epoch\":0,\"t_ns\":3,",
                "\"name\":\"epoch\",\"ns\":100}}\n",
            ),
            mlm_selected, mer_selected
        )
    }

    #[test]
    fn valid_stream_passes_and_reports_ratios() {
        let report = check_metrics_log(&stream(205, 598)).unwrap();
        assert_eq!(report.n_events, 3);
        assert_eq!(report.n_steps, 1);
        assert_eq!(report.n_spans, 1);
        assert!((report.mlm_observed.unwrap() - 0.205).abs() < 1e-12);
        assert!((report.mer_observed.unwrap() - 0.598).abs() < 1e-12);
    }

    #[test]
    fn drifted_ratios_are_violations() {
        let errors = check_metrics_log(&stream(400, 600)).unwrap_err();
        assert_eq!(errors.len(), 1);
        match &errors[0] {
            AuditError::MaskRatioDrift { field, observed, target, .. } => {
                assert_eq!(*field, "mlm");
                assert!((observed - 0.4).abs() < 1e-12);
                assert!((target - 0.2).abs() < 1e-12);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn weight_gradient_time_must_fit_inside_the_reduce_phase() {
        let with_phases = |reduce_ns: u64, wgrad_ns: u64| {
            let phases = format!("\"loss\":8.0,\"reduce_ns\":{reduce_ns},\"wgrad_ns\":{wgrad_ns},");
            stream(200, 600).replace("\"loss\":8.0,", &phases)
        };
        assert!(check_metrics_log(&with_phases(900, 700)).is_ok());
        assert!(check_metrics_log(&with_phases(900, 900)).is_ok());
        let errors = check_metrics_log(&with_phases(900, 901)).unwrap_err();
        assert!(matches!(&errors[0], AuditError::MetricsSchema { detail }
            if detail.contains("wgrad_ns") && detail.contains("step 1")));
    }

    #[test]
    fn malformed_lines_are_schema_violations() {
        let errors = check_metrics_log("{\"ev\":\"x\",\"step\":0}\nnot json\n").unwrap_err();
        assert!(matches!(errors[0], AuditError::MetricsSchema { .. }));
    }

    #[test]
    fn dead_streams_are_rejected() {
        let errors = check_metrics_log("").unwrap_err();
        assert!(matches!(errors[0], AuditError::DeadInstrumentation { .. }));
        // events but no spans: the RAII guards never fired
        let no_spans = "{\"ev\":\"log\",\"step\":0,\"epoch\":0,\"t_ns\":1,\"msg\":\"hi\"}\n";
        let errors = check_metrics_log(no_spans).unwrap_err();
        assert!(matches!(errors[0], AuditError::DeadInstrumentation { .. }));
    }
}
