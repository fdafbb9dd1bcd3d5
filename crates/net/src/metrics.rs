//! Text exposition of a [`WireMetrics`] report.
//!
//! [`render_prometheus`] renders the METRICS frame's typed report in the
//! Prometheus text format (`metric{label="value"} number` lines with
//! `# HELP` / `# TYPE` headers), so a scrape endpoint or a cron job can
//! expose the server's counters and histograms without any metrics
//! dependency. Counters and gauges render by iterating the report's
//! registry list, so every registry entry is a series.
//! Latency histograms render as summaries — `quantile="0.5"` /
//! `quantile="0.99"` series from the log-bucketed sketch, plus the exact
//! `_count` / `_sum` / `_max` series — because the log buckets are the
//! sketch's internal shape, not a useful axis for dashboards.

use crate::proto::WireMetrics;
use cpqx_obs::Metric;
use std::fmt::Write;

/// Escapes a Prometheus label value (backslash, double quote, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `m` in the Prometheus text exposition format.
pub fn render_prometheus(m: &WireMetrics) -> String {
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(w, "# HELP cpqx_epoch Current engine snapshot epoch.");
    let _ = writeln!(w, "# TYPE cpqx_epoch gauge");
    let _ = writeln!(w, "cpqx_epoch {}", m.epoch);

    // The registry, by iteration: help and unit come from the local
    // table (both sides speak the same protocol version, so the same
    // table); a name this build does not know still renders.
    for c in &m.counters {
        if let Some(metric) = Metric::from_name(&c.name) {
            let _ = writeln!(w, "# HELP {} {} [{}]", c.name, metric.help(), metric.unit());
        }
        let _ = writeln!(w, "# TYPE {} {}", c.name, c.kind.name());
        let _ = writeln!(w, "{} {}", c.name, c.value);
    }

    for (metric, help, series) in [
        (
            "cpqx_op_latency_us",
            "Whole-operation latency in microseconds, by opcode.",
            m.ops.iter().map(|(op, h)| (op.name(), h)).collect::<Vec<_>>(),
        ),
        (
            "cpqx_stage_latency_us",
            "Pipeline-stage latency in microseconds, by stage.",
            m.stages.iter().map(|(stage, h)| (stage.name(), h)).collect::<Vec<_>>(),
        ),
    ] {
        if series.is_empty() {
            continue;
        }
        let _ = writeln!(w, "# HELP {metric} {help}");
        let _ = writeln!(w, "# TYPE {metric} summary");
        let label = if metric == "cpqx_op_latency_us" { "op" } else { "stage" };
        for (name, h) in series {
            for (q, qn) in [(0.5, "0.5"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(w, "{metric}{{{label}=\"{name}\",quantile=\"{qn}\"}} {v}");
                }
            }
            let _ = writeln!(w, "{metric}_count{{{label}=\"{name}\"}} {}", h.count());
            let _ = writeln!(w, "{metric}_sum{{{label}=\"{name}\"}} {}", h.sum());
            let _ = writeln!(w, "{metric}_max{{{label}=\"{name}\"}} {}", h.max());
        }
    }

    if !m.workload.is_empty() {
        let _ = writeln!(
            w,
            "# HELP cpqx_workload_queries_total Queries served, by canonical query key."
        );
        let _ = writeln!(w, "# TYPE cpqx_workload_queries_total counter");
        for (key, count) in &m.workload {
            let _ =
                writeln!(w, "cpqx_workload_queries_total{{key=\"{}\"}} {count}", escape_label(key));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireSample;
    use cpqx_obs::{Histogram, Op as ObsOp, Stage};
    use std::time::Duration;

    fn sample(metric: Metric, value: u64) -> WireSample {
        WireSample { name: metric.name().to_string(), kind: metric.kind(), value }
    }

    #[test]
    fn renders_all_sections() {
        let h = Histogram::new();
        for us in [10u64, 20, 30, 4000] {
            h.record_duration(Duration::from_micros(us));
        }
        let m = WireMetrics {
            epoch: 3,
            ops: vec![(ObsOp::Query, h.snapshot())],
            stages: vec![(Stage::Eval, h.snapshot())],
            counters: vec![
                sample(Metric::Connections, 1),
                sample(Metric::QueryRequests, 4),
                sample(Metric::OpenConnections, 1),
                sample(Metric::SlowQueries, 1),
            ],
            workload: vec![("(f\"quoted\")".into(), 4)],
            ..WireMetrics::default()
        };
        let text = render_prometheus(&m);
        assert!(text.contains("cpqx_epoch 3"));
        assert!(text.contains("cpqx_query_requests_total 4"));
        assert!(text.contains("# TYPE cpqx_open_connections gauge\ncpqx_open_connections 1"));
        assert!(text.contains("cpqx_op_latency_us{op=\"query\",quantile=\"0.99\"}"));
        assert!(text.contains("cpqx_op_latency_us_count{op=\"query\"} 4"));
        assert!(text.contains("cpqx_stage_latency_us_max{stage=\"eval\"} 4000"));
        assert!(text.contains("cpqx_slow_queries_total 1"));
        // Label values are escaped.
        assert!(text.contains("key=\"(f\\\"quoted\\\")\""));
        // Every line is a comment or a `name{...} value` sample.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.rsplit_once(' ').is_some(), "bad line {line:?}");
        }
    }

    #[test]
    fn empty_report_renders_counters_only() {
        let text = render_prometheus(&WireMetrics::default());
        assert!(text.contains("cpqx_epoch 0"));
        assert!(!text.contains("cpqx_op_latency_us"));
        assert!(!text.contains("cpqx_workload_queries_total{"));
    }

    #[test]
    fn every_registry_entry_renders_with_help_and_type() {
        let m = WireMetrics {
            counters: Metric::ALL.iter().map(|&m| sample(m, 7)).collect(),
            ..WireMetrics::default()
        };
        let text = render_prometheus(&m);
        for metric in Metric::ALL {
            let name = metric.name();
            let series: Vec<&str> =
                text.lines().filter(|l| l.split(' ').next() == Some(name)).collect();
            assert_eq!(series, [format!("{name} 7")], "{name}");
            assert!(text.contains(&format!("# HELP {name} {}", metric.help())), "{name}");
            assert!(text.contains(&format!("# TYPE {name} {}\n", metric.kind().name())), "{name}");
        }
        // A name this build does not know still renders, without HELP.
        let unknown = WireMetrics {
            counters: vec![WireSample {
                name: "cpqx_future_total".into(),
                kind: cpqx_obs::MetricKind::Counter,
                value: 2,
            }],
            ..WireMetrics::default()
        };
        let text = render_prometheus(&unknown);
        assert!(text.contains("# TYPE cpqx_future_total counter\ncpqx_future_total 2"));
        assert!(!text.contains("# HELP cpqx_future_total"));
    }
}
