//! Metric exposition: deterministic JSON.
//!
//! The renderer consumes a [`MetricSnapshot`] — integer-only counters and
//! histogram summaries in a fixed push order — and emits nothing but
//! integers in a fixed field order, so equal snapshots render to
//! byte-identical strings.  This is what lets the service stack assert its
//! merged-metrics determinism contract at the *serialized* level: a serial
//! run and an N-worker run must produce the same bytes here, not merely
//! "equivalent" numbers.

use ccd_common::{HistogramSnapshot, MetricSnapshot};
use std::fmt::Write as _;

/// Renders a snapshot as pretty-printed JSON.
///
/// Counters become an object (push order), histograms an array of
/// objects with their quantile summary and non-empty `[upper_edge, count]`
/// buckets.
#[must_use]
pub fn render_json(snapshot: &MetricSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        let sep = if i + 1 < snapshot.counters.len() {
            ","
        } else {
            ""
        };
        let _ = write!(out, "\n    \"{name}\": {value}{sep}");
    }
    if snapshot.counters.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
    out.push_str("  \"histograms\": [");
    for (i, hist) in snapshot.histograms.iter().enumerate() {
        render_histogram_json(hist, &mut out);
        if i + 1 < snapshot.histograms.len() {
            out.push(',');
        }
    }
    if snapshot.histograms.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn render_histogram_json(hist: &HistogramSnapshot, out: &mut String) {
    let _ = write!(
        out,
        "\n    {{\n      \"name\": \"{}\",\n      \"sig_bits\": {},\n      \
         \"count\": {},\n      \"sum\": {},\n      \"min\": {},\n      \
         \"max\": {},\n      \"p50\": {},\n      \"p99\": {},\n      \
         \"p999\": {},\n      \"buckets\": [",
        hist.name,
        hist.sig_bits,
        hist.count,
        hist.sum,
        hist.min,
        hist.max,
        hist.p50,
        hist.p99,
        hist.p999
    );
    for (i, (upper, count)) in hist.buckets.iter().enumerate() {
        let sep = if i + 1 < hist.buckets.len() { "," } else { "" };
        let _ = write!(out, "[{upper}, {count}]{sep}");
    }
    out.push_str("]\n    }");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::LogHistogram;

    fn sample() -> MetricSnapshot {
        let mut depth = LogHistogram::new(2);
        for v in [1u64, 1, 2, 4, 9] {
            depth.record(v);
        }
        let mut snapshot = MetricSnapshot::default();
        snapshot.push_counter("requests", 1000);
        snapshot.push_histogram("probe_depth", &depth);
        snapshot
    }

    #[test]
    fn json_rendering_is_deterministic_and_structured() {
        let a = render_json(&sample());
        let b = render_json(&sample());
        assert_eq!(a, b, "equal snapshots must render byte-identically");
        assert!(a.contains("\"requests\": 1000"));
        assert!(a.contains("\"name\": \"probe_depth\""));
        assert!(a.contains("\"count\": 5"));
        assert!(a.contains("\"min\": 1"));
        assert!(a.contains("\"max\": 9"));
        // Valid-enough JSON: braces and brackets balance.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                a.matches(open).count(),
                a.matches(close).count(),
                "unbalanced {open}{close} in:\n{a}"
            );
        }
    }

    #[test]
    fn json_handles_empty_snapshots() {
        let text = render_json(&MetricSnapshot::default());
        assert!(text.contains("\"counters\": {}"));
        assert!(text.contains("\"histograms\": []"));
    }
}
