//! Metric exposition: deterministic JSON.
//!
//! The renderer consumes a [`MetricSnapshot`] — integer-only counters and
//! histogram summaries in a fixed push order — and emits nothing but
//! integers in a fixed field order, so equal snapshots render to
//! byte-identical strings.  This is what lets the service stack assert its
//! merged-metrics determinism contract at the *serialized* level: a serial
//! run and an N-worker run must produce the same bytes here, not merely
//! "equivalent" numbers.  Counters are written as their exact digits
//! (`ccd_common::json` never routes an integer through `f64`).

use ccd_common::json::{Json, ToJson};
use ccd_common::{obj, MetricSnapshot};

/// Renders a snapshot as pretty-printed JSON.
///
/// Counters become an object (push order), histograms an array of
/// objects with their quantile summary and non-empty `[upper_edge, count]`
/// buckets, each bucket list on one line.
#[must_use]
pub fn render_json(snapshot: &MetricSnapshot) -> String {
    let counters = snapshot
        .counters
        .iter()
        .map(|(name, value)| (name.clone(), value.to_json()))
        .collect();
    let histograms = snapshot
        .histograms
        .iter()
        .map(|hist| {
            obj! {
                "name": hist.name,
                "sig_bits": hist.sig_bits,
                "count": hist.count,
                "sum": hist.sum,
                "min": hist.min,
                "max": hist.max,
                "p50": hist.p50,
                "p99": hist.p99,
                "p999": hist.p999,
                "buckets": hist.buckets,
            }
        })
        .collect();
    let tree = obj! { "counters": Json::Obj(counters), "histograms": Json::Arr(histograms) };
    // Root, histogram list, histogram: the bucket lists are level 3.
    tree.to_pretty_folded(3) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::json::parse;
    use ccd_common::LogHistogram;

    fn sample() -> MetricSnapshot {
        let mut depth = LogHistogram::new(2);
        for v in [1u64, 1, 2, 4, 9] {
            depth.record(v);
        }
        let mut snapshot = MetricSnapshot::default();
        snapshot.push_counter("requests", 1000);
        snapshot.push_counter("exact", (1 << 53) + 1);
        snapshot.push_histogram("probe_depth", &depth);
        snapshot
    }

    #[test]
    fn json_rendering_is_deterministic_and_parses_back_exactly() {
        let snapshot = sample();
        let text = render_json(&snapshot);
        assert_eq!(text, render_json(&sample()), "equal snapshots, equal bytes");
        assert!(text.contains("\"exact\": 9007199254740993"), "{text}");

        let doc = parse(&text).unwrap();
        for (name, value) in &snapshot.counters {
            let parsed = doc.get("counters").and_then(|c| c.get(name));
            assert_eq!(parsed.and_then(Json::as_u64), Some(*value), "{name}");
        }
        let hists = doc.get("histograms").and_then(Json::as_array).unwrap();
        assert_eq!(hists.len(), snapshot.histograms.len());
        for (parsed, h) in hists.iter().zip(&snapshot.histograms) {
            for (key, want) in [
                ("name", h.name.to_json()),
                ("sig_bits", h.sig_bits.to_json()),
                ("count", h.count.to_json()),
                ("sum", h.sum.to_json()),
                ("min", h.min.to_json()),
                ("max", h.max.to_json()),
                ("p50", h.p50.to_json()),
                ("p99", h.p99.to_json()),
                ("p999", h.p999.to_json()),
                ("buckets", h.buckets.to_json()),
            ] {
                assert_eq!(parsed.get(key), Some(&want), "{} {key}", h.name);
            }
        }
    }

    #[test]
    fn json_handles_empty_snapshots() {
        let text = render_json(&MetricSnapshot::default());
        assert_eq!(text, "{\n  \"counters\": {},\n  \"histograms\": []\n}\n");
    }
}
