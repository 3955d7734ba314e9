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
    fn json_rendering_is_deterministic_and_exact() {
        let text = render_json(&sample());
        assert_eq!(text, render_json(&sample()), "equal snapshots, equal bytes");
        // 2^53 + 1 is written digit for digit: no integer passes through f64.
        assert_eq!(
            text,
            r#"{
  "counters": {
    "requests": 1000,
    "exact": 9007199254740993
  },
  "histograms": [
    {
      "name": "probe_depth",
      "sig_bits": 2,
      "count": 5,
      "sum": 17,
      "min": 1,
      "max": 9,
      "p50": 2,
      "p99": 9,
      "p999": 9,
      "buckets": [[1, 2], [2, 1], [4, 1], [9, 1]]
    }
  ]
}
"#
        );
    }

    #[test]
    fn json_handles_empty_snapshots() {
        let text = render_json(&MetricSnapshot::default());
        assert_eq!(text, "{\n  \"counters\": {},\n  \"histograms\": []\n}\n");
    }
}
