//! The benchmark's metric tables — the names, units and bounds
//! `BENCHMARK.json` declares — and the result line built from them.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.  `bound` is the share of the parent's median an
/// end-to-end metric may worsen by; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the stack sees; every workload reports all seven.  The
/// last four are simulated quantities: they do not depend on the host and
/// repeat exactly for a seed, so a change meant only to speed things up
/// must leave them identical.  Three of them are stated as the share that
/// went right (1 − failure rate, 1000 − forced invalidations per 1000
/// ops, 1 − mismatching trials) because a metric compared as a share of
/// its parent's median must never be 0; their bound of one in ten million
/// is below what a single failed operation in one trial moves them by.
/// `avg_insert_attempts` differs between seeds by up to 0.17 %, so its
/// bound is three times that: one insertion in two hundred taking one
/// attempt more.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("ops_per_s", "op/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("ok_ratio", "ratio", Higher, 0.0000001),
    e2e("avg_insert_attempts", "attempts", Lower, 0.005),
    e2e("unforced_per_kop", "1/kop", Higher, 0.0000001),
    e2e("stats_match_ratio", "ratio", Higher, 0.0000001),
];

/// Costs and counts of single layers, measured from outside around the
/// crates' public functions in the traced run.  A layer that does no work
/// on a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("workloads.gen_ns_per_ref", "ns", Lower),
    layer("tiles.access_ns_per_ref", "ns", Lower),
    layer("tiles.miss_ratio", "ratio", Lower),
    layer("sim.run_ns_per_ref", "ns", Lower),
    layer("sim.build_s", "s", Lower),
    layer("sim.report_ns", "ns", Lower),
    layer("sim.dir_ops_per_ref", "ratio", Lower),
    layer("sim.occupancy", "ratio", Lower),
    layer("hash.index_all_ns_per_key", "ns", Lower),
    layer("cuckoo.find_hit_ns", "ns", Lower),
    layer("cuckoo.find_miss_ns", "ns", Lower),
    layer("cuckoo.get_single_ns", "ns", Lower),
    layer("cuckoo.insert_ns", "ns", Lower),
    layer("cuckoo.remove_ns", "ns", Lower),
    layer("cuckoo.occupancy", "ratio", Lower),
    layer("cuckoo.insert_attempts_p99", "attempts", Lower),
    layer("cuckoo.insert_fail_ratio", "ratio", Lower),
    layer("directory.apply_batch_ns_per_op", "ns", Lower),
    layer("directory.apply_ns_per_op", "ns", Lower),
    layer("directory.sharded_apply_ns_per_op", "ns", Lower),
    layer("directory.build_s", "s", Lower),
    layer("directory.bytes_per_entry", "B", Lower),
    layer("directory.hit_ratio", "ratio", Higher),
    layer("directory.alloc_per_kop", "1/kop", Lower),
    layer("directory.removal_per_kop", "1/kop", Lower),
    layer("directory.inval_per_kop", "1/kop", Lower),
    layer("sharers.update_ns_per_op", "ns", Lower),
    layer("service.serial_ns_per_op", "ns", Lower),
    layer("service.serial_noout_ns_per_op", "ns", Lower),
    layer("service.outcome_log_ns_per_op", "ns", Lower),
    layer("service.route_ns_per_op", "ns", Lower),
    layer("service.digest_ns_per_record", "ns", Lower),
    layer("service.build_s", "s", Lower),
    layer("service.minor_faults_per_kop", "1/kop", Lower),
    layer("service.log_bytes_per_op", "B", Lower),
    layer("service.run_w1_ns_per_op", "ns", Lower),
    layer("service.run_w1_cpu_ns_per_op", "ns", Lower),
    layer("service.hop_ns_per_op", "ns", Lower),
    layer("service.run_w1_spread", "ratio", Lower),
    layer("channel.send_recv_ns", "ns", Lower),
    layer("stats.record_ns", "ns", Lower),
    layer("obs.armed_overhead", "ratio", Lower),
    layer("chunk.p50_ns_per_op", "ns", Lower),
    layer("chunk.p99_ns_per_op", "ns", Lower),
    layer("chunk.samples", "count", Higher),
    layer("trace.overhead", "ratio", Lower),
    layer("layers.residual_ns_per_op", "ns", Lower),
];

/// Metric values of one run, keyed by a declared name.
#[derive(Debug)]
pub struct Values {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn new(table: &'static [MetricDef]) -> Self {
        Values {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value: both are bugs
    /// in the benchmark, not results.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .table
            .iter()
            .find(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every declared metric in table order; an unset per-layer metric is
    /// 0 (its layer did no work on this workload).
    ///
    /// # Panics
    ///
    /// Panics when a bounded (end-to-end) metric was never set.
    pub fn rows(&self) -> Vec<(MetricDef, f64)> {
        self.table
            .iter()
            .map(|def| {
                let value = self.get(def.name).unwrap_or_else(|| {
                    assert!(def.bound.is_none(), "metric `{}` was never set", def.name);
                    0.0
                });
                (*def, value)
            })
            .collect()
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .rows()
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-/%".contains(c);
        !name.is_empty() && name.len() <= max && name.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(def.name, 64) && !def.name.contains(['/', '%']));
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(def.unit, 16), "{}", def.unit);
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|def| def.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(PER_LAYER.iter().all(|def| def.bound.is_none()));
        let setup = END_TO_END.iter().find(|def| def.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|def| def.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut values = Values::new(&PER_LAYER);
        values.set("hash.index_all_ns_per_key", 3.25);
        let line = result_line(true, 10, 0, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"hash.index_all_ns_per_key\": {\"value\": 3.25, \"unit\": \"ns\"}"));
        assert!(line.contains("\"sim.build_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn an_unset_end_to_end_metric_is_a_bug() {
        Values::new(&END_TO_END).rows();
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// above from drifting apart.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("section ends") + start;
            text[start..end].to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), table.len(), "{key}");
            for def in table {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    def.name,
                    def.unit,
                    def.better.as_str()
                );
                let at = body
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{key}: {entry}"));
                if let Some(bound) = def.bound {
                    let rest = &body[at + entry.len()..];
                    assert!(
                        rest.starts_with(&format!(", \"bound\": {bound}}}")),
                        "{entry}"
                    );
                }
            }
        }
    }

    /// The benchmark is measured as a package of its own, whose manifest
    /// cannot inherit the workspace's release profile; this fails when the
    /// two stop agreeing, so the measured build stays the build users get.
    #[test]
    fn own_manifest_mirrors_the_workspace_release_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|line| line.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|line| !line.starts_with('['))
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .collect()
        }
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(
            !workspace.is_empty(),
            "the workspace sets a release profile"
        );
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }
}
