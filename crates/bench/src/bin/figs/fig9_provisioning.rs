//! Figure 9 — Cuckoo directory insertion attempts and failure rates across
//! provisioning factors.
//!
//! Sweeps the same under- to over-provisioned Cuckoo organizations the paper
//! evaluates for the Shared-L2 and Private-L2 configurations, averaging the
//! insertion attempts and forced-invalidation rates over the full workload
//! suite.

use crate::{explicit_cuckoo_sweep, Context};
use ccd_bench::sweep::cuckoo_org_label;
use ccd_bench::{RunScale, SweepSpec};
use ccd_coherence::Hierarchy;
use ccd_common::{json::Json, obj};
use ccd_workloads::WorkloadProfile;

/// The per-slice Cuckoo organizations of Figure 9 for one hierarchy, as
/// `(ways, sets, provisioning)` triples in the figure's order.
fn organizations(hierarchy: Hierarchy) -> &'static [(usize, usize, &'static str)] {
    match hierarchy {
        Hierarchy::SharedL2 => &[
            (4, 1024, "2x"),
            (3, 1024, "1.5x"),
            (4, 512, "1x"),
            (3, 512, "3/4x"),
            (4, 256, "1/2x"),
            (3, 256, "3/8x"),
        ],
        Hierarchy::PrivateL2 => &[
            (4, 8192, "2x"),
            (3, 8192, "1.5x"),
            (8, 2048, "1x"),
            (3, 4096, "3/4x"),
            (8, 1024, "1/2x"),
            (3, 2048, "3/8x"),
        ],
    }
}

/// The provisioning sweep of one hierarchy: its six organizations over the
/// full workload suite.
fn sweep(hierarchy: Hierarchy, scale: RunScale) -> SweepSpec {
    let orgs: Vec<(usize, usize)> = organizations(hierarchy)
        .iter()
        .map(|&(ways, sets, _)| (ways, sets))
        .collect();
    explicit_cuckoo_sweep("Figure 9 provisioning", hierarchy, &orgs)
        .workloads(WorkloadProfile::all_paper_workloads())
        .scale(scale)
        .base_seed(0xF19)
}

pub fn run(context: &Context) -> Vec<Json> {
    let mut rows = Vec::new();
    for hierarchy in [Hierarchy::SharedL2, Hierarchy::PrivateL2] {
        let results = sweep(hierarchy, context.scale)
            .run_with(&context.runner)
            .expect("simulation failed");
        for &(ways, sets, provisioning) in organizations(hierarchy) {
            let org_label = cuckoo_org_label(ways, sets);
            let mean = |metric: fn(&ccd_coherence::SimReport) -> f64| {
                results
                    .mean_where(|c| c.org == org_label, metric)
                    .expect("the sweep labels its cells with cuckoo_org_label")
            };
            rows.push(obj! {
                "configuration": hierarchy.to_string(),
                "organization": format!("{ways} x {sets}"),
                "provisioning": provisioning,
                "avg_insertion_attempts": mean(|r| r.avg_insertion_attempts()),
                "forced_invalidation_rate_percent": mean(|r| r.forced_invalidation_rate()) * 100.0,
            });
        }
    }
    vec![Json::Arr(rows)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_covers_six_orgs_and_the_full_suite() {
        for hierarchy in [Hierarchy::SharedL2, Hierarchy::PrivateL2] {
            let sweep = sweep(hierarchy, RunScale::quick());
            assert_eq!(sweep.orgs.len(), 6);
            assert_eq!(sweep.workloads.len(), 9);
            assert_eq!(sweep.len(), 6 * 9);
        }
    }
}
