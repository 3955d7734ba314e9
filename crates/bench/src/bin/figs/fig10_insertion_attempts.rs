//! Figure 10 — average insertion attempts per workload for the selected
//! Cuckoo organizations (4×512 Shared-L2, 3×8192 Private-L2).

use crate::{explicit_cuckoo_sweep, selected_cuckoo, Context};
use ccd_bench::SweepResults;
use ccd_coherence::Hierarchy;
use ccd_common::{json::Json, obj};
use ccd_workloads::WorkloadProfile;

/// One sweep per hierarchy, each over its own selected Cuckoo geometry.
fn attempts(context: &Context, hierarchy: Hierarchy, base_seed: u64) -> SweepResults {
    explicit_cuckoo_sweep("Figure 10", hierarchy, &[selected_cuckoo(hierarchy)])
        .workloads(WorkloadProfile::all_paper_workloads())
        .scale(context.scale)
        .base_seed(base_seed)
        .run_with(&context.runner)
        .expect("simulation failed")
}

pub fn run(context: &Context) -> Vec<Json> {
    let shared = attempts(context, Hierarchy::SharedL2, 0xA10);
    let private = attempts(context, Hierarchy::PrivateL2, 0xA11);
    // Each sweep has one system and one organization: a cell per workload.
    let of = |results: &SweepResults, workload: &str| {
        let cell = results.select(|c| c.workload == workload).next();
        cell.expect("sweep covers the full suite")
            .report
            .avg_insertion_attempts()
    };
    let rows = WorkloadProfile::all_paper_workloads()
        .iter()
        .map(|profile| {
            obj! {
                "workload": profile.name,
                "shared_l2_attempts": of(&shared, profile.name),
                "private_l2_attempts": of(&private, profile.name),
            }
        })
        .collect();
    vec![Json::Arr(rows)]
}
