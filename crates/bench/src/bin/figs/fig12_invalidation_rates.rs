//! Figure 12 — forced-invalidation rates of competing directory
//! organizations.
//!
//! For every workload and both system configurations, compares the
//! forced-invalidation rate (forced evictions per directory insertion) of:
//! (a) an 8-way Sparse directory with 2× capacity, (b) an 8-way Sparse with
//! 8× capacity, (c) a 4-way skewed-associative directory with 2× capacity,
//! and (d) the selected Cuckoo directory (1× Shared-L2 / 1.5× Private-L2).

use crate::Context;
use ccd_bench::SweepSpec;
use ccd_coherence::{DirectorySpec, Hierarchy, SystemConfig};
use ccd_common::{json::Json, obj};
use ccd_workloads::WorkloadProfile;

pub fn run(context: &Context) -> Vec<Json> {
    let mut rows = Vec::new();
    for hierarchy in [Hierarchy::SharedL2, Hierarchy::PrivateL2] {
        let cuckoo = match hierarchy {
            Hierarchy::SharedL2 => DirectorySpec::cuckoo(4, 1.0),
            Hierarchy::PrivateL2 => DirectorySpec::cuckoo(3, 1.5),
        };
        let results = SweepSpec::new(format!("Figure 12 ({hierarchy})"))
            .system(hierarchy.to_string(), SystemConfig::table1(hierarchy))
            .org("Sparse 2x", DirectorySpec::sparse(8, 2.0))
            .org("Sparse 8x", DirectorySpec::sparse(8, 8.0))
            .org("Skewed 2x", DirectorySpec::skewed(4, 2.0))
            .org("Cuckoo", cuckoo)
            .workloads(WorkloadProfile::all_paper_workloads())
            .scale(context.scale)
            .base_seed(0xF12)
            .run_with(&context.runner)
            .expect("simulation failed");

        for workload in WorkloadProfile::all_paper_workloads() {
            let percent = |org: &str| {
                results
                    .find(&hierarchy.to_string(), org, workload.name)
                    .expect("sweep covers the full cross product")
                    .report
                    .forced_invalidation_rate()
                    * 100.0
            };
            rows.push(obj! {
                "configuration": hierarchy.to_string(),
                "workload": workload.name,
                "sparse_2x_percent": percent("Sparse 2x"),
                "sparse_8x_percent": percent("Sparse 8x"),
                "skewed_2x_percent": percent("Skewed 2x"),
                "cuckoo_percent": percent("Cuckoo"),
            });
        }
    }
    vec![Json::Arr(rows)]
}
