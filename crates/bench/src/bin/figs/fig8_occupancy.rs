//! Figure 8 — average directory occupancy per workload.
//!
//! Runs every paper workload on the 16-core Shared-L2 and Private-L2
//! systems and reports the average directory occupancy *relative to the
//! worst-case tracked blocks* (a 1× capacity directory), which is how the
//! paper motivates that the Shared-L2 configuration needs no
//! over-provisioning while the Private-L2 configuration needs ~1.5×
//! (Section 5.2).

use crate::Context;
use ccd_bench::SweepSpec;
use ccd_coherence::{DirectorySpec, Hierarchy, SystemConfig};
use ccd_common::{json::Json, obj};
use ccd_workloads::WorkloadProfile;

/// Rescales a reported occupancy (relative to the amply provisioned 2x
/// measurement directory) to the worst-case 1x capacity.
fn rescale(system: &SystemConfig, occupancy: f64) -> f64 {
    let capacity_per_slice = 4.0
        * ((system.tracked_frames_per_slice() as f64 * 2.0 / 4.0).ceil() as usize)
            .next_power_of_two() as f64;
    occupancy * capacity_per_slice / system.tracked_frames_per_slice() as f64
}

pub fn run(context: &Context) -> Vec<Json> {
    let shared = SystemConfig::table1(Hierarchy::SharedL2);
    let private = SystemConfig::table1(Hierarchy::PrivateL2);

    // An amply provisioned (2x) Cuckoo directory, so no forced evictions
    // perturb the measurement; the occupancy is rescaled to 1x below.
    let results = SweepSpec::new("Figure 8 occupancy")
        .system("Shared-L2", shared.clone())
        .system("Private-L2", private.clone())
        .org("Cuckoo 2x", DirectorySpec::cuckoo(4, 2.0))
        .workloads(WorkloadProfile::all_paper_workloads())
        .scale(context.scale)
        .base_seed(0x0CC)
        .run_with(&context.runner)
        .expect("simulation failed");

    let rows = WorkloadProfile::all_paper_workloads()
        .iter()
        .map(|profile| {
            let occupancy = |label: &str, system: &SystemConfig| {
                let cell = results
                    .find(label, "Cuckoo 2x", profile.name)
                    .expect("sweep covers the full cross product");
                rescale(system, cell.report.avg_directory_occupancy)
            };
            obj! {
                "workload": profile.name,
                "shared_l2_occupancy": occupancy("Shared-L2", &shared),
                "private_l2_occupancy": occupancy("Private-L2", &private),
            }
        })
        .collect();
    vec![Json::Arr(rows)]
}
