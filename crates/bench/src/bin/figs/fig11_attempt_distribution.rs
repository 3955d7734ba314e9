//! Figure 11 — worst-case insertion-attempt distributions.
//!
//! The full insertion-attempt histogram for the two worst-case
//! combinations the paper identifies: OLTP Oracle on the Shared-L2
//! configuration and ocean on the Private-L2 configuration, using the
//! selected 4×512 and 3×8192 Cuckoo organizations.  `percent_by_attempts`
//! pairs an attempt count with the share of insert operations that took it.

use crate::{explicit_cuckoo_sweep, selected_cuckoo, Context};
use ccd_coherence::Hierarchy;
use ccd_common::{json::Json, obj};
use ccd_workloads::WorkloadProfile;

/// The worst-case point of one hierarchy, run as a single-cell sweep.
fn distribution(
    context: &Context,
    label: &str,
    hierarchy: Hierarchy,
    profile: WorkloadProfile,
) -> Json {
    let results = explicit_cuckoo_sweep("Figure 11", hierarchy, &[selected_cuckoo(hierarchy)])
        .workload(profile)
        .scale(context.scale)
        .base_seed(0xF11)
        .run_with(&context.runner)
        .expect("simulation failed");
    assert_eq!(results.cells.len(), 1, "a single cell by construction");
    let hist = &results.cells[0].report.directory.insertion_attempts;
    let percent_by_attempts: Vec<(u64, f64)> = (0..=hist.max_value())
        .map(|a| (a, hist.fraction(a) * 100.0))
        .filter(|&(a, pct)| a > 0 && (pct > 0.0 || a <= 8))
        .collect();
    obj! { "label": label, "percent_by_attempts": percent_by_attempts }
}

pub fn run(context: &Context) -> Vec<Json> {
    let oracle = distribution(
        context,
        "OLTP Oracle (Shared-L2, 4x512)",
        Hierarchy::SharedL2,
        WorkloadProfile::oracle(),
    );
    let ocean = distribution(
        context,
        "ocean (Private-L2, 3x8192)",
        Hierarchy::PrivateL2,
        WorkloadProfile::ocean(),
    );
    vec![Json::Arr(vec![oracle, ocean])]
}
