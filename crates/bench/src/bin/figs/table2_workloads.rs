//! Table 2 — workload parameters.
//!
//! The synthetic stand-ins for the paper's workload suite: the footprint
//! and access-mix parameters each generator is calibrated to (see
//! `ccd-workloads` and ARCHITECTURE.md for the substitution rationale).

use crate::Context;
use ccd_common::{json::Json, obj};
use ccd_workloads::WorkloadProfile;

pub fn run(_: &Context) -> Vec<Json> {
    let rows = WorkloadProfile::all_paper_workloads()
        .iter()
        .map(|w| {
            obj! {
                "name": w.name,
                "shared_code_blocks": w.shared_code_blocks,
                "shared_data_blocks": w.shared_data_blocks,
                "private_data_blocks": w.private_data_blocks,
                "ifetch_fraction": w.ifetch_fraction,
                "write_fraction": w.write_fraction,
                "shared_data_fraction": w.shared_data_fraction,
                "shared_skew": w.shared_skew,
                "private_skew": w.private_skew,
            }
        })
        .collect();
    vec![Json::Arr(rows)]
}
