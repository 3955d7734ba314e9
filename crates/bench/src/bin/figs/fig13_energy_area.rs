//! Figure 13 — analytical power and area comparison of directory
//! organizations for 16–1024 cores, Shared-L2 and Private-L2.

use crate::fig4_scalability::series;
use crate::Context;
use ccd_common::{json::Json, obj};
use ccd_energy::{DirOrg, EnergyModel};

pub fn run(context: &Context) -> Vec<Json> {
    let cores = EnergyModel::paper_core_counts();
    let mut rows = Vec::new();
    for (hierarchy, model, shared) in [
        ("Shared-L2", EnergyModel::shared_l2(), true),
        ("Private-L2", EnergyModel::private_l2(), false),
    ] {
        let orgs = DirOrg::figure13_set(shared);
        for (organization, energy_percent, area_percent) in series(context, &model, &orgs) {
            rows.push(obj! {
                "hierarchy": hierarchy,
                "organization": organization,
                "cores": cores,
                "energy_percent": energy_percent,
                "area_percent": area_percent,
            });
        }
    }
    vec![Json::Arr(rows)]
}
